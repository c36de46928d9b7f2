// ServeEngine's request lifecycle: submit, admission, start of prefill,
// preemption, cancel, retry, fail and retire. Everything here runs on the
// main thread's sequential phases; cycle stamps and trace events ride the
// lane so they see the DRAM clock the sequential engine would show.
#include <algorithm>

#include "common/require.h"
#include "serve/serve_engine.h"

namespace topick::serve {

void ServeEngine::submit(const wl::ArrivalEvent& event) {
  require(requests_.empty() || event.step >= requests_.back().event.step,
          "ServeEngine::submit: arrivals must be in step order");
  // Outstanding lane jobs hold indices into requests_; drain before the
  // push_back below can reallocate under them. No-op unless pipelined.
  lane_.drain();
  // The stream itself is built at first admission (begin_prefill); reject
  // here what make_decode_stream would reject there.
  require(event.decode_len == 0 || event.prompt_len > 0,
          "ServeEngine::submit: a request that decodes needs a prompt");
  Request request;
  request.event = event;
  const bool moves = requests_.size() == requests_.capacity();
  requests_.push_back(std::move(request));
  if (moves) {
    // Every request moved, its stream with it: live slots regenerate rows
    // from the stream's new address.
    for (std::size_t r = 0; r + 1 < requests_.size(); ++r) {
      if (slots_[r] == nullptr) continue;
      for (Head& h : slots_[r]->heads) {
        h.source.set_stream(&requests_[r].stream);
      }
    }
  }
  slots_.emplace_back(nullptr);
  dram_.add_request();
  ++metrics_.requests_submitted;
  ++class_metrics(requests_.back()).submitted;
}

void ServeEngine::submit_trace(const std::vector<wl::ArrivalEvent>& trace) {
  for (const auto& event : trace) submit(event);
}

std::uint64_t ServeEngine::replay_cost_bits(const Request& request) const {
  return static_cast<std::uint64_t>(request.event.prompt_len +
                                    request.generated) *
         token_write_bits_;
}

std::size_t ServeEngine::pages_for_prefill(const Request& request) const {
  // Tokens the (re)prefill appends, plus one decode token of headroom so the
  // admission itself can always take its first step.
  const std::size_t tokens =
      request.event.prompt_len + request.generated + 1;
  const std::size_t pages_per_head =
      (tokens + config_.page_tokens - 1) / config_.page_tokens;
  return pages_per_head * static_cast<std::size_t>(config_.n_layer) *
         config_.n_head;
}

obs::TraceEvent ServeEngine::lifecycle_event(std::size_t request, char phase,
                                             const char* name,
                                             std::size_t step) {
  obs::TraceEvent e;
  e.name = name;
  e.cat = "request";
  e.phase = phase;
  e.domain = obs::TraceDomain::request;
  e.id = request;
  if (phase != 'e') e.arg("step", static_cast<double>(step));
  return e;
}

void ServeEngine::trace_lifecycle(std::size_t request, char phase,
                                  const char* name,
                                  std::initializer_list<obs::TraceArg> args) {
  if (trace_ == nullptr) return;
  obs::TraceEvent e = lifecycle_event(request, phase, name, now_);
  for (const obs::TraceArg& a : args) e.arg(a.key, a.value);
  // Stamped when the lane reaches the event: pipelined, every earlier step's
  // replay has landed by then, so the cycle stamp matches the sequential
  // engine's exactly.
  lane_.submit([this, e] { record_stamped(e); });
}

void ServeEngine::record_ttft_slo(const Request& req, bool met) {
  if (req.event.slo_ttft_steps == 0) return;
  ClassMetrics& cls = class_metrics(req);
  ++cls.slo_ttft_tracked;
  if (met) ++cls.slo_ttft_met;
}

void ServeEngine::record_latency_slo(const Request& req, bool met) {
  if (req.event.slo_latency_steps == 0) return;
  ClassMetrics& cls = class_metrics(req);
  ++cls.slo_latency_tracked;
  if (met) ++cls.slo_latency_met;
}

void ServeEngine::admit_due_requests() {
  while (next_arrival_ < requests_.size() &&
         requests_[next_arrival_].event.step <= now_) {
    const std::size_t r = next_arrival_++;
    Request& req = requests_[r];
    // Cycle stamps ride the lane: earlier steps' replays may still be in
    // flight, and the arrival must see the clock the sequential engine would
    // show after them. The lane owns every *_cycle field.
    lane_.submit([this, r] { requests_[r].arrival_cycle = dram_.cycle(); });
    trace_lifecycle(r, 'b', "request");
    if (req.event.decode_len == 0) {
      // Nothing to generate: retire at arrival without taking a slot, pool
      // pages, or a spurious decode step's DRAM traffic.
      req.state = RequestState::finished;
      req.admit_step = now_;
      req.finish_step = now_;
      lane_.submit([this, r] {
        requests_[r].finish_cycle = requests_[r].arrival_cycle;
      });
      ++metrics_.requests_retired;
      ++class_metrics(req).retired;
      // Retired in zero steps: both SLOs count as trivially met so the two
      // attainment denominators cover the same request population.
      record_ttft_slo(req, true);
      record_latency_slo(req, true);
      trace_lifecycle(r, 'e', "request");
    } else {
      req.enqueue_step = req.event.step;  // queued-stint clock starts
      batcher_.queue().push_arrival(r);
      trace_lifecycle(r, 'b', "queued");
    }
  }
  // Chunked prefill allocates pages lazily (prefill_chunk, later in the
  // step), so pages_free() alone no longer reflects same-step admissions.
  // Count the outstanding demand of every in-flight prefill as reserved to
  // keep the admission invariant: the front request admits only when the
  // pool can cover its whole (re)prefill.
  std::size_t reserved = 0;
  for (const std::size_t r : batcher_.running()) {
    if (requests_[r].state != RequestState::prefilling) continue;
    const std::size_t need = pages_for_prefill(requests_[r]);
    const std::size_t held = slots_[r]->pages_held();
    reserved += need > held ? need - held : 0;
  }
  while (!batcher_.queue().empty() && batcher_.has_slot() &&
         batcher_.has_prefill_slot()) {
    // Snapshot the queue for the policy's admission pick. Head-of-line
    // blocking applies to the *pick*: if the policy's choice does not fit,
    // admission stops — no skipping past it to a smaller request.
    const RequestQueue& queue = batcher_.queue();
    admission_scratch_.clear();
    admission_handles_.clear();
    std::size_t pos = 0;
    for (RequestQueue::Handle h = queue.first(); h != RequestQueue::kNone;
         h = queue.next(h), ++pos) {
      const std::size_t r = queue.request_of(h);
      const Request& req = requests_[r];
      AdmissionCandidate cand;
      cand.request = r;
      cand.priority = req.priority();
      cand.queue_pos = pos;
      // Aging input: steps spent *queued* — running time between a past
      // admission and a preemption must not pre-promote a re-entering
      // request.
      cand.wait_steps = req.queued_steps(now_);
      if (req.event.slo_ttft_steps > 0) {
        cand.slack_steps =
            static_cast<long long>(req.event.step + req.event.slo_ttft_steps) -
            static_cast<long long>(now_);
      }
      admission_scratch_.push_back(cand);
      admission_handles_.push_back(h);
    }
    const std::size_t pick = policy_->pick_admission(admission_scratch_);
    const std::size_t request = admission_scratch_[pick].request;
    // Admission control may REJECT (not just delay) a best_effort pick:
    // above the configured pool-utilization threshold, or whenever the
    // degradation controller is shedding. The rejection goes through the
    // retry path — the request backs off and may return, or fails once its
    // attempts are spent. The loop then re-snapshots the shrunken queue.
    if (requests_[request].priority() == wl::Priority::best_effort) {
      bool reject = degrade_.enabled() && degrade_.shed_best_effort();
      const double limit = config_.admission.reject_best_effort_utilization;
      if (!reject && limit > 0.0 && pool_.pages_total() > 0) {
        const std::size_t committed =
            pool_.pages_total() - pool_.pages_free() + reserved;
        reject = static_cast<double>(committed) >=
                 limit * static_cast<double>(pool_.pages_total());
      }
      if (reject) {
        cancel_request(request, CancelReason::rejected);
        continue;
      }
    }
    const std::size_t need = pages_for_prefill(requests_[request]);
    if (pool_.pages_free() < need + reserved) {
      // With an idle, fully-free pool this request can never fit — a config
      // error, not transient pressure.
      require(!batcher_.running().empty() ||
                  pool_.pages_free() < pool_.pages_total(),
              "ServeEngine: request prefill exceeds total pool pages");
      break;
    }
    batcher_.queue().erase(admission_handles_[pick]);
    begin_prefill(request);
    if (requests_[request].state == RequestState::prefilling) {
      batcher_.admit_prefill(request);
    } else {
      batcher_.admit(request);  // zero-length prompt: straight to decode
    }
    // Reserve in both branches: even a zero-prefill admission allocates its
    // first pages lazily (at its first decode append).
    reserved += need;
  }
}

void ServeEngine::begin_prefill(std::size_t request) {
  Request& req = requests_[request];
  // First admission builds the request's stream (row checkpoints and
  // queries); a preempted or retried request kept it, so its replay
  // regenerates the same rows.
  // The stream is a pure function of the event and the config at any pool
  // width, so building it here rather than at submit changes no bit.
  if (req.stream.heads.empty()) {
    req.stream = wl::make_decode_stream(config_.stream, req.event.prompt_len,
                                        req.event.decode_len, config_.n_layer,
                                        config_.n_head, req.event.stream_seed,
                                        &workers_);
  }
  // Close out the queued stint for the aging clock.
  req.queued_steps_accum = req.queued_steps(now_);
  req.enqueue_step = now_;
  auto slot = std::make_unique<Slot>(
      &pool_, config_,
      degrade_headroom_[static_cast<std::size_t>(req.priority())],
      req.stream);
  if (req.state == RequestState::queued) {
    req.admit_step = now_;
    const auto wait = static_cast<double>(req.queue_wait_steps());
    metrics_.queue_wait_step_samples.push_back(wait);
    class_metrics(req).queue_wait_step_samples.push_back(wait);
  }
  // Preempted requests recompute: prompt plus every already-generated token
  // re-enters the pool chunk by chunk (their K/V replay bit-identically from
  // the stream), and the replayed append traffic is charged again.
  req.prefill_target = req.event.prompt_len + req.generated;
  req.prefilled = 0;
  req.state = req.prefill_target == 0 ? RequestState::running
                                      : RequestState::prefilling;
  slots_[request] = std::move(slot);
  trace_lifecycle(request, 'e', "queued");
  trace_lifecycle(request, 'b',
                  req.state == RequestState::prefilling ? "prefill"
                                                        : "decode");
}

void ServeEngine::detach(std::size_t request, bool terminal) {
  if (slots_[request] != nullptr) {
    for (const Head& h : slots_[request]->heads) {
      metrics_.key_rows_requantized += h.qcache.key_rows_requantized();
      metrics_.value_rows_requantized += h.qcache.value_rows_requantized();
    }
    slots_[request]->release_all();
    slots_[request].reset();
    batcher_.retire(request);
    if (!terminal) cancel_step_work(request);
  }
  if (terminal) requests_[request].stream = {};
}

void ServeEngine::cancel_step_work(std::size_t request) {
  // A victim preempted mid-append-phase loses its same-step work: the pages
  // it appended this step are released with the rest of its slot, so neither
  // the attention phase nor the reduction may see its PendingWork. (Only the
  // append phase preempts, so pending_ holds at most one entry per request
  // and results_/active_ are not built yet.)
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].request == request) {
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void ServeEngine::do_preempt(std::size_t request) {
  Request& req = requests_[request];
  // Close the active state span before the state flips; prefilling requests
  // that completed their last chunk earlier this same step are already in
  // the "decode" state span.
  trace_lifecycle(request, 'e',
                  req.state == RequestState::prefilling ? "prefill"
                                                        : "decode");
  trace_lifecycle(request, 'n', "preempt");
  trace_lifecycle(request, 'b', "queued");
  detach(request, /*terminal=*/false);
  req.enqueue_step = now_;  // new queued stint starts now
  req.state = RequestState::preempted;
  ++req.preemptions;
  ++metrics_.preemptions;
  ++class_metrics(req).preemptions;
  batcher_.queue().push_preempted(request);
}

bool ServeEngine::preempt_for_pressure(std::size_t needy) {
  victim_scratch_.clear();
  const auto& running = batcher_.running();
  for (std::size_t order = 0; order < running.size(); ++order) {
    const std::size_t r = running[order];
    if (r == needy) continue;  // the needy request is never its own victim
    VictimCandidate cand;
    cand.request = r;
    cand.priority = requests_[r].priority();
    cand.admit_order = order;
    cand.pages_held = slots_[r]->pages_held();
    cand.replay_bits = replay_cost_bits(requests_[r]);
    // Filled only under deadline enforcement — deadline-free runs keep every
    // candidate at kNoSlack, leaving the policy's cost ordering untouched.
    cand.slack_steps = deadline_slack(requests_[r]);
    victim_scratch_.push_back(cand);
  }
  require(!victim_scratch_.empty(),
          "ServeEngine: pool exhausted with a single running request — "
          "pool_pages too small for the workload");
  std::size_t pick = 0;
  if (policy_->pick_victim(victim_scratch_, requests_[needy].priority(),
                           &pick)) {
    do_preempt(victim_scratch_[pick].request);
    return true;
  }
  // Every candidate outranks the needy request's class: it yields instead
  // of evicting a higher class — back to the queue, to re-admit (with a
  // full replay) once pages free up.
  do_preempt(needy);
  return false;
}

void ServeEngine::retire(std::size_t request) {
  Request& req = requests_[request];
  trace_lifecycle(request, 'e', "decode");
  trace_lifecycle(request, 'e', "request");
  detach(request, /*terminal=*/true);
  req.state = RequestState::finished;
  req.finish_step = now_;
  ++metrics_.requests_retired;
  ++class_metrics(req).retired;
  record_latency_slo(
      req, req.finish_step - req.event.step <= req.event.slo_latency_steps);
}

std::size_t ServeEngine::effective_deadline_steps(const Request& req) const {
  return req.event.deadline_steps > 0 ? req.event.deadline_steps
                                      : req.event.slo_latency_steps;
}

long long ServeEngine::deadline_slack(const Request& req) const {
  if (!config_.enforce_deadlines) return VictimCandidate::kNoSlack;
  const std::size_t deadline = effective_deadline_steps(req);
  if (deadline == 0) return VictimCandidate::kNoSlack;
  return static_cast<long long>(req.event.step + deadline) -
         static_cast<long long>(now_);
}

void ServeEngine::fail_request(std::size_t request) {
  Request& req = requests_[request];
  detach(request, /*terminal=*/true);
  req.state = RequestState::failed;
  req.finish_step = now_;
  ++metrics_.requests_failed;
  ++class_metrics(req).failed;
  // A failed request counts against its SLOs exactly once: TTFT only if no
  // first token was ever produced (reduce_pending already counted it
  // otherwise), latency always — both tracked and not met, so attainment
  // reflects failures instead of silently shrinking its denominator. No
  // cycle-domain stamps: the lane never hears about failures, keeping the
  // pipelined field partition intact (latency_cycles() reports 0).
  if (!req.first_token_recorded) record_ttft_slo(req, false);
  record_latency_slo(req, false);
  trace_lifecycle(request, 'e', "request");
}

void ServeEngine::cancel_request(std::size_t request, CancelReason reason) {
  Request& req = requests_[request];
  const RequestState prev = req.state;

  // Detach from wherever the request lives, releasing pages, quantized-cache
  // entries, and same-step recorded work exactly once.
  switch (prev) {
    case RequestState::prefilling:
    case RequestState::running:
      detach(request, /*terminal=*/false);
      break;
    case RequestState::queued:
    case RequestState::preempted: {
      RequestQueue& queue = batcher_.queue();
      for (RequestQueue::Handle h = queue.first(); h != RequestQueue::kNone;
           h = queue.next(h)) {
        if (queue.request_of(h) == request) {
          queue.erase(h);
          break;
        }
      }
      // Close the queued stint so the aging clock stays consistent if the
      // request retries.
      req.queued_steps_accum = req.queued_steps(now_);
      req.enqueue_step = now_;
      break;
    }
    case RequestState::backoff:
      backoff_.erase(std::find(backoff_.begin(), backoff_.end(), request));
      break;
    case RequestState::finished:
    case RequestState::failed:
      return;  // already terminal; nothing to cancel
  }
  // Reset the prefill cursor: a request cancelled mid-prefill must never
  // resume a stale cursor (begin_prefill recomputes the target from
  // prompt+generated on re-admission). The chunks it did complete were
  // charged at reduce time — this step's uncharged chunk died with its
  // PendingWork above, so replay traffic is charged exactly once per kept
  // chunk.
  req.prefilled = 0;
  req.prefill_target = 0;

  ClassMetrics& cls = class_metrics(req);
  if (reason == CancelReason::rejected) {
    ++metrics_.rejections;
    ++cls.rejections;
    trace_lifecycle(request, 'n', "reject");
  } else {
    ++metrics_.aborts;
    ++cls.aborts;
    if (reason == CancelReason::deadline) {
      ++metrics_.deadline_misses;
      ++cls.deadline_misses;
      trace_lifecycle(request, 'n', "deadline_miss");
    } else {
      trace_lifecycle(request, 'n', "abort");
    }
  }

  // queued/preempted/backoff all live inside the "queued" lifecycle span;
  // keep it open when the request merely moves to backoff.
  const bool in_queued_span = prev == RequestState::queued ||
                              prev == RequestState::preempted ||
                              prev == RequestState::backoff;
  const char* active_span = in_queued_span ? "queued"
                            : prev == RequestState::prefilling ? "prefill"
                                                               : "decode";
  // Deadline cancellations never retry: waiting longer cannot un-blow a
  // deadline. Fault aborts and rejections retry while attempts remain.
  const bool retryable = reason != CancelReason::deadline &&
                         req.attempts < config_.retry.max_retries;
  if (retryable) {
    ++req.attempts;
    req.retry_at_step = now_ + config_.retry.backoff_steps(req.attempts);
    req.state = RequestState::backoff;
    backoff_.push_back(request);
    if (!in_queued_span) {
      trace_lifecycle(request, 'e', active_span);
      trace_lifecycle(request, 'b', "queued");  // covers backoff + re-queue
    }
  } else {
    trace_lifecycle(request, 'e', active_span);
    fail_request(request);
  }
}

void ServeEngine::process_retries_and_faults() {
  // Retry re-entries first — a due request re-queues now and is visible to
  // this same step's admission phase. Collected then sorted by request index
  // so the queue order is independent of how backoff_ got permuted by
  // earlier erases.
  if (!backoff_.empty()) {
    retry_scratch_.clear();
    for (const std::size_t r : backoff_) {
      if (requests_[r].retry_at_step <= now_) retry_scratch_.push_back(r);
    }
    std::sort(retry_scratch_.begin(), retry_scratch_.end());
    for (const std::size_t r : retry_scratch_) {
      backoff_.erase(std::find(backoff_.begin(), backoff_.end(), r));
      Request& req = requests_[r];
      req.state = RequestState::queued;
      req.enqueue_step = now_;  // the backoff wait does not age the request
      batcher_.queue().push_arrival(r);
      ++metrics_.retries;
      ++class_metrics(req).retries;
      trace_lifecycle(r, 'n', "retry");
    }
  }

  // Abort faults (client disconnect / upstream cancel), walked in request
  // order over arrived, still-live requests — sequential and index-ordered,
  // so firing is identical at every thread count.
  if (injector_.enabled()) {
    for (std::size_t r = 0; r < next_arrival_; ++r) {
      Request& req = requests_[r];
      if (req.state == RequestState::finished ||
          req.state == RequestState::failed) {
        continue;
      }
      if (injector_.should_abort(req.event.request_id, now_)) {
        cancel_request(r, CancelReason::fault);
      }
    }
  }

  // Deadline enforcement: cancel anything strictly past its deadline
  // (finishing exactly at the deadline step still meets it, matching the
  // SLO accounting's <=).
  if (config_.enforce_deadlines) {
    for (std::size_t r = 0; r < next_arrival_; ++r) {
      Request& req = requests_[r];
      if (req.state == RequestState::finished ||
          req.state == RequestState::failed) {
        continue;
      }
      const std::size_t deadline = effective_deadline_steps(req);
      if (deadline > 0 && now_ > req.event.step + deadline) {
        cancel_request(r, CancelReason::deadline);
      }
    }
  }
}

void ServeEngine::update_degradation() {
  if (!degrade_.evaluates_at(now_)) return;
  // The controller's input signals. Pool occupancy reads the live pool;
  // interactive SLO attainment is windowed over the TTFT verdicts since the
  // previous evaluation (-1 = empty window, neutral signal).
  const double occupancy =
      pool_.pages_total() > 0
          ? 1.0 - static_cast<double>(pool_.pages_free()) /
                      static_cast<double>(pool_.pages_total())
          : 0.0;
  const ClassMetrics& interactive =
      metrics_.per_class[static_cast<std::size_t>(wl::Priority::interactive)];
  const std::size_t tracked =
      interactive.slo_ttft_tracked - slo_window_tracked_;
  const std::size_t met = interactive.slo_ttft_met - slo_window_met_;
  const double attainment =
      tracked > 0
          ? static_cast<double>(met) / static_cast<double>(tracked)
          : -1.0;
  slo_window_tracked_ = interactive.slo_ttft_tracked;
  slo_window_met_ = interactive.slo_ttft_met;
  if (degrade_.observe(now_, occupancy, attainment)) {
    ++metrics_.degradation_level_changes;
    metrics_.degradation_level = degrade_.level();
    for (std::size_t c = 0; c < wl::kPriorityCount; ++c) {
      const auto cls = static_cast<wl::Priority>(c);
      degrade_scale_[c] = degrade_.threshold_scale(cls);
      degrade_headroom_[c] = degrade_.headroom(cls);
    }
    if (trace_ != nullptr) {
      trace_->counter(0, obs::TraceDomain::engine, "degrade.level",
                      trace_->now_ns(), "level",
                      static_cast<double>(degrade_.level()));
    }
  }
}

}  // namespace topick::serve
