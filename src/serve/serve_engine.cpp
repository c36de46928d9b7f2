#include "serve/serve_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <type_traits>

#include "common/require.h"
#include "common/stats.h"
#include "core/exact_attention.h"

namespace topick::serve {

namespace {

// Pipelined mode: how many outstanding lane jobs the main thread tolerates
// before blocking — a handful of steps' worth of run-ahead. The block (if
// any) is the pipeline's real serialization cost, reported as lane_wait_ns.
constexpr std::size_t kMaxLaneDepth = 64;

// Fan-out grain target (see step()): aim for at least this many context
// tokens of attention work per dispatched task, so tiny scenarios don't pay
// more in wake-ups than they win back in parallelism.
constexpr std::uint64_t kGrainTokens = 1024;

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

double mean_of(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

}  // namespace

// Per-worker attention scratch: the parallel attention phase runs one
// Workspace per thread, so no TokenPickerAttention (or exact-path) scratch is
// ever shared across workers. Results cannot depend on which worker ran an
// instance — every buffer is rebuilt per attend.
struct ServeEngine::Workspace {
  explicit Workspace(const TokenPickerConfig& config) : picker(config) {}

  TokenPickerAttention picker;
  TokenPickerResult picker_result;
  ExactAttentionResult exact_result;
  fx::QuantizedVector exact_q_scratch;
};

struct ServeEngine::Slot {
  // `headroom` is the quantized-cache rescale headroom — 1.0 normally; the
  // degradation controller raises it for slots created while the request's
  // class is degraded (fewer rescale passes at some quantization-accuracy
  // cost), so it is per-slot, not per-config.
  // `stream` is the request's: every sequence is bound to its head's rows.
  Slot(PagedKvPool* pool, const ServeConfig& config, float headroom,
       const wl::DecodeStream& stream)
      : cache(pool, stream) {
    const auto n = static_cast<std::size_t>(config.n_layer) * config.n_head;
    persistence.reserve(n);
    qcaches.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      persistence.emplace_back(config.persistence_window);
      qcaches.emplace_back(
          static_cast<std::size_t>(config.head_dim),
          QuantizedKvCache::Config{config.picker.quant, headroom});
    }
    // The request's stream rows are each head's only f32 copy: register
    // every sequence as its quantized cache's rescale source (stable ids
    // coincide by construction), so whole-head rescales re-read exact floats
    // instead of the cache keeping an f32 mirror alive. The step's phase
    // ordering makes the rows always resident when queried: sequential
    // seq.append runs before the parallel qcache appends, and eviction
    // rescales run before sweep() frees any page.
    rescale_sources.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const int layer = static_cast<int>(i) / config.n_head;
      const int head = static_cast<int>(i) % config.n_head;
      rescale_sources.emplace_back(&cache.seq(layer, head));
      qcaches[i].set_rescale_source(&rescale_sources[i]);
    }
  }

  PagedKvCache cache;
  // Incrementally quantized companion of each sequence's live tokens — the
  // attention read path, int16-resident only (rescales read the stream rows
  // via rescale_sources). Appended alongside PagedSequence appends; evicted
  // coherently when reclamation marks tokens dead.
  std::vector<QuantizedKvCache> qcaches;  // per (layer, head), layer-major
  std::vector<PagedRescaleSource> rescale_sources;    // parallel to qcaches
  std::vector<PrunePersistence> persistence;  // per (layer, head), layer-major
};

double ClassMetrics::p50_ttft_cycles() const {
  return ttft_cache_.at(ttft_cycle_samples, 50.0);
}
double ClassMetrics::p99_ttft_cycles() const {
  return ttft_cache_.at(ttft_cycle_samples, 99.0);
}
double ClassMetrics::p99_latency_cycles() const {
  return latency_cache_.at(latency_cycle_samples, 99.0);
}
double ClassMetrics::avg_queue_wait_steps() const {
  return mean_of(queue_wait_step_samples);
}

double ClassMetrics::slo_ttft_attainment() const {
  return slo_ttft_tracked == 0 ? 1.0
                               : static_cast<double>(slo_ttft_met) /
                                     static_cast<double>(slo_ttft_tracked);
}
double ClassMetrics::slo_latency_attainment() const {
  return slo_latency_tracked == 0
             ? 1.0
             : static_cast<double>(slo_latency_met) /
                   static_cast<double>(slo_latency_tracked);
}

double FleetMetrics::p50_step_cycles() const {
  return step_cache_.at(step_cycle_samples, 50.0);
}
double FleetMetrics::p95_step_cycles() const {
  return step_cache_.at(step_cycle_samples, 95.0);
}
double FleetMetrics::p99_step_cycles() const {
  return step_cache_.at(step_cycle_samples, 99.0);
}
double FleetMetrics::p50_ttft_cycles() const {
  return ttft_cache_.at(ttft_cycle_samples, 50.0);
}
double FleetMetrics::p95_ttft_cycles() const {
  return ttft_cache_.at(ttft_cycle_samples, 95.0);
}
double FleetMetrics::p99_ttft_cycles() const {
  return ttft_cache_.at(ttft_cycle_samples, 99.0);
}
double FleetMetrics::p50_request_latency_cycles() const {
  return latency_cache_.at(request_latency_cycle_samples, 50.0);
}
double FleetMetrics::p99_request_latency_cycles() const {
  return latency_cache_.at(request_latency_cycle_samples, 99.0);
}
double FleetMetrics::avg_queue_wait_steps() const {
  return mean_of(queue_wait_step_samples);
}

double FleetMetrics::tokens_per_second(double dram_clock_hz) const {
  if (dram_cycles == 0) return 0.0;
  return static_cast<double>(tokens_generated) /
         (static_cast<double>(dram_cycles) / dram_clock_hz);
}

double FleetMetrics::bytes_per_token() const {
  if (tokens_generated == 0) return 0.0;
  return (static_cast<double>(stats.total_bits_fetched()) +
          static_cast<double>(prefill_bits) +
          static_cast<double>(decode_write_bits)) /
         8.0 / static_cast<double>(tokens_generated);
}

std::size_t RetryPolicy::backoff_steps(int attempt) const {
  double wait = static_cast<double>(backoff_base_steps);
  for (int i = 1; i < attempt; ++i) wait *= backoff_multiplier;
  const auto cap = static_cast<double>(backoff_max_steps);
  if (wait > cap) wait = cap;
  return static_cast<std::size_t>(wait);
}

ServeEngine::ServeEngine(const ServeConfig& config)
    : config_(config),
      pool_(PagedPoolConfig{config.pool_pages, config.page_tokens}),
      batcher_(BatcherConfig{config.max_batch, config.max_prefill}),
      policy_(make_policy(config.policy, config.policy_params)),
      hbm_(config.dram),
      workers_(config.threads),
      injector_(config.faults),
      degrade_(config.degradation),
      lane_(config.pipeline) {
  require(config.n_layer > 0 && config.n_head > 0 && config.head_dim > 0,
          "ServeConfig: bad shape");
  require(workers_.threads() <= 1 ||
              config.picker.order != OrderingPolicy::random_order,
          "ServeConfig: random_order draws from a shared RNG stream and is "
          "not reproducible across thread counts; use threads = 1");
  require(!config.shard_replay,
          "ServeConfig: shard_replay was removed; the serial DRAM driver is "
          "the only timing model");
  require(config.retain_latency_samples,
          "ServeConfig: retain_latency_samples = false was removed; the "
          "exact sample vectors are the only stored latency form");
  // backoff_steps casts the grown wait to std::size_t: a negative or NaN
  // multiplier would make that conversion undefined.
  require(std::isfinite(config.retry.backoff_multiplier) &&
              config.retry.backoff_multiplier >= 0.0,
          "ServeConfig: retry.backoff_multiplier must be finite and >= 0");
  // A NaN or inf threshold scale would pin every degraded threshold at the
  // 0.5 cap (the cap's comparison is false for both), and a negative
  // headroom step would only throw at the first degraded admission.
  require(std::isfinite(config.degradation.threshold_scale) &&
              config.degradation.threshold_scale >= 1.0,
          "ServeConfig: degradation.threshold_scale must be finite and >= 1");
  require(std::isfinite(config.degradation.headroom_step) &&
              config.degradation.headroom_step >= 0.0f,
          "ServeConfig: degradation.headroom_step must be finite and >= 0");
  require(config.stream.sink_tokens >= 0,
          "ServeConfig: stream.sink_tokens must be >= 0");
  config_.stream.head_dim = config.head_dim;
  // K/V write traffic to append one token position across every (layer,
  // head): K and V, head_dim elements each, at the quantized width. The
  // per-token shape every (re)prefill chunk and decode append charges.
  token_write_bits_ =
      2ull * static_cast<std::uint64_t>(config.picker.quant.total_bits) *
      static_cast<std::uint64_t>(config.head_dim) *
      static_cast<std::uint64_t>(config.n_layer * config.n_head);
  // The oracle pass is an O(context) diagnostic per attention instance; the
  // engine's hot loop must stay O(kept). Outputs/decisions are unaffected.
  config_.picker.compute_oracle_mass = false;
  // Wire the fault plan's degraded channels into the memsim model. The plan
  // owns the ChannelFault storage (and must outlive the engine); channels the
  // model doesn't have are ignored.
  if (config_.faults != nullptr) {
    for (const auto& spec : config_.faults->channels) {
      if (spec.channel >= 0) {
        hbm_.set_channel_fault(static_cast<std::size_t>(spec.channel),
                               &spec.fault);
      }
    }
  }
  workspaces_.reserve(workers_.threads());
  for (std::size_t w = 0; w < workers_.threads(); ++w) {
    workspaces_.push_back(std::make_unique<Workspace>(config_.picker));
  }
  // Observability taps: one trace track per worker thread (lock-free
  // recording in the parallel phase), one more for the lane's cycle-domain
  // events in pipelined mode, plus per-worker busy counters.
  trace_ = config_.trace;
  if (trace_ != nullptr) {
    trace_->ensure_tracks(workers_.threads() + (config_.pipeline ? 1 : 0));
  }
  worker_busy_.resize(workers_.threads());
}

ServeEngine::~ServeEngine() = default;

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
  requests_.push_back(std::move(request));
  slots_.emplace_back(nullptr);
  dram_offset_.push_back(0);
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

// Request-lifecycle async events (pid "requests", one async id per request).
// Built on the main thread's sequential phases — the parallel phase never
// touches lifecycle state — then stamped and recorded via emit_request_event.
void ServeEngine::emit_request_event(const obs::TraceEvent& event) {
  // Stamped when the lane reaches the event: pipelined, every earlier step's
  // replay has landed by then, so the cycle stamp matches the sequential
  // engine's exactly (sequential, the disabled lane runs the job inline).
  lane_.submit([this, event] {
    obs::TraceEvent e = event;
    e.ts = trace_->now_ns();
    e.cycle = hbm_.cycle();
    trace_->record(lane_track(), e);
  });
}

void ServeEngine::trace_lifecycle_begin(std::size_t request,
                                        const char* state) {
  if (trace_ == nullptr) return;
  obs::TraceEvent e;
  e.name = state;
  e.cat = "request";
  e.phase = 'b';
  e.domain = obs::TraceDomain::request;
  e.id = request;
  e.arg("step", static_cast<double>(now_));
  emit_request_event(e);
}

void ServeEngine::trace_lifecycle_end(std::size_t request, const char* state) {
  if (trace_ == nullptr) return;
  obs::TraceEvent e;
  e.name = state;
  e.cat = "request";
  e.phase = 'e';
  e.domain = obs::TraceDomain::request;
  e.id = request;
  emit_request_event(e);
}

void ServeEngine::trace_lifecycle_instant(std::size_t request,
                                          const char* name) {
  if (trace_ == nullptr) return;
  obs::TraceEvent e;
  e.name = name;
  e.cat = "request";
  e.phase = 'n';
  e.domain = obs::TraceDomain::request;
  e.id = request;
  e.arg("step", static_cast<double>(now_));
  emit_request_event(e);
}

void ServeEngine::admit_due_requests() {
  while (next_arrival_ < requests_.size() &&
         requests_[next_arrival_].event.step <= now_) {
    Request& req = requests_[next_arrival_];
    // Cycle stamps ride the lane: earlier steps' replays may still be in
    // flight, and the arrival must see the clock the sequential engine would
    // show after them. The lane owns every *_cycle field.
    lane_.submit([this, r = next_arrival_] {
      requests_[r].arrival_cycle = hbm_.cycle();
    });
    trace_lifecycle_begin(next_arrival_, "request");
    if (req.event.decode_len == 0) {
      // Nothing to generate: retire at arrival without taking a slot, pool
      // pages, or a spurious decode step's DRAM traffic.
      req.state = RequestState::finished;
      req.admit_step = now_;
      req.finish_step = now_;
      lane_.submit([this, r = next_arrival_] {
        requests_[r].finish_cycle = requests_[r].arrival_cycle;
      });
      ++finished_;
      ++metrics_.requests_retired;
      ClassMetrics& cls = class_metrics(req);
      ++cls.retired;
      // Retired in zero steps: both SLOs count as trivially met so the two
      // attainment denominators cover the same request population.
      if (req.event.slo_ttft_steps > 0) {
        ++cls.slo_ttft_tracked;
        ++cls.slo_ttft_met;
      }
      if (req.event.slo_latency_steps > 0) {
        ++cls.slo_latency_tracked;
        ++cls.slo_latency_met;
      }
      trace_lifecycle_end(next_arrival_, "request");  // zero-decode: retired
    } else {
      req.enqueue_step = req.event.step;  // queued-stint clock starts
      batcher_.queue().push_arrival(next_arrival_);
      trace_lifecycle_begin(next_arrival_, "queued");
    }
    ++next_arrival_;
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
    const std::size_t held = slots_[r]->cache.pages_held();
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
      // Aging input: steps spent *queued* (completed stints plus the current
      // one) — running time between a past admission and a preemption must
      // not pre-promote a re-entering request.
      cand.wait_steps =
          req.queued_steps_accum +
          (now_ >= req.enqueue_step ? now_ - req.enqueue_step : 0);
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
  // First admission builds the request's K/V rows and queries; a preempted
  // or retried request kept its stream, so its replay re-reads the same rows.
  // The stream is a pure function of the event and the config at any pool
  // width, so building it here rather than at submit changes no bit.
  if (req.stream.heads.empty()) {
    req.stream = wl::make_decode_stream(config_.stream, req.event.prompt_len,
                                        req.event.decode_len, config_.n_layer,
                                        config_.n_head, req.event.stream_seed,
                                        &workers_);
  }
  // Close out the queued stint for the aging clock.
  req.queued_steps_accum += now_ >= req.enqueue_step
                                ? now_ - req.enqueue_step
                                : 0;
  req.enqueue_step = now_;
  // The slot's sequences point into req.stream's rows, which live in
  // requests_. submit() may grow requests_ while slots are live; the rows
  // keep their address only because reallocation moves each Request (and so
  // hands over its row buffers) rather than copying it.
  static_assert(std::is_nothrow_move_constructible_v<Request>);
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
  trace_lifecycle_end(request, "queued");
  trace_lifecycle_begin(request, req.state == RequestState::prefilling
                                     ? "prefill"
                                     : "decode");
}

bool ServeEngine::append_prefill_chunk(std::size_t request) {
  Request& req = requests_[request];
  const std::size_t remaining = req.prefill_target - req.prefilled;
  const std::size_t chunk =
      config_.prefill_chunk_tokens == 0
          ? remaining
          : std::min(config_.prefill_chunk_tokens, remaining);
  if (!ensure_pages_for_append(request, chunk)) return false;
  Slot& slot = *slots_[request];
  // Sequences append their bound rows in order, so the chunk's rows are the
  // next ones only if every earlier cursor position was appended.
  require(slot.cache.seq(0, 0).appended_tokens() == req.prefilled,
          "ServeEngine: prefill cursor out of step with the sequences");

  for (int layer = 0; layer < config_.n_layer; ++layer) {
    for (int head = 0; head < config_.n_head; ++head) {
      auto& seq = slot.cache.seq(layer, head);
      for (std::size_t t = 0; t < chunk; ++t) {
        require(seq.append(),
                "ServeEngine: prefill append failed despite page check");
      }
    }
  }

  PendingWork work;
  work.request = request;
  work.decode = false;
  work.chunk = chunk;
  work.prefilled_before = req.prefilled;
  pending_.push_back(work);

  req.prefilled += chunk;
  if (req.prefilled == req.prefill_target) {
    req.state = RequestState::running;  // first decode next step
    batcher_.begin_decode(request);
    trace_lifecycle_end(request, "prefill");
    trace_lifecycle_begin(request, "decode");
  }
  return true;
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
  trace_lifecycle_end(request, req.state == RequestState::prefilling
                                   ? "prefill"
                                   : "decode");
  trace_lifecycle_instant(request, "preempt");
  trace_lifecycle_begin(request, "queued");
  slots_[request]->cache.release_all();
  slots_[request].reset();
  cancel_step_work(request);
  req.enqueue_step = now_;  // new queued stint starts now
  req.state = RequestState::preempted;
  ++req.preemptions;
  ++metrics_.preemptions;
  ++class_metrics(req).preemptions;
  batcher_.preempt(request);
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
    cand.pages_held = slots_[r]->cache.pages_held();
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

bool ServeEngine::ensure_pages_for_append(std::size_t request,
                                          std::size_t tokens) {
  // Pages that appending `tokens` tokens to every sequence will open (one per
  // page boundary the append range crosses). Preempt until they fit; the
  // needy request itself is never a victim *candidate*, so either the pool
  // frees up or the policy refuses and the needy request self-preempts
  // (false return — caller bails out of the append).
  auto& slot = *slots_[request];
  const std::size_t pt = config_.page_tokens;
  std::size_t needed = 0;
  for (int layer = 0; layer < config_.n_layer; ++layer) {
    for (int head = 0; head < config_.n_head; ++head) {
      const std::size_t appended =
          slot.cache.seq(layer, head).appended_tokens();
      needed += (appended + tokens + pt - 1) / pt - (appended + pt - 1) / pt;
    }
  }
  // Transient allocation fault (fault_plan.h): an append that needs at least
  // one new page may be failed by the plan. The request loses its slot —
  // pages and same-step recorded work released exactly once via the cancel
  // path — and the retry policy decides whether it comes back. Both callers
  // bail out on false before touching the slot.
  if (needed > 0 && injector_.enabled() && injector_.alloc_fault(now_)) {
    cancel_request(request, CancelReason::fault);
    return false;
  }
  while (pool_.pages_free() < needed) {
    if (!preempt_for_pressure(request)) return false;
  }
  return true;
}

bool ServeEngine::append_decode_token(std::size_t request) {
  Request& req = requests_[request];
  const std::size_t pos = req.event.prompt_len + req.generated;

  if (!ensure_pages_for_append(request, 1)) return false;
  Slot& slot = *slots_[request];
  require(slot.cache.seq(0, 0).appended_tokens() == pos,
          "ServeEngine: decode position out of step with the sequences");
  for (int layer = 0; layer < config_.n_layer; ++layer) {
    for (int head = 0; head < config_.n_head; ++head) {
      require(slot.cache.seq(layer, head).append(),
              "ServeEngine: decode append failed despite page check");
    }
  }

  PendingWork work;
  work.request = request;
  work.decode = true;
  work.pos = pos;
  pending_.push_back(work);
  return true;
}

void ServeEngine::run_decode_instance(std::size_t pending, std::size_t inst,
                                      std::size_t worker) {
  const PendingWork& work = pending_[pending];
  Request& req = requests_[work.request];
  Slot& slot = *slots_[work.request];
  const auto dim = static_cast<std::size_t>(config_.head_dim);
  const int layer = static_cast<int>(inst) / config_.n_head;
  const int head = static_cast<int>(inst) % config_.n_head;
  auto& qcache = slot.qcaches[inst];

  // Per-unit span on the worker's own track (lock-free recording). Args are
  // stamped at destruction, after the backend ran, so `kept` is available.
  obs::TraceSpan span(trace_, worker, "unit:attend", "attention");
  span.arg("request", static_cast<double>(work.request));
  span.arg("layer", static_cast<double>(layer));
  span.arg("head", static_cast<double>(head));
  span.arg("pos", static_cast<double>(work.pos));

  // Quantize the new token once; earlier tokens stay quantized (the cache
  // rescales the head only when the live max|x| changes).
  qcache.append(req.stream.key(layer, head, work.pos),
                req.stream.value(layer, head, work.pos), work.pos);

  const auto q = req.stream.query(layer, head, req.generated);
  const auto n_inst = static_cast<std::size_t>(config_.n_layer) *
                      config_.n_head;
  InstanceResult& res = results_[pending * n_inst + inst];
  res.stats = AccessStats{};
  res.decisions.clear();
  Workspace& ws = *workspaces_[worker];

  switch (config_.backend) {
    case BackendKind::token_picker: {
      // Graceful degradation: tighten the pruning threshold by the class's
      // current scale. The scale array is written only between steps (main
      // thread, update_degradation) and read here by every worker, and the
      // value is a pure function of (class, level) — so which worker runs an
      // instance cannot change its output. Controller off: never touched,
      // bit-identical to pre-fault builds.
      if (degrade_.enabled()) {
        const double scaled =
            config_.picker.estimator.threshold *
            degrade_scale_[static_cast<std::size_t>(req.priority())];
        ws.picker.set_threshold(scaled < 0.5 ? scaled : 0.5);
      }
      ws.picker.attend_cached(q, qcache, &ws.picker_result);
      res.stats = ws.picker_result.stats;
      res.out.assign(ws.picker_result.output.begin(),
                     ws.picker_result.output.end());
      res.decisions.assign(ws.picker_result.decisions.begin(),
                           ws.picker_result.decisions.end());
      break;
    }
    case BackendKind::exact_quantized: {
      exact_attention_view(q, qcache.view(), &ws.exact_q_scratch,
                           &ws.exact_result);
      res.out.assign(ws.exact_result.output.begin(),
                     ws.exact_result.output.end());
      const auto full_bits = static_cast<std::uint64_t>(qcache.len()) * dim *
                             config_.picker.quant.total_bits;
      res.stats.k_bits_fetched = res.stats.k_bits_baseline = full_bits;
      res.stats.v_bits_fetched = res.stats.v_bits_baseline = full_bits;
      res.stats.tokens_total = res.stats.tokens_kept = qcache.len();
      break;
    }
  }
  span.arg("context", static_cast<double>(qcache.len()));
  span.arg("kept", static_cast<double>(res.stats.tokens_kept));
}

void ServeEngine::run_unit(std::size_t pending, std::size_t inst,
                           std::size_t worker) {
  const PendingWork& work = pending_[pending];
  // Per-worker busy time: the gap between summed busy and fan-out wall time
  // is the barrier wait attributed in phase_stats(). Plain write — each
  // worker owns its (cache-line-isolated) counter.
  const bool timed = config_.collect_phase_stats;
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
  if (!work.decode) {
    // Prefill: quantize this instance's chunk via the bulk path (at most one
    // rescale for the whole chunk). Instances touch disjoint caches.
    Request& req = requests_[work.request];
    Slot& slot = *slots_[work.request];
    const auto dim = static_cast<std::size_t>(config_.head_dim);
    const int layer = static_cast<int>(inst) / config_.n_head;
    const int head = static_cast<int>(inst) % config_.n_head;
    obs::TraceSpan span(trace_, worker, "unit:prefill_quant", "attention");
    span.arg("request", static_cast<double>(work.request));
    span.arg("layer", static_cast<double>(layer));
    span.arg("head", static_cast<double>(head));
    span.arg("tokens", static_cast<double>(work.chunk));
    const auto& hs = req.stream.head(layer, head);
    slot.qcaches[inst].append_rows(
        hs.keys.data() + work.prefilled_before * dim,
        hs.values.data() + work.prefilled_before * dim, work.chunk,
        work.prefilled_before);
  } else {
    run_decode_instance(pending, inst, worker);
  }
  if (timed) worker_busy_[worker].ns += elapsed_ns(t0);
}

void ServeEngine::reduce_pending(std::size_t pending) {
  const PendingWork& work = pending_[pending];
  Request& req = requests_[work.request];

  if (!work.decode) {
    const std::uint64_t bits = work.chunk * token_write_bits_;
    req.prefill_bits += bits;
    metrics_.prefill_bits += bits;
    metrics_.prefill_tokens += work.chunk;
    active_.push_back(StepXfer{work.request, /*decode=*/false, bits});
    // Emitted here — not at append time — so chunks cancelled by same-step
    // preemption never appear: the trace invariant "sum of prefill_chunk
    // token args == metrics.prefill_tokens" holds exactly.
    if (trace_ != nullptr) {
      obs::TraceEvent e;
      e.name = "prefill_chunk";
      e.cat = "request";
      e.phase = 'n';
      e.domain = obs::TraceDomain::request;
      e.id = work.request;
      e.arg("tokens", static_cast<double>(work.chunk));
      e.arg("cursor", static_cast<double>(work.prefilled_before));
      emit_request_event(e);
    }
    return;
  }

  Slot& slot = *slots_[work.request];
  const auto n_inst = static_cast<std::size_t>(config_.n_layer) *
                      config_.n_head;

  StepOutput record;
  if (config_.capture_outputs) {
    record.position = work.pos;
    record.out.resize(n_inst);
    record.view_tokens.resize(n_inst);
    record.kept_tokens.resize(n_inst);
  }

  std::uint64_t bits = 0;
  for (std::size_t inst = 0; inst < n_inst; ++inst) {
    InstanceResult& res = results_[pending * n_inst + inst];
    auto& qcache = slot.qcaches[inst];
    std::vector<std::size_t> kept_ids;

    if (config_.backend == BackendKind::token_picker) {
      auto& persistence = slot.persistence[inst];
      for (const auto& decision : res.decisions) {
        const std::size_t global = qcache.id_at(decision.token);
        persistence.observe(global, decision.kept);
        if (config_.capture_outputs && decision.kept) {
          kept_ids.push_back(global);
        }
      }
      if (config_.reclaim) {
        auto& seq = slot.cache.seq(static_cast<int>(inst) / config_.n_head,
                                   static_cast<int>(inst) % config_.n_head);
        dead_scratch_.clear();
        for (const std::size_t global : qcache.ids()) {
          if (persistence.persistent(global)) {
            seq.mark_dead(global);
            persistence.forget(global);
            dead_scratch_.push_back(global);
          }
        }
        // Page frees and the quantized mirror stay coherent: reclaimed
        // tokens leave the cache now, so the next step's attention view
        // (and its shared scale) covers exactly the live set.
        if (!dead_scratch_.empty()) qcache.evict_ids(dead_scratch_);
        metrics_.pages_reclaimed += seq.sweep();
      }
    } else if (config_.capture_outputs) {
      kept_ids = qcache.ids();
    }

    bits += res.stats.k_bits_fetched + res.stats.v_bits_fetched;
    req.stats.merge(res.stats);
    metrics_.stats.merge(res.stats);

    if (config_.capture_outputs) {
      record.out[inst] = res.out;
      // Post-reclaim liveness (see StepOutput in request.h): the reclaim
      // above already evicted retired tokens from the quantized mirror, so
      // its id list *is* the context the next decode step extends.
      record.view_tokens[inst] = qcache.ids();
      record.kept_tokens[inst] = std::move(kept_ids);
    }
  }

  // The step's appended K/V is written to DRAM too — the same per-token
  // write shape a (re)prefill charges, so write accounting doesn't depend on
  // whether a token entered the pool by decode or by preemption replay.
  bits += token_write_bits_;
  metrics_.decode_write_bits += token_write_bits_;

  if (config_.capture_outputs) req.outputs.push_back(std::move(record));
  active_.push_back(StepXfer{work.request, /*decode=*/true, bits});
  ++req.generated;
  ++metrics_.tokens_generated;
  ++class_metrics(req).tokens_generated;
  if (degrade_.enabled() && degrade_.notches(req.priority()) > 0) {
    ++metrics_.degraded_tokens;
    ++class_metrics(req).degraded_tokens;
  }

  // Step-domain latency bookkeeping happens now, at reduce time; the
  // cycle-domain twins (cycle stamps + TTFT/latency samples) become a
  // CycleCheckpoint applied after the replay — on the lane in pipelined mode.
  CycleCheckpoint cp;
  cp.request = work.request;
  if (!req.first_token_recorded) {
    req.first_token_recorded = true;
    req.first_token_step = now_;
    cp.first_token = true;
    if (req.event.slo_ttft_steps > 0) {
      ClassMetrics& cls = class_metrics(req);
      ++cls.slo_ttft_tracked;
      if (req.first_token_step - req.event.step <= req.event.slo_ttft_steps) {
        ++cls.slo_ttft_met;
      }
    }
  }
  if (req.done()) {
    retire(work.request);
    cp.finished = true;
  }
  if (cp.first_token || cp.finished) checkpoints_.push_back(cp);
}

void ServeEngine::retire(std::size_t request) {
  Request& req = requests_[request];
  trace_lifecycle_end(request, "decode");
  trace_lifecycle_end(request, "request");
  slots_[request]->cache.release_all();
  slots_[request].reset();
  req.stream = {};  // no slot reads the rows any more
  req.state = RequestState::finished;
  req.finish_step = now_;
  batcher_.retire(request);
  ++finished_;
  ++metrics_.requests_retired;
  ClassMetrics& cls = class_metrics(req);
  ++cls.retired;
  if (req.event.slo_latency_steps > 0) {
    ++cls.slo_latency_tracked;
    if (req.finish_step - req.event.step <= req.event.slo_latency_steps) {
      ++cls.slo_latency_met;
    }
  }
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
  req.stream = {};  // terminal: no replay will read the rows
  req.state = RequestState::failed;
  req.finish_step = now_;
  ++finished_;
  ++metrics_.requests_failed;
  ClassMetrics& cls = class_metrics(req);
  ++cls.failed;
  // A failed request counts against its SLOs exactly once: TTFT only if no
  // first token was ever produced (reduce_pending already counted it
  // otherwise), latency always — both tracked and not met, so attainment
  // reflects failures instead of silently shrinking its denominator. No
  // cycle-domain stamps: the lane never hears about failures, keeping the
  // pipelined field partition intact (latency_cycles() reports 0).
  if (req.event.slo_ttft_steps > 0 && !req.first_token_recorded) {
    ++cls.slo_ttft_tracked;
  }
  if (req.event.slo_latency_steps > 0) ++cls.slo_latency_tracked;
  trace_lifecycle_end(request, "request");
}

void ServeEngine::cancel_request(std::size_t request, CancelReason reason) {
  Request& req = requests_[request];
  const RequestState prev = req.state;

  // Detach from wherever the request lives, releasing pages, quantized-cache
  // entries, and same-step recorded work exactly once.
  switch (prev) {
    case RequestState::prefilling:
    case RequestState::running:
      slots_[request]->cache.release_all();
      slots_[request].reset();
      cancel_step_work(request);
      batcher_.retire(request);  // drops from running/prefilling, no re-queue
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
      req.queued_steps_accum +=
          now_ >= req.enqueue_step ? now_ - req.enqueue_step : 0;
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
    trace_lifecycle_instant(request, "reject");
  } else {
    ++metrics_.aborts;
    ++cls.aborts;
    if (reason == CancelReason::deadline) {
      ++metrics_.deadline_misses;
      ++cls.deadline_misses;
      trace_lifecycle_instant(request, "deadline_miss");
    } else {
      trace_lifecycle_instant(request, "abort");
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
      trace_lifecycle_end(request, active_span);
      trace_lifecycle_begin(request, "queued");  // covers backoff + re-queue
    }
  } else {
    trace_lifecycle_end(request, active_span);
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
      trace_lifecycle_instant(r, "retry");
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

void ServeEngine::simulate_step_dram(const std::vector<StepXfer>& active) {
  const std::uint64_t start = hbm_.cycle();
  const auto granule =
      static_cast<std::uint64_t>(config_.dram.transaction_bytes);

  std::vector<std::uint64_t> remaining(active.size());
  std::vector<std::uint64_t> finish(active.size(), start);
  std::uint64_t total_granules = 0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    const std::uint64_t bytes = (active[i].bits + 7) / 8;
    remaining[i] = (bytes + granule - 1) / granule;
    total_granules += remaining[i];
  }

  std::uint64_t total_remaining = total_granules;

  // Per-channel occupancy sampling cadence (cycle-domain counter tracks).
  // A replay window is typically a few thousand cycles; 64-cycle sampling
  // keeps the queue/in-flight shape visible without bloating the trace.
  constexpr std::uint64_t kChannelSampleCycles = 64;
  static constexpr const char* kChannelKeys[8] = {
      "ch0", "ch1", "ch2", "ch3", "ch4", "ch5", "ch6", "ch7"};

  while (total_remaining > 0 || hbm_.pending() > 0) {
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (remaining[i] == 0) continue;
      const std::size_t request = active[i].request;
      mem::MemRequest mreq;
      mreq.addr =
          dram_layout::stream_addr(request, dram_offset_[request], granule);
      require(mreq.addr >= dram_layout::region_base(request) &&
                  mreq.addr < dram_layout::region_base(request) +
                                  dram_layout::kRegionBytes,
              "ServeEngine: stream address escaped its request region");
      mreq.id = i;
      if (hbm_.try_enqueue(mreq)) {
        --remaining[i];
        --total_remaining;
        ++dram_offset_[request];
      }
    }
    for (const auto& resp : hbm_.tick()) {
      finish[resp.id] = std::max(finish[resp.id], resp.ready_cycle);
    }
    if (trace_ != nullptr &&
        (hbm_.cycle() - start) % kChannelSampleCycles == 1) {
      // Sampled at cycle 1 of the window (so even short replays get one
      // loaded-state sample) and every kChannelSampleCycles after.
      obs::TraceEvent e;
      e.name = "channel_pending";
      e.cat = "memsim";
      e.phase = 'C';
      e.domain = obs::TraceDomain::memsim;
      e.ts = hbm_.cycle();
      const std::size_t n_ch =
          std::min<std::size_t>(hbm_.channel_count(),
                                obs::TraceEvent::kMaxArgs);
      for (std::size_t c = 0; c < n_ch; ++c) {
        e.arg(kChannelKeys[c],
              static_cast<double>(hbm_.channel(c).pending()));
      }
      trace_->record(lane_track(), e);
    }
  }

  for (std::size_t i = 0; i < active.size(); ++i) {
    const auto cycles = finish[i] - start;
    requests_[active[i].request].dram_cycles += cycles;
    // Decode-step latency samples stay decode-only so prefill chunks don't
    // masquerade as token latencies — but they DO stretch the co-scheduled
    // decodes' samples through bus/bank contention above.
    if (active[i].decode) {
      metrics_.step_cycle_samples.push_back(static_cast<double>(cycles));
    }
  }
  metrics_.dram_cycles = hbm_.cycle();
  metrics_.dram = hbm_.stats();

  // Cycle-domain replay window (pid "memsim"): ts/dur are DRAM cycles.
  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.name = "replay";
    e.cat = "memsim";
    e.phase = 'X';
    e.domain = obs::TraceDomain::memsim;
    e.ts = start;
    e.dur = hbm_.cycle() - start;
    e.arg("transfers", static_cast<double>(active.size()));
    e.arg("granules", static_cast<double>(total_granules));
    trace_->record(lane_track(), e);
  }
}

void ServeEngine::apply_cycle_checkpoints(
    const std::vector<CycleCheckpoint>& checkpoints, std::size_t step) {
  // Stamped after the step's traffic drained, so the DRAM clock includes this
  // step's contention. Runs on the lane in pipelined mode: every field it
  // touches (cycle stamps, TTFT/latency samples) is lane-owned there,
  // disjoint from the step-domain fields the main thread writes.
  for (const auto& cp : checkpoints) {
    Request& req = requests_[cp.request];
    if (cp.first_token) {
      req.first_token_cycle = hbm_.cycle();
      if (trace_ != nullptr) {
        obs::TraceEvent e;
        e.name = "first_token";
        e.cat = "request";
        e.phase = 'n';
        e.domain = obs::TraceDomain::request;
        e.ts = trace_->now_ns();
        e.id = cp.request;
        e.cycle = hbm_.cycle();
        e.arg("step", static_cast<double>(step));
        trace_->record(lane_track(), e);
      }
      if (config_.simulate_dram) {
        const auto ttft = static_cast<double>(req.ttft_cycles());
        metrics_.ttft_cycle_samples.push_back(ttft);
        class_metrics(req).ttft_cycle_samples.push_back(ttft);
      }
    }
    if (cp.finished) {
      req.finish_cycle = hbm_.cycle();
      if (config_.simulate_dram) {
        const auto latency = static_cast<double>(req.latency_cycles());
        metrics_.request_latency_cycle_samples.push_back(latency);
        class_metrics(req).latency_cycle_samples.push_back(latency);
      }
    }
  }
}

void ServeEngine::finish_step_cycle_work() {
  const bool phases = config_.collect_phase_stats;
  if (!config_.pipeline) {
    if (config_.simulate_dram && !active_.empty()) {
      obs::PhaseTimer replay_timer(phases ? &phase_stats_.replay_ns : nullptr);
      obs::TraceSpan span(trace_, 0, "dram_replay", "engine");
      span.cycle(hbm_.cycle());
      span.arg("transfers", static_cast<double>(active_.size()));
      simulate_step_dram(active_);
    }
    obs::PhaseTimer other_timer(phases ? &phase_stats_.other_ns : nullptr);
    apply_cycle_checkpoints(checkpoints_, now_);
    return;
  }
  // Pipelined: one lane job replays this step's traffic and applies its
  // checkpoints while the main thread starts step t+1. Jobs run in
  // submission order — identical to sequential program order — so the DRAM
  // clock evolves bit-identically to the sequential engine's.
  if (active_.empty() && checkpoints_.empty()) return;
  lane_.submit([this, xfers = std::move(active_),
                cps = std::move(checkpoints_), step = now_] {
    const bool timed = config_.collect_phase_stats;
    const auto t0 = timed ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
    if (config_.simulate_dram && !xfers.empty()) {
      obs::TraceSpan span(trace_, lane_track(), "dram_replay", "engine");
      span.cycle(hbm_.cycle());
      span.arg("transfers", static_cast<double>(xfers.size()));
      span.arg("step", static_cast<double>(step));
      simulate_step_dram(xfers);
    }
    apply_cycle_checkpoints(cps, step);
    if (timed) phase_stats_.lane_busy_ns += elapsed_ns(t0);
  });
  active_ = {};  // moved-from: hand back fresh buffers for the next step
  checkpoints_ = {};
}

bool ServeEngine::step() {
  if (finished_ >= requests_.size()) {
    lane_.drain();
    return false;
  }

  // Phase attribution and tracing are read-only taps around the existing
  // phase structure: PhaseTimer/TraceSpan only read the steady clock, so the
  // step's work is bit-identical with them on or off.
  const bool phases = config_.collect_phase_stats;
  if (phases) ++phase_stats_.steps;
  if (lane_.enabled()) {
    // Bound the cross-step run-ahead; the block (if any) is the pipeline's
    // actual serialization cost, attributed as lane_wait_ns.
    const std::uint64_t waited = lane_.wait_depth_below(kMaxLaneDepth);
    if (phases) phase_stats_.lane_wait_ns += waited;
  }
  obs::TraceSpan step_span(trace_, 0, "step", "engine");
  step_span.arg("step", static_cast<double>(now_));
  // Pipelined, the lane owns the DRAM clock; main-thread spans go uncycled.
  if (!config_.pipeline) step_span.cycle(hbm_.cycle());

  {
    obs::PhaseTimer timer(phases ? &phase_stats_.admit_ns : nullptr);
    obs::TraceSpan span(trace_, 0, "admit", "engine");
    // Fault/deadline/retry phase, then the degradation controller's cadence,
    // then admission — all sequential, step-domain, main-thread (the
    // pipelined lane never touches any of it). With faults off, deadlines
    // off, and the controller disabled all three are no-ops.
    process_retries_and_faults();
    update_degradation();
    admit_due_requests();
  }

  // Append phase — sequential, in admission-snapshot order: pool pressure,
  // preemption, and paged K/V appends. Walk a snapshot: preemption mutates
  // the running list mid-loop (and cancels a victim's recorded PendingWork).
  {
    obs::PhaseTimer timer(phases ? &phase_stats_.append_ns : nullptr);
    obs::TraceSpan span(trace_, 0, "append", "engine");
    const std::vector<std::size_t> schedule = batcher_.running();
    pending_.clear();
    active_.clear();
    checkpoints_.clear();
    for (const std::size_t request : schedule) {
      // A false return = the request self-preempted inside the call (the
      // policy shielded every running request): nothing appended, no traffic.
      if (requests_[request].state == RequestState::prefilling) {
        append_prefill_chunk(request);
      } else if (requests_[request].state == RequestState::running) {
        append_decode_token(request);
      }
    }
    span.arg("pending", static_cast<double>(pending_.size()));
  }

  // Attention phase — parallel over (pending, instance) units, pending-major;
  // workers write only per-worker scratch and per-unit result buffers, so
  // the fan-out is bit-deterministic for any thread count.
  const auto n_inst = static_cast<std::size_t>(config_.n_layer) *
                      config_.n_head;
  const std::size_t units = pending_.size() * n_inst;
  if (results_.size() < units) results_.resize(units);

  // Fan-out grain: aim for >= kGrainTokens context tokens of attention work
  // per dispatched task — tiny scenarios otherwise lose more to dispatch
  // wake-ups than they win back from parallelism (the 2k-context bench's
  // multi-thread regression). A pending's work is ~its context length.
  std::size_t grain = 1;
  if (!pending_.empty()) {
    std::uint64_t tokens = 0;
    for (const auto& work : pending_) {
      tokens += work.decode ? work.pos + 1 : work.chunk;
    }
    const std::uint64_t avg =
        std::max<std::uint64_t>(1, tokens / pending_.size());
    if (avg < kGrainTokens) grain = static_cast<std::size_t>(kGrainTokens / avg);
  }
  const std::size_t engaged = workers_.fanout(units, grain);
  if (phases && engaged > phase_stats_.fanout_peak) {
    phase_stats_.fanout_peak = engaged;
  }

  {
    obs::TraceSpan span(trace_, 0, "attention", "engine");
    span.arg("units", static_cast<double>(units));
    std::chrono::steady_clock::time_point t0;
    if (phases) {
      for (auto& wb : worker_busy_) wb.ns = 0;
      t0 = std::chrono::steady_clock::now();
    }
    workers_.parallel_for(
        units,
        [this, n_inst](std::size_t unit, std::size_t worker) {
          run_unit(unit / n_inst, unit % n_inst, worker);
        },
        grain);
    if (phases) {
      const std::uint64_t wall = elapsed_ns(t0);
      std::uint64_t busy = 0;
      for (const auto& wb : worker_busy_) busy += wb.ns;
      // Barrier wait: the fork-join step holds every engaged worker until
      // the slowest unit chain finishes — engaged fan-out x wall minus
      // summed busy.
      const std::uint64_t capacity = wall * engaged;
      phase_stats_.attention_wall_ns += wall;
      phase_stats_.attention_busy_ns += busy;
      phase_stats_.barrier_wait_ns += capacity > busy ? capacity - busy : 0;
    }
  }

  // Reduction phase — sequential, in the append phase's slot order:
  // persistence + reclamation, AccessStats merge, output capture, step
  // traffic, retirement.
  {
    obs::PhaseTimer timer(phases ? &phase_stats_.reduce_ns : nullptr);
    obs::TraceSpan span(trace_, 0, "reduce", "engine");
    for (std::size_t p = 0; p < pending_.size(); ++p) reduce_pending(p);
  }

  // DRAM replay + cycle-domain checkpoints: inline here (sequential), or as
  // one lane job overlapping the next step's compute (pipelined).
  finish_step_cycle_work();

  {
  obs::PhaseTimer other_timer(phases ? &phase_stats_.other_ns : nullptr);
  // Fragmentation sample over live slots (running requests only).
  std::size_t pages = 0;
  std::size_t live = 0;
  QuantizedKvCache::ResidencyBytes kv{};
  std::size_t kv_tokens = 0;
  for (const std::size_t request : batcher_.running()) {
    pages += slots_[request]->cache.pages_held();
    live += slots_[request]->cache.live_tokens();
    for (const QuantizedKvCache& qcache : slots_[request]->qcaches) {
      const auto r = qcache.residency();
      kv.int16_arena += r.int16_arena;
      kv.planes += r.planes;
      kv.maxima += r.maxima;
      kv.ids += r.ids;
      kv_tokens += qcache.len();
    }
  }
  metrics_.kv_int16_bytes = kv.int16_arena;
  metrics_.kv_plane_bytes = kv.planes;
  metrics_.kv_maxima_bytes = kv.maxima;
  metrics_.kv_ids_bytes = kv.ids;
  metrics_.kv_resident_tokens = kv_tokens;
  metrics_.kv_resident_bytes_peak =
      std::max(metrics_.kv_resident_bytes_peak, kv.total());
  metrics_.kv_resident_tokens_peak =
      std::max(metrics_.kv_resident_tokens_peak, kv_tokens);
  if (pages > 0) {
    fragmentation_sum_ +=
        1.0 - static_cast<double>(live) /
                  static_cast<double>(pages * config_.page_tokens);
    ++fragmentation_samples_;
    metrics_.avg_fragmentation = fragmentation_sum_ / fragmentation_samples_;
  }

  metrics_.pool_peak_pages = pool_.peak_pages_in_use();
  metrics_.pool_reuses = pool_.reuses();
  }  // other_timer

  // Per-step engine gauges as counter tracks (queue/batch/pool timelines
  // beside the step spans in Perfetto).
  if (trace_ != nullptr) {
    const std::uint64_t ts = trace_->now_ns();
    trace_->counter(0, obs::TraceDomain::engine, "pool.pages_free", ts,
                    "pages", static_cast<double>(pool_.pages_free()));
    trace_->counter(0, obs::TraceDomain::engine, "batch.running", ts,
                    "requests",
                    static_cast<double>(batcher_.running().size()));
    trace_->counter(0, obs::TraceDomain::engine, "queue.depth", ts,
                    "requests", static_cast<double>(batcher_.queue().size()));
  }

  ++metrics_.engine_steps;
  ++now_;
  if (finished_ < requests_.size()) return true;
  // Last request retired: drain the lane so metrics()/requests() and the
  // trace are complete (and any lane-job exception surfaces here).
  lane_.drain();
  return false;
}

void ServeEngine::run() {
  while (finished_ < requests_.size()) step();
}

}  // namespace topick::serve
