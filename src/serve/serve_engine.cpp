#include "serve/serve_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>

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
  // Rows regenerated from the request's stream for an append, sized on
  // first use (the largest prefill chunk this worker has appended).
  std::vector<float> keys, values;

  void size_rows(std::size_t floats) {
    if (keys.size() < floats) {
      keys.resize(floats);
      values.resize(floats);
    }
  }
};

ServeEngine::Slot::Slot(PagedKvPool* pool, const ServeConfig& config,
                        float headroom, const wl::DecodeStream& stream)
    : cache(pool, config.n_layer, config.n_head, stream.total_tokens()) {
  const auto n = static_cast<std::size_t>(config.n_layer) * config.n_head;
  persistence.reserve(n);
  qcaches.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    persistence.emplace_back(config.persistence_window);
    qcaches.emplace_back(
        static_cast<std::size_t>(config.head_dim),
        QuantizedKvCache::Config{config.picker.quant, headroom});
  }
  // No copy of a row outlives its append: whole-head rescales regenerate
  // the live rows from the request's stream (stable ids coincide by
  // construction), gated by the sequence's page residency. The step's phase
  // ordering keeps every queried id resident: sequential seq.append runs
  // before the parallel qcache appends, and eviction rescales run before
  // sweep() frees any page.
  rescale_sources.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int layer = static_cast<int>(i) / config.n_head;
    const int head = static_cast<int>(i) % config.n_head;
    rescale_sources.emplace_back(&cache.seq(layer, head), &stream, layer,
                                 head);
    qcaches[i].set_rescale_source(&rescale_sources[i]);
  }
}

ServeEngine::HeadState ServeEngine::head_state(std::size_t request, int layer,
                                               int head) const {
  const Slot* slot = slots_.at(request).get();
  if (slot == nullptr) return {};
  return {&slot->cache.seq(layer, head),
          &slot->qcaches[static_cast<std::size_t>(layer) * config_.n_head +
                         head]};
}

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
      dram_(config.dram, config.faults),
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
  // Every slot builds a PrunePersistence over this window; refuse it here
  // rather than at the first admission, mid-run.
  require(config.persistence_window >= 1,
          "ServeConfig: persistence_window must be >= 1");
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
    trace_lifecycle(request, 'e', "prefill");
    trace_lifecycle(request, 'b', "decode");
  }
  return true;
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

  // Regenerate and quantize the new token once; earlier tokens stay
  // quantized (the cache rescales the head only when the live max|x|
  // changes).
  Workspace& ws = *workspaces_[worker];
  ws.size_rows(dim);
  req.stream.fill_rows(layer, head, work.pos, 1, ws.keys.data(),
                       ws.values.data());
  qcache.append({ws.keys.data(), dim}, {ws.values.data(), dim}, work.pos);

  const auto q = req.stream.query(layer, head, req.generated);
  const auto n_inst = static_cast<std::size_t>(config_.n_layer) *
                      config_.n_head;
  InstanceResult& res = results_[pending * n_inst + inst];
  res.stats = AccessStats{};
  res.decisions.clear();

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
    // Prefill: regenerate this instance's chunk into worker scratch and
    // quantize it via the bulk path (at most one rescale for the whole
    // chunk). Instances touch disjoint caches.
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
    Workspace& ws = *workspaces_[worker];
    ws.size_rows(work.chunk * dim);
    req.stream.fill_rows(layer, head, work.prefilled_before, work.chunk,
                         ws.keys.data(), ws.values.data());
    slot.qcaches[inst].append_rows(ws.keys.data(), ws.values.data(),
                                   work.chunk, work.prefilled_before);
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
    active_.push_back(DramTransfer{work.request, /*decode=*/false, bits});
    // Emitted here — not at append time — so chunks cancelled by same-step
    // preemption never appear: the trace invariant "sum of prefill_chunk
    // token args == metrics.prefill_tokens" holds exactly.
    trace_lifecycle(work.request, 'n', "prefill_chunk",
                    {{"tokens", static_cast<double>(work.chunk)},
                     {"cursor", static_cast<double>(work.prefilled_before)}});
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
      // One verdict per live token: the decisions cover the cache's whole
      // id list, which is the one record of which tokens are live.
      auto& persistence = slot.persistence[inst];
      dead_scratch_.clear();
      for (const auto& decision : res.decisions) {
        const std::size_t global = qcache.id_at(decision.token);
        if (config_.reclaim && persistence.observe(global, decision.kept)) {
          dead_scratch_.push_back(global);
        }
        if (config_.capture_outputs && decision.kept) {
          kept_ids.push_back(global);
        }
      }
      // Reclaimed tokens leave the cache now, so the next step's attention
      // view (and its shared scale) covers exactly the live set; the
      // eviction's rescale reads survivors before any page is freed. Only
      // an eviction can leave a full page without a live id.
      if (!dead_scratch_.empty()) {
        qcache.evict_ids(dead_scratch_);
        auto& seq = slot.cache.seq(static_cast<int>(inst) / config_.n_head,
                                   static_cast<int>(inst) % config_.n_head);
        metrics_.pages_reclaimed += seq.sweep(qcache.ids());
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
  active_.push_back(DramTransfer{work.request, /*decode=*/true, bits});
  ++req.generated;
  ++metrics_.tokens_generated;
  ++class_metrics(req).tokens_generated;
  if (degrade_.enabled() && degrade_.notches(req.priority()) > 0) {
    ++metrics_.degraded_tokens;
    ++class_metrics(req).degraded_tokens;
  }

  // Step-domain latency bookkeeping happens now, at reduce time; the
  // cycle-domain twins (cycle stamps + TTFT/latency samples) become a
  // CycleCheckpoint the step's lane job applies after the replay.
  CycleCheckpoint cp;
  cp.request = work.request;
  if (!req.first_token_recorded) {
    req.first_token_recorded = true;
    req.first_token_step = now_;
    cp.first_token = true;
    record_ttft_slo(
        req, req.first_token_step - req.event.step <= req.event.slo_ttft_steps);
  }
  if (req.done()) {
    retire(work.request);
    cp.finished = true;
  }
  if (cp.first_token || cp.finished) checkpoints_.push_back(cp);
}

void ServeEngine::apply_cycle_checkpoints(
    const std::vector<CycleCheckpoint>& checkpoints, std::size_t step) {
  // Stamped after the step's traffic drained, so the DRAM clock includes this
  // step's contention. Runs in the step's lane job: every field it touches
  // (cycle stamps, TTFT/latency samples) is lane-owned, disjoint from the
  // step-domain fields the main thread writes.
  for (const auto& cp : checkpoints) {
    Request& req = requests_[cp.request];
    if (cp.first_token) {
      req.first_token_cycle = dram_.cycle();
      if (trace_ != nullptr) {
        record_stamped(lifecycle_event(cp.request, 'n', "first_token", step));
      }
      if (config_.simulate_dram) {
        const auto ttft = static_cast<double>(req.ttft_cycles());
        metrics_.ttft_cycle_samples.push_back(ttft);
        class_metrics(req).ttft_cycle_samples.push_back(ttft);
      }
    }
    if (cp.finished) {
      req.finish_cycle = dram_.cycle();
      if (config_.simulate_dram) {
        const auto latency = static_cast<double>(req.latency_cycles());
        metrics_.request_latency_cycle_samples.push_back(latency);
        class_metrics(req).latency_cycle_samples.push_back(latency);
      }
    }
  }
}

void ServeEngine::finish_step_cycle_work() {
  // One job replays this step's traffic and applies its checkpoints. Jobs
  // run in submission order — identical to sequential program order — so
  // on the lane's thread the DRAM clock evolves bit-identically to the
  // inline run while the main thread starts step t+1.
  if (active_.empty() && checkpoints_.empty()) return;
  lane_.submit([this, xfers = std::move(active_),
                cps = std::move(checkpoints_), step = now_] {
    std::uint64_t* phase = lane_.enabled() ? &phase_stats_.lane_busy_ns
                                           : &phase_stats_.replay_ns;
    obs::PhaseTimer timer(config_.collect_phase_stats ? phase : nullptr);
    if (config_.simulate_dram && !xfers.empty()) {
      obs::TraceSpan span(trace_, lane_track(), "dram_replay", "engine");
      span.cycle(dram_.cycle());
      span.arg("transfers", static_cast<double>(xfers.size()));
      span.arg("step", static_cast<double>(step));
      const std::uint64_t start = dram_.cycle();
      const std::vector<std::uint64_t>& finish =
          dram_.replay(xfers, trace_, lane_track());
      for (std::size_t i = 0; i < xfers.size(); ++i) {
        const std::uint64_t cycles = finish[i] - start;
        requests_[xfers[i].request].dram_cycles += cycles;
        // Decode-step latency samples stay decode-only so prefill chunks
        // don't masquerade as token latencies — but they DO stretch the
        // co-scheduled decodes' samples through bus/bank contention.
        if (xfers[i].decode) {
          metrics_.step_cycle_samples.push_back(static_cast<double>(cycles));
        }
      }
      metrics_.dram_cycles = dram_.cycle();
      metrics_.dram = dram_.stats();
    }
    apply_cycle_checkpoints(cps, step);
  });
  active_ = {};  // moved-from: hand back fresh buffers for the next step
  checkpoints_ = {};
}

void ServeEngine::record_stamped(obs::TraceEvent event) {
  event.ts = trace_->now_ns();
  event.cycle = dram_.cycle();
  trace_->record(lane_track(), event);
}

bool ServeEngine::step() {
  if (all_done()) {
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
  if (!config_.pipeline) step_span.cycle(dram_.cycle());

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
  // Fragmentation sample over live slots (running requests only); the
  // quantized caches hold exactly the live tokens.
  std::size_t pages = 0;
  QuantizedKvCache::ResidencyBytes kv{};
  std::size_t kv_tokens = 0;
  for (const std::size_t request : batcher_.running()) {
    pages += slots_[request]->cache.pages_held();
    for (const QuantizedKvCache& qcache : slots_[request]->qcaches) {
      const auto r = qcache.residency();
      kv.value_planes += r.value_planes;
      kv.key_planes += r.key_planes;
      kv.maxima += r.maxima;
      kv.ids += r.ids;
      kv_tokens += qcache.len();
    }
  }
  metrics_.kv_value_plane_bytes = kv.value_planes;
  metrics_.kv_key_plane_bytes = kv.key_planes;
  metrics_.kv_maxima_bytes = kv.maxima;
  metrics_.kv_ids_bytes = kv.ids;
  metrics_.kv_resident_tokens = kv_tokens;
  metrics_.kv_resident_bytes_peak =
      std::max(metrics_.kv_resident_bytes_peak, kv.total());
  metrics_.kv_resident_tokens_peak =
      std::max(metrics_.kv_resident_tokens_peak, kv_tokens);
  if (pages > 0) {
    fragmentation_sum_ +=
        1.0 - static_cast<double>(kv_tokens) /
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
  if (!all_done()) return true;
  // Last request retired: drain the lane so metrics()/requests() and the
  // trace are complete (and any lane-job exception surfaces here).
  lane_.drain();
  return false;
}

void ServeEngine::run() {
  while (!all_done()) step();
}

}  // namespace topick::serve
