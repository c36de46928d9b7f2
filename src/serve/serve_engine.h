// ServeEngine: the multi-tenant prefill+decode loop of the serving stack.
// Its members live in three units:
//
// * serve_engine.cpp: construction and the step. A step (1) admits (see
//   below); (2) appends, sequentially in schedule order: each prefilling
//   request up to prefill_chunk_tokens of its prompt (or preemption
//   replay), each decoding request one token, preempting under pool
//   pressure; (3) attends, fanned over ServeConfig::threads workers: one
//   unit per (request, layer, head) on worker-local scratch, and the unit
//   owns its head for the phase. It quantizes the new token once into the
//   head's QuantizedKvCache, so a decode costs O(kept)
//   (ServeEngineEquivalence.CachedDecodeMatchesQuantizeFromScratch pins it
//   to quantizing the live set from scratch), attends, and makes one pass
//   over the Token-Picker verdicts that feeds the head's PrunePersistence;
//   tokens whose streak reached the window leave the cache (the one
//   liveness record), with the eviction's rescale; (4) reduces,
//   sequentially in slot order, only the state heads share: each head that
//   evicted sweeps its sequence, returning every full page its cache's id
//   list no longer touches to the pool; stats merge, outputs are stamped,
//   finished requests retire; (5) hands one job to the SerialLane that
//   replays the step's prefill + decode traffic through the DRAM proxy and
//   stamps first-token and finish cycles (inline unless
//   ServeConfig::pipeline); (6) samples the gauges.
// * request_lifecycle.cpp: submit, admission, start of prefill, preemption,
//   cancel, retry, fail and retire. Every move of a request between the
//   queue, the running set and backoff, with its SLO verdicts and its trace
//   lifecycle.
// * dram_proxy.{h,cpp}: the DRAM latency proxy (DramProxy): the memsim HBM
//   model, the per-request address scheme and the plan's channel faults.
//
// Results are bit-identical for every thread count and with the pipeline on
// or off: in the fan-out a head's state is written only by its own unit,
// shared state (the pool, metrics, requests) only in slot-ordered
// sequential phases, and lane jobs run in submission order. Request streams
// are pure functions of their arrival events, so preemption-recompute and
// the tests' shadow exact references replay exactly. A victim preempted in
// the append phase contributes no work to its step, and pages freed by a
// step's reclamation or retirement serve pool-pressure checks from the next
// step's append on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include <array>

#include "common/parallel.h"
#include "common/stats.h"
#include "core/quantized_kv_cache.h"
#include "core/spatten.h"
#include "core/token_picker.h"
#include "fault/degradation.h"
#include "fault/fault_plan.h"
#include "obs/phase_stats.h"
#include "obs/trace.h"
#include "serve/batcher.h"
#include "serve/dram_proxy.h"
#include "serve/paged_kv_pool.h"
#include "serve/paged_sequence.h"
#include "serve/request.h"
#include "serve/scheduling_policy.h"
#include "workload/arrivals.h"
#include "workload/decode_stream.h"

namespace topick::serve {

enum class BackendKind { exact_quantized, token_picker };

// Bounded exponential backoff for requests aborted by a fault or rejected by
// admission control. A request consumes one attempt per abort/rejection; once
// max_retries are spent the next cancellation is terminal (RequestState::
// failed). Deadline cancellations never retry — a blown deadline cannot be
// un-blown by waiting longer.
struct RetryPolicy {
  int max_retries = 3;
  std::size_t backoff_base_steps = 4;   // wait before the first retry
  double backoff_multiplier = 2.0;      // per additional attempt
  std::size_t backoff_max_steps = 64;   // cap on any single wait
  // Wait in engine steps before retry number `attempt` (1-based).
  std::size_t backoff_steps(int attempt) const;
};

// Overload admission control: past the utilization threshold, best_effort
// picks are *rejected* (cancelled through the retry path) instead of merely
// waiting — freeing queue pressure for classes with SLOs. Utilization counts
// pages in use plus pages already reserved by this step's earlier admissions.
struct AdmissionControl {
  double reject_best_effort_utilization = 0.0;  // 0 = off
};

struct ServeConfig {
  int n_layer = 1;
  int n_head = 2;
  int head_dim = 32;

  std::size_t max_batch = 16;
  std::size_t pool_pages = 1024;
  std::size_t page_tokens = 8;

  BackendKind backend = BackendKind::token_picker;
  TokenPickerConfig picker;
  // Removed: the SpAtten serve backend had no benchmark workload; SpAtten is
  // compared offline (bench_fig09 over core/spatten.h). The field remains
  // only because the benchmark's config dump reads it; the engine ignores
  // it. Delete it with the next change to the benchmark.
  SpAttenConfig spatten;
  wl::DecodeStreamParams stream;  // head_dim is overridden from above

  // Worker threads for the step's attention/quantization fan-out and for
  // the per-head stream generation at a request's first admission (the
  // calling thread included; 0 and 1 both mean sequential). Streams,
  // outputs, FleetMetrics, and per-step traffic are bit-identical for every
  // value — the parallel phase computes per-(slot, layer, head) results
  // into per-worker scratch and all mutation of shared state happens in
  // slot-ordered sequential phases (tests/serve_invariants_test.cpp
  // enforces identity at threads {1, 2, 8}). random_order visit ordering
  // is the one exclusion: it draws from a shared RNG stream, so it requires
  // threads <= 1.
  std::size_t threads = 1;

  // QoS scheduling: which queued request admits next and which running
  // request is preempted under pool pressure (scheduling_policy.h).
  // fifo_youngest_first reproduces the pre-policy baseline exactly;
  // policy_params (aging) applies to the priority-aware policies only.
  PolicyKind policy = PolicyKind::fifo_youngest_first;
  PrioritySlackParams policy_params;

  // Cross-step DRAM lane. Every step has one shape: append -> parallel
  // attention -> barrier -> slot-ordered reduce. Off, step t's memsim DRAM
  // replay and cycle-domain checkpoints then run inline. On, they run on a
  // SerialLane thread while step t+1 admits/appends/attends; lane jobs run
  // in submission order, so every simulated-clock read sees exactly the
  // state the sequential engine would have seen. Outputs, pruning
  // decisions, and FleetMetrics are bit-identical either way, for any
  // thread count and policy (enforced by tests/serve_invariants_test.cpp).
  // metrics()/phase_stats()/requests() are safe to read once step()
  // returned false (the lane is drained) — not mid-flight from another
  // thread.
  bool pipeline = false;

  // Removed: the sharded per-channel DRAM replay simulated a different DRAM
  // than the serial driver under queue pressure. The field remains only
  // because the benchmark's config dump reads it; the engine rejects true.
  // Delete it with the next change to the benchmark.
  bool shard_replay = false;

  // Chunked prefill: prompt (or preemption-replay) tokens appended per
  // engine step while a request is in the prefilling state. 0 = monolithic —
  // the whole remaining prefill lands in a single step. Either way the
  // prompt K/V write bits are charged to that step's DRAM traffic.
  std::size_t prefill_chunk_tokens = 16;
  // Concurrent chunked prefills (0 = uncapped); see BatcherConfig.
  std::size_t max_prefill = 0;

  // Consecutive pruned queries before a token's storage may be reclaimed.
  int persistence_window = 4;
  bool reclaim = true;

  // Record per-step outputs and token sets (memory ~ tokens; tests only).
  bool capture_outputs = false;

  // Replay per-step traffic through memsim for the latency proxy. Off, the
  // engine still accounts bits but reports no cycle numbers (faster benches).
  bool simulate_dram = true;
  mem::DramConfig dram;

  // --- Observability (src/obs/) ---
  // All three knobs are read-only taps: they observe the steady clock and
  // engine state but never mutate it, so outputs, pruning decisions, and
  // FleetMetrics are bit-identical with them on or off (enforced by
  // tests/obs_test.cpp on top of the serve determinism suite).

  // Cycle+wall-domain trace sink (null = tracing off). The recorder must
  // outlive the engine; the engine sizes its per-thread tracks to `threads`.
  obs::TraceRecorder* trace = nullptr;
  // Accumulate per-phase step time attribution (ServeEngine::phase_stats()).
  bool collect_phase_stats = false;
  // Removed: the exact sample vectors are the only stored form of each
  // latency distribution. The field remains only because the benchmark's
  // config dump reads it; the engine rejects false. Delete it with the next
  // change to the benchmark.
  bool retain_latency_samples = true;

  // --- Fault tolerance & graceful degradation (src/fault/) ---
  // Deterministic fault plan: degraded/stalled DRAM channels, transient
  // allocation failures, request aborts. Null or empty keeps the engine
  // bit-identical to a fault-free run (tests/fault_test.cpp enforces it).
  // The plan must outlive the engine — channel fault specs are wired into
  // the memsim channels by pointer.
  const fault::FaultPlan* faults = nullptr;
  // Cancel requests whose deadline (ArrivalEvent::deadline_steps, defaulting
  // to the latency SLO) has passed. Off, deadlines are never consulted and
  // VictimCandidate::slack_steps stays kNoSlack for every candidate.
  bool enforce_deadlines = false;
  RetryPolicy retry;
  AdmissionControl admission;
  // Closed-loop graceful degradation (fault/degradation.h): observes pool
  // pressure + interactive SLO attainment and tightens pruning thresholds /
  // cache headroom per class, best_effort first, shedding at the top level.
  fault::DegradationConfig degradation;
};

// Per-priority-class slice of the fleet metrics: latency distributions,
// queue wait, preemption pressure, and SLO attainment. SLOs are deadlines in
// engine steps carried by the arrival events (wl::ArrivalEvent); requests
// without an SLO are not counted toward attainment.
struct ClassMetrics {
  std::size_t submitted = 0;
  std::size_t retired = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t tokens_generated = 0;

  std::vector<double> ttft_cycle_samples;
  std::vector<double> latency_cycle_samples;
  std::vector<double> queue_wait_step_samples;

  std::size_t slo_ttft_tracked = 0;
  std::size_t slo_ttft_met = 0;
  std::size_t slo_latency_tracked = 0;
  std::size_t slo_latency_met = 0;

  // Resilience outcomes (all zero without faults/deadlines/admission
  // control; see the FleetMetrics twins for semantics).
  std::size_t failed = 0;
  std::uint64_t aborts = 0;
  std::uint64_t retries = 0;
  std::uint64_t rejections = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t degraded_tokens = 0;

  double p50_ttft_cycles() const;
  double p99_ttft_cycles() const;
  double p99_latency_cycles() const;
  double avg_queue_wait_steps() const;
  // Fraction of SLO-carrying requests that met the deadline; 1.0 when the
  // class tracked none (vacuously attained).
  double slo_ttft_attainment() const;
  double slo_latency_attainment() const;

 private:
  // Sort-once snapshots for the percentile accessors (see PercentileCache).
  PercentileCache ttft_cache_;
  PercentileCache latency_cache_;
};

struct FleetMetrics {
  std::size_t requests_submitted = 0;
  std::size_t requests_retired = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t tokens_generated = 0;
  std::uint64_t engine_steps = 0;

  AccessStats stats;  // decode attention traffic, fleet-wide

  // Prefill accounting: token positions appended by (re)prefill — preemption
  // replays included — and the K/V write bits charged to the DRAM proxy.
  std::uint64_t prefill_tokens = 0;
  std::uint64_t prefill_bits = 0;
  // K/V write bits of tokens appended by decode steps (same per-token shape
  // as prefill writes, so write cost doesn't depend on the scheduling path).
  std::uint64_t decode_write_bits = 0;

  // Latency proxy: DRAM cycles to serve one request's one *decode* step (all
  // its layers/heads), under contention from the co-scheduled batch —
  // including any prefill chunks sharing the step.
  std::vector<double> step_cycle_samples;
  std::uint64_t dram_cycles = 0;  // total simulated DRAM clock
  // The DRAM proxy's counters (row hits, refreshes, stalls), summed over
  // channels and copied with dram_cycles; all zero when the proxy is off.
  mem::DramStats dram;

  // Request-level latency (populated when simulate_dram is on): arrival ->
  // first generated token (TTFT) and arrival -> retirement, in DRAM cycles.
  // Queue wait is visible here — the DRAM clock advances while a queued
  // request waits on other requests' traffic.
  std::vector<double> ttft_cycle_samples;
  std::vector<double> request_latency_cycle_samples;
  // Arrival -> first admission, in engine steps (always recorded).
  std::vector<double> queue_wait_step_samples;

  // Resilience outcomes (src/fault/). requests_failed counts terminal
  // non-success: retries exhausted or a deadline cancellation. aborts counts
  // every fault/deadline cancellation (including ones later retried);
  // rejections counts admission-control rejections of best_effort picks;
  // retries counts backoff re-queues; degraded_tokens counts decode tokens
  // generated while the request's class was running under a nonzero
  // degradation notch. All stay zero when faults/deadlines/admission control/
  // the controller are off.
  std::size_t requests_failed = 0;
  std::uint64_t aborts = 0;
  std::uint64_t retries = 0;
  std::uint64_t rejections = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t degraded_tokens = 0;
  std::uint64_t degradation_level_changes = 0;
  int degradation_level = 0;  // controller level when the run ended

  std::size_t pool_peak_pages = 0;
  std::uint64_t pool_reuses = 0;
  std::uint64_t pages_reclaimed = 0;  // freed by pruning (not retirement)
  double avg_fragmentation = 0.0;  // dead-but-unreclaimed slot fraction

  // Resident host KV bytes held by the running slots' quantized caches,
  // sampled every step (the _peak fields track the run's maximum). Split by
  // arena (see QuantizedKvCache::ResidencyBytes). Neither the cache nor the
  // request's stream keeps float rows: whole-head rescales regenerate them
  // from the stream's checkpoints through a PagedRescaleSource.
  std::size_t kv_value_plane_bytes = 0;
  std::size_t kv_key_plane_bytes = 0;
  std::size_t kv_maxima_bytes = 0;
  std::size_t kv_ids_bytes = 0;
  std::size_t kv_resident_tokens = 0;
  std::size_t kv_resident_bytes_peak = 0;
  std::size_t kv_resident_tokens_peak = 0;
  // Stored rows whole-head rescales re-quantized (and so regenerated from
  // the stream), per arena: the host cost of keeping no float rows. Summed
  // from each slot's quantized caches when the slot is released.
  std::uint64_t key_rows_requantized = 0;
  std::uint64_t value_rows_requantized = 0;

  // Per-priority-class breakdowns, indexed by wl::Priority.
  std::array<ClassMetrics, wl::kPriorityCount> per_class;
  const ClassMetrics& for_class(wl::Priority priority) const {
    return per_class[static_cast<std::size_t>(priority)];
  }

  double p50_step_cycles() const;
  double p95_step_cycles() const;
  double p99_step_cycles() const;
  double p50_ttft_cycles() const;
  double p95_ttft_cycles() const;
  double p99_ttft_cycles() const;
  double p50_request_latency_cycles() const;
  double p99_request_latency_cycles() const;
  double avg_queue_wait_steps() const;
  double prefill_bytes() const { return static_cast<double>(prefill_bits) / 8.0; }
  // Generation throughput under the memory-bound proxy (1 GHz DRAM clock).
  // The cycle denominator includes prefill traffic: prompts are not free.
  double tokens_per_second(double dram_clock_hz = 1e9) const;
  // DRAM bytes moved per generated token, prefill writes included.
  double bytes_per_token() const;

 private:
  PercentileCache step_cache_;
  PercentileCache ttft_cache_;
  PercentileCache latency_cache_;
};

class ServeEngine {
 public:
  explicit ServeEngine(const ServeConfig& config);
  ~ServeEngine();

  // Registers the request described by the event. Events must be submitted
  // in nondecreasing arrival-step order. The request's decode stream is not
  // built here: begin_prefill builds it at the first admission, its heads
  // fanned over the engine's worker pool, and retire/fail_request release it
  // (a preempted or backed-off request keeps it for the replay).
  void submit(const wl::ArrivalEvent& event);
  void submit_trace(const std::vector<wl::ArrivalEvent>& trace);

  // Advances one engine step. Returns false once every submitted request has
  // finished (and the step performed no work).
  bool step();
  // Runs until all submitted requests retire.
  void run();

  std::size_t now() const { return now_; }
  const std::vector<Request>& requests() const { return requests_; }
  const PagedKvPool& pool() const { return pool_; }
  const ContinuousBatcher& batcher() const { return batcher_; }
  const FleetMetrics& metrics() const { return metrics_; }
  const ServeConfig& config() const { return config_; }
  // Per-phase step time attribution; all-zero unless collect_phase_stats.
  const obs::StepPhaseStats& phase_stats() const { return phase_stats_; }
  // A request's page accounting and quantized cache for one (layer, head);
  // both null while the request holds no slot.
  struct HeadState {
    const PagedSequence* seq = nullptr;
    const QuantizedKvCache* qcache = nullptr;
  };
  HeadState head_state(std::size_t request, int layer, int head) const;

 private:
  struct Workspace;  // per-worker attention scratch (no sharing across workers)

  // One (layer, head) of a running request: its page accounting for the
  // stream's `tokens` tokens, the incrementally quantized cache of its live
  // tokens (the attention read path, and the one record of which tokens are
  // live), and the prune-persistence tracker. The append phase appends to
  // `seq`; the attention unit of the head writes the rest, handing each
  // cache call that can rescale a PagedRescaleSource over `seq` and the
  // request's stream built on its own stack; the reduce sweeps `seq`.
  struct Head {
    Head(PagedKvPool* pool, const ServeConfig& config, float headroom,
         std::size_t tokens);

    PagedSequence seq;
    QuantizedKvCache qcache;
    PrunePersistence persistence;
  };
  // A running request's heads, layer-major. `headroom` is the quantized
  // caches' rescale headroom: 1.0 normally, raised by the degradation
  // controller for slots created while the request's class is degraded.
  struct Slot {
    Slot(PagedKvPool* pool, const ServeConfig& config, float headroom,
         std::size_t tokens);

    std::size_t pages_held() const;
    void release_all();

    std::vector<Head> heads;  // sized once by the constructor, never grown
  };

  // Cycle-domain work a decode step leaves for after the replay: stamp the
  // request's first-token/finish cycles and feed the latency metrics. These
  // run in the step's lane job; the step-domain twins (first_token_step, SLO
  // counters) are applied at reduce time on the main thread — the value
  // partition that keeps the lane and the main thread off each other's
  // fields when the lane has its own thread.
  struct CycleCheckpoint {
    std::size_t request = 0;
    bool first_token = false;
    bool finished = false;
  };

  // One scheduled request's unit of step work, recorded by the sequential
  // append phase and consumed by the parallel attention phase plus the
  // slot-ordered reduction (see step()).
  struct PendingWork {
    std::size_t request = 0;
    bool decode = false;
    std::size_t pos = 0;               // decode: appended token position
    std::size_t chunk = 0;             // prefill: tokens appended this step
    std::size_t prefilled_before = 0;  // prefill: cursor before this chunk
  };
  // What a decode unit leaves the slot-ordered reduce, which owns the state
  // heads share; buffers reused across steps.
  struct InstanceResult {
    AccessStats stats;
    bool evicted = false;  // the head's sequence has pages to sweep
    // capture_outputs only: the head's output and the ids it kept.
    std::vector<float> out;
    std::vector<std::size_t> kept_ids;
  };

  // Every submitted request is finished or failed.
  bool all_done() const {
    return metrics_.requests_retired + metrics_.requests_failed >=
           requests_.size();
  }
  ClassMetrics& class_metrics(const Request& request) {
    return metrics_.per_class[static_cast<std::size_t>(request.priority())];
  }

  // --- Step (serve_engine.cpp) ---
  // All three return false when `request` lost its slot mid-call
  // (self-preempted because the policy protects every running request, or
  // cancelled by an allocation fault): the caller must not touch the slot or
  // charge traffic.
  bool ensure_pages_for_append(std::size_t request, std::size_t tokens);
  // Append phase (sequential): pool pressure + paged appends; records a
  // PendingWork on success.
  bool append_prefill_chunk(std::size_t request);
  bool append_decode_token(std::size_t request);
  // Attention phase (parallel): quantize the appended K/V into the unit's
  // head and attend; a decode unit also observes persistence and evicts
  // from its head. Writes only that head, worker-local scratch and
  // results_[pending * n_inst + inst].
  void run_unit(std::size_t pending, std::size_t inst, std::size_t worker);
  void run_decode_instance(std::size_t pending, std::size_t inst,
                           std::size_t worker);
  // Reduction phase (sequential, slot order): page sweeps of the heads that
  // evicted, stats merge, output capture, step traffic, retirement.
  void reduce_pending(std::size_t pending);
  // Submits step `now_`'s DRAM replay and cycle checkpoints to the lane as
  // one job, consuming active_/checkpoints_. The lane runs it inline (timed
  // as replay_ns) unless ServeConfig::pipeline gave it a thread (timed as
  // lane_busy_ns).
  void finish_step_cycle_work();
  // Post-replay cycle-domain bookkeeping: first-token/finish cycle stamps,
  // TTFT/latency metrics, first_token trace instants.
  void apply_cycle_checkpoints(const std::vector<CycleCheckpoint>& checkpoints,
                               std::size_t step);
  // The lane's trace track (after the worker tracks); 0 when not pipelined.
  std::size_t lane_track() const {
    return config_.pipeline ? workers_.threads() : 0;
  }
  // Stamps a request-domain event with the wall time and DRAM cycle and
  // records it on lane_track(). Lane-side only: the cycle must be the one
  // the sequential engine would show.
  void record_stamped(obs::TraceEvent event);

  // --- Request lifecycle (request_lifecycle.cpp) ---
  enum class CancelReason { fault, deadline, rejected };
  std::size_t pages_for_prefill(const Request& request) const;
  // K/V write bits a preempted `request` would replay on resume (prompt plus
  // already-generated tokens) — the recompute cost CostAwareVictim ranks by.
  std::uint64_t replay_cost_bits(const Request& request) const;
  // Deadline in engine steps from the arrival step (explicit deadline_steps,
  // else the latency SLO); 0 = none.
  std::size_t effective_deadline_steps(const Request& request) const;
  // Remaining slack for victim selection; kNoSlack when enforcement is off
  // or the request carries no deadline.
  long long deadline_slack(const Request& request) const;
  // Step-start sequential phase: re-queue due backoff requests, fire the
  // plan's abort faults, cancel past-deadline requests.
  void process_retries_and_faults();
  // Degradation controller cadence: publish pool/SLO signals, observe, and
  // refresh the per-class threshold-scale/headroom caches on level changes.
  void update_degradation();
  void admit_due_requests();
  void begin_prefill(std::size_t request);
  // Applies the policy's victim pick (or self-preempts `needy` on refusal —
  // the false return). Throws when `needy` is the only running request.
  bool preempt_for_pressure(std::size_t needy);
  void do_preempt(std::size_t request);
  // Removes `request` from wherever it lives (queue / running / backoff),
  // releasing its slot exactly once and resetting the prefill cursor, then
  // either schedules a retry (backoff) or fails it terminally. Progress
  // (generated tokens) is retained — a retry replays prompt+generated like
  // preemption-recompute.
  void cancel_request(std::size_t request, CancelReason reason);
  void fail_request(std::size_t request);
  void retire(std::size_t request);
  // Takes `request` off the running set if it holds a slot: returns its
  // pages and quantized caches to the pool and drops it from the batcher.
  // A non-terminal detach (preemption, cancel) happens before the reduction
  // and also drops the work the request recorded this step; a terminal one
  // (retire, fail) releases the stream, which no replay will read.
  void detach(std::size_t request, bool terminal);
  // Drops a preempted or cancelled request's recorded step work.
  void cancel_step_work(std::size_t request);
  // Counts one TTFT / latency verdict in the request's class; no-op for a
  // request without that SLO.
  void record_ttft_slo(const Request& request, bool met);
  void record_latency_slo(const Request& request, bool met);
  // Request-lifecycle trace events (pid "requests", one async track per
  // request): 'b'/'e' open and close a state span, 'n' marks an instant.
  // Begins and instants carry the step; `args` follow it. A request's track
  // is one "request" span nesting exactly one of {queued, prefill, decode}
  // at any instant.
  static obs::TraceEvent lifecycle_event(std::size_t request, char phase,
                                         const char* name, std::size_t step);
  // Records one as a lane job (no-op when tracing is off), so its cycle
  // stamp reflects the sequential engine's clock.
  void trace_lifecycle(std::size_t request, char phase, const char* name,
                       std::initializer_list<obs::TraceArg> args = {});

  ServeConfig config_;
  std::uint64_t token_write_bits_ = 0;  // K/V bits appended per token
  PagedKvPool pool_;
  ContinuousBatcher batcher_;
  std::unique_ptr<SchedulingPolicy> policy_;
  DramProxy dram_;
  ThreadPool workers_;

  std::vector<Request> requests_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::size_t next_arrival_ = 0;  // index into requests_ by arrival order
  std::size_t now_ = 0;

  FleetMetrics metrics_;
  double fragmentation_sum_ = 0.0;
  std::size_t fragmentation_samples_ = 0;

  // Fault-tolerance state (all inert when ServeConfig::faults is null/empty
  // and the controller is disabled). Everything here is owned by the main
  // thread's step-domain phases — the pipelined lane never touches it.
  fault::FaultInjector injector_;
  fault::DegradationController degrade_;
  std::vector<std::size_t> backoff_;      // requests in RequestState::backoff
  std::vector<std::size_t> retry_scratch_;
  // Per-class caches of the controller's knobs, refreshed on level changes;
  // identity (1.0) while the controller is disabled or at level 0.
  std::array<double, wl::kPriorityCount> degrade_scale_{{1.0, 1.0, 1.0}};
  std::array<float, wl::kPriorityCount> degrade_headroom_{{1.0f, 1.0f, 1.0f}};
  // Interactive TTFT-SLO window snapshot between controller evaluations.
  std::size_t slo_window_tracked_ = 0;
  std::size_t slo_window_met_ = 0;

  // Observability taps (read-only with respect to engine state).
  obs::TraceRecorder* trace_ = nullptr;
  obs::StepPhaseStats phase_stats_;
  std::vector<obs::WorkerBusyNs> worker_busy_;  // zeroed per step

  // Per-worker attention scratch (allocation-free decode; one per thread so
  // the parallel phase never shares TokenPickerAttention state).
  std::vector<std::unique_ptr<Workspace>> workspaces_;
  // Step-phase work lists, members so do_preempt can cancel a victim's
  // recorded work mid-append-phase; reused across steps.
  std::vector<PendingWork> pending_;
  std::vector<InstanceResult> results_;
  std::vector<DramTransfer> active_;
  std::vector<CycleCheckpoint> checkpoints_;
  // Policy candidate scratch, rebuilt per pick.
  std::vector<AdmissionCandidate> admission_scratch_;
  std::vector<VictimCandidate> victim_scratch_;
  // Queue handles paired with admission_scratch_ entries so the winning
  // candidate is erased in O(1).
  std::vector<RequestQueue::Handle> admission_handles_;

  // Cross-step cycle-domain lane (runs jobs inline unless pipelined). Lane
  // jobs touch dram_, the requests' cycle stamps, and the metrics' latency
  // samples — all members above — so the lane is declared last: its
  // destructor drains outstanding jobs before anything they read is torn
  // down.
  SerialLane lane_;
};

}  // namespace topick::serve
