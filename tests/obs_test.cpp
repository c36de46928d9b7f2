// Observability-layer suite: trace invariants, the fleet counters the
// engine reports, and the "tracing never changes bits" contract.
//
// * FleetMetrics: the DRAM counters follow the latency proxy, and the
//   priority mix fills every exact latency sample vector.
// * TraceRecorder: engine traces are well-formed Chrome trace JSON, spans on
//   each thread track are properly nested (no partial overlap), async
//   request lifecycles are balanced, and event counts reconcile against
//   FleetMetrics (one "unit:attend" span per generated token per instance;
//   "prefill_chunk" token args sum to prefill_tokens).
// * Determinism: tracing + phase stats on vs off leaves outputs and metrics
//   bit-identical for every scheduling policy at threads {1, 2, 8}; two
//   traced runs produce structurally identical traces.
#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "obs/phase_stats.h"
#include "obs/trace.h"
#include "obs/trace_validate.h"
#include "serve/serve_engine.h"
#include "serve_identity.h"
#include "workload/arrivals.h"

namespace topick {
namespace {

using obs::TraceDomain;
using obs::TraceEvent;
using obs::TraceRecorder;
using serve::FleetMetrics;
using serve::PolicyKind;
using serve::ServeConfig;
using serve::ServeEngine;

// ---- PercentileCache --------------------------------------------------------

TEST(PercentileCache, MatchesPercentileAcrossAppends) {
  Rng rng(7005);
  PercentileCache cache;
  std::vector<double> samples;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 257; ++i) samples.push_back(rng.uniform(0.0, 1e6));
    for (const double p : {0.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
      EXPECT_DOUBLE_EQ(cache.at(samples, p), percentile(samples, p));
    }
    // Repeat reads at the same size hit the cached sort.
    EXPECT_DOUBLE_EQ(cache.at(samples, 50.0), percentile(samples, 50.0));
  }
  EXPECT_DOUBLE_EQ(cache.at({}, 50.0), 0.0);
}

// ---- Engine trace fixtures --------------------------------------------------

// Same contended scenario as the serve determinism suite: a tight pool so
// preemption/replay paths run, DRAM sim on so both clock domains emit.
ServeConfig traced_config(PolicyKind policy) {
  ServeConfig config;
  config.n_layer = 1;
  config.n_head = 2;
  config.head_dim = 16;
  config.max_batch = 6;
  config.pool_pages = 56;
  config.page_tokens = 4;
  config.backend = serve::BackendKind::token_picker;
  config.picker.estimator.threshold = 1e-3;
  config.persistence_window = 2;
  config.reclaim = true;
  config.capture_outputs = true;
  config.simulate_dram = true;
  config.prefill_chunk_tokens = 8;
  config.policy = policy;
  config.policy_params.aging_steps = 16;
  return config;
}

std::vector<wl::ArrivalEvent> traced_trace() {
  wl::PriorityMixParams mix;
  mix.arrivals.rate = 0.9;
  for (auto& m : mix.mix) {
    m.prompt_min = 4;
    m.prompt_max = 24;
    m.decode_min = 8;
    m.decode_max = 24;
  }
  Rng trace_rng(2026);
  return wl::make_priority_mix_trace(mix, 18, trace_rng);
}

// Runs a full engine with tracing + phase stats into `recorder`.
FleetMetrics run_traced(const ServeConfig& base, TraceRecorder* recorder,
                        std::vector<serve::Request>* requests = nullptr,
                        obs::StepPhaseStats* phases = nullptr) {
  ServeConfig config = base;
  config.trace = recorder;
  config.collect_phase_stats = true;
  ServeEngine engine(config);
  engine.submit_trace(traced_trace());
  engine.run();
  if (requests != nullptr) *requests = engine.requests();
  if (phases != nullptr) *phases = engine.phase_stats();
  return engine.metrics();
}

// The DRAM counters come from the latency proxy alone: a proxy-on run
// issues requests and hits open rows, a proxy-off run leaves every counter
// at zero.
TEST(FleetMetrics, DramCountersFollowTheProxy) {
  for (const bool proxy : {true, false}) {
    ServeConfig config = traced_config(PolicyKind::fifo_youngest_first);
    config.simulate_dram = proxy;
    const mem::DramStats dram = run_traced(config, nullptr).dram;
    SCOPED_TRACE(proxy ? "proxy on" : "proxy off");
    if (proxy) {
      EXPECT_GT(dram.requests, 0u);
      EXPECT_LE(dram.row_hits, dram.requests);
      EXPECT_GT(dram.row_hit_rate(), 0.0);
      EXPECT_LE(dram.row_hit_rate(), 1.0);
    } else {
      EXPECT_EQ(dram.requests, 0u);
      EXPECT_EQ(dram.row_hits, 0u);
      EXPECT_EQ(dram.row_misses, 0u);
      EXPECT_EQ(dram.row_hit_rate(), 0.0);
      EXPECT_EQ(dram.activates, 0u);
      EXPECT_EQ(dram.refreshes, 0u);
      EXPECT_EQ(dram.bytes_read, 0u);
      EXPECT_EQ(dram.data_bus_busy_cycles, 0u);
      EXPECT_EQ(dram.queue_full_stalls, 0u);
      EXPECT_EQ(dram.fault_stall_cycles, 0u);
    }
  }

  // One-deep channel queues turn the streaming driver's enqueues away, and
  // every refusal is counted.
  ServeConfig shallow = traced_config(PolicyKind::fifo_youngest_first);
  shallow.dram.queue_depth = 1;
  EXPECT_GT(run_traced(shallow, nullptr).dram.queue_full_stalls, 0u);
}

// ---- Trace well-formedness --------------------------------------------------

TEST(Trace, EngineTraceIsValidChromeJson) {
  TraceRecorder recorder(1);
  run_traced(traced_config(PolicyKind::priority_slack), &recorder);
  std::ostringstream out;
  recorder.write_chrome_json(out);
  const auto v = obs::validate_chrome_trace(out.str());
  EXPECT_TRUE(v.ok) << v.error;
  // The export adds process/thread metadata records on top of the recording.
  EXPECT_GE(v.events, recorder.event_count());
  EXPECT_GT(v.span_events, 0u);
}

TEST(Trace, HandRolledEventsValidateAndRoundTripCounts) {
  TraceRecorder recorder(2);
  {
    obs::TraceSpan span(&recorder, 0, "outer");
    span.arg("k", 1.0);
    obs::TraceSpan inner(&recorder, 0, "inner");
  }
  // One event of every other phase the exporter writes: an instant, a
  // counter and an async begin / instant / end on one request id.
  const auto mark = [&recorder](std::size_t track, char phase,
                                TraceDomain domain, const char* name) {
    TraceEvent e;
    e.name = name;
    e.phase = phase;
    e.domain = domain;
    e.id = 7;
    e.ts = recorder.now_ns();
    recorder.record(track, e);
  };
  mark(1, 'i', TraceDomain::engine, "mark");
  recorder.counter(0, TraceDomain::memsim, "occupancy", 128, "ch0", 3.0);
  mark(0, 'b', TraceDomain::request, "life");
  mark(0, 'n', TraceDomain::request, "tick");
  mark(0, 'e', TraceDomain::request, "life");
  EXPECT_EQ(recorder.event_count(), 7u);

  std::ostringstream out;
  recorder.write_chrome_json(out);
  const auto v = obs::validate_chrome_trace(out.str());
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.span_events, 2u);

  // A null recorder makes the RAII helpers no-ops (call-site contract).
  obs::TraceSpan noop(nullptr, 0, "ignored");
  noop.arg("k", 1.0);
  noop.cycle(5);
}

TEST(Trace, ValidatorRejectsMalformedInput) {
  EXPECT_FALSE(obs::validate_chrome_trace("not json").ok);
  EXPECT_FALSE(obs::validate_chrome_trace("{}").ok);  // no traceEvents
  EXPECT_FALSE(
      obs::validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").ok);
}

// ---- Trace structural invariants -------------------------------------------

struct SpanInterval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  const char* name = nullptr;
};

// Spans recorded on one track come from one thread's nested RAII scopes, so
// any two must be disjoint or fully nested — strict partial overlap means
// the instrumentation (or buffer ownership) is broken.
void expect_no_partial_overlap(const std::vector<SpanInterval>& spans) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      const auto& a = spans[i];
      const auto& b = spans[j];
      const bool partial = a.start < b.start && b.start < a.end &&
                           a.end < b.end;
      const bool partial_rev = b.start < a.start && a.start < b.end &&
                               b.end < a.end;
      EXPECT_FALSE(partial || partial_rev)
          << a.name << " [" << a.start << "," << a.end << ") vs " << b.name
          << " [" << b.start << "," << b.end << ")";
      if (partial || partial_rev) return;  // one failure is enough detail
    }
  }
}

TEST(Trace, SpansProperlyNestedPerTrack) {
  TraceRecorder recorder(1);
  ServeConfig config = traced_config(PolicyKind::fifo_youngest_first);
  config.threads = 2;
  obs::StepPhaseStats phases;
  run_traced(config, &recorder, nullptr, &phases);
  ASSERT_GE(recorder.tracks(), 2u);
  // The pool caps spawned workers to the host's core count and the engine's
  // grain caps each step's fan-out, so tracks at or beyond the widest
  // fan-out the run actually engaged legitimately stay empty.
  const std::uint64_t fanout_peak = phases.fanout_peak;
  ASSERT_GE(fanout_peak, 1u);
  ASSERT_LE(fanout_peak, config.threads);

  for (std::size_t track = 0; track < recorder.tracks(); ++track) {
    std::vector<SpanInterval> spans;
    for (const TraceEvent& e : recorder.track_events(track)) {
      if (e.phase != 'X' || e.domain != TraceDomain::engine) continue;
      spans.push_back(SpanInterval{e.ts, e.ts + e.dur, e.name});
    }
    SCOPED_TRACE(track);
    if (track < fanout_peak) {
      EXPECT_FALSE(spans.empty());
    } else if (track < config.threads) {
      EXPECT_TRUE(spans.empty());
    }
    expect_no_partial_overlap(spans);
  }
}

TEST(Trace, AsyncLifecyclesAreBalanced) {
  TraceRecorder recorder(1);
  const FleetMetrics metrics =
      run_traced(traced_config(PolicyKind::cost_aware_victim), &recorder);

  // (name, id) -> begin minus end count; every lifecycle closes exactly.
  std::map<std::pair<std::string, std::uint64_t>, int> balance;
  std::size_t request_begins = 0;
  for (std::size_t track = 0; track < recorder.tracks(); ++track) {
    for (const TraceEvent& e : recorder.track_events(track)) {
      if (e.domain != TraceDomain::request) continue;
      if (e.phase == 'b') {
        ++balance[{e.name, e.id}];
        if (std::string(e.name) == "request") ++request_begins;
      } else if (e.phase == 'e') {
        --balance[{e.name, e.id}];
      }
    }
  }
  for (const auto& [key, count] : balance) {
    EXPECT_EQ(count, 0) << key.first << " id=" << key.second;
  }
  EXPECT_EQ(request_begins, metrics.requests_submitted);
}

TEST(Trace, EventCountsReconcileWithFleetMetrics) {
  TraceRecorder recorder(1);
  ServeConfig config = traced_config(PolicyKind::priority_slack);
  config.threads = 2;
  const FleetMetrics metrics = run_traced(config, &recorder);
  const std::size_t n_inst =
      static_cast<std::size_t>(config.n_layer) *
      static_cast<std::size_t>(config.n_head);

  std::size_t attend_spans = 0;
  std::size_t step_spans = 0;
  double prefill_chunk_tokens = 0.0;
  for (std::size_t track = 0; track < recorder.tracks(); ++track) {
    for (const TraceEvent& e : recorder.track_events(track)) {
      const std::string name = e.name;
      if (e.phase == 'X' && name == "unit:attend") ++attend_spans;
      if (e.phase == 'X' && name == "step") ++step_spans;
      if (e.phase == 'n' && name == "prefill_chunk") {
        for (std::uint8_t a = 0; a < e.n_args; ++a) {
          if (std::string(e.args[a].key) == "tokens") {
            prefill_chunk_tokens += e.args[a].value;
          }
        }
      }
    }
  }
  // One attention span per generated token per (layer, head) instance.
  EXPECT_EQ(attend_spans, metrics.tokens_generated * n_inst);
  EXPECT_EQ(step_spans, metrics.engine_steps);
  // Chunk instants are emitted at reduce time, after same-step preemption
  // cancellation — so their token args sum to exactly the prefill counter.
  EXPECT_DOUBLE_EQ(prefill_chunk_tokens,
                   static_cast<double>(metrics.prefill_tokens));
}

// ---- Determinism: tracing never changes bits --------------------------------

// The hard contract of the observability layer: running with the recorder
// and phase stats attached changes NOTHING downstream — outputs, pruning
// decisions, FleetMetrics, histograms — for every policy and thread count.
TEST(TracingDeterminism, TracingOnVsOffIsBitIdentical) {
  const auto trace = traced_trace();
  for (const PolicyKind policy :
       {PolicyKind::fifo_youngest_first, PolicyKind::priority_slack,
        PolicyKind::cost_aware_victim}) {
    SCOPED_TRACE(serve::policy_kind_name(policy));
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(threads);
      ServeConfig plain = traced_config(policy);
      plain.threads = threads;
      ServeEngine off(plain);
      off.submit_trace(trace);
      off.run();

      TraceRecorder recorder(1);
      ServeConfig instrumented = plain;
      instrumented.trace = &recorder;
      instrumented.collect_phase_stats = true;
      ServeEngine on(instrumented);
      on.submit_trace(trace);
      on.run();

      EXPECT_GT(recorder.event_count(), 0u);
      serve::expect_runs_identical(off, on);
    }
  }
}

// The same contract must hold in pipelined mode, where lifecycle events and
// cycle stamps ride the lane thread: attaching the recorder adds lane jobs
// but changes nothing downstream.
TEST(TracingDeterminism, PipelinedTracingOnVsOffIsBitIdentical) {
  const auto trace = traced_trace();
  for (const PolicyKind policy :
       {PolicyKind::fifo_youngest_first, PolicyKind::priority_slack,
        PolicyKind::cost_aware_victim}) {
    SCOPED_TRACE(serve::policy_kind_name(policy));
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(threads);
      ServeConfig plain = traced_config(policy);
      plain.threads = threads;
      plain.pipeline = true;
      ServeEngine off(plain);
      off.submit_trace(trace);
      off.run();

      TraceRecorder recorder(1);
      ServeConfig instrumented = plain;
      instrumented.trace = &recorder;
      instrumented.collect_phase_stats = true;
      ServeEngine on(instrumented);
      on.submit_trace(trace);
      on.run();

      EXPECT_GT(recorder.event_count(), 0u);
      serve::expect_runs_identical(off, on);
    }
  }
}

// Pipelined traces stay well-formed: the lane records request/memsim events
// on its own track, the export still validates, and every request lifecycle
// closes exactly — the same invariants the sequential trace guarantees.
TEST(Trace, PipelinedTraceIsValidAndLifecyclesBalanced) {
  TraceRecorder recorder(1);
  ServeConfig config = traced_config(PolicyKind::priority_slack);
  config.threads = 2;
  config.pipeline = true;
  const FleetMetrics metrics = run_traced(config, &recorder);

  std::ostringstream out;
  recorder.write_chrome_json(out);
  const auto v = obs::validate_chrome_trace(out.str());
  EXPECT_TRUE(v.ok) << v.error;

  std::map<std::pair<std::string, std::uint64_t>, int> balance;
  std::size_t request_begins = 0;
  std::size_t lane_track_events = 0;
  for (std::size_t track = 0; track < recorder.tracks(); ++track) {
    for (const TraceEvent& e : recorder.track_events(track)) {
      if (track == config.threads) ++lane_track_events;
      if (e.domain != TraceDomain::request) continue;
      if (e.phase == 'b') {
        ++balance[{e.name, e.id}];
        if (std::string(e.name) == "request") ++request_begins;
      } else if (e.phase == 'e') {
        --balance[{e.name, e.id}];
      }
    }
  }
  for (const auto& [key, count] : balance) {
    EXPECT_EQ(count, 0) << key.first << " id=" << key.second;
  }
  EXPECT_EQ(request_begins, metrics.requests_submitted);
  // The lane track actually carries the cycle-domain events.
  EXPECT_GT(lane_track_events, 0u);
}

// Canonical encoding of the deterministic part of an event: everything
// except wall-clock ts/dur (which legitimately differ run to run). Memsim
// events live in DRAM cycles, so their timestamps ARE deterministic and are
// kept in the encoding.
std::string canonical(const TraceEvent& e) {
  char buf[64];
  std::string out;
  out += e.phase;
  out += '|';
  out += std::to_string(static_cast<int>(e.domain));
  out += '|';
  out += e.name;
  out += "|id=";
  out += std::to_string(e.id);
  out += "|cyc=";
  out += std::to_string(e.cycle);
  if (e.domain == TraceDomain::memsim) {
    out += "|ts=";
    out += std::to_string(e.ts);
    if (e.phase == 'X') {
      out += "|dur=";
      out += std::to_string(e.dur);
    }
  }
  for (std::uint8_t a = 0; a < e.n_args; ++a) {
    std::snprintf(buf, sizeof(buf), "|%s=%.17g", e.args[a].key,
                  e.args[a].value);
    out += buf;
  }
  return out;
}

// Two traced runs of the same config produce structurally identical traces:
// the main-thread track is an exact event-for-event match, and the parallel
// attention units form the same multiset across worker tracks (which worker
// ran which unit is scheduling noise; what ran is not).
TEST(TracingDeterminism, TwoTracedRunsAreStructurallyIdentical) {
  for (const PolicyKind policy :
       {PolicyKind::fifo_youngest_first, PolicyKind::priority_slack,
        PolicyKind::cost_aware_victim}) {
    SCOPED_TRACE(serve::policy_kind_name(policy));
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(threads);
      ServeConfig config = traced_config(policy);
      config.threads = threads;

      std::array<std::vector<std::string>, 2> main_track;
      std::array<std::vector<std::string>, 2> unit_multiset;
      for (int run = 0; run < 2; ++run) {
        TraceRecorder recorder(1);
        run_traced(config, &recorder);
        for (std::size_t track = 0; track < recorder.tracks(); ++track) {
          for (const TraceEvent& e : recorder.track_events(track)) {
            const bool unit =
                std::string(e.name).rfind("unit:", 0) == 0;
            if (unit) {
              unit_multiset[run].push_back(canonical(e));
            } else {
              // Everything that isn't a parallel unit is main-thread work
              // and must land on track 0 in a deterministic order.
              EXPECT_EQ(track, 0u) << e.name;
              main_track[run].push_back(canonical(e));
            }
          }
        }
        std::sort(unit_multiset[run].begin(), unit_multiset[run].end());
      }
      EXPECT_EQ(main_track[0], main_track[1]);
      EXPECT_EQ(unit_multiset[0], unit_multiset[1]);
    }
  }
}

// ---- Exact latency samples --------------------------------------------------

// The priority mix reaches every class, so every fleet and per-class latency
// distribution holds samples to read percentiles from.
TEST(FleetMetrics, PriorityMixFillsEveryLatencyVector) {
  ServeEngine engine(traced_config(PolicyKind::priority_slack));
  engine.submit_trace(traced_trace());
  engine.run();
  const FleetMetrics& m = engine.metrics();

  std::vector<std::pair<std::string, const std::vector<double>*>> vectors = {
      {"step_cycles", &m.step_cycle_samples},
      {"ttft_cycles", &m.ttft_cycle_samples},
      {"request_latency_cycles", &m.request_latency_cycle_samples},
      {"queue_wait_steps", &m.queue_wait_step_samples}};
  for (std::size_t p = 0; p < wl::kPriorityCount; ++p) {
    const serve::ClassMetrics& cls = m.per_class[p];
    ASSERT_GT(cls.submitted, 0u);
    const std::string prefix =
        wl::priority_name(static_cast<wl::Priority>(p)) + std::string(".");
    vectors.emplace_back(prefix + "ttft_cycles", &cls.ttft_cycle_samples);
    vectors.emplace_back(prefix + "latency_cycles",
                         &cls.latency_cycle_samples);
    vectors.emplace_back(prefix + "queue_wait_steps",
                         &cls.queue_wait_step_samples);
  }
  for (const auto& [name, samples] : vectors) {
    EXPECT_FALSE(samples->empty()) << name;
  }
}

// ---- Phase attribution ------------------------------------------------------

TEST(PhaseStats, AttributionAccountsForTheStep) {
  ServeConfig config = traced_config(PolicyKind::fifo_youngest_first);
  config.threads = 2;
  config.collect_phase_stats = true;
  ServeEngine engine(config);
  engine.submit_trace(traced_trace());
  engine.run();

  const obs::StepPhaseStats& stats = engine.phase_stats();
  EXPECT_EQ(stats.steps, engine.metrics().engine_steps);
  EXPECT_GT(stats.total_ns(), 0u);
  EXPECT_GT(stats.attention_wall_ns, 0u);
  EXPECT_GT(stats.attention_busy_ns, 0u);
  // Busy + barrier partition the fan-out's capacity (wall x workers); busy
  // can't exceed capacity, and barrier is the clamped remainder.
  EXPECT_LE(stats.attention_busy_ns,
            config.threads * stats.attention_wall_ns);
  EXPECT_LE(stats.barrier_wait_ns,
            config.threads * stats.attention_wall_ns);

  // Gated off -> identically zero, no residue.
  ServeConfig off_config = traced_config(PolicyKind::fifo_youngest_first);
  ServeEngine off(off_config);
  off.submit_trace(traced_trace());
  off.run();
  EXPECT_EQ(off.phase_stats().steps, 0u);
  EXPECT_EQ(off.phase_stats().total_ns(), 0u);
}

// Pipelined attribution: the slot-ordered reduce stays a post-barrier phase
// (reduce_ns) and the replay moves off the critical path onto the lane
// (lane_busy_ns instead of replay_ns); the capacity bound still caps busy +
// barrier.
TEST(PhaseStats, PipelinedAttributionMovesReplayToLane) {
  ServeConfig config = traced_config(PolicyKind::fifo_youngest_first);
  config.threads = 2;
  config.pipeline = true;
  config.collect_phase_stats = true;
  ServeEngine engine(config);
  engine.submit_trace(traced_trace());
  engine.run();

  const obs::StepPhaseStats& stats = engine.phase_stats();
  EXPECT_EQ(stats.steps, engine.metrics().engine_steps);
  EXPECT_GT(stats.total_ns(), 0u);
  EXPECT_GT(stats.attention_wall_ns, 0u);
  EXPECT_GT(stats.attention_busy_ns, 0u);
  // The reduce ran after the barrier, and the DRAM replay ran on the lane —
  // not as an inline replay phase.
  EXPECT_GT(stats.reduce_ns, 0u);
  EXPECT_GT(stats.lane_busy_ns, 0u);
  EXPECT_EQ(stats.replay_ns, 0u);
  EXPECT_LE(stats.attention_busy_ns,
            config.threads * stats.attention_wall_ns);
  EXPECT_LE(stats.barrier_wait_ns,
            config.threads * stats.attention_wall_ns);
}

}  // namespace
}  // namespace topick
