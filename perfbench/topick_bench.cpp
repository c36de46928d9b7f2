// topick_bench: the repository benchmark's workloads.
//
//   topick_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --out <result.json> [--spans <spans.json>] [--commit <id>]
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   serve_poisson        fault-free Poisson serving, DRAM proxy on, 1 thread
//   decode_long_context  a few multi-thousand-token requests, proxy off,
//                        kLongContextThreads attention workers
//   serve_overload       bursty priority mix past saturation: tight pool,
//                        degraded HBM channel, deadlines, retry, admission
//                        control, degradation controller, cost_aware_victim
//   accel_zoo            cycle-level ToPick accelerator over the 8-model zoo,
//                        baseline vs topick_ooo
//
// Every run: repeated set-up (its median is setup_s), one untimed warm-up
// pass, timed passes until --seconds have elapsed, then untimed correctness
// passes. With --trace 1 the timed passes alternate untraced and traced
// (engine taps on, benchmark spans recorded), and the per-layer metrics come
// from the traced ones. The seed only generates inputs; the program under
// test receives the generated traces and instances.
//
// Prints a human-readable metric table and writes the full result (host
// fingerprint, effective configs, every metric with unit, domain and sample
// count, checks) to --out. Exit status 1 when a correctness check fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "accel/energy_model.h"
#include "accel/engine.h"
#include "common/rng.h"
#include "config_dump.h"
#include "core/exact_attention.h"
#include "core/token_picker.h"
#include "fault/fault_plan.h"
#include "fixedpoint/dispatch.h"
#include "obs/trace.h"
#include "report.h"
#include "serve/serve_engine.h"
#include "workload/arrivals.h"
#include "workload/generator.h"
#include "workload/zoo.h"

namespace perfbench {
namespace {

namespace tp = topick;
using tp::serve::FleetMetrics;
using tp::serve::ServeConfig;

// Attention workers for decode_long_context: fixed, so results compare
// across hosts with at least this many CPUs (the fingerprint records nproc).
constexpr std::size_t kLongContextThreads = 2;
// Upper bound on the p99 relative L2 error of Token-Picker attention outputs
// against the exact quantized backend (serve) or exact quantized attention
// (accel_zoo). Past it the pruning is no longer the paper's trade-off.
constexpr double kRelErrBound = 0.5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string spans_out;
  std::string commit = "unknown";
};

double rel_l2(const std::vector<float>& got, const std::vector<float>& want) {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t d = 0; d < want.size(); ++d) {
    const double diff = static_cast<double>(got[d]) - want[d];
    num += diff * diff;
    den += static_cast<double>(want[d]) * want[d];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

double chunks_per_token(const tp::AccessStats& s) {
  double tokens = 0.0;
  double chunks = 0.0;
  for (std::size_t c = 0; c < s.chunk_histogram.size(); ++c) {
    tokens += static_cast<double>(s.chunk_histogram[c]);
    chunks += static_cast<double>(s.chunk_histogram[c]) * (c + 1);
  }
  return tokens > 0.0 ? chunks / tokens : 0.0;
}

void core_layer_metrics(Report& r, const tp::AccessStats& s) {
  r.layer("core.tokens_visited", static_cast<double>(s.tokens_total), "count",
          Domain::sim, 1);
  r.layer("core.tokens_kept", static_cast<double>(s.tokens_kept), "count",
          Domain::sim, 1);
  r.layer("core.pruning_ratio", s.pruning_ratio(), "ratio", Domain::sim, 1);
  r.layer("core.kv_reduction", s.total_reduction(), "ratio", Domain::sim, 1);
  r.layer("core.k_bits_fetched", static_cast<double>(s.k_bits_fetched), "bit",
          Domain::sim, 1);
  r.layer("core.v_bits_fetched", static_cast<double>(s.v_bits_fetched), "bit",
          Domain::sim, 1);
  r.layer("core.chunks_per_token_mean", chunks_per_token(s), "count",
          Domain::sim, s.tokens_total);
}

// Per-layer metrics of layers a workload does not load read 0, so every
// traced run reports the same metric set.
void zero_layer_metrics(Report& r, const std::vector<const char*>& names,
                        const char* unit) {
  for (const char* name : names) r.layer(name, 0.0, unit, Domain::sim, 0);
}

// ---- fixedpoint kernel calibration (traced runs) ----------------------------

// Times each dispatched kernel at head_dim 64 on the active ISA, in batches
// of kCalls calls with one span per batch; reports the median ns per call.
void fixedpoint_layer_metrics(Report& r, SpanLog& spans, std::uint64_t seed,
                              JsonWriter& json) {
  constexpr std::size_t kDim = 64;
  constexpr std::size_t kRows = 64;  // rotate rows so inputs stay run-time data
  constexpr std::uint64_t kCalls = 200000;
  constexpr int kBatches = 5;
  const auto& k = tp::fx::active_kernels();

  tp::Rng rng(seed ^ 0xf1edULL);
  std::vector<std::int16_t> a(kDim * kRows), b(kDim * kRows);
  std::vector<float> xs(kDim * kRows);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform(-2047.0, 2047.0));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform(-2047.0, 2047.0));
  for (auto& v : xs) v = static_cast<float>(rng.normal());
  std::vector<float> acc(kDim, 0.0f);
  std::vector<std::int16_t> qout(kDim);
  tp::fx::QuantParams qp;
  qp.scale = 0.01f;
  const tp::fx::FixedRatio ratio = tp::fx::make_fixed_ratio(0.01f, 0.013f);
  double sink = 0.0;

  struct Kernel {
    const char* metric;
    const char* span;
    std::uint64_t bytes_per_call;  // computed operand traffic
  };
  const Kernel kernels[] = {
      {"fixedpoint.row_dot_ns", "fixedpoint.row_dot_batch", 2 * kDim * 2},
      {"fixedpoint.weighted_value_accum_ns",
       "fixedpoint.weighted_value_accum_batch", kDim * 2 + 2 * kDim * 4},
      {"fixedpoint.quantize_row_ns", "fixedpoint.quantize_row_batch",
       kDim * 4 + kDim * 2},
      {"fixedpoint.row_amax_ns", "fixedpoint.row_amax_batch", kDim * 4},
      {"fixedpoint.rescale_row_ns", "fixedpoint.rescale_row_batch",
       2 * kDim * 2},
  };
  json.begin_object("fixedpoint_bytes_per_call");
  for (std::size_t ki = 0; ki < std::size(kernels); ++ki) {
    std::vector<double> ns_per_call;
    for (int batch = 0; batch < kBatches; ++batch) {
      SpanLog::Scope span(&spans, kernels[ki].span);
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < kCalls; ++i) {
        const std::size_t row = (i % kRows) * kDim;
        switch (ki) {
          case 0:
            sink += static_cast<double>(
                k.row_dot_i64(a.data() + row, b.data() + row, kDim));
            break;
          case 1:
            k.weighted_value_accum(acc.data(), a.data() + row, 1e-3, 1e-2,
                                   kDim);
            break;
          case 2:
            k.quantize_row_i16(xs.data() + row, kDim, qp, qout.data());
            sink += qout[i % kDim];
            break;
          case 3:
            sink += static_cast<double>(k.row_amax(xs.data() + row, kDim));
            break;
          default:
            k.rescale_row_i16(a.data() + row, kDim, ratio, qp.qmin(),
                              qp.qmax(), qout.data());
            sink += qout[i % kDim];
            break;
        }
      }
      const double ms = ms_between(t0, Clock::now());
      span.count(kCalls);
      ns_per_call.push_back(ms * 1e6 / static_cast<double>(kCalls));
    }
    r.layer(kernels[ki].metric, median(ns_per_call), "ns", Domain::host,
            kBatches);
    json.field(kernels[ki].metric, kernels[ki].bytes_per_call);
  }
  for (const float v : acc) sink += v;
  json.end_object();
  json.field("fixedpoint_sink", sink);
}

// ---- serve workloads --------------------------------------------------------

struct ServeSpec {
  std::string name;
  ServeConfig config;
  bool priority_mix = false;
  tp::wl::ArrivalParams arrivals;
  tp::wl::PriorityMixParams mix;
  std::size_t requests = 0;
  tp::fault::FaultPlan plan;  // outlives every engine built from this spec

  ServeConfig engine_config() const {
    ServeConfig c = config;
    c.faults = plan.empty() ? nullptr : &plan;
    return c;
  }
  std::vector<tp::wl::ArrivalEvent> make_trace(std::uint64_t seed) const {
    tp::Rng rng(seed);
    return priority_mix
               ? tp::wl::make_priority_mix_trace(mix, requests, rng)
               : tp::wl::make_arrival_trace(arrivals, requests, rng);
  }
};

ServeConfig base_serve_config() {
  ServeConfig c;
  c.n_layer = 2;
  c.n_head = 2;
  c.head_dim = 64;
  c.max_batch = 12;
  c.pool_pages = 4096;
  c.page_tokens = 8;
  c.backend = tp::serve::BackendKind::token_picker;
  c.picker.estimator.threshold = 1e-3;
  c.reclaim = true;
  c.persistence_window = 4;
  c.prefill_chunk_tokens = 16;
  c.simulate_dram = true;
  c.threads = 1;
  return c;
}

ServeSpec serve_poisson_spec() {
  ServeSpec s;
  s.name = "serve_poisson";
  s.config = base_serve_config();
  s.arrivals.kind = tp::wl::ArrivalKind::poisson;
  s.arrivals.rate = 0.2;
  s.arrivals.prompt_min = 16;
  s.arrivals.prompt_max = 128;
  s.arrivals.decode_min = 16;
  s.arrivals.decode_max = 64;
  s.requests = 64;
  return s;
}

ServeSpec decode_long_context_spec() {
  ServeSpec s;
  s.name = "decode_long_context";
  s.config = base_serve_config();
  s.config.n_head = 4;
  s.config.max_batch = 4;
  s.config.pool_pages = 18432;
  s.config.prefill_chunk_tokens = 512;
  s.config.simulate_dram = false;
  s.config.threads = kLongContextThreads;
  s.arrivals.kind = tp::wl::ArrivalKind::poisson;
  // All four arrive together and decode the same length, so every decode
  // step attends four long contexts.
  s.arrivals.rate = 4.0;
  s.arrivals.prompt_min = 3584;
  s.arrivals.prompt_max = 4096;
  s.arrivals.decode_min = 448;
  s.arrivals.decode_max = 448;
  s.requests = 4;
  return s;
}

ServeSpec serve_overload_spec() {
  ServeSpec s;
  s.name = "serve_overload";
  s.config = base_serve_config();
  s.config.max_batch = 8;
  s.config.pool_pages = 192;
  s.config.policy = tp::serve::PolicyKind::cost_aware_victim;
  s.config.policy_params.aging_steps = 96;
  s.config.enforce_deadlines = true;
  s.config.retry.max_retries = 2;
  s.config.retry.backoff_base_steps = 4;
  s.config.admission.reject_best_effort_utilization = 0.95;
  s.config.degradation.enabled = true;
  s.config.degradation.evaluate_every_steps = 4;
  s.config.degradation.hold_steps = 12;
  s.config.degradation.pool_hi = 0.60;
  s.config.degradation.pool_lo = 0.40;
  s.priority_mix = true;
  s.mix.arrivals.kind = tp::wl::ArrivalKind::bursty;
  s.mix.arrivals.rate = 2.0;
  s.mix.arrivals.burst_factor = 4.0;
  s.mix.mix[0] = tp::wl::PriorityClassMix{0.5, 16, 48, 16, 48, 40, 128};
  s.mix.mix[1] = tp::wl::PriorityClassMix{0.3, 64, 160, 16, 48, 384, 2048};
  s.mix.mix[2] = tp::wl::PriorityClassMix{0.2, 32, 96, 16, 48, 0, 0};
  s.requests = 160;
  // One degraded channel: 3x burst stretch plus periodic stall windows.
  tp::fault::ChannelFaultSpec degraded;
  degraded.channel = 0;
  degraded.fault.burst_multiplier = 3.0;
  degraded.fault.stall_period = 4096;
  degraded.fault.stall_cycles = 512;
  s.plan.seed = 11;
  s.plan.channels.push_back(degraded);
  return s;
}

// Captured attention outputs keyed by (request id, position): one row per
// (layer, head) instance.
using OutputMap = std::map<std::pair<std::size_t, std::size_t>,
                           std::vector<std::vector<float>>>;

// Everything one pass over a trace yields. Simulated fields are functions of
// (config, trace) only; host fields are this pass's measurements.
struct ServePass {
  FleetMetrics metrics;
  std::size_t submitted = 0;
  double slo_interactive_tracked = 0.0;
  double slo_interactive_met = 0.0;
  std::vector<double> step_ms;
  double run_ms = 0.0;
  std::uint64_t steps = 0;  // step() calls that did work
  double running_sum = 0.0;
  double queue_sum = 0.0;
  tp::obs::StepPhaseStats phases;
  std::uint64_t replay_granules = 0;
  std::uint64_t calls = 0;
  std::uint64_t threw = 0;
  OutputMap outputs;  // capture_outputs passes only
};

struct SetupTimes {
  std::vector<double> trace_gen_ms;
  std::vector<double> stream_build_ms;
  std::vector<double> total_s;  // also counts engine construction

  void add(double gen, double engine, double build) {
    trace_gen_ms.push_back(gen);
    stream_build_ms.push_back(build);
    total_s.push_back((gen + engine + build) / 1e3);
  }
};

// The simulated metrics whose bits must repeat on every pass of one trace.
std::vector<double> sim_signature(const ServePass& p) {
  const FleetMetrics& m = p.metrics;
  return {static_cast<double>(m.tokens_generated),
          static_cast<double>(m.engine_steps),
          static_cast<double>(m.dram_cycles),
          static_cast<double>(m.stats.k_bits_fetched),
          static_cast<double>(m.stats.v_bits_fetched),
          static_cast<double>(m.stats.tokens_kept),
          static_cast<double>(m.prefill_bits),
          static_cast<double>(m.preemptions),
          static_cast<double>(m.requests_retired),
          static_cast<double>(m.requests_failed),
          static_cast<double>(m.retries),
          static_cast<double>(m.degraded_tokens),
          static_cast<double>(m.pages_reclaimed),
          m.p99_step_cycles(),
          m.p50_ttft_cycles(),
          m.p95_ttft_cycles(),
          p.slo_interactive_met};
}

ServePass run_serve_pass(const ServeSpec& spec, ServeConfig config,
                         std::uint64_t seed, SetupTimes* setup, SpanLog* spans,
                         bool time_steps) {
  ServePass pass;
  tp::obs::TraceRecorder recorder;
  const bool traced = spans != nullptr && spans->enabled();
  if (traced) {
    config.collect_phase_stats = true;
    config.trace = &recorder;
  }

  std::unique_ptr<tp::serve::ServeEngine> engine;
  {
    SpanLog::Scope setup_span(spans, "workload.setup");
    const auto t0 = Clock::now();
    std::vector<tp::wl::ArrivalEvent> trace;
    {
      SpanLog::Scope span(spans, "workload.trace_gen");
      trace = spec.make_trace(seed);
      span.count(trace.size());
    }
    const auto t1 = Clock::now();
    {
      SpanLog::Scope span(spans, "serve.engine_ctor");
      engine = std::make_unique<tp::serve::ServeEngine>(config);
    }
    const auto t2 = Clock::now();
    {
      SpanLog::Scope span(spans, "workload.stream_build");
      engine->submit_trace(trace);
      span.count(trace.size());
    }
    const auto t3 = Clock::now();
    if (setup != nullptr) {
      setup->add(ms_between(t0, t1), ms_between(t1, t2), ms_between(t2, t3));
    }
    pass.submitted = trace.size();
  }

  {
    SpanLog::Scope pass_span(spans, "serve.pass");
    const auto start = Clock::now();
    for (;;) {
      const std::uint64_t tokens_before = engine->metrics().tokens_generated;
      SpanLog::Scope span(spans, "serve.step");
      const auto t0 = Clock::now();
      bool more = false;
      ++pass.calls;
      try {
        more = engine->step();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: step threw: %s\n", spec.name.c_str(),
                     e.what());
        ++pass.threw;
        break;
      }
      const double ms = ms_between(t0, Clock::now());
      span.count(engine->metrics().tokens_generated - tokens_before);
      if (!more) break;
      if (time_steps) pass.step_ms.push_back(ms);
      ++pass.steps;
      const auto& batcher = engine->batcher();
      pass.running_sum += static_cast<double>(batcher.running().size());
      pass.queue_sum += static_cast<double>(batcher.queue().size());
    }
    pass.run_ms = ms_between(start, Clock::now());
    pass_span.count(engine->metrics().tokens_generated);
  }

  pass.metrics = engine->metrics();
  pass.phases = engine->phase_stats();
  for (const auto& req : engine->requests()) {
    const auto& ev = req.event;
    if (ev.priority == tp::wl::Priority::interactive &&
        (ev.slo_ttft_steps > 0 || ev.slo_latency_steps > 0)) {
      pass.slo_interactive_tracked += 1.0;
      const bool finished = req.state == tp::serve::RequestState::finished;
      const bool ttft_ok =
          ev.slo_ttft_steps == 0 || !req.first_token_recorded ||
          req.first_token_step - ev.step <= ev.slo_ttft_steps;
      const bool latency_ok = ev.slo_latency_steps == 0 ||
                              req.finish_step - ev.step <= ev.slo_latency_steps;
      if (finished && ttft_ok && latency_ok) pass.slo_interactive_met += 1.0;
    }
    if (config.capture_outputs) {
      for (const auto& out : req.outputs) {
        pass.outputs[{static_cast<std::size_t>(ev.request_id), out.position}] =
            out.out;
      }
    }
  }
  if (traced) {
    for (std::size_t t = 0; t < recorder.tracks(); ++t) {
      for (const auto& e : recorder.track_events(t)) {
        if (e.domain != tp::obs::TraceDomain::memsim || e.phase != 'X' ||
            std::strcmp(e.name, "replay") != 0) {
          continue;
        }
        for (std::uint8_t i = 0; i < e.n_args; ++i) {
          if (std::strcmp(e.args[i].key, "granules") == 0) {
            pass.replay_granules += static_cast<std::uint64_t>(e.args[i].value);
          }
        }
      }
    }
  }
  return pass;
}

void serve_layer_metrics(Report& r, const ServePass& p,
                         const std::vector<ServePass>& traced,
                         const SetupTimes& setup) {
  const FleetMetrics& m = p.metrics;
  const auto steps = static_cast<double>(p.steps);
  const auto n_traced = static_cast<std::uint64_t>(traced.size());

  r.layer("workload.trace_gen_ms", median(setup.trace_gen_ms), "ms",
          Domain::host, setup.trace_gen_ms.size());
  r.layer("workload.stream_build_ms", median(setup.stream_build_ms), "ms",
          Domain::host, setup.stream_build_ms.size());

  r.layer("serve.steps", static_cast<double>(m.engine_steps), "count",
          Domain::sim, 1);
  r.layer("serve.batch_running_mean", p.running_sum / steps, "count",
          Domain::sim, static_cast<std::uint64_t>(steps));
  r.layer("serve.queue_depth_mean", p.queue_sum / steps, "count", Domain::sim,
          static_cast<std::uint64_t>(steps));
  r.layer("serve.queue_wait_steps_mean", m.avg_queue_wait_steps(), "steps",
          Domain::sim, m.queue_wait_step_samples.size());
  r.layer("serve.preemptions", static_cast<double>(m.preemptions), "count",
          Domain::sim, 1);
  r.layer("serve.prefill_tokens", static_cast<double>(m.prefill_tokens),
          "count", Domain::sim, 1);
  r.layer("serve.pool_peak_pages", static_cast<double>(m.pool_peak_pages),
          "count", Domain::sim, 1);
  r.layer("serve.pages_reclaimed", static_cast<double>(m.pages_reclaimed),
          "count", Domain::sim, 1);
  r.layer("serve.kv_resident_bytes_peak",
          static_cast<double>(m.kv_resident_bytes_peak), "B", Domain::sim, 1);

  // Step phases: host ms per pass, median over the traced passes.
  using Phases = tp::obs::StepPhaseStats;
  const std::pair<const char*, std::uint64_t Phases::*> phases[] = {
      {"serve.admit_ms", &Phases::admit_ns},
      {"serve.append_ms", &Phases::append_ns},
      {"serve.attention_wall_ms", &Phases::attention_wall_ns},
      {"serve.attention_busy_ms", &Phases::attention_busy_ns},
      {"serve.barrier_wait_ms", &Phases::barrier_wait_ns},
      {"serve.reduce_ms", &Phases::reduce_ns},
      {"serve.replay_ms", &Phases::replay_ns},
  };
  for (const auto& [name, field] : phases) {
    std::vector<double> ms;
    for (const auto& t : traced) {
      ms.push_back(static_cast<double>(t.phases.*field) / 1e6);
    }
    r.layer(name, median(ms), "ms", Domain::host, n_traced);
  }

  core_layer_metrics(r, m.stats);

  // The serve engine's memsim: cycles it simulated, host ns per simulated
  // cycle of replay, and transactions replayed (from the trace taps). Row
  // hits are not exposed by the engine; that rate comes from accel_zoo.
  std::vector<double> ns_per_cycle;
  for (const auto& t : traced) {
    if (t.metrics.dram_cycles > 0) {
      ns_per_cycle.push_back(static_cast<double>(t.phases.replay_ns) /
                             static_cast<double>(t.metrics.dram_cycles));
    }
  }
  r.layer("memsim.sim_cycles", static_cast<double>(m.dram_cycles), "cycles",
          Domain::sim, 1);
  r.layer("memsim.host_ns_per_sim_cycle", median(ns_per_cycle), "ns",
          Domain::host, ns_per_cycle.size());
  r.layer("memsim.requests",
          traced.empty() ? 0.0
                         : static_cast<double>(traced.front().replay_granules),
          "count", Domain::sim, 1);
  r.layer("memsim.row_hit_rate", 0.0, "ratio", Domain::sim, 0);

  zero_layer_metrics(r,
                     {"accel.core_cycles_baseline", "accel.core_cycles_topick",
                      "accel.lane_stall_cycles"},
                     "cycles");
  zero_layer_metrics(r, {"accel.scoreboard_peak"}, "count");
  zero_layer_metrics(r, {"accel.lane_utilization"}, "ratio");
  zero_layer_metrics(r, {"accel.run_ms"}, "ms");

  r.layer("fault.aborts", static_cast<double>(m.aborts), "count", Domain::sim,
          1);
  r.layer("fault.retries", static_cast<double>(m.retries), "count",
          Domain::sim, 1);
  r.layer("fault.rejections", static_cast<double>(m.rejections), "count",
          Domain::sim, 1);
  r.layer("fault.deadline_misses", static_cast<double>(m.deadline_misses),
          "count", Domain::sim, 1);
  r.layer("fault.degradation_level_changes",
          static_cast<double>(m.degradation_level_changes), "count",
          Domain::sim, 1);
  r.layer("fault.degraded_tokens", static_cast<double>(m.degraded_tokens),
          "count", Domain::sim, 1);
}

// Exact quantized backend outputs for every request of the trace, keyed like
// ServePass::outputs. Each request runs alone: with no pruning its outputs
// do not depend on what it is batched with, and one request's captured
// views at a time keep the pass's memory small on long contexts.
OutputMap exact_outputs(const ServeSpec& spec, ServeConfig config,
                        std::uint64_t seed) {
  config.backend = tp::serve::BackendKind::exact_quantized;
  config.capture_outputs = true;
  config.simulate_dram = false;
  config.faults = nullptr;
  config.enforce_deadlines = false;
  config.admission = {};
  config.degradation = {};
  OutputMap out;
  for (tp::wl::ArrivalEvent event : spec.make_trace(seed)) {
    event.step = 0;
    tp::serve::ServeEngine engine(config);
    engine.submit(event);
    engine.run();
    for (const auto& step : engine.requests().front().outputs) {
      out[{static_cast<std::size_t>(event.request_id), step.position}] =
          step.out;
    }
  }
  return out;
}

void run_serve(const ServeSpec& spec, const Options& opt, Report& r,
               SpanLog& spans, JsonWriter& json) {
  const ServeConfig config = spec.engine_config();
  SetupTimes setup;

  // Untimed warm-up: the first engine run in a fresh process is slower than
  // later ones (allocator, page faults, thread start-up), so none of it is
  // timed. Its simulated metrics are the reference every pass must repeat.
  const ServePass warm = run_serve_pass(spec, config, opt.seed, &setup,
                                        nullptr, false);
  const std::vector<double> reference = sim_signature(warm);

  std::vector<ServePass> timed;   // untraced: end-to-end host metrics
  std::vector<ServePass> traced;  // --trace 1 only: per-layer metrics
  double timed_s = 0.0;
  bool sim_repeats = true;
  bool conserved = warm.metrics.requests_retired +
                       warm.metrics.requests_failed ==
                   warm.submitted;
  while (timed_s < opt.seconds || timed.empty() ||
         (opt.trace && traced.empty())) {
    const bool traced_pass = opt.trace && traced.size() < timed.size();
    ServePass pass = run_serve_pass(spec, config, opt.seed, &setup,
                                    traced_pass ? &spans : nullptr, true);
    timed_s += pass.run_ms / 1e3;
    r.attempted += pass.calls;
    r.failed += pass.threw;
    sim_repeats = sim_repeats && sim_signature(pass) == reference;
    conserved = conserved && pass.metrics.requests_retired +
                                     pass.metrics.requests_failed ==
                                 pass.submitted;
    (traced_pass ? traced : timed).push_back(std::move(pass));
    if (r.failed > 0) break;
  }
  const double rss = peak_rss_mb();

  // Untimed correctness passes with outputs captured (DRAM proxy off: it
  // never changes outputs): Token-Picker, the exact quantized backend on the
  // same requests, and for a multi-threaded workload Token-Picker at
  // threads=1, whose outputs must be bit-identical.
  ServeConfig capture = config;
  capture.capture_outputs = true;
  capture.simulate_dram = false;
  const ServePass picked = run_serve_pass(spec, capture, opt.seed, nullptr,
                                          nullptr, false);
  if (config.threads > 1) {
    ServeConfig single_cfg = capture;
    single_cfg.threads = 1;
    const ServePass single = run_serve_pass(spec, single_cfg, opt.seed,
                                            nullptr, nullptr, false);
    r.check("threads_bit_identical",
            single.outputs == picked.outputs &&
                sim_signature(single) == sim_signature(picked),
            "outputs at threads=" + std::to_string(config.threads) +
                " equal threads=1 over " +
                std::to_string(picked.outputs.size()) + " token positions");
  }
  const auto exact = exact_outputs(spec, capture, opt.seed);
  std::vector<double> errors;
  for (const auto& [key, rows] : picked.outputs) {
    const auto it = exact.find(key);
    if (it == exact.end()) continue;
    for (std::size_t inst = 0; inst < rows.size(); ++inst) {
      errors.push_back(rel_l2(rows[inst], it->second[inst]));
    }
  }
  const double err_p99 = percentile(errors, 0.99);

  // Host end-to-end metrics over the untraced timed passes; throughput is
  // the median of the per-pass rates.
  std::vector<double> step_ms, tokens_per_s;
  std::uint64_t tokens = 0;
  for (const auto& p : timed) {
    step_ms.insert(step_ms.end(), p.step_ms.begin(), p.step_ms.end());
    tokens_per_s.push_back(static_cast<double>(p.metrics.tokens_generated) /
                           (p.run_ms / 1e3));
    tokens += p.metrics.tokens_generated;
  }
  const double instances_per_token =
      static_cast<double>(config.n_layer) * config.n_head;
  r.e2e("host_tokens_per_s", median(tokens_per_s), "tok/s", Domain::host,
        tokens);
  r.e2e("host_instances_per_s", median(tokens_per_s) * instances_per_token,
        "1/s", Domain::host, tokens);
  r.e2e("host_step_ms_p50", percentile(step_ms, 0.50), "ms", Domain::host,
        step_ms.size());
  r.e2e("host_step_ms_p99", percentile(step_ms, 0.99), "ms", Domain::host,
        step_ms.size());
  r.e2e("setup_s", median(setup.total_s), "s", Domain::host,
        setup.total_s.size());
  r.e2e("peak_rss_mb", rss, "MB", Domain::host, 1);

  // Simulated end-to-end metrics, from the warm-up pass (every pass repeats
  // them). Cycle metrics need the DRAM proxy.
  const FleetMetrics& m = warm.metrics;
  if (config.simulate_dram) {
    r.e2e("sim_tokens_per_s", m.tokens_per_second(), "tok/s", Domain::sim,
          m.tokens_generated);
    r.e2e("sim_ttft_cycles_p50", m.p50_ttft_cycles(), "cycles", Domain::sim,
          m.ttft_cycle_samples.size());
    r.e2e("sim_ttft_cycles_p95", m.p95_ttft_cycles(), "cycles", Domain::sim,
          m.ttft_cycle_samples.size());
    r.e2e("sim_step_cycles_p99", m.p99_step_cycles(), "cycles", Domain::sim,
          m.step_cycle_samples.size());
  }
  r.e2e("dram_bytes_per_token", m.bytes_per_token(), "B", Domain::sim,
        m.tokens_generated);
  r.e2e("output_rel_err_p50", percentile(errors, 0.50), "ratio", Domain::sim,
        errors.size());
  r.e2e("output_rel_err_p99", err_p99, "ratio", Domain::sim, errors.size());
  r.e2e("requests_failed_frac",
        static_cast<double>(m.requests_failed) /
            static_cast<double>(warm.submitted),
        "ratio", Domain::sim, warm.submitted);
  if (warm.slo_interactive_tracked > 0.0) {
    r.e2e("slo_attainment_interactive",
          warm.slo_interactive_met / warm.slo_interactive_tracked, "ratio",
          Domain::sim,
          static_cast<std::uint64_t>(warm.slo_interactive_tracked));
  }

  r.check("requests_conserved", conserved,
          "retired + failed == submitted on every pass");
  r.check("sim_metrics_repeat", sim_repeats,
          "simulated metrics identical on all " +
              std::to_string(timed.size() + traced.size() + 1) +
              " timed and warm-up passes");
  r.check("output_rel_err_p99_bound",
          !errors.empty() && err_p99 <= kRelErrBound,
          std::to_string(errors.size()) + " instance outputs compared, p99 " +
              std::to_string(err_p99) + " <= " + std::to_string(kRelErrBound));

  if (opt.trace) {
    serve_layer_metrics(r, warm, traced, setup);
    std::vector<double> untraced_ms, traced_ms;
    for (const auto& p : timed) untraced_ms.push_back(p.run_ms);
    for (const auto& p : traced) traced_ms.push_back(p.run_ms);
    r.layer("obs.tracing_overhead_frac",
            median(traced_ms) / median(untraced_ms) - 1.0, "ratio",
            Domain::host, traced.size());
  }

  json.field("trace_requests", spec.requests);
  if (spec.priority_mix) {
    dump(json, "arrivals", spec.mix);
  } else {
    dump(json, "arrivals", spec.arrivals);
  }
  dump(json, "serve_config", config);
  dump(json, "fault_plan", spec.plan);
  json.begin_array("pass_tokens_per_s");
  for (const double v : tokens_per_s) json.field(nullptr, v);
  json.end_array();
  json.field("timed_passes", static_cast<std::uint64_t>(timed.size()))
      .field("traced_passes", static_cast<std::uint64_t>(traced.size()))
      .field("output_rel_err_max", percentile(errors, 1.0))
      .field("peak_rss_mb_all_passes", peak_rss_mb());
}

// ---- accel_zoo --------------------------------------------------------------

// Paper Fig. 10 per-model ToPick speedups and normalized energies, zoo order.
// Context for an unvalidated model, never a gate.
constexpr double kPaperSpeedup[] = {2.03, 2.02, 2.25, 2.33,
                                    2.47, 2.24, 2.37, 2.46};
constexpr double kPaperEnergy[] = {0.46, 0.46, 0.43, 0.42,
                                   0.40, 0.41, 0.41, 0.39};
constexpr double kPaperMeanSpeedup = 2.28;
constexpr double kPaperMeanEnergyGain = 2.41;
constexpr int kZooInstancesPerModel = 16;
// Set-up runs once per pass for the serve workloads; the zoo is built once,
// so it is built several times for a median.
constexpr int kZooSetups = 3;
constexpr double kZooThreshold = 1e-3;
// The out-of-order accelerator visits tokens in another order than the
// functional model, so its pruning decisions (and outputs) may differ
// slightly; it must stay this close to TokenPickerAttention.
constexpr double kAccelFunctionalTol = 0.05;

struct ZooInstance {
  std::size_t model = 0;
  tp::accel::AccelInstance hw;
};

tp::accel::AccelInstance make_hw_instance(const tp::wl::Instance& inst) {
  tp::accel::AccelInstance hw;
  tp::fx::QuantParams base;
  hw.kv = tp::quantize_kv(inst.view(), base);
  tp::fx::QuantParams qp = base;
  qp.scale = tp::fx::choose_scale(inst.q, base.total_bits);
  hw.q = tp::fx::quantize(inst.q, qp);
  hw.score_scale = static_cast<double>(qp.scale) * hw.kv.keys[0].params.scale /
                   std::sqrt(static_cast<double>(inst.head_dim));
  return hw;
}

// Generates and quantizes the zoo's instances one at a time, so only the
// quantized set stays resident.
std::vector<ZooInstance> make_zoo(const std::vector<tp::wl::ZooEntry>& zoo,
                                  std::uint64_t seed, SpanLog* spans,
                                  SetupTimes* setup) {
  SpanLog::Scope setup_span(spans, "workload.setup");
  std::vector<ZooInstance> out;
  double gen_ms = 0.0;
  double quant_ms = 0.0;
  for (std::size_t mi = 0; mi < zoo.size(); ++mi) {
    const tp::wl::Generator gen(zoo[mi].workload);
    tp::Rng rng(seed * 0x9e3779b97f4a7c15ULL + mi);
    for (int i = 0; i < kZooInstancesPerModel; ++i) {
      const auto t0 = Clock::now();
      tp::wl::Instance raw;
      {
        SpanLog::Scope span(spans, "workload.trace_gen");
        raw = gen.make_instance(rng);
        span.count(1);
      }
      const auto t1 = Clock::now();
      {
        SpanLog::Scope span(spans, "workload.stream_build");
        out.push_back({mi, make_hw_instance(raw)});
        span.count(1);
      }
      gen_ms += ms_between(t0, t1);
      quant_ms += ms_between(t1, Clock::now());
    }
  }
  if (setup != nullptr) setup->add(gen_ms, 0.0, quant_ms);
  return out;
}

tp::accel::AccelConfig zoo_config(tp::accel::DesignPoint design) {
  tp::accel::AccelConfig c;
  c.design = design;
  c.estimator.threshold =
      design == tp::accel::DesignPoint::baseline ? 0.0 : kZooThreshold;
  c.dram.enable_refresh = false;  // as in Fig. 10
  return c;
}

// Simulated outcome of one design on one instance (everything but host time).
struct ZooSim {
  std::uint64_t core_cycles = 0;
  double energy_pj = 0.0;
  tp::AccessStats access;
  tp::mem::DramStats dram;
  std::uint64_t lane_busy = 0;
  std::uint64_t lane_stall = 0;
  std::size_t scoreboard_peak = 0;
  std::vector<float> output;

  bool operator==(const ZooSim& o) const {
    return core_cycles == o.core_cycles && energy_pj == o.energy_pj &&
           access.k_bits_fetched == o.access.k_bits_fetched &&
           access.v_bits_fetched == o.access.v_bits_fetched &&
           access.tokens_kept == o.access.tokens_kept &&
           dram.requests == o.dram.requests &&
           dram.row_hits == o.dram.row_hits && lane_busy == o.lane_busy &&
           lane_stall == o.lane_stall && output == o.output;
  }
};

ZooSim to_sim(const tp::accel::SimResult& s) {
  return {s.core_cycles,     tp::accel::energy_of(s).total_pj(),
          s.access,          s.dram,
          s.lane_busy_cycles, s.lane_stall_cycles,
          s.scoreboard_peak, s.output};
}

struct ZooPass {
  std::vector<ZooSim> base, topick;
  std::vector<double> step_ms;  // one instance under both designs
  std::vector<double> run_ms;   // each Engine::run
  double total_ms = 0.0;
  std::uint64_t threw = 0;
};

ZooPass run_zoo_pass(const std::vector<ZooInstance>& zoo,
                     tp::accel::Engine& base_engine,
                     tp::accel::Engine& topick_engine, SpanLog* spans) {
  ZooPass pass;
  SpanLog::Scope pass_span(spans, "accel.pass");
  const auto start = Clock::now();
  for (const auto& inst : zoo) {
    const auto t0 = Clock::now();
    try {
      tp::accel::SimResult b, t;
      {
        SpanLog::Scope span(spans, "accel.run_baseline");
        b = base_engine.run(inst.hw);
        span.count(1);
      }
      const auto t1 = Clock::now();
      {
        SpanLog::Scope span(spans, "accel.run_topick");
        t = topick_engine.run(inst.hw);
        span.count(1);
      }
      const auto t2 = Clock::now();
      pass.run_ms.push_back(ms_between(t0, t1));
      pass.run_ms.push_back(ms_between(t1, t2));
      pass.step_ms.push_back(ms_between(t0, t2));
      pass.base.push_back(to_sim(b));
      pass.topick.push_back(to_sim(t));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "accel_zoo: run threw: %s\n", e.what());
      ++pass.threw;
      break;
    }
  }
  pass.total_ms = ms_between(start, Clock::now());
  pass_span.count(zoo.size());
  return pass;
}

void run_accel_zoo(const Options& opt, Report& r, SpanLog& spans,
                   JsonWriter& json) {
  const auto entries = tp::wl::workload_zoo();
  SetupTimes setup;
  std::vector<ZooInstance> zoo;
  for (int i = 0; i < kZooSetups; ++i) {
    zoo = make_zoo(entries, opt.seed, nullptr, &setup);
  }
  tp::accel::Engine base_engine(zoo_config(tp::accel::DesignPoint::baseline));
  tp::accel::Engine topick_engine(
      zoo_config(tp::accel::DesignPoint::topick_ooo));

  const ZooPass warm = run_zoo_pass(zoo, base_engine, topick_engine, nullptr);
  std::vector<ZooPass> timed, traced;
  double timed_s = 0.0;
  bool sim_repeats = true;
  while (timed_s < opt.seconds || timed.empty() ||
         (opt.trace && traced.empty())) {
    const bool traced_pass = opt.trace && traced.size() < timed.size();
    if (traced_pass) make_zoo(entries, opt.seed, &spans, &setup);
    ZooPass pass = run_zoo_pass(zoo, base_engine, topick_engine,
                                traced_pass ? &spans : nullptr);
    timed_s += pass.total_ms / 1e3;
    r.attempted += pass.run_ms.size() + pass.threw;
    r.failed += pass.threw;
    sim_repeats = sim_repeats && pass.base == warm.base &&
                  pass.topick == warm.topick;
    (traced_pass ? traced : timed).push_back(std::move(pass));
    if (r.failed > 0) break;
  }
  const double rss = peak_rss_mb();

  std::vector<double> step_ms;
  std::vector<double> instances_per_s;
  std::uint64_t runs = 0;
  for (const auto& p : timed) {
    step_ms.insert(step_ms.end(), p.step_ms.begin(), p.step_ms.end());
    instances_per_s.push_back(static_cast<double>(p.run_ms.size()) /
                              (p.total_ms / 1e3));
    runs += p.run_ms.size();
  }
  r.e2e("host_instances_per_s", median(instances_per_s), "1/s", Domain::host,
        runs);
  r.e2e("host_step_ms_p50", percentile(step_ms, 0.50), "ms", Domain::host,
        step_ms.size());
  r.e2e("host_step_ms_p99", percentile(step_ms, 0.99), "ms", Domain::host,
        step_ms.size());
  r.e2e("setup_s", median(setup.total_s), "s", Domain::host,
        setup.total_s.size());
  r.e2e("peak_rss_mb", rss, "MB", Domain::host, 1);

  // Simulated metrics (deterministic per seed) from the warm-up pass.
  const tp::accel::AccelConfig top_cfg = topick_engine.config();
  std::uint64_t base_cycles = 0, top_cycles = 0, top_bytes = 0;
  double base_energy = 0.0, top_energy = 0.0;
  std::vector<double> top_dram_cycles;
  std::vector<double> model_base(entries.size()), model_top(entries.size());
  std::vector<double> model_ebase(entries.size()), model_etop(entries.size());
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    const ZooSim& b = warm.base[i];
    const ZooSim& t = warm.topick[i];
    base_cycles += b.core_cycles;
    top_cycles += t.core_cycles;
    base_energy += b.energy_pj;
    top_energy += t.energy_pj;
    top_bytes += t.dram.bytes_read;
    top_dram_cycles.push_back(static_cast<double>(t.core_cycles) *
                              top_cfg.dram_clocks_per_core);
    model_base[zoo[i].model] += static_cast<double>(b.core_cycles);
    model_top[zoo[i].model] += static_cast<double>(t.core_cycles);
    model_ebase[zoo[i].model] += b.energy_pj;
    model_etop[zoo[i].model] += t.energy_pj;
  }
  const auto n_inst = static_cast<std::uint64_t>(zoo.size());
  const double speedup =
      static_cast<double>(base_cycles) / static_cast<double>(top_cycles);
  const double energy_gain = base_energy / top_energy;
  r.e2e("sim_tokens_per_s",
        static_cast<double>(n_inst) /
            (static_cast<double>(top_cycles) / (top_cfg.core_clock_ghz * 1e9)),
        "tok/s", Domain::sim, n_inst);
  r.e2e("sim_step_cycles_p99", percentile(top_dram_cycles, 0.99), "cycles",
        Domain::sim, n_inst);
  r.e2e("dram_bytes_per_token",
        static_cast<double>(top_bytes) / static_cast<double>(n_inst), "B",
        Domain::sim, n_inst);
  r.e2e("accel_speedup", speedup, "x", Domain::sim, n_inst);
  r.e2e("accel_energy_gain", energy_gain, "x", Domain::sim, n_inst);

  // Untimed references: exact quantized attention (threshold 0) and the
  // functional Token-Picker at the accelerator's threshold.
  std::vector<double> errors;
  double worst_functional = 0.0;
  double worst_baseline = 0.0;
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    const auto& hw = zoo[i].hw;
    tp::TokenPickerConfig exact_cfg;
    exact_cfg.estimator.threshold = 0.0;
    tp::TokenPickerAttention exact(exact_cfg);
    const auto want = exact.attend_quantized(hw.q, hw.kv, hw.score_scale);
    tp::TokenPickerConfig pick_cfg;
    pick_cfg.estimator.threshold = kZooThreshold;
    tp::TokenPickerAttention functional(pick_cfg);
    const auto picked =
        functional.attend_quantized(hw.q, hw.kv, hw.score_scale);
    errors.push_back(rel_l2(warm.topick[i].output, want.output));
    worst_functional = std::max(
        worst_functional, rel_l2(warm.topick[i].output, picked.output));
    worst_baseline =
        std::max(worst_baseline, rel_l2(warm.base[i].output, want.output));
  }
  const double err_p99 = percentile(errors, 0.99);
  r.e2e("output_rel_err_p50", percentile(errors, 0.50), "ratio", Domain::sim,
        errors.size());
  r.e2e("output_rel_err_p99", err_p99, "ratio", Domain::sim, errors.size());

  r.check("sim_metrics_repeat", sim_repeats,
          "cycles, energy, traffic and outputs identical on all " +
              std::to_string(timed.size() + traced.size() + 1) + " passes");
  r.check("topick_matches_functional", worst_functional <= kAccelFunctionalTol,
          "max rel L2 vs functional TokenPickerAttention " +
              std::to_string(worst_functional));
  r.check("baseline_matches_exact", worst_baseline <= 1e-4,
          "max rel L2 vs exact quantized attention " +
              std::to_string(worst_baseline));
  r.check("output_rel_err_p99_bound", err_p99 <= kRelErrBound,
          "p99 " + std::to_string(err_p99) + " <= " +
              std::to_string(kRelErrBound));

  if (opt.trace) {
    r.layer("workload.trace_gen_ms", median(setup.trace_gen_ms), "ms",
            Domain::host, setup.trace_gen_ms.size());
    r.layer("workload.stream_build_ms", median(setup.stream_build_ms), "ms",
            Domain::host, setup.stream_build_ms.size());
    zero_layer_metrics(
        r,
        {"serve.steps", "serve.batch_running_mean", "serve.queue_depth_mean",
         "serve.preemptions", "serve.prefill_tokens", "serve.pool_peak_pages",
         "serve.pages_reclaimed"},
        "count");
    zero_layer_metrics(r, {"serve.queue_wait_steps_mean"}, "steps");
    zero_layer_metrics(r, {"serve.kv_resident_bytes_peak"}, "B");
    zero_layer_metrics(r,
                       {"serve.admit_ms", "serve.append_ms",
                        "serve.attention_wall_ms", "serve.attention_busy_ms",
                        "serve.barrier_wait_ms", "serve.reduce_ms",
                        "serve.replay_ms"},
                       "ms");
    tp::AccessStats access;
    std::uint64_t busy = 0, stall = 0, dram_req = 0, hits = 0, misses = 0;
    std::size_t sb_peak = 0;
    for (const auto& t : warm.topick) {
      access.merge(t.access);
      busy += t.lane_busy;
      stall += t.lane_stall;
      sb_peak = std::max(sb_peak, t.scoreboard_peak);
    }
    for (const auto* side : {&warm.base, &warm.topick}) {
      for (const auto& s : *side) {
        dram_req += s.dram.requests;
        hits += s.dram.row_hits;
        misses += s.dram.row_misses;
      }
    }
    core_layer_metrics(r, access);
    const double dram_cycles =
        static_cast<double>(base_cycles + top_cycles) *
        top_cfg.dram_clocks_per_core;
    std::vector<double> run_ms, ns_per_cycle;
    for (const auto& p : traced) {
      run_ms.insert(run_ms.end(), p.run_ms.begin(), p.run_ms.end());
      double pass_run_ms = 0.0;
      for (const double ms : p.run_ms) pass_run_ms += ms;
      ns_per_cycle.push_back(pass_run_ms * 1e6 / dram_cycles);
    }
    r.layer("memsim.sim_cycles", dram_cycles, "cycles", Domain::sim, 1);
    r.layer("memsim.host_ns_per_sim_cycle", median(ns_per_cycle), "ns",
            Domain::host, ns_per_cycle.size());
    r.layer("memsim.requests", static_cast<double>(dram_req), "count",
            Domain::sim, 1);
    r.layer("memsim.row_hit_rate",
            static_cast<double>(hits) / static_cast<double>(hits + misses),
            "ratio", Domain::sim, hits + misses);
    r.layer("accel.core_cycles_baseline", static_cast<double>(base_cycles),
            "cycles", Domain::sim, n_inst);
    r.layer("accel.core_cycles_topick", static_cast<double>(top_cycles),
            "cycles", Domain::sim, n_inst);
    r.layer("accel.lane_utilization",
            static_cast<double>(busy) /
                (static_cast<double>(top_cycles) * top_cfg.pe_lanes),
            "ratio", Domain::sim, n_inst);
    r.layer("accel.lane_stall_cycles", static_cast<double>(stall), "cycles",
            Domain::sim, n_inst);
    r.layer("accel.scoreboard_peak", static_cast<double>(sb_peak), "count",
            Domain::sim, n_inst);
    r.layer("accel.run_ms", median(run_ms), "ms", Domain::host, run_ms.size());
    zero_layer_metrics(r,
                       {"fault.aborts", "fault.retries", "fault.rejections",
                        "fault.deadline_misses",
                        "fault.degradation_level_changes",
                        "fault.degraded_tokens"},
                       "count");
    std::vector<double> untraced_ms, traced_ms;
    for (const auto& p : timed) untraced_ms.push_back(p.total_ms);
    for (const auto& p : traced) traced_ms.push_back(p.total_ms);
    r.layer("obs.tracing_overhead_frac",
            median(traced_ms) / median(untraced_ms) - 1.0, "ratio",
            Domain::host, traced.size());
  }

  json.begin_object("paper_reference")
      .field("note",
             "context for an unvalidated model, not a gate: paper Fig. 10 "
             "averages vs this model's zoo sums")
      .field("accel_speedup_paper", kPaperMeanSpeedup)
      .field("accel_energy_gain_paper", kPaperMeanEnergyGain)
      .begin_array("per_model");
  for (std::size_t mi = 0; mi < entries.size(); ++mi) {
    json.begin_object()
        .field("model", entries[mi].model.name)
        .field("speedup", model_base[mi] / model_top[mi])
        .field("speedup_paper", kPaperSpeedup[mi])
        .field("energy_norm", model_etop[mi] / model_ebase[mi])
        .field("energy_norm_paper", kPaperEnergy[mi])
        .end_object();
  }
  json.end_array().end_object();
  json.field("instances_per_model", kZooInstancesPerModel);
  dump(json, "accel_baseline", base_engine.config());
  dump(json, "accel_topick", topick_engine.config());
  json.begin_array("zoo");
  for (const auto& e : entries) dump(json, nullptr, e);
  json.end_array();
  json.field("timed_passes", static_cast<std::uint64_t>(timed.size()))
      .field("traced_passes", static_cast<std::uint64_t>(traced.size()));
  std::printf("accel_speedup %.3fx (paper 2.28x), accel_energy_gain %.3fx "
              "(paper 2.41x): context for an unvalidated model, not a gate\n",
              speedup, energy_gain);
}

// ---- main -------------------------------------------------------------------

bool parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt->workload = val;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt->trace = val == "1";
    } else if (key == "--out") {
      opt->out = val;
    } else if (key == "--spans") {
      opt->spans_out = val;
    } else if (key == "--commit") {
      opt->commit = val;
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && !opt->out.empty() && opt->seconds > 0.0;
}

const char* domain_name(Domain d) { return d == Domain::host ? "host" : "sim"; }

void write_metrics(JsonWriter& json, const char* key,
                   const std::vector<Metric>& metrics) {
  json.begin_object(key);
  for (const auto& m : metrics) {
    json.begin_object(m.name.c_str())
        .field("value", m.value)
        .field("unit", m.unit)
        .field("domain", domain_name(m.domain))
        .field("samples", m.samples)
        .end_object();
  }
  json.end_object();
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-36s %18.6g %-7s %-4s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), domain_name(m.domain),
                static_cast<unsigned long long>(m.samples));
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: topick_bench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> --out <file> [--spans <file>] "
                 "[--commit <id>]\n");
    return 2;
  }

  Report report;
  SpanLog spans(opt.trace);
  std::ostringstream details;
  JsonWriter dj(details);
  dj.begin_object("workload_config");
  try {
    if (opt.workload == "serve_poisson") {
      run_serve(serve_poisson_spec(), opt, report, spans, dj);
    } else if (opt.workload == "decode_long_context") {
      run_serve(decode_long_context_spec(), opt, report, spans, dj);
    } else if (opt.workload == "serve_overload") {
      run_serve(serve_overload_spec(), opt, report, spans, dj);
    } else if (opt.workload == "accel_zoo") {
      run_accel_zoo(opt, report, spans, dj);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
    if (opt.trace) {
      fixedpoint_layer_metrics(report, spans, opt.seed, dj);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  dj.end_object();

  print_metrics("end-to-end:", report.end_to_end);
  if (opt.trace) print_metrics("per-layer:", report.per_layer);
  for (const auto& c : report.checks) {
    std::printf("check %-28s %s  %s\n", c.name.c_str(), c.ok ? "ok" : "FAIL",
                c.detail.c_str());
  }

  std::ofstream out(opt.out);
  JsonWriter json(out);
  json.begin_object()
      .field("schema", 1)
      .field("workload", opt.workload)
      .field("seed", opt.seed)
      .field("seconds", opt.seconds)
      .field("trace", opt.trace)
      .field("commit", opt.commit)
      .field("correct", report.correct())
      .field("attempted", report.attempted)
      .field("failed", report.failed);
  write_fingerprint(json);
  out << ", " << details.str();
  write_metrics(json, "end_to_end", report.end_to_end);
  write_metrics(json, "per_layer", report.per_layer);
  json.begin_array("checks");
  for (const auto& c : report.checks) {
    json.begin_object()
        .field("name", c.name)
        .field("ok", c.ok)
        .field("detail", c.detail)
        .end_object();
  }
  json.end_array();
  if (opt.trace) spans.write_summary(json);
  json.end_object();
  out << '\n';
  out.close();

  if (opt.trace && !opt.spans_out.empty()) {
    std::ofstream span_file(opt.spans_out);
    spans.write_chrome_json(span_file);
  }
  return report.correct() ? 0 : 1;
}
