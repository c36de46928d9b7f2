// Serving-fleet benchmark: runs the continuous-batching ServeEngine over a
// fixed Poisson trace under the exact backend and Token-Picker at the paper's
// operating thresholds, plus a bursty-trace chunked-vs-monolithic prefill
// comparison and a QoS priority-mix scenario pitting the three scheduling
// policies (fifo_youngest_first / priority_slack / cost_aware_victim)
// against the same offered load, and emits BENCH_serving.json — the perf
// trajectory seed for the serving subsystem (tokens/s under the 1 GHz
// DRAM-cycle proxy, bytes/token including prompt writes, p50/p95/p99
// decode-step latency, TTFT and request-latency percentiles, queue wait,
// prefill bytes, pool peak/reclaim counters, and per-priority-class
// latency/SLO-attainment breakdowns).
//
// The `resilience` section is the overload scenario: arrival rate past
// saturation, one degraded HBM channel, deadlines + retry + admission control
// armed in both arms, no-controller vs the closed-loop DegradationController
// — per-class resilience counters, SLO attainment, and the
// "controller_improves" verdict CI greps for. `--faults` runs only this
// scenario (the CI chaos-leg smoke).
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "fault/fault_plan.h"
#include "obs/trace.h"
#include "obs/trace_validate.h"
#include "serve/metrics_export.h"
#include "serve/serve_engine.h"
#include "workload/arrivals.h"

using namespace topick;

namespace {

struct BenchRow {
  std::string name;
  serve::FleetMetrics metrics;
  std::size_t peak_pages = 0;
  std::size_t pool_pages = 0;
  std::size_t prefill_chunk_tokens = 0;
};

serve::ServeConfig bench_config(serve::BackendKind backend, double threshold,
                                bool reclaim, std::size_t prefill_chunk) {
  serve::ServeConfig config;
  config.n_layer = 2;
  config.n_head = 2;
  config.head_dim = 64;
  config.max_batch = 12;
  config.pool_pages = 4096;
  config.page_tokens = 8;
  config.backend = backend;
  config.picker.estimator.threshold = threshold;
  config.persistence_window = 4;
  config.reclaim = reclaim;
  config.capture_outputs = false;
  config.prefill_chunk_tokens = prefill_chunk;
  return config;
}

BenchRow run_one(const std::string& name, const serve::ServeConfig& config,
                 const std::vector<wl::ArrivalEvent>& trace) {
  serve::ServeEngine engine(config);
  engine.submit_trace(trace);
  engine.run();
  return BenchRow{name, engine.metrics(), engine.pool().peak_pages_in_use(),
                  config.pool_pages, config.prefill_chunk_tokens};
}

std::string json_escape_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void print_table(const std::vector<BenchRow>& rows) {
  TablePrinter table({"config", "tokens/s", "bytes/token", "p50", "p95", "p99",
                      "TTFT p50", "TTFT p95", "q-wait", "prefill MB",
                      "KV red.", "peak pages", "reclaimed"});
  for (const auto& row : rows) {
    const auto& m = row.metrics;
    table.add_row({row.name, TablePrinter::fmt(m.tokens_per_second(), 0),
                   TablePrinter::fmt(m.bytes_per_token(), 0),
                   TablePrinter::fmt(m.p50_step_cycles(), 0),
                   TablePrinter::fmt(m.p95_step_cycles(), 0),
                   TablePrinter::fmt(m.p99_step_cycles(), 0),
                   TablePrinter::fmt(m.p50_ttft_cycles(), 0),
                   TablePrinter::fmt(m.p95_ttft_cycles(), 0),
                   TablePrinter::fmt(m.avg_queue_wait_steps(), 1),
                   TablePrinter::fmt(m.prefill_bytes() / 1e6, 2),
                   TablePrinter::fmt_ratio(m.stats.total_reduction()),
                   std::to_string(row.peak_pages),
                   std::to_string(m.pages_reclaimed)});
  }
  std::printf("%s\n", table.render().c_str());
}

void emit_rows(FILE* out, const std::vector<BenchRow>& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& m = rows[i].metrics;
    std::fprintf(
        out,
        "    {\"config\": \"%s\", \"prefill_chunk_tokens\": %zu, "
        "\"tokens_per_s\": %s, "
        "\"bytes_per_token\": %s, \"p50_step_cycles\": %s, "
        "\"p95_step_cycles\": %s, \"p99_step_cycles\": %s, "
        "\"p50_ttft_cycles\": %s, \"p95_ttft_cycles\": %s, "
        "\"p99_ttft_cycles\": %s, \"p50_request_latency_cycles\": %s, "
        "\"p95_request_latency_cycles\": %s, "
        "\"p99_request_latency_cycles\": %s, \"avg_queue_wait_steps\": %s, "
        "\"prefill_bytes\": %s, \"prefill_tokens\": %llu, "
        "\"kv_traffic_reduction\": %s, \"pruning_ratio\": %s, "
        "\"peak_pages\": %zu, \"pool_pages\": %zu, \"pages_reclaimed\": %llu, "
        "\"pool_reuses\": %llu, \"preemptions\": %llu, "
        "\"avg_fragmentation\": %s}%s\n",
        rows[i].name.c_str(), rows[i].prefill_chunk_tokens,
        json_escape_number(m.tokens_per_second()).c_str(),
        json_escape_number(m.bytes_per_token()).c_str(),
        json_escape_number(m.p50_step_cycles()).c_str(),
        json_escape_number(m.p95_step_cycles()).c_str(),
        json_escape_number(m.p99_step_cycles()).c_str(),
        json_escape_number(m.p50_ttft_cycles()).c_str(),
        json_escape_number(m.p95_ttft_cycles()).c_str(),
        json_escape_number(m.p99_ttft_cycles()).c_str(),
        json_escape_number(m.p50_request_latency_cycles()).c_str(),
        json_escape_number(m.p95_request_latency_cycles()).c_str(),
        json_escape_number(m.p99_request_latency_cycles()).c_str(),
        json_escape_number(m.avg_queue_wait_steps()).c_str(),
        json_escape_number(m.prefill_bytes()).c_str(),
        static_cast<unsigned long long>(m.prefill_tokens),
        json_escape_number(m.stats.total_reduction()).c_str(),
        json_escape_number(m.stats.pruning_ratio()).c_str(), rows[i].peak_pages,
        rows[i].pool_pages,
        static_cast<unsigned long long>(m.pages_reclaimed),
        static_cast<unsigned long long>(m.pool_reuses),
        static_cast<unsigned long long>(m.preemptions),
        json_escape_number(m.avg_fragmentation).c_str(),
        i + 1 < rows.size() ? "," : "");
  }
}

// ---- QoS priority-mix scenario ----------------------------------------------

wl::PriorityMixParams qos_mix() {
  wl::PriorityMixParams mix;
  mix.arrivals.kind = wl::ArrivalKind::bursty;
  mix.arrivals.rate = 0.5;
  mix.arrivals.burst_factor = 6.0;
  // interactive: short, tight TTFT/latency deadlines in engine steps.
  mix.mix[0] = wl::PriorityClassMix{0.5, 16, 48, 16, 48, 24, 320};
  // batch: long prompts, loose deadlines.
  mix.mix[1] = wl::PriorityClassMix{0.3, 96, 224, 24, 64, 128, 1024};
  // best_effort: no SLO at all.
  mix.mix[2] = wl::PriorityClassMix{0.2, 32, 96, 16, 48, 0, 0};
  return mix;
}

BenchRow run_policy(serve::PolicyKind policy,
                    const std::vector<wl::ArrivalEvent>& trace) {
  serve::ServeConfig config =
      bench_config(serve::BackendKind::token_picker, 1e-3, true, 16);
  config.max_batch = 10;
  config.pool_pages = 384;  // tight: preemption policy actually decides
  config.policy = policy;
  config.policy_params.aging_steps = 96;  // starvation guard for best_effort
  return run_one(serve::policy_kind_name(policy), config, trace);
}

void print_qos_table(const std::vector<BenchRow>& rows) {
  TablePrinter table({"policy", "class", "n", "TTFT p50", "TTFT p99",
                      "lat p99", "SLO ttft", "SLO lat", "q-wait", "preempt"});
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < wl::kPriorityCount; ++c) {
      const auto& cls = row.metrics.per_class[c];
      table.add_row({row.name, wl::priority_name(static_cast<wl::Priority>(c)),
                     std::to_string(cls.submitted),
                     TablePrinter::fmt(cls.p50_ttft_cycles(), 0),
                     TablePrinter::fmt(cls.p99_ttft_cycles(), 0),
                     TablePrinter::fmt(cls.p99_latency_cycles(), 0),
                     TablePrinter::fmt_pct(cls.slo_ttft_attainment()),
                     TablePrinter::fmt_pct(cls.slo_latency_attainment()),
                     TablePrinter::fmt(cls.avg_queue_wait_steps(), 1),
                     std::to_string(cls.preemptions)});
    }
  }
  std::printf("%s\n", table.render().c_str());
}

void emit_qos_rows(FILE* out, const std::vector<BenchRow>& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& m = rows[i].metrics;
    std::fprintf(
        out,
        "    {\"policy\": \"%s\", \"tokens_per_s\": %s, "
        "\"p99_step_cycles\": %s, \"preemptions\": %llu, "
        "\"pool_pages\": %zu, \"peak_pages\": %zu, \"per_class\": {",
        rows[i].name.c_str(), json_escape_number(m.tokens_per_second()).c_str(),
        json_escape_number(m.p99_step_cycles()).c_str(),
        static_cast<unsigned long long>(m.preemptions), rows[i].pool_pages,
        rows[i].peak_pages);
    for (std::size_t c = 0; c < wl::kPriorityCount; ++c) {
      const auto& cls = m.per_class[c];
      std::fprintf(
          out,
          "\"%s\": {\"submitted\": %zu, \"retired\": %zu, "
          "\"preemptions\": %llu, \"p50_ttft_cycles\": %s, "
          "\"p99_ttft_cycles\": %s, \"p50_latency_cycles\": %s, "
          "\"p99_latency_cycles\": %s, \"avg_queue_wait_steps\": %s, "
          "\"slo_ttft_attainment\": %s, \"slo_latency_attainment\": %s}%s",
          wl::priority_name(static_cast<wl::Priority>(c)), cls.submitted,
          cls.retired, static_cast<unsigned long long>(cls.preemptions),
          json_escape_number(cls.p50_ttft_cycles()).c_str(),
          json_escape_number(cls.p99_ttft_cycles()).c_str(),
          json_escape_number(cls.p50_latency_cycles()).c_str(),
          json_escape_number(cls.p99_latency_cycles()).c_str(),
          json_escape_number(cls.avg_queue_wait_steps()).c_str(),
          json_escape_number(cls.slo_ttft_attainment()).c_str(),
          json_escape_number(cls.slo_latency_attainment()).c_str(),
          c + 1 < wl::kPriorityCount ? ", " : "");
    }
    std::fprintf(out, "}}%s\n", i + 1 < rows.size() ? "," : "");
  }
}

// ---- overload resilience scenario -------------------------------------------

// One degraded channel: 3x burst stretch plus periodic stall windows — the
// fleet's aggregate bandwidth drops and channel-0 traffic queues behind it.
fault::FaultPlan resilience_plan() {
  fault::FaultPlan plan;
  plan.seed = 11;
  fault::ChannelFaultSpec spec;
  spec.channel = 0;
  spec.fault.burst_multiplier = 3.0;
  spec.fault.stall_period = 4096;
  spec.fault.stall_cycles = 512;
  plan.channels.push_back(spec);
  return plan;
}

// Offered load past saturation for the resilience pool: the queue only grows
// while arrivals continue, so without intervention deadlines start blowing.
wl::PriorityMixParams resilience_mix() {
  wl::PriorityMixParams mix;
  mix.arrivals.rate = 2.0;
  // interactive: short, tight step-domain deadlines — queue wait past ~2
  // service generations blows them.
  mix.mix[0] = wl::PriorityClassMix{0.5, 16, 48, 16, 48, 40, 128};
  // batch: long prompts, deadlines loose enough to survive either arm.
  mix.mix[1] = wl::PriorityClassMix{0.3, 64, 160, 16, 48, 384, 2048};
  // best_effort: no SLO — the controller's first sacrifice.
  mix.mix[2] = wl::PriorityClassMix{0.2, 32, 96, 16, 48, 0, 0};
  return mix;
}

constexpr std::size_t kResilienceRequests = 48;

// Both arms share the faulted channel, deadlines, retry/backoff, and
// admission control — the *only* difference is the closed-loop controller.
serve::ServeConfig resilience_config(bool controller,
                                     const fault::FaultPlan& plan) {
  serve::ServeConfig config =
      bench_config(serve::BackendKind::token_picker, 1e-3, true, 16);
  config.max_batch = 8;
  config.pool_pages = 192;  // tight enough that overload shows in occupancy
  config.policy = serve::PolicyKind::cost_aware_victim;
  config.policy_params.aging_steps = 96;
  config.faults = &plan;
  config.enforce_deadlines = true;
  config.retry.max_retries = 2;
  config.retry.backoff_base_steps = 4;
  config.admission.reject_best_effort_utilization = 0.95;
  if (controller) {
    config.degradation.enabled = true;
    config.degradation.evaluate_every_steps = 4;
    config.degradation.hold_steps = 12;
    config.degradation.pool_hi = 0.60;
    config.degradation.pool_lo = 0.40;
  }
  return config;
}

void print_resilience_table(const std::vector<BenchRow>& rows) {
  TablePrinter table({"arm", "class", "n", "retired", "failed", "aborts",
                      "retries", "rejected", "ddl miss", "degr tok",
                      "SLO ttft", "SLO lat"});
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < wl::kPriorityCount; ++c) {
      const auto& cls = row.metrics.per_class[c];
      table.add_row({row.name, wl::priority_name(static_cast<wl::Priority>(c)),
                     std::to_string(cls.submitted),
                     std::to_string(cls.retired), std::to_string(cls.failed),
                     std::to_string(cls.aborts), std::to_string(cls.retries),
                     std::to_string(cls.rejections),
                     std::to_string(cls.deadline_misses),
                     std::to_string(cls.degraded_tokens),
                     TablePrinter::fmt_pct(cls.slo_ttft_attainment()),
                     TablePrinter::fmt_pct(cls.slo_latency_attainment())});
    }
  }
  std::printf("%s\n", table.render().c_str());
}

void emit_resilience_rows(FILE* out, const std::vector<BenchRow>& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& m = rows[i].metrics;
    std::fprintf(
        out,
        "    {\"config\": \"%s\", \"requests_retired\": %zu, "
        "\"requests_failed\": %zu, \"aborts\": %llu, \"retries\": %llu, "
        "\"rejections\": %llu, \"deadline_misses\": %llu, "
        "\"degraded_tokens\": %llu, \"degradation_level_changes\": %llu, "
        "\"final_degradation_level\": %d, \"preemptions\": %llu, "
        "\"tokens_per_s\": %s, \"per_class\": {",
        rows[i].name.c_str(), m.requests_retired, m.requests_failed,
        static_cast<unsigned long long>(m.aborts),
        static_cast<unsigned long long>(m.retries),
        static_cast<unsigned long long>(m.rejections),
        static_cast<unsigned long long>(m.deadline_misses),
        static_cast<unsigned long long>(m.degraded_tokens),
        static_cast<unsigned long long>(m.degradation_level_changes),
        m.degradation_level, static_cast<unsigned long long>(m.preemptions),
        json_escape_number(m.tokens_per_second()).c_str());
    for (std::size_t c = 0; c < wl::kPriorityCount; ++c) {
      const auto& cls = m.per_class[c];
      std::fprintf(
          out,
          "\"%s\": {\"submitted\": %zu, \"retired\": %zu, \"failed\": %zu, "
          "\"aborts\": %llu, \"retries\": %llu, \"rejections\": %llu, "
          "\"deadline_misses\": %llu, \"degraded_tokens\": %llu, "
          "\"slo_ttft_attainment\": %s, \"slo_latency_attainment\": %s}%s",
          wl::priority_name(static_cast<wl::Priority>(c)), cls.submitted,
          cls.retired, cls.failed, static_cast<unsigned long long>(cls.aborts),
          static_cast<unsigned long long>(cls.retries),
          static_cast<unsigned long long>(cls.rejections),
          static_cast<unsigned long long>(cls.deadline_misses),
          static_cast<unsigned long long>(cls.degraded_tokens),
          json_escape_number(cls.slo_ttft_attainment()).c_str(),
          json_escape_number(cls.slo_latency_attainment()).c_str(),
          c + 1 < wl::kPriorityCount ? ", " : "");
    }
    std::fprintf(out, "}}%s\n", i + 1 < rows.size() ? "," : "");
  }
}

// Runs the overload scenario and emits the `resilience` JSON section into
// `out`. Returns true when the controller arm strictly improves interactive
// SLO attainment over the no-controller baseline (the verdict CI asserts).
bool run_resilience(FILE* out, bool trailing_comma) {
  const fault::FaultPlan plan = resilience_plan();
  Rng rng(53);
  const wl::PriorityMixParams mix = resilience_mix();
  const auto trace =
      wl::make_priority_mix_trace(mix, kResilienceRequests, rng);

  std::vector<BenchRow> rows;
  for (const bool controller : {false, true}) {
    rows.push_back(run_one(controller ? "controller" : "no_controller",
                           resilience_config(controller, plan), trace));
  }
  std::printf(
      "Overload resilience (rate past saturation, channel 0 degraded 3x, "
      "deadlines + retry armed in both arms):\n");
  print_resilience_table(rows);

  const auto& base = rows[0].metrics.for_class(wl::Priority::interactive);
  const auto& ctl = rows[1].metrics.for_class(wl::Priority::interactive);
  const bool improves =
      ctl.slo_latency_attainment() > base.slo_latency_attainment() &&
      ctl.slo_ttft_attainment() >= base.slo_ttft_attainment();
  std::printf(
      "interactive SLO attainment: controller ttft %.3f lat %.3f vs "
      "no-controller ttft %.3f lat %.3f (%s)\n\n",
      ctl.slo_ttft_attainment(), ctl.slo_latency_attainment(),
      base.slo_ttft_attainment(), base.slo_latency_attainment(),
      improves ? "controller improves" : "controller does NOT improve");

  // Scenario labels come from the mix, the arm config, and the fault plan
  // the arms actually ran (pool_pages is shared by both arms).
  const serve::ServeConfig config = resilience_config(false, plan);
  const fault::ChannelFaultSpec& degraded = plan.channels.front();
  std::fprintf(
      out,
      "  \"resilience\": {\"arrivals\": \"priority_mix\", "
      "\"arrival_kind\": \"%s\", \"rate\": %s, \"requests\": %zu, "
      "\"pool_pages\": %zu, \"degraded_channel\": %d, "
      "\"burst_multiplier\": %s, \"stall_period\": %llu, "
      "\"stall_cycles\": %llu, \"controller_improves\": %s, "
      "\"results\": [\n",
      mix.arrivals.kind == wl::ArrivalKind::poisson ? "poisson" : "bursty",
      json_escape_number(mix.arrivals.rate).c_str(), kResilienceRequests,
      config.pool_pages, degraded.channel,
      json_escape_number(degraded.fault.burst_multiplier).c_str(),
      static_cast<unsigned long long>(degraded.fault.stall_period),
      static_cast<unsigned long long>(degraded.fault.stall_cycles),
      improves ? "true" : "false");
  emit_resilience_rows(out, rows);
  std::fprintf(out, "  ]}%s\n", trailing_comma ? "," : "");
  return improves;
}

// Traced rerun of the representative scenario (Token-Picker at the paper's
// 1e-3 threshold, two worker threads so the per-worker attention tracks are
// visible). Tracing never changes engine bits — the rerun's outputs match the
// untraced row's, which tests/obs_test.cpp asserts engine-wide.
int run_traced(const std::string& path,
               const std::vector<wl::ArrivalEvent>& trace) {
  serve::ServeConfig config =
      bench_config(serve::BackendKind::token_picker, 1e-3, true, 16);
  config.threads = 2;
  config.collect_phase_stats = true;
  obs::TraceRecorder recorder;
  config.trace = &recorder;
  serve::ServeEngine engine(config);
  engine.submit_trace(trace);
  engine.run();

  std::string error;
  if (!recorder.write_chrome_json_file(path, &error)) {
    std::fprintf(stderr, "trace write failed: %s\n", error.c_str());
    return 1;
  }
  const obs::TraceValidation check = obs::validate_chrome_trace_file(path);
  if (!check.ok) {
    std::fprintf(stderr, "trace validation failed: %s\n", check.error.c_str());
    return 1;
  }
  const auto& ps = engine.phase_stats();
  std::printf(
      "wrote %s: %zu events (%zu spans) across %zu tracks; "
      "phase attribution over %llu steps: attention busy %.1f ms, "
      "barrier wait %.1f ms, replay %.1f ms\n",
      path.c_str(), check.events, check.span_events, recorder.tracks(),
      static_cast<unsigned long long>(ps.steps),
      static_cast<double>(ps.attention_busy_ns) / 1e6,
      static_cast<double>(ps.barrier_wait_ns) / 1e6,
      static_cast<double>(ps.replay_ns) / 1e6);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  bool faults_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      faults_only = true;
    }
  }

  // CI chaos-leg smoke: only the overload-resilience scenario, minimal JSON.
  // Exit status reflects the controller verdict so the smoke fails loudly.
  if (faults_only) {
    FILE* out = std::fopen("BENCH_serving.json", "w");
    if (!out) {
      std::fprintf(stderr, "cannot open BENCH_serving.json for writing\n");
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"serving_faults\",\n");
    const bool improves = run_resilience(out, /*trailing_comma=*/false);
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote BENCH_serving.json (resilience only)\n");
    return improves ? 0 : 1;
  }

  wl::ArrivalParams params;
  params.rate = 0.8;
  params.prompt_min = 16;
  params.prompt_max = 80;
  params.decode_min = 16;
  params.decode_max = 48;
  Rng rng(17);
  const auto trace = wl::make_arrival_trace(params, 32, rng);

  constexpr std::size_t kChunk = 16;
  std::vector<BenchRow> rows;
  rows.push_back(run_one(
      "exact",
      bench_config(serve::BackendKind::exact_quantized, 0.0, false, kChunk),
      trace));
  rows.push_back(run_one(
      "topick_thr1e-3_noreclaim",
      bench_config(serve::BackendKind::token_picker, 1e-3, false, kChunk),
      trace));
  rows.push_back(run_one(
      "topick_thr1e-3",
      bench_config(serve::BackendKind::token_picker, 1e-3, true, kChunk),
      trace));
  rows.push_back(run_one(
      "topick_thr4e-3",
      bench_config(serve::BackendKind::token_picker, 4e-3, true, kChunk),
      trace));
  std::printf("Poisson trace, chunked prefill (%zu tokens/step):\n", kChunk);
  print_table(rows);

  // Chunked vs monolithic prefill under a bursty trace with long prompts:
  // monolithic prefill dumps a whole prompt's K/V writes into one step, so
  // co-scheduled decodes eat the burst in their tail latency.
  wl::ArrivalParams bursty;
  bursty.kind = wl::ArrivalKind::bursty;
  bursty.rate = 0.5;
  bursty.burst_factor = 8.0;
  bursty.prompt_min = 96;
  bursty.prompt_max = 256;
  bursty.decode_min = 16;
  bursty.decode_max = 48;
  Rng bursty_rng(23);
  const auto bursty_trace = wl::make_arrival_trace(bursty, 32, bursty_rng);

  std::vector<BenchRow> prefill_rows;
  prefill_rows.push_back(run_one(
      "topick_chunked_prefill",
      bench_config(serve::BackendKind::token_picker, 1e-3, true, kChunk),
      bursty_trace));
  prefill_rows.push_back(run_one(
      "topick_monolithic_prefill",
      bench_config(serve::BackendKind::token_picker, 1e-3, true, 0),
      bursty_trace));
  std::printf("Bursty trace, chunked vs monolithic prefill:\n");
  print_table(prefill_rows);
  std::printf(
      "decode p99: chunked %.0f cycles vs monolithic %.0f cycles (%s)\n\n",
      prefill_rows[0].metrics.p99_step_cycles(),
      prefill_rows[1].metrics.p99_step_cycles(),
      prefill_rows[0].metrics.p99_step_cycles() <
              prefill_rows[1].metrics.p99_step_cycles()
          ? "chunked wins"
          : "monolithic wins");

  // QoS priority-mix: identical offered load (same trace) under the three
  // scheduling policies. The QoS-aware policies shield the interactive class
  // from admission queueing behind long batch prompts and from preemption —
  // its p99 latency must come in strictly below FIFO's.
  Rng qos_rng(41);
  const auto qos_trace = wl::make_priority_mix_trace(qos_mix(), 40, qos_rng);
  std::vector<BenchRow> qos_rows;
  qos_rows.push_back(
      run_policy(serve::PolicyKind::fifo_youngest_first, qos_trace));
  qos_rows.push_back(run_policy(serve::PolicyKind::priority_slack, qos_trace));
  qos_rows.push_back(
      run_policy(serve::PolicyKind::cost_aware_victim, qos_trace));
  std::printf("QoS priority mix (40 requests, bursty), per-class breakdown:\n");
  print_qos_table(qos_rows);
  const double fifo_p99 =
      qos_rows[0].metrics.per_class[0].p99_latency_cycles();
  for (std::size_t i = 1; i < qos_rows.size(); ++i) {
    const double p99 = qos_rows[i].metrics.per_class[0].p99_latency_cycles();
    std::printf("interactive p99 latency: %s %.0f vs fifo %.0f cycles (%s)\n",
                qos_rows[i].name.c_str(), p99, fifo_p99,
                p99 < fifo_p99 ? "QoS policy wins" : "fifo wins");
  }
  std::printf("\n");

  FILE* out = std::fopen("BENCH_serving.json", "w");
  if (!out) {
    std::fprintf(stderr, "cannot open BENCH_serving.json for writing\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"serving\",\n");
  std::fprintf(out,
               "  \"workload\": {\"requests\": 32, \"arrivals\": \"poisson\", "
               "\"rate\": 0.8, \"prompt\": [16, 80], \"decode\": [16, 48], "
               "\"n_layer\": 2, \"n_head\": 2, \"head_dim\": 64, "
               "\"max_batch\": 12, \"page_tokens\": 8, "
               "\"prefill_chunk_tokens\": %zu},\n",
               kChunk);
  std::fprintf(out, "  \"results\": [\n");
  emit_rows(out, rows);
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"prefill_comparison\": {\"arrivals\": \"bursty\", "
               "\"rate\": 0.5, \"burst_factor\": 8, \"prompt\": [96, 256], "
               "\"decode\": [16, 48], \"results\": [\n");
  emit_rows(out, prefill_rows);
  std::fprintf(out, "  ]},\n");
  std::fprintf(out,
               "  \"qos_scheduling\": {\"arrivals\": \"bursty\", \"rate\": "
               "0.5, \"burst_factor\": 6, \"requests\": 40, \"max_batch\": 10, "
               "\"pool_pages\": 384, \"aging_steps\": 96, \"results\": [\n");
  emit_qos_rows(out, qos_rows);
  std::fprintf(out, "  ]},\n");
  run_resilience(out, /*trailing_comma=*/true);
  // One-snapshot registry view of the representative run: serve-level
  // counters/gauges, the streaming latency histograms, the decode-traffic
  // AccessStats (chunk-fetch histogram included), and per-class slices.
  {
    obs::MetricsRegistry registry;
    serve::export_fleet_metrics(rows[2].metrics, &registry);
    std::ostringstream snapshot;
    registry.write_json(snapshot, 2);
    std::fprintf(out, "  \"metrics_snapshot\": %s\n}\n",
                 snapshot.str().c_str());
  }
  std::fclose(out);
  std::printf("wrote BENCH_serving.json\n");

  if (!trace_path.empty()) return run_traced(trace_path, trace);
  return 0;
}
