// Hot-path microbenchmark: wall-clock decode tokens/sec of the shipped
// ServeEngine's cached, prune-and-reclaim decode step.
//
// The threads sweep drives one request through a real ServeEngine per
// thread count: a 2k context (1792 prompt + 256 decode) over 2 layers x 2
// heads, one slot, monolithic prefill and the DRAM proxy off, so the timed
// steps are the engine's own append -> parallel attention over the
// per-(layer, head) QuantizedKvCache -> slot-ordered reduce with
// persistence-driven reclamation. Timed runs capture nothing; one untimed
// capture_outputs run per thread count must be bit-identical to threads=1,
// or the bench exits 1. That the cached step equals quantize-from-scratch
// over the post-reclaim live set is proved by tests/serve_invariants_test.cpp.
// The kv_residency section reads the engine's kv_* gauges from the last
// step in which the request was still running.
//
// Emits BENCH_hotpath.json with the runtime-selected kernel ISA (plus
// whether TOPICK_FORCE_ISA forced it — forced numbers must never read as a
// host's natural selection), the host fingerprint (usable CPUs, CPU model,
// compiler), the threads sweep, and a full-engine --pipeline
// on|off comparison: the same Poisson trace through the fork-join executor
// and the pipelined executor (DRAM replay on the lane), outputs and DRAM
// cycle stamps bit-checked, with before/after phase attribution. `--smoke` runs a small
// context for CI; `--threads a,b,c` overrides the sweep (default 1,2,8);
// `--repeats N` (default 3) reports the median (and quartiles) of N runs
// per sweep point and of N paired runs for the executor comparison;
// `--trace out.json` writes a validated engine trace; `--isa-levels` prints
// the kernel levels this binary + CPU can run (one per line, for CI
// forced-ISA matrix loops) and exits.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/quantized_kv_cache.h"
#include "fixedpoint/dispatch.h"
#include "obs/phase_stats.h"
#include "obs/trace.h"
#include "obs/trace_validate.h"
#include "serve/serve_engine.h"
#include "workload/arrivals.h"

using namespace topick;

namespace {

struct Scenario {
  std::size_t prompt_len = 1792;
  std::size_t decode_len = 256;  // context reaches 2048 by the last step
  int n_layer = 2;
  int n_head = 2;
  int head_dim = 64;
  std::size_t page_tokens = 8;
  // Sized to the scenario (2048-token context x 4 instances needs ~1k pages
  // plus slack); pool capacity is not part of what this bench measures.
  std::size_t pool_pages = 4096;
  double threshold = 1e-3;
  int repeats = 3;
};

// One request in one slot: the whole prompt prefills in the first step and
// no DRAM replay runs, so the timed steps are host decode work only.
serve::ServeConfig sweep_config(const Scenario& s, std::size_t threads) {
  serve::ServeConfig config;
  config.n_layer = s.n_layer;
  config.n_head = s.n_head;
  config.head_dim = s.head_dim;
  config.max_batch = 1;
  config.pool_pages = s.pool_pages;
  config.page_tokens = s.page_tokens;
  config.backend = serve::BackendKind::token_picker;
  config.picker.estimator.threshold = s.threshold;
  config.prefill_chunk_tokens = 0;
  config.simulate_dram = false;
  config.threads = threads;
  return config;
}

wl::ArrivalEvent sweep_request(const Scenario& s) {
  wl::ArrivalEvent event;
  event.step = 0;
  event.prompt_len = s.prompt_len;
  event.decode_len = s.decode_len;
  event.stream_seed = 0x40b7;
  return event;
}

struct SweepRun {
  double tokens_per_s = 0.0;
  // Host KV footprint across the request's (layer, head) caches at its last
  // running step (the kv_residency JSON section).
  QuantizedKvCache::ResidencyBytes residency;
  std::size_t resident_tokens = 0;
};

SweepRun run_sweep_point(const Scenario& s, std::size_t threads) {
  serve::ServeEngine engine(sweep_config(s, threads));
  engine.submit(sweep_request(s));
  const serve::FleetMetrics& m = engine.metrics();
  SweepRun run;
  const auto start = std::chrono::steady_clock::now();
  while (engine.step()) {
    // The final step retires the request, so its residency sample reads 0.
    if (engine.batcher().running().empty()) continue;
    run.residency = {m.kv_value_plane_bytes, m.kv_key_plane_bytes,
                     m.kv_maxima_bytes, m.kv_ids_bytes};
    run.resident_tokens = m.kv_resident_tokens;
  }
  const auto stop = std::chrono::steady_clock::now();
  run.tokens_per_s = static_cast<double>(s.decode_len) /
                     std::chrono::duration<double>(stop - start).count();
  return run;
}

// Untimed: capture allocates per step.
std::vector<serve::StepOutput> sweep_outputs(const Scenario& s,
                                             std::size_t threads) {
  serve::ServeConfig config = sweep_config(s, threads);
  config.capture_outputs = true;
  serve::ServeEngine engine(config);
  engine.submit(sweep_request(s));
  engine.run();
  return engine.requests().front().outputs;
}

// Every element of every step's attention output and token sets.
bool same_outputs(const std::vector<serve::StepOutput>& a,
                  const std::vector<serve::StepOutput>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t s = 0; s < a.size(); ++s) {
    if (a[s].position != b[s].position || a[s].out != b[s].out ||
        a[s].view_tokens != b[s].view_tokens ||
        a[s].kept_tokens != b[s].kept_tokens) {
      return false;
    }
  }
  return true;
}

// Engine-backed executor comparison and phase attribution: the same
// multi-request Poisson trace through the real ServeEngine under both
// executors — fork-join (pipeline off) and the pipelined step with the DRAM
// replay on the lane (pipeline on). Phase stats show where each spends host
// time: per-worker attention compute vs barrier wait vs memsim replay vs
// the sequential phases — and, pipelined, how much replay moved onto the
// lane thread.
serve::ServeConfig engine_config(std::size_t threads, bool pipeline) {
  serve::ServeConfig config;
  config.n_layer = 2;
  config.n_head = 2;
  config.head_dim = 64;
  config.max_batch = 8;
  config.pool_pages = 4096;
  config.page_tokens = 8;
  config.backend = serve::BackendKind::token_picker;
  config.picker.estimator.threshold = 1e-3;
  config.prefill_chunk_tokens = 16;
  config.threads = threads;
  config.collect_phase_stats = true;
  config.simulate_dram = true;
  config.pipeline = pipeline;
  return config;
}

std::vector<wl::ArrivalEvent> engine_trace(bool smoke) {
  wl::ArrivalParams params;
  params.rate = 0.6;
  params.prompt_min = smoke ? 24 : 96;
  params.prompt_max = smoke ? 64 : 256;
  params.decode_min = smoke ? 8 : 32;
  params.decode_max = smoke ? 24 : 96;
  Rng rng(99);
  return wl::make_arrival_trace(params, smoke ? 8 : 16, rng);
}

struct EngineRun {
  double seconds = 0.0;
  double tokens_per_s = 0.0;  // generated decode tokens / wall second
  obs::StepPhaseStats phases;
};

EngineRun run_engine(const serve::ServeConfig& config, bool smoke) {
  serve::ServeEngine engine(config);
  engine.submit_trace(engine_trace(smoke));
  const auto start = std::chrono::steady_clock::now();
  engine.run();
  const auto stop = std::chrono::steady_clock::now();
  EngineRun run;
  run.seconds = std::chrono::duration<double>(stop - start).count();
  std::uint64_t generated = 0;
  for (const auto& r : engine.requests()) generated += r.generated;
  run.tokens_per_s = static_cast<double>(generated) / run.seconds;
  run.phases = engine.phase_stats();
  return run;
}

// Bit-check between the two executors: one capture_outputs run per config
// (untimed — capture allocates per step, so the timed runs stay comparable
// with earlier committed numbers), comparing every request's schedule,
// traffic, and every element of every step's attention output and token
// sets, and every per-request DRAM cycle stamp: the lane runs the same serial
// DRAM driver in the same order, so the simulated clock cannot differ.
bool executors_bit_identical(bool smoke, std::size_t threads) {
  serve::ServeConfig seq = engine_config(threads, /*pipeline=*/false);
  serve::ServeConfig pipe = engine_config(threads, /*pipeline=*/true);
  seq.capture_outputs = true;
  pipe.capture_outputs = true;
  serve::ServeEngine a(seq);
  serve::ServeEngine b(pipe);
  a.submit_trace(engine_trace(smoke));
  b.submit_trace(engine_trace(smoke));
  a.run();
  b.run();
  if (a.requests().size() != b.requests().size()) return false;
  for (std::size_t r = 0; r < a.requests().size(); ++r) {
    const serve::Request& ra = a.requests()[r];
    const serve::Request& rb = b.requests()[r];
    if (ra.generated != rb.generated || ra.admit_step != rb.admit_step ||
        ra.finish_step != rb.finish_step ||
        ra.first_token_step != rb.first_token_step ||
        ra.preemptions != rb.preemptions ||
        ra.prefill_bits != rb.prefill_bits ||
        ra.dram_cycles != rb.dram_cycles ||
        ra.arrival_cycle != rb.arrival_cycle ||
        ra.first_token_cycle != rb.first_token_cycle ||
        ra.finish_cycle != rb.finish_cycle) {
      return false;
    }
    if (!same_outputs(ra.outputs, rb.outputs)) return false;
  }
  return true;
}

// Runs the pipelined engine once more with a TraceRecorder attached and
// validates the chrome JSON (lane track included). Tracing changes no
// output bit (obs suite invariant), only what this run observes.
bool write_engine_trace(bool smoke, std::size_t threads,
                        const std::string& trace_path) {
  serve::ServeConfig config = engine_config(threads, /*pipeline=*/true);
  obs::TraceRecorder recorder;
  recorder.set_metadata("kernel_isa", fx::kernel_isa_name());
  recorder.set_metadata("kernel_isa_forced",
                        fx::kernel_isa_forced() ? "true" : "false");
  config.trace = &recorder;
  {
    serve::ServeEngine engine(config);
    engine.submit_trace(engine_trace(smoke));
    engine.run();
  }
  std::string error;
  if (!recorder.write_chrome_json_file(trace_path, &error)) {
    std::fprintf(stderr, "trace write failed: %s\n", error.c_str());
    return false;
  }
  const auto check = obs::validate_chrome_trace_file(trace_path);
  if (!check.ok) {
    std::fprintf(stderr, "trace validation failed: %s\n", check.error.c_str());
    return false;
  }
  std::printf("  wrote %s: %zu events (%zu spans), %zu tracks\n",
              trace_path.c_str(), check.events, check.span_events,
              recorder.tracks());
  return true;
}

// Fan-out capacity split for one executor: capacity = attention compute +
// barrier idle.
struct FanoutSplit {
  double compute_frac = 0.0;
  double barrier_frac = 0.0;
  double replay_frac_of_step = 0.0;
};

FanoutSplit fanout_split(const obs::StepPhaseStats& p) {
  FanoutSplit f;
  const double capacity = static_cast<double>(p.attention_busy_ns) +
                          static_cast<double>(p.barrier_wait_ns);
  if (capacity > 0.0) {
    f.compute_frac = static_cast<double>(p.attention_busy_ns) / capacity;
    f.barrier_frac = static_cast<double>(p.barrier_wait_ns) / capacity;
  }
  const double total = static_cast<double>(p.total_ns());
  if (total > 0.0) {
    f.replay_frac_of_step = static_cast<double>(p.replay_ns) / total;
  }
  return f;
}

void write_phase_attribution(FILE* out, const char* key,
                             const obs::StepPhaseStats& p,
                             std::size_t threads) {
  const FanoutSplit f = fanout_split(p);
  std::fprintf(
      out,
      "  \"%s\": {\"threads\": %zu, \"steps\": %llu, "
      "\"admit_ns\": %llu, \"append_ns\": %llu, \"attention_wall_ns\": %llu, "
      "\"attention_busy_ns\": %llu, \"barrier_wait_ns\": %llu, "
      "\"reduce_ns\": %llu, "
      "\"replay_ns\": %llu, \"lane_busy_ns\": %llu, \"lane_wait_ns\": %llu, "
      "\"other_ns\": %llu, "
      "\"compute_frac_of_fanout\": %.4f, \"barrier_frac_of_fanout\": %.4f, "
      "\"replay_frac_of_step\": %.4f},\n",
      key, threads, static_cast<unsigned long long>(p.steps),
      static_cast<unsigned long long>(p.admit_ns),
      static_cast<unsigned long long>(p.append_ns),
      static_cast<unsigned long long>(p.attention_wall_ns),
      static_cast<unsigned long long>(p.attention_busy_ns),
      static_cast<unsigned long long>(p.barrier_wait_ns),
      static_cast<unsigned long long>(p.reduce_ns),
      static_cast<unsigned long long>(p.replay_ns),
      static_cast<unsigned long long>(p.lane_busy_ns),
      static_cast<unsigned long long>(p.lane_wait_ns),
      static_cast<unsigned long long>(p.other_ns), f.compute_frac,
      f.barrier_frac, f.replay_frac_of_step);
}

// Host fingerprint: ties the throughput sections to the build and the
// machine that produced them.
std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// The first "model name" line of /proc/cpuinfo, or "unknown".
std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto value = line.find_first_not_of(" \t", colon + 1);
    return value == std::string::npos ? "unknown" : line.substr(value);
  }
  return "unknown";
}

// CPUs this process may run on (its affinity mask), not the host's count.
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

// `s` as the body of a JSON string.
std::string json_escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Scenario scenario;
  bool smoke = false;
  bool repeats_set = false;
  std::string trace_path;
  std::vector<std::size_t> thread_sweep;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--isa-levels") == 0) {
      // The compiled-in kernel levels this CPU can run, one per line — the
      // CI forced-ISA matrix iterates exactly these (forcing a level the
      // runner doesn't support would be ignored, wasting a matrix leg).
      for (const fx::KernelTable* table : fx::supported_kernel_tables()) {
        std::printf("%s\n", table->name);
      }
      return 0;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      // Repeats per sweep point and executor pair (default 3; raise on
      // noisy hosts so identical-work configurations rank consistently).
      scenario.repeats = std::atoi(argv[++i]);
      if (scenario.repeats < 1) scenario.repeats = 1;
      repeats_set = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      // Comma-separated sweep, e.g. --threads 1,2,8.
      for (const char* p = argv[++i]; *p != '\0';) {
        char* end = nullptr;
        const unsigned long t = std::strtoul(p, &end, 10);
        if (end == p) break;
        thread_sweep.push_back(static_cast<std::size_t>(t));
        p = (*end == ',') ? end + 1 : end;
      }
    }
  }
  if (smoke) {
    scenario.prompt_len = 192;
    scenario.decode_len = 64;
    if (!repeats_set) scenario.repeats = 1;
  }
  if (thread_sweep.empty()) {
    thread_sweep = smoke ? std::vector<std::size_t>{1, 2}
                         : std::vector<std::size_t>{1, 2, 8};
  }

  std::printf("bench_hotpath: context %zu (prompt %zu + decode %zu), "
              "%d layers x %d heads, head_dim %d, kernel isa %s%s%s\n",
              scenario.prompt_len + scenario.decode_len, scenario.prompt_len,
              scenario.decode_len, scenario.n_layer, scenario.n_head,
              scenario.head_dim, fx::kernel_isa_name(),
              fx::kernel_isa_forced() ? " (forced)" : " (runtime probe)",
              smoke ? " [smoke]" : "");

  // Threads never change bits: every sweep point's captured outputs must
  // equal the sequential engine's.
  const std::vector<serve::StepOutput> reference = sweep_outputs(scenario, 1);
  for (const std::size_t threads : thread_sweep) {
    if (threads > 1 && !same_outputs(sweep_outputs(scenario, threads),
                                     reference)) {
      std::fprintf(stderr,
                   "FATAL: engine outputs at threads=%zu diverge from "
                   "threads=1\n",
                   threads);
      return 1;
    }
  }

  // Median of N wall-clock runs per thread count, the thread counts
  // interleaved within each repeat so host drift lands on all of them (a
  // best-of-N moved with host load more than with code). Residency is the
  // same in every run.
  std::vector<SweepRun> sweep(thread_sweep.size());
  std::vector<std::vector<double>> rates(thread_sweep.size());
  for (int r = 0; r < scenario.repeats; ++r) {
    for (std::size_t ti = 0; ti < thread_sweep.size(); ++ti) {
      sweep[ti] = run_sweep_point(scenario, thread_sweep[ti]);
      rates[ti].push_back(sweep[ti].tokens_per_s);
    }
  }
  std::size_t best = 0;
  for (std::size_t ti = 0; ti < thread_sweep.size(); ++ti) {
    sweep[ti].tokens_per_s = percentile(rates[ti], 50.0);
    std::printf("  engine threads=%zu: %8.1f tok/s median of %d "
                "(quartiles %.1f-%.1f)\n",
                thread_sweep[ti], sweep[ti].tokens_per_s, scenario.repeats,
                percentile(rates[ti], 25.0), percentile(rates[ti], 75.0));
    if (sweep[ti].tokens_per_s > sweep[best].tokens_per_s) best = ti;
  }
  std::printf("  best: threads=%zu   outputs bit-identical at every thread "
              "count: yes\n",
              thread_sweep[best]);

  // Full-engine executor comparison at the sweep's widest fan-out: the same
  // trace through the fork-join step and the pipelined step, with a
  // separate full-fidelity bit-check.
  const std::size_t phase_threads =
      *std::max_element(thread_sweep.begin(), thread_sweep.end());
  if (!executors_bit_identical(smoke, phase_threads)) {
    std::fprintf(stderr,
                 "FATAL: pipelined executor outputs or DRAM cycles diverge "
                 "from sequential at threads=%zu\n",
                 phase_threads);
    return 1;
  }
  // One paired speedup per repeat, the two executors back to back with the
  // order alternating, so host drift lands on both sides of a pair. The
  // median pair's runs supply the printed rates and phase attribution.
  std::vector<std::pair<EngineRun, EngineRun>> pairs;  // (off, on)
  for (int r = 0; r < scenario.repeats; ++r) {
    const bool on_first = r % 2 == 1;
    EngineRun first = run_engine(engine_config(phase_threads, on_first), smoke);
    EngineRun second =
        run_engine(engine_config(phase_threads, !on_first), smoke);
    if (on_first) std::swap(first, second);
    pairs.emplace_back(first, second);
  }
  const auto speedup = [](const std::pair<EngineRun, EngineRun>& p) {
    return p.second.tokens_per_s / p.first.tokens_per_s;
  };
  std::vector<double> speedups;
  for (const auto& p : pairs) speedups.push_back(speedup(p));
  std::sort(pairs.begin(), pairs.end(), [&](const auto& a, const auto& b) {
    return speedup(a) < speedup(b);
  });
  const auto& [seq_run, pipe_run] = pairs[pairs.size() / 2];
  const double speedup_p25 = percentile(speedups, 25.0);
  const double speedup_median = percentile(speedups, 50.0);
  const double speedup_p75 = percentile(speedups, 75.0);
  const FanoutSplit seq_split = fanout_split(seq_run.phases);
  const FanoutSplit pipe_split = fanout_split(pipe_run.phases);
  std::printf(
      "  engine --pipeline off (fork-join, threads=%zu, %llu steps): "
      "%8.1f tok/s; compute %.0f%% / barrier %.0f%% of fan-out capacity; "
      "replay %.0f%% of step wall\n",
      phase_threads, static_cast<unsigned long long>(seq_run.phases.steps),
      seq_run.tokens_per_s, 100.0 * seq_split.compute_frac,
      100.0 * seq_split.barrier_frac, 100.0 * seq_split.replay_frac_of_step);
  std::printf(
      "  engine --pipeline on  (DRAM lane, threads=%zu, %llu steps): "
      "%8.1f tok/s; compute %.0f%% / barrier %.0f%% of fan-out "
      "capacity; replay off the step wall "
      "(lane busy %.3f ms, lane wait %.3f ms)\n",
      phase_threads, static_cast<unsigned long long>(pipe_run.phases.steps),
      pipe_run.tokens_per_s, 100.0 * pipe_split.compute_frac,
      100.0 * pipe_split.barrier_frac,
      static_cast<double>(pipe_run.phases.lane_busy_ns) * 1e-6,
      static_cast<double>(pipe_run.phases.lane_wait_ns) * 1e-6);
  std::printf("  pipelined speedup over %d paired repeats: median %.2fx "
              "(quartiles %.2f-%.2fx)\n",
              scenario.repeats, speedup_median, speedup_p25, speedup_p75);
  std::printf("  executors bit-identical on the same trace (outputs and "
              "DRAM cycle stamps): yes\n");
  if (!trace_path.empty() &&
      !write_engine_trace(smoke, phase_threads, trace_path)) {
    return 1;
  }

  FILE* out = std::fopen("BENCH_hotpath.json", "w");
  if (!out) {
    std::fprintf(stderr, "cannot open BENCH_hotpath.json for writing\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"scenario\": \"%s\",\n",
               smoke ? "smoke" : "serve_2k_context");
  std::fprintf(out, "  \"context_tokens\": %zu,\n",
               scenario.prompt_len + scenario.decode_len);
  std::fprintf(out, "  \"decode_tokens\": %zu,\n", scenario.decode_len);
  std::fprintf(out, "  \"n_layer\": %d,\n  \"n_head\": %d,\n"
               "  \"head_dim\": %d,\n",
               scenario.n_layer, scenario.n_head, scenario.head_dim);
  // kernel_isa is what the runtime probe (or a forced override) actually
  // selected; kernel_isa_forced distinguishes CI matrix legs from a host's
  // natural selection when comparing archived numbers.
  std::fprintf(out, "  \"kernel_isa\": \"%s\",\n", fx::kernel_isa_name());
  std::fprintf(out, "  \"kernel_isa_forced\": %s,\n",
               fx::kernel_isa_forced() ? "true" : "false");
  // Overlap headroom context: with 1 hardware thread the pools run inline
  // and the lane shares the core, so pipelined speedup reflects scheduling
  // overhead only; real overlap needs >= 2.
  std::fprintf(out, "  \"host_hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"nproc\": %zu,\n", usable_cpus());
  std::fprintf(out, "  \"cpu_model\": \"%s\",\n",
               json_escaped(cpu_model()).c_str());
  std::fprintf(out, "  \"compiler\": \"%s\",\n",
               json_escaped(compiler_id()).c_str());
  std::fprintf(out, "  \"cached_tokens_per_s\": %.2f,\n",
               sweep[best].tokens_per_s);
  std::fprintf(out, "  \"cached_best_threads\": %zu,\n", thread_sweep[best]);
  std::fprintf(out, "  \"threads_sweep\": [");
  for (std::size_t ti = 0; ti < thread_sweep.size(); ++ti) {
    std::fprintf(out,
                 "%s{\"threads\": %zu, \"repeats\": %d, "
                 "\"tokens_per_s\": %.2f, \"tokens_per_s_p25\": %.2f, "
                 "\"tokens_per_s_p75\": %.2f}",
                 ti == 0 ? "" : ", ", thread_sweep[ti], scenario.repeats,
                 sweep[ti].tokens_per_s, percentile(rates[ti], 25.0),
                 percentile(rates[ti], 75.0));
  }
  std::fprintf(out, "],\n");
  // Host KV residency at the request's last running step (post-reclaim),
  // summed over every (layer, head) cache.
  {
    const auto& res = sweep[best].residency;
    const std::size_t resident = sweep[best].resident_tokens;
    const double per_token =
        resident ? static_cast<double>(res.total()) /
                       static_cast<double>(resident)
                 : 0.0;
    std::printf("  kv residency: %zu tokens resident, %.1f B/token "
                "(4-bit value and key planes+maxima+ids)\n",
                resident, per_token);
    std::fprintf(
        out,
        "  \"kv_residency\": {\"resident_tokens\": %zu, "
        "\"value_plane_bytes\": %zu, \"key_plane_bytes\": %zu, "
        "\"maxima_bytes\": %zu, \"ids_bytes\": %zu, "
        "\"bytes_per_token\": %.1f},\n",
        resident, res.value_planes, res.key_planes, res.maxima, res.ids,
        per_token);
  }
  std::fprintf(
      out,
      "  \"pipeline_comparison\": {\"threads\": %zu, \"repeats\": %d, "
      "\"pipelined_speedup_median\": %.3f, \"pipelined_speedup_p25\": %.3f, "
      "\"pipelined_speedup_p75\": %.3f, \"outputs_bit_identical\": true},\n",
      phase_threads, scenario.repeats, speedup_median, speedup_p25,
      speedup_p75);
  write_phase_attribution(out, "phase_attribution_sequential",
                          seq_run.phases, phase_threads);
  write_phase_attribution(out, "phase_attribution", pipe_run.phases,
                          phase_threads);
  std::fprintf(out, "  \"outputs_bit_identical\": true\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_hotpath.json\n");
  return 0;
}
