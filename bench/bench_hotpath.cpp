// Hot-path microbenchmark: wall-clock decode tokens/sec before/after the
// incrementally-quantized, chunk-planar KV cache (ISSUE 4 acceptance).
//
// Both harnesses replay the exact shape of ServeEngine::decode_one for one
// request's (layer, head) grid over a paged sequence with persistence-driven
// reclamation:
//   * legacy — the pre-PR path, preserved verbatim in attend_pre_pr: gather
//     the paged view to floats, re-quantize the whole head (one heap
//     QuantizedVector per token), walk chunks with double-masking
//     chunk_dot_delta_i64, and run the always-on O(len) oracle pass —
//     O(len * head_dim) x3 per instance per step;
//   * cached — the post-PR path: QuantizedKvCache::append() quantizes the new
//     token once, attention walks contiguous chunk planes allocation-free
//     with the oracle off (row_dot_i64 dispatches to the widest SIMD kernel
//     the CPU supports at runtime), and reclamation evicts cache entries
//     coherently — O(kept * head_dim) per instance per step. The cached
//     harness mirrors ServeEngine's phased step: sequential paged appends,
//     a parallel attention phase fanned over the (layer, head) instances via
//     the ThreadPool (per-worker pickers/scratch), and a sequential
//     instance-ordered reduction — so every thread count is bit-identical.
// The harnesses must agree bit-for-bit on every output element (verified
// every run, for every thread count); the speedup is pure hot-path mechanics.
//
// Emits BENCH_hotpath.json with the runtime-selected kernel ISA (plus
// whether TOPICK_FORCE_ISA forced it — forced numbers must never read as a
// host's natural selection), a threads sweep, and a full-engine --pipeline
// on|off comparison: the same Poisson trace through the fork-join executor
// and the pipelined executor (sharded channel replay on), outputs
// bit-checked, with before/after phase attribution. `--smoke` runs a small
// context for CI; `--threads a,b,c` overrides the sweep (default 1,2,8);
// `--isa-levels` prints the kernel levels this binary + CPU can run (one
// per line, for CI forced-ISA matrix loops) and exits. The default scenario
// is the 2k context the acceptance criteria target.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/expsum.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/quantized_kv_cache.h"
#include "core/token_picker.h"
#include "fixedpoint/chunks.h"
#include "fixedpoint/dispatch.h"
#include "fixedpoint/margin.h"
#include "obs/phase_stats.h"
#include "obs/trace.h"
#include "obs/trace_validate.h"
#include "serve/paged_kv_pool.h"
#include "serve/paged_sequence.h"
#include "serve/serve_engine.h"
#include "workload/arrivals.h"
#include "workload/decode_stream.h"

using namespace topick;

namespace {

// The pre-PR TokenPickerAttention::attend, preserved verbatim as the
// baseline: re-quantizes the whole head (one heap-allocated QuantizedVector
// per token), walks chunks via the double-masking chunk_dot_delta_i64, and
// always runs the oracle pass. Bit-identical to the new path by the
// equivalence suite's argument — only the mechanics differ.
TokenPickerResult attend_pre_pr(const TokenPickerConfig& config,
                                ProbabilityEstimator& estimator,
                                std::span<const float> q,
                                const KvHeadView& kv) {
  const QuantizedKv qkv = quantize_kv(kv, config.quant);
  fx::QuantParams qp = config.quant;
  qp.scale = fx::choose_scale(q, config.quant.total_bits);
  const fx::QuantizedVector qq = fx::quantize(q, qp);
  const double score_scale =
      static_cast<double>(qp.scale) * qkv.keys[0].params.scale /
      std::sqrt(static_cast<double>(kv.head_dim));

  const std::size_t len = qkv.keys.size();
  const std::size_t head_dim = qq.size();
  const fx::QuantParams& kp = qkv.keys[0].params;
  const int num_chunks = kp.num_chunks();

  TokenPickerResult result;
  result.decisions.reserve(len);
  estimator.reset(len);

  const fx::MarginTable margins(qq, kp);
  const auto order = make_visit_order(len, config.order, nullptr);

  const auto chunk_bits_per_fetch =
      static_cast<std::uint64_t>(head_dim) * kp.chunk_bits;
  const auto full_vector_bits =
      static_cast<std::uint64_t>(head_dim) * kp.total_bits;
  result.stats.tokens_total = len;
  result.stats.k_bits_baseline = full_vector_bits * len;
  result.stats.v_bits_baseline = full_vector_bits * len;

  std::vector<double> survivor_scores(len, 0.0);
  std::vector<bool> kept(len, false);

  for (const std::size_t token : order) {
    const auto& key = qkv.keys[token];
    std::int64_t partial = 0;
    TokenDecision decision;
    decision.token = token;

    bool pruned = false;
    for (int b = 0; b < num_chunks; ++b) {
      partial += fx::chunk_dot_delta_i64(qq, key, b);
      result.stats.k_bits_fetched += chunk_bits_per_fetch;
      ++decision.chunks_fetched;

      const auto& margin = margins.at_level(b + 1);
      const double s_max =
          static_cast<double>(partial + margin.max_margin) * score_scale;
      const double s_min =
          static_cast<double>(partial + margin.min_margin) * score_scale;

      if (estimator.should_prune(s_max)) {
        decision.upper_bound_at_prune = estimator.estimate_upper(s_max);
        estimator.mark_pruned(token);
        pruned = true;
        break;
      }
      estimator.update_token(token, s_min);
    }

    if (!pruned) {
      decision.kept = true;
      decision.final_score = static_cast<double>(partial) * score_scale;
      survivor_scores[token] = decision.final_score;
      kept[token] = true;
      ++result.stats.tokens_kept;
      result.stats.v_bits_fetched += full_vector_bits;
    }
    result.stats.record_chunk_fetch(decision.chunks_fetched);
    result.decisions.push_back(decision);
  }

  result.log_denominator_estimator = estimator.log_denominator();
  {
    std::vector<double> surv;
    surv.reserve(result.stats.tokens_kept);
    for (std::size_t t = 0; t < len; ++t) {
      if (kept[t]) surv.push_back(survivor_scores[t]);
    }
    result.log_denominator = log_sum_exp(surv.data(), surv.size());
  }
  result.output.assign(head_dim, 0.0f);
  const float v_scale = qkv.values[0].params.scale;
  for (std::size_t t = 0; t < len; ++t) {
    if (!kept[t]) continue;
    const double p = std::exp(survivor_scores[t] - result.log_denominator);
    const auto& value = qkv.values[t];
    for (std::size_t d = 0; d < head_dim; ++d) {
      result.output[d] += static_cast<float>(
          p * static_cast<double>(value.values[d]) * v_scale);
    }
  }
  {
    std::vector<double> all_scores(len);
    for (std::size_t t = 0; t < len; ++t) {
      all_scores[t] =
          static_cast<double>(fx::dot_i64(qq, qkv.keys[t])) * score_scale;
    }
    const double log_denom = log_sum_exp(all_scores.data(), len);
    double dropped = 0.0;
    for (std::size_t t = 0; t < len; ++t) {
      if (!kept[t]) dropped += std::exp(all_scores[t] - log_denom);
    }
    result.oracle_dropped_mass = dropped;
  }
  return result;
}

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
  int persistence_window = 4;
  double threshold = 1e-3;
  int repeats = 3;
};

struct RunResult {
  double seconds = 0.0;
  double tokens_per_s = 0.0;
  std::uint64_t rescales = 0;
  std::vector<float> checksum;  // concatenated final-step outputs
  // End-of-run host KV footprint across all (layer, head) caches (the
  // kv_residency JSON section; f32_mirror must read 0).
  QuantizedKvCache::ResidencyBytes residency;
  std::size_t resident_tokens = 0;
};

wl::DecodeStream make_stream(const Scenario& s) {
  wl::DecodeStreamParams params;
  params.head_dim = s.head_dim;
  return wl::make_decode_stream(params, s.prompt_len, s.decode_len, s.n_layer,
                                s.n_head, /*seed=*/0x40b7);
}

// The pre-cache ServeEngine decode loop: gather the paged view to floats,
// then attend_pre_pr (quantize-from-scratch + always-on oracle), per
// (layer, head) instance, per step.
RunResult run_legacy(const Scenario& s, const wl::DecodeStream& stream) {
  serve::PagedKvPool pool({s.pool_pages, s.page_tokens});
  const auto n_inst = static_cast<std::size_t>(s.n_layer) * s.n_head;
  std::vector<serve::PagedSequence> seqs;
  std::vector<PrunePersistence> persistence;
  seqs.reserve(n_inst);
  for (std::size_t i = 0; i < n_inst; ++i) {
    const int layer = static_cast<int>(i) / s.n_head;
    const int head = static_cast<int>(i) % s.n_head;
    seqs.emplace_back(&pool, stream.context_view(layer, head,
                                                 stream.total_tokens()));
    persistence.emplace_back(s.persistence_window);
  }

  TokenPickerConfig config;
  config.estimator.threshold = s.threshold;
  ProbabilityEstimator estimator(config.estimator);

  std::vector<float> key_scratch, value_scratch;
  std::vector<std::size_t> token_ids;
  RunResult result;

  const auto start = std::chrono::steady_clock::now();
  for (auto& seq : seqs) {
    for (std::size_t t = 0; t < s.prompt_len; ++t) seq.append();
  }
  for (std::size_t step = 0; step < s.decode_len; ++step) {
    for (int layer = 0; layer < s.n_layer; ++layer) {
      for (int head = 0; head < s.n_head; ++head) {
        const auto inst = static_cast<std::size_t>(layer) * s.n_head + head;
        auto& seq = seqs[inst];
        seq.append();
        const auto paged = seq.view(&token_ids);
        const KvHeadView view = paged.gather(key_scratch, value_scratch);
        const auto result_step = attend_pre_pr(
            config, estimator, stream.query(layer, head, step), view);

        auto& tracker = persistence[inst];
        for (const auto& decision : result_step.decisions) {
          tracker.observe(token_ids[decision.token], decision.kept);
        }
        for (const std::size_t global : token_ids) {
          if (tracker.persistent(global)) {
            seq.mark_dead(global);
            tracker.forget(global);
          }
        }
        seq.sweep();
        if (step + 1 == s.decode_len) {
          result.checksum.insert(result.checksum.end(),
                                 result_step.output.begin(),
                                 result_step.output.end());
        }
      }
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(stop - start).count();
  result.tokens_per_s = static_cast<double>(s.decode_len) / result.seconds;
  return result;
}

// The post-PR path: incremental quantization, planar (SIMD-capable) walk,
// oracle off, coherent cache eviction on reclaim. Mirrors ServeEngine's
// phased step so `threads` fans the per-(layer, head) attention work without
// changing a single bit: sequential paged appends, parallel attend with
// per-worker pickers, sequential instance-ordered persistence/reclaim.
RunResult run_cached(const Scenario& s, const wl::DecodeStream& stream,
                     std::size_t threads) {
  serve::PagedKvPool pool({s.pool_pages, s.page_tokens});
  const auto n_inst = static_cast<std::size_t>(s.n_layer) * s.n_head;
  std::vector<serve::PagedSequence> seqs;
  std::vector<PrunePersistence> persistence;
  std::vector<QuantizedKvCache> qcaches;
  std::vector<serve::PagedRescaleSource> sources;
  seqs.reserve(n_inst);
  qcaches.reserve(n_inst);
  sources.reserve(n_inst);
  TokenPickerConfig config;
  config.estimator.threshold = s.threshold;
  config.compute_oracle_mass = false;  // serve hot loops run without oracle
  for (std::size_t i = 0; i < n_inst; ++i) {
    const int layer = static_cast<int>(i) / s.n_head;
    const int head = static_cast<int>(i) % s.n_head;
    seqs.emplace_back(&pool, stream.context_view(layer, head,
                                                 stream.total_tokens()));
    persistence.emplace_back(s.persistence_window);
    qcaches.emplace_back(static_cast<std::size_t>(s.head_dim),
                         QuantizedKvCache::Config{config.quant, 1.0f});
    // The stream rows the sequence is bound to are the rescale floats
    // (stable ids == token ids); the cache keeps no mirror of its own.
    sources.emplace_back(&seqs[i]);
    qcaches[i].set_rescale_source(&sources[i]);
  }
  ThreadPool workers(threads);
  std::vector<std::unique_ptr<TokenPickerAttention>> pickers;
  for (std::size_t w = 0; w < workers.threads(); ++w) {
    pickers.push_back(std::make_unique<TokenPickerAttention>(config));
  }
  std::vector<TokenPickerResult> inst_results(n_inst);
  std::vector<std::size_t> dead;
  RunResult result;

  const auto start = std::chrono::steady_clock::now();
  for (int layer = 0; layer < s.n_layer; ++layer) {
    for (int head = 0; head < s.n_head; ++head) {
      const auto inst = static_cast<std::size_t>(layer) * s.n_head + head;
      for (std::size_t t = 0; t < s.prompt_len; ++t) seqs[inst].append();
      const auto& hs = stream.head(layer, head);
      qcaches[inst].append_rows(hs.keys.data(), hs.values.data(),
                                s.prompt_len, 0);
    }
  }
  for (std::size_t step = 0; step < s.decode_len; ++step) {
    const std::size_t pos = s.prompt_len + step;
    // Append phase (sequential: the paged pool is shared).
    for (auto& seq : seqs) seq.append();
    // Attention phase (parallel across instances, per-worker scratch).
    // Same effective-fan-out heuristic as ServeEngine::step: below ~1k
    // context tokens per instance the wake-up cost of engaging another
    // worker exceeds what it recovers, so the grain narrows the fan-out and
    // keeps the small-scenario threads sweep monotone.
    const std::size_t ctx = pos + 1;
    const std::size_t grain = ctx >= 1024 ? 1 : 1024 / ctx;
    workers.parallel_for(
        n_inst,
        [&](std::size_t inst, std::size_t worker) {
          const int layer = static_cast<int>(inst) / s.n_head;
          const int head = static_cast<int>(inst) % s.n_head;
          auto& qcache = qcaches[inst];
          qcache.append(stream.key(layer, head, pos),
                        stream.value(layer, head, pos), pos);
          pickers[worker]->attend_cached(stream.query(layer, head, step),
                                         qcache, &inst_results[inst]);
        },
        grain);
    // Reduction phase (sequential, instance order: persistence + reclaim).
    for (std::size_t inst = 0; inst < n_inst; ++inst) {
      auto& qcache = qcaches[inst];
      auto& tracker = persistence[inst];
      const TokenPickerResult& step_result = inst_results[inst];
      for (const auto& decision : step_result.decisions) {
        tracker.observe(qcache.id_at(decision.token), decision.kept);
      }
      dead.clear();
      for (const std::size_t global : qcache.ids()) {
        if (tracker.persistent(global)) {
          seqs[inst].mark_dead(global);
          tracker.forget(global);
          dead.push_back(global);
        }
      }
      if (!dead.empty()) qcache.evict_ids(dead);
      seqs[inst].sweep();
      if (step + 1 == s.decode_len) {
        result.checksum.insert(result.checksum.end(),
                               step_result.output.begin(),
                               step_result.output.end());
      }
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(stop - start).count();
  result.tokens_per_s = static_cast<double>(s.decode_len) / result.seconds;
  for (const auto& qc : qcaches) {
    result.rescales += qc.key_rescales() + qc.value_rescales();
    const auto res = qc.residency();
    result.residency.int16_arena += res.int16_arena;
    result.residency.planes += res.planes;
    result.residency.maxima += res.maxima;
    result.residency.ids += res.ids;
    result.residency.f32_mirror += res.f32_mirror;
    result.resident_tokens += qc.len();
  }
  return result;
}

// Engine-backed executor comparison and phase attribution: the same
// multi-request Poisson trace through the real ServeEngine under both
// executors — fork-join (pipeline off) and the pipelined step with sharded
// channel replay (pipeline on). Phase stats show where each spends host
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
  config.shard_replay = pipeline;
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
// sets. `check_cycles` additionally demands identical DRAM cycle stamps —
// valid only when the sharded replay is reconcilable with the serial one
// (refresh off, queues never fill); under interference the contract is
// "outputs never differ, cycles may".
bool executors_bit_identical(bool smoke, std::size_t threads,
                             bool no_interference) {
  serve::ServeConfig seq = engine_config(threads, /*pipeline=*/false);
  serve::ServeConfig pipe = engine_config(threads, /*pipeline=*/true);
  seq.capture_outputs = true;
  pipe.capture_outputs = true;
  if (no_interference) {
    for (auto* c : {&seq, &pipe}) {
      c->dram.enable_refresh = false;
      c->dram.queue_depth = 64;
    }
  }
  const bool check_cycles = no_interference;
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
        ra.prefill_bits != rb.prefill_bits) {
      return false;
    }
    if (check_cycles &&
        (ra.dram_cycles != rb.dram_cycles ||
         ra.arrival_cycle != rb.arrival_cycle ||
         ra.first_token_cycle != rb.first_token_cycle ||
         ra.finish_cycle != rb.finish_cycle)) {
      return false;
    }
    if (ra.outputs.size() != rb.outputs.size()) return false;
    for (std::size_t s = 0; s < ra.outputs.size(); ++s) {
      const serve::StepOutput& sa = ra.outputs[s];
      const serve::StepOutput& sb = rb.outputs[s];
      if (sa.position != sb.position || sa.out != sb.out ||
          sa.view_tokens != sb.view_tokens ||
          sa.kept_tokens != sb.kept_tokens) {
        return false;
      }
    }
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
      // Best-of-N repeats per harness/thread count (default 3; raise on
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

  const wl::DecodeStream stream = make_stream(scenario);
  std::printf("bench_hotpath: context %zu (prompt %zu + decode %zu), "
              "%d layers x %d heads, head_dim %d, kernel isa %s%s%s\n",
              scenario.prompt_len + scenario.decode_len, scenario.prompt_len,
              scenario.decode_len, scenario.n_layer, scenario.n_head,
              scenario.head_dim, fx::kernel_isa_name(),
              fx::kernel_isa_forced() ? " (forced)" : " (runtime probe)",
              smoke ? " [smoke]" : "");

  // Warm-up + best-of-N (wall clock; take the fastest run of each harness so
  // scheduler noise doesn't understate either side). Every cached run, at
  // every thread count, must be bit-identical to the legacy reference.
  RunResult legacy;
  std::vector<RunResult> cached(thread_sweep.size());
  for (int r = 0; r < scenario.repeats; ++r) {
    const RunResult l = run_legacy(scenario, stream);
    if (r == 0 || l.tokens_per_s > legacy.tokens_per_s) legacy = l;
    for (std::size_t ti = 0; ti < thread_sweep.size(); ++ti) {
      const RunResult c = run_cached(scenario, stream, thread_sweep[ti]);
      if (c.checksum != l.checksum) {
        std::fprintf(stderr,
                     "FATAL: outputs diverge from legacy at threads=%zu\n",
                     thread_sweep[ti]);
        return 1;
      }
      if (r == 0 || c.tokens_per_s > cached[ti].tokens_per_s) cached[ti] = c;
    }
  }

  std::printf("  legacy (gather + quantize-from-scratch + oracle): "
              "%8.1f tok/s  (%.3f s)\n",
              legacy.tokens_per_s, legacy.seconds);
  std::size_t best = 0;
  for (std::size_t ti = 0; ti < thread_sweep.size(); ++ti) {
    std::printf("  cached threads=%zu: %8.1f tok/s  (%.3f s)  %.1fx\n",
                thread_sweep[ti], cached[ti].tokens_per_s,
                cached[ti].seconds,
                cached[ti].tokens_per_s / legacy.tokens_per_s);
    if (cached[ti].tokens_per_s > cached[best].tokens_per_s) best = ti;
  }
  const double speedup = cached[best].tokens_per_s / legacy.tokens_per_s;
  std::printf("  best: threads=%zu, %.1fx over legacy   whole-head rescales: "
              "%llu   outputs bit-identical at every thread count: yes\n",
              thread_sweep[best], speedup,
              static_cast<unsigned long long>(cached[best].rescales));

  // Full-engine executor comparison at the sweep's widest fan-out: the same
  // trace through the fork-join step and the pipelined step (+ sharded
  // replay), best-of-N each, with a separate full-fidelity bit-check.
  const std::size_t phase_threads =
      *std::max_element(thread_sweep.begin(), thread_sweep.end());
  if (!executors_bit_identical(smoke, phase_threads,
                               /*no_interference=*/false)) {
    std::fprintf(stderr,
                 "FATAL: pipelined executor output diverges from sequential "
                 "at threads=%zu\n",
                 phase_threads);
    return 1;
  }
  if (!executors_bit_identical(smoke, phase_threads,
                               /*no_interference=*/true)) {
    std::fprintf(stderr,
                 "FATAL: sharded replay cycles diverge from serial replay in "
                 "the no-interference config at threads=%zu\n",
                 phase_threads);
    return 1;
  }
  EngineRun seq_run, pipe_run;
  for (int r = 0; r < scenario.repeats; ++r) {
    const EngineRun s =
        run_engine(engine_config(phase_threads, false), smoke);
    const EngineRun p =
        run_engine(engine_config(phase_threads, true), smoke);
    if (r == 0 || s.tokens_per_s > seq_run.tokens_per_s) seq_run = s;
    if (r == 0 || p.tokens_per_s > pipe_run.tokens_per_s) pipe_run = p;
  }
  const double pipeline_speedup =
      pipe_run.tokens_per_s / seq_run.tokens_per_s;
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
      "  engine --pipeline on  (sharded replay, threads=%zu, %llu steps): "
      "%8.1f tok/s  %.2fx; compute %.0f%% / barrier %.0f%% of fan-out "
      "capacity; replay off the step wall "
      "(lane busy %.3f ms, lane wait %.3f ms)\n",
      phase_threads, static_cast<unsigned long long>(pipe_run.phases.steps),
      pipe_run.tokens_per_s, pipeline_speedup,
      100.0 * pipe_split.compute_frac, 100.0 * pipe_split.barrier_frac,
      static_cast<double>(pipe_run.phases.lane_busy_ns) * 1e-6,
      static_cast<double>(pipe_run.phases.lane_wait_ns) * 1e-6);
  std::printf("  executors bit-identical on the same trace: yes\n");
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
  // selected; row_dot_kernel is kept as an alias for consumers of the older
  // schema. kernel_isa_forced distinguishes CI matrix legs from a host's
  // natural selection when comparing archived numbers.
  std::fprintf(out, "  \"row_dot_kernel\": \"%s\",\n", row_dot_kernel_name());
  std::fprintf(out, "  \"kernel_isa\": \"%s\",\n", fx::kernel_isa_name());
  std::fprintf(out, "  \"kernel_isa_forced\": %s,\n",
               fx::kernel_isa_forced() ? "true" : "false");
  // Overlap headroom context: with 1 hardware thread the pools run inline
  // and the lane shares the core, so pipelined speedup reflects scheduling
  // overhead only; real overlap needs >= 2.
  std::fprintf(out, "  \"host_hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"legacy_tokens_per_s\": %.2f,\n",
               legacy.tokens_per_s);
  std::fprintf(out, "  \"cached_tokens_per_s\": %.2f,\n",
               cached[best].tokens_per_s);
  std::fprintf(out, "  \"cached_best_threads\": %zu,\n", thread_sweep[best]);
  std::fprintf(out, "  \"threads_sweep\": [");
  for (std::size_t ti = 0; ti < thread_sweep.size(); ++ti) {
    std::fprintf(out, "%s{\"threads\": %zu, \"tokens_per_s\": %.2f}",
                 ti == 0 ? "" : ", ", thread_sweep[ti],
                 cached[ti].tokens_per_s);
  }
  std::fprintf(out, "],\n");
  std::fprintf(out, "  \"speedup\": %.2f,\n", speedup);
  std::fprintf(out, "  \"whole_head_rescales\": %llu,\n",
               static_cast<unsigned long long>(cached[best].rescales));
  // Host KV residency at end of run (context fully grown, post-reclaim),
  // summed over every (layer, head) cache. f32_mirror_bytes is the retired
  // float shadow — identically 0, and CI fails the run if it is not.
  // int16_planes_bytes_per_token adds back the second byte every key plane
  // element took before the planes became int8 digits, and
  // pre_refactor_bytes_per_token further adds what the mirror used to keep
  // (one float K row + one float V row per resident token), so both
  // reductions are measured against the old footprints, not assumed.
  {
    const auto& res = cached[best].residency;
    const std::size_t resident = cached[best].resident_tokens;
    const auto per_resident = [resident](double bytes) {
      return resident ? bytes / static_cast<double>(resident) : 0.0;
    };
    const double per_token = per_resident(static_cast<double>(res.total()));
    const double int16_planes =
        per_token + per_resident(static_cast<double>(res.planes));
    const double mirror_per_token =
        static_cast<double>(scenario.head_dim) * 2.0 * sizeof(float);
    const double pre_refactor = int16_planes + mirror_per_token;
    const double reduction =
        pre_refactor > 0.0 ? 1.0 - per_token / pre_refactor : 0.0;
    std::printf("  kv residency: %zu tokens resident, %.1f B/token "
                "(int16+int8 planes+maxima+ids), f32 mirror 0 B — %.1f "
                "B/token with int16 planes, %.1f with the mirror too, "
                "-%.1f%%\n",
                resident, per_token, int16_planes, pre_refactor,
                100.0 * reduction);
    std::fprintf(
        out,
        "  \"kv_residency\": {\"resident_tokens\": %zu, "
        "\"int16_arena_bytes\": %zu, \"plane_bytes\": %zu, "
        "\"maxima_bytes\": %zu, \"ids_bytes\": %zu, "
        "\"f32_mirror_bytes\": %zu, \"bytes_per_token\": %.1f, "
        "\"int16_planes_bytes_per_token\": %.1f, "
        "\"pre_refactor_bytes_per_token\": %.1f, "
        "\"reduction_frac\": %.3f},\n",
        resident, res.int16_arena, res.planes, res.maxima, res.ids,
        res.f32_mirror, per_token, int16_planes, pre_refactor, reduction);
  }
  std::fprintf(
      out,
      "  \"pipeline_comparison\": {\"threads\": %zu, "
      "\"sequential_tokens_per_s\": %.2f, \"pipelined_tokens_per_s\": %.2f, "
      "\"pipelined_speedup\": %.2f, \"sharded_replay\": true, "
      "\"outputs_bit_identical\": true},\n",
      phase_threads, seq_run.tokens_per_s, pipe_run.tokens_per_s,
      pipeline_speedup);
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
