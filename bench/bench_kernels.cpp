// google-benchmark microbenchmarks for the hot kernels: quantization, margin
// generation, chunked partial dot products, the estimation walk's nibble
// plane kernel, estimator decisions, the full functional attention operator,
// and DRAM-model throughput.
#include <cmath>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/token_picker.h"
#include "fixedpoint/chunks.h"
#include "fixedpoint/dispatch.h"
#include "fixedpoint/margin.h"
#include "memsim/hbm.h"
#include "workload/generator.h"

namespace {

using namespace topick;

std::vector<float> random_vec(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

void BM_QuantizeVector(benchmark::State& state) {
  Rng rng(1);
  const auto xs = random_vec(rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx::quantize_auto(xs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuantizeVector)->Arg(64)->Arg(128);

void BM_MarginTable(benchmark::State& state) {
  Rng rng(2);
  const auto q = fx::quantize_auto(random_vec(rng, 64));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx::MarginTable(q, q.params));
  }
}
BENCHMARK(BM_MarginTable);

// The estimation walk's per-(token, chunk) kernel on the active ISA: one
// key nibble plane row of head_dim elements against a 12-bit query at the
// 4-bit chunk mask, rotating over 64 stored rows so the inputs stay
// run-time data.
void BM_WalkNibbleDot(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRows = 64;
  Rng rng(7);
  const auto q = fx::quantize_auto(random_vec(rng, dim));
  const std::size_t row_bytes = fx::PlaneLayout::row_bytes(dim);
  std::vector<std::uint8_t> plane(kRows * row_bytes);
  for (auto& byte : plane) {
    byte = static_cast<std::uint8_t>(rng.uniform_index(256));
  }
  std::size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx::nibble_dot_i64(
        q.values.data(), plane.data() + row * row_bytes, 0xF, dim));
    row = (row + 1) % kRows;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel(fx::kernel_isa_name());
}
BENCHMARK(BM_WalkNibbleDot)->Arg(64)->Arg(128);

void BM_EstimatorDecision(benchmark::State& state) {
  ProbabilityEstimator est(EstimatorConfig{.threshold = 1e-3});
  est.reset(4096);
  Rng rng(4);
  for (std::size_t t = 0; t < 2048; ++t) {
    est.update_token(t, rng.normal(0.0, 3.0));
  }
  double s = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.should_prune(s));
    s += 0.001;
    if (s > 4.0) s = -4.0;
  }
}
BENCHMARK(BM_EstimatorDecision);

void BM_TokenPickerAttend(benchmark::State& state) {
  wl::WorkloadParams params;
  params.context_len = static_cast<std::size_t>(state.range(0));
  params.head_dim = 64;
  wl::Generator gen(params);
  Rng rng(5);
  const auto inst = gen.make_instance(rng);
  TokenPickerConfig config;
  config.estimator.threshold = 1e-3;
  TokenPickerAttention op(config);
  std::uint64_t chunks = 0;  // per call: every call makes the same fetches
  for (auto _ : state) {
    const auto result = op.attend(inst.q, inst.view());
    chunks = result.stats.k_bits_fetched /
             (params.head_dim * static_cast<std::uint64_t>(
                                    config.quant.chunk_bits));
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["chunks_per_call"] = static_cast<double>(chunks);
  // Whole-call time (quantizing the view included) per chunk fetched.
  state.counters["ns_per_chunk"] = benchmark::Counter(
      static_cast<double>(state.iterations() * chunks),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TokenPickerAttend)->Arg(256)->Arg(1024)->Arg(2048);

void BM_ExactQuantizedAttend(benchmark::State& state) {
  wl::WorkloadParams params;
  params.context_len = static_cast<std::size_t>(state.range(0));
  params.head_dim = 64;
  wl::Generator gen(params);
  Rng rng(6);
  const auto inst = gen.make_instance(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact_attention_quantized(inst.q, inst.view()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExactQuantizedAttend)->Arg(256)->Arg(1024);

void BM_HbmStreamingThroughput(benchmark::State& state) {
  for (auto _ : state) {
    mem::DramConfig config;
    config.enable_refresh = false;
    mem::Hbm hbm(config);
    const int n = 1024;
    int issued = 0;
    std::uint64_t addr = 0;
    while (issued < n || !hbm.idle()) {
      while (issued < n && hbm.try_enqueue(mem::MemRequest{
                               addr, static_cast<std::uint64_t>(issued)})) {
        addr += 32;
        ++issued;
      }
      hbm.tick();
    }
    benchmark::DoNotOptimize(hbm.stats().bytes_read);
  }
  state.SetBytesProcessed(state.iterations() * 1024 * 32);
}
BENCHMARK(BM_HbmStreamingThroughput);

}  // namespace

BENCHMARK_MAIN();
