// Edge cases and API-contract details not covered by the per-module suites.
#include <cmath>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "accel/engine.h"
#include "core/attention_backends.h"
#include "core/exact_attention.h"
#include "core/quantized_kv_cache.h"
#include "core/spatten.h"
#include "core/token_picker.h"
#include "fixedpoint/quant.h"
#include "train/corpus.h"
#include "workload/generator.h"

namespace topick {
namespace {

TEST(EstimatorEdge, EstimateUpperInfiniteWhenEmpty) {
  ProbabilityEstimator est(EstimatorConfig{.threshold = 1e-3});
  est.reset(4);
  EXPECT_TRUE(std::isinf(est.estimate_upper(0.0)));
}

TEST(EstimatorEdge, UpperBoundCanExceedOneEarly) {
  ProbabilityEstimator est(EstimatorConfig{.threshold = 1e-3});
  est.reset(2);
  est.update_token(0, -5.0);
  EXPECT_GT(est.estimate_upper(2.0), 1.0);  // loose early bound is expected
}

TEST(OrderingEdge, RandomOrderDeterministicPerSeed) {
  TokenPickerConfig a_config;
  a_config.order = OrderingPolicy::random_order;
  a_config.order_seed = 1234;
  TokenPickerConfig b_config = a_config;

  wl::WorkloadParams params;
  params.context_len = 64;
  params.head_dim = 16;
  wl::Generator gen(params);
  Rng rng(1);
  const auto inst = gen.make_instance(rng);

  TokenPickerAttention a(a_config), b(b_config);
  const auto ra = a.attend(inst.q, inst.view());
  const auto rb = b.attend(inst.q, inst.view());
  ASSERT_EQ(ra.decisions.size(), rb.decisions.size());
  for (std::size_t i = 0; i < ra.decisions.size(); ++i) {
    EXPECT_EQ(ra.decisions[i].token, rb.decisions[i].token);
    EXPECT_EQ(ra.decisions[i].kept, rb.decisions[i].kept);
  }
}

TEST(BackendEdge, TokenPickerBackendStatsAccumulateAndReset) {
  wl::WorkloadParams params;
  params.context_len = 32;
  params.head_dim = 16;
  wl::Generator gen(params);
  Rng rng(2);
  const auto inst = gen.make_instance(rng);

  TokenPickerConfig config;
  config.estimator.threshold = 1e-3;
  TokenPickerBackend backend(config);
  std::vector<float> out(16);
  AttentionContext ctx;
  backend.attend(inst.q, inst.view(), out, ctx);
  const auto first_total = backend.stats().tokens_total;
  backend.attend(inst.q, inst.view(), out, ctx);
  EXPECT_EQ(backend.stats().tokens_total, 2 * first_total);
  backend.reset_stats();
  EXPECT_EQ(backend.stats().tokens_total, 0u);
  EXPECT_GE(backend.max_oracle_dropped_mass(), 0.0);
}

TEST(SpAttenEdge, SingleTokenContextAlwaysKept) {
  SpAttenConfig config;
  config.final_keep_ratio = 0.1;
  SpAttenPruner pruner(config, 4);
  pruner.begin_sequence(8);
  const auto active = pruner.active_tokens(3, 1);
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0], 0u);
}

TEST(AccessStatsEdge, EmptyStatsHaveZeroRatios) {
  AccessStats stats;
  EXPECT_EQ(stats.k_reduction(), 0.0);
  EXPECT_EQ(stats.v_reduction(), 0.0);
  EXPECT_EQ(stats.pruning_ratio(), 0.0);
}

TEST(EngineEdge, TwoBitChunksRunEndToEnd) {
  // Six 2-bit chunks exercise the id-field packing and multi-level
  // scoreboard churn.
  wl::WorkloadParams params;
  params.context_len = 96;
  params.head_dim = 64;
  wl::Generator gen(params);
  Rng rng(3);
  const auto inst = gen.make_instance(rng);

  accel::AccelConfig config;
  config.design = accel::DesignPoint::topick_ooo;
  config.estimator.threshold = 1e-3;
  config.quant.chunk_bits = 2;
  config.dram.enable_refresh = false;
  accel::Engine engine(config);

  const auto hw = accel::make_instance(inst.q, inst.view(), config.quant);
  const auto result = engine.run(hw);
  std::uint64_t histo = 0;
  for (auto c : result.access.chunk_histogram) histo += c;
  EXPECT_EQ(histo, 96u);
  EXPECT_GT(result.survivors, 0u);
}

TEST(EngineEdge, SingleLaneConfigCompletes) {
  wl::WorkloadParams params;
  params.context_len = 64;
  params.head_dim = 64;
  wl::Generator gen(params);
  Rng rng(4);
  const auto inst = gen.make_instance(rng);

  accel::AccelConfig config;
  config.design = accel::DesignPoint::topick_ooo;
  config.estimator.threshold = 1e-3;
  config.pe_lanes = 1;
  config.dram.enable_refresh = false;
  accel::Engine engine(config);

  const auto hw = accel::make_instance(inst.q, inst.view());
  const auto result = engine.run(hw);
  EXPECT_GT(result.core_cycles, 0u);
  EXPECT_GT(result.survivors, 0u);
}

TEST(CorpusEdge, DocumentLengthExactEvenWithActiveCopy) {
  train::CorpusConfig config;
  config.doc_len = 40;
  config.copy_start_prob = 0.5;  // copies frequently truncated by doc end
  train::Corpus corpus(config);
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(corpus.make_document(rng).size(), 40u);
  }
}

TEST(WorkloadEdge, SingleTokenInstance) {
  wl::WorkloadParams params;
  params.context_len = 4;
  params.head_dim = 8;
  wl::Generator gen(params);
  Rng rng(6);
  const auto inst = gen.make_instance(rng, 1);
  EXPECT_EQ(inst.len, 1u);
  TokenPickerConfig config;
  config.estimator.threshold = 0.1;
  TokenPickerAttention op(config);
  const auto result = op.attend(inst.q, inst.view());
  EXPECT_EQ(result.stats.tokens_kept, 1u);
}

TEST(QuantEdge, NegativeQmaxBoundary) {
  fx::QuantParams p;
  p.scale = 1.0f;
  const std::vector<float> xs{2047.0f, -2048.0f, 2047.4f, -2048.4f};
  const auto q = fx::quantize(xs, p);
  EXPECT_EQ(q.values[0], 2047);
  EXPECT_EQ(q.values[1], -2048);
  EXPECT_EQ(q.values[2], 2047);
  EXPECT_EQ(q.values[3], -2048);
}

// ---- non-finite inputs ------------------------------------------------------

wl::Instance probe_instance() {  // 16 tokens, head_dim 8
  wl::WorkloadParams params;
  params.context_len = 16;
  params.head_dim = 8;
  Rng rng(8);
  return wl::Generator(params).make_instance(rng);
}

TokenPickerConfig probe_config() {
  TokenPickerConfig config;
  config.estimator.threshold = 1e-3;
  return config;
}

// One ±inf in q, in one K row or in one V row has no finite quantization
// scale; it used to come back from attend as a NaN output with no error.
TEST(NonFiniteEdge, InfThroughEveryEntryPointThrows) {
  for (const float inf : {HUGE_VALF, -HUGE_VALF}) {
    for (const int target : {0, 1, 2}) {  // q, K row 5, V row 9
      SCOPED_TRACE(::testing::Message() << inf << " in " << target);
      wl::Instance inst = probe_instance();
      const std::size_t row = target == 1 ? 5 : 9;
      float* slot = target == 0   ? &inst.q[3]
                    : target == 1 ? &inst.keys[row * 8 + 2]
                                  : &inst.values[row * 8 + 7];
      *slot = inf;
      TokenPickerAttention op(probe_config());
      EXPECT_THROW(op.attend(inst.q, inst.view()), std::logic_error);
      fx::QuantizedVector qq;
      if (target == 0) {
        EXPECT_THROW(fx::choose_scale(inst.q), std::logic_error);
        EXPECT_THROW(quantize_query(inst.q, {}, 1.0f, &qq), std::logic_error);
        continue;
      }
      EXPECT_THROW(quantize_kv(inst.view(), {}), std::logic_error);
      QuantizedKvCache cache(8);
      EXPECT_THROW(cache.rebuild(inst.view()), std::logic_error);
      EXPECT_THROW(cache.append_rows(inst.keys.data(), inst.values.data(),
                                     inst.len, 0),
                   std::logic_error);
      EXPECT_THROW(cache.append(inst.view().key(row), inst.view().value(row)),
                   std::logic_error);
      EXPECT_EQ(cache.len(), 0u);
    }
  }
}

// A refused append, bulk append or rebuild leaves the cache as it was: the
// same length and scales, and the same bits for every later append and
// attend. The refused rows' finite keys are 4x past the cache's record, so
// a partial push or rescale would show. Both caches have a RescaleSource,
// so only the inf check can refuse.
TEST(NonFiniteEdge, RefusedAppendLeavesTheCacheUnchanged) {
  const wl::Instance inst = probe_instance();
  wl::Instance bad = inst;
  for (float& x : bad.keys) x *= 4.0f;
  bad.keys[10 * 8 + 3] = HUGE_VALF;
  bad.values[9 * 8] = -HUGE_VALF;
  const ViewRescaleSource source(inst.view());
  QuantizedKvCache refused(8), clean(8);
  for (QuantizedKvCache* cache : {&refused, &clean}) {
    cache->set_rescale_source(&source);
    cache->append_rows(inst.keys.data(), inst.values.data(), 8, 0);
  }
  EXPECT_THROW(refused.append(bad.view().key(10), bad.view().value(10)),
               std::logic_error);
  EXPECT_THROW(refused.append(bad.view().key(9), bad.view().value(9)),
               std::logic_error);
  EXPECT_THROW(refused.append_rows(&bad.keys[64], &bad.values[64], 8, 8),
               std::logic_error);
  EXPECT_THROW(refused.rebuild(bad.view()), std::logic_error);
  EXPECT_EQ(refused.len(), 8u);
  EXPECT_EQ(refused.key_params().scale, clean.key_params().scale);
  EXPECT_EQ(refused.value_params().scale, clean.value_params().scale);

  TokenPickerAttention op(probe_config());
  TokenPickerResult ra, rb;
  for (QuantizedKvCache* cache : {&refused, &clean}) {
    cache->append_rows(&inst.keys[64], &inst.values[64], 8, 8);
  }
  op.attend_cached(inst.q, refused, &ra);
  op.attend_cached(inst.q, clean, &rb);
  EXPECT_EQ(ra.output, rb.output);
  EXPECT_EQ(ra.log_denominator, rb.log_denominator);
  // The per-row bookkeeping too: eviction reads the ids and maxima.
  for (std::size_t pos = 0; pos < inst.len; ++pos) {
    EXPECT_EQ(refused.id_at(pos), clean.id_at(pos));
    EXPECT_EQ(refused.key_row_amax(pos), clean.key_row_amax(pos));
    EXPECT_EQ(refused.value_row_amax(pos), clean.value_row_amax(pos));
  }
}

// NaN keeps its documented behaviour: skipped by the scale, quantized to 0.
TEST(NonFiniteEdge, NanStillQuantizesToZero) {
  wl::Instance inst = probe_instance();
  inst.q[1] = inst.keys[3 * 8 + 4] = inst.values[6 * 8 + 5] = NAN;
  TokenPickerAttention op(probe_config());
  const auto result = op.attend(inst.q, inst.view());
  for (const float x : result.output) EXPECT_TRUE(std::isfinite(x));
  EXPECT_TRUE(std::isfinite(result.log_denominator));
}

}  // namespace
}  // namespace topick
