// Final contract tests: arithmetic identities and API guarantees not covered
// by the per-module suites.
#include <cmath>

#include <gtest/gtest.h>

#include "analytic/traffic.h"
#include "common/rng.h"
#include "core/access_stats.h"
#include "core/estimator.h"
#include "core/exact_attention.h"
#include "model/config.h"
#include "model/sampler.h"
#include "tensor/ops.h"

namespace topick {
namespace {

TEST(ConfigContract, SwigluBlocksUseThreeMatrices) {
  ModelConfig gelu_cfg = zoo_config("OPT-6.7B");
  ModelConfig swiglu_cfg = gelu_cfg;
  swiglu_cfg.ffn = FfnKind::swiglu;
  // Same shapes: swiglu carries 3*d*ff vs gelu's 2*d*ff per layer.
  const auto d = static_cast<std::uint64_t>(gelu_cfg.d_model);
  const auto ff = static_cast<std::uint64_t>(gelu_cfg.d_ff);
  EXPECT_EQ(swiglu_cfg.block_params() - gelu_cfg.block_params(),
            static_cast<std::uint64_t>(gelu_cfg.n_layer) * d * ff);
}

TEST(ConfigContract, UntiedEmbeddingsDoubleTheTable) {
  ModelConfig tied = zoo_config("GPT2-Large");
  ModelConfig untied = tied;
  untied.tied_embeddings = false;
  EXPECT_EQ(untied.embedding_params() - tied.embedding_params(),
            static_cast<std::uint64_t>(tied.vocab) * tied.d_model);
}

TEST(ConfigContract, RotaryModelsHaveNoPositionTable) {
  const auto llama = zoo_config("LLaMa-2-7B");
  ModelConfig learned = llama;
  learned.position = PositionKind::learned;
  EXPECT_EQ(learned.embedding_params() - llama.embedding_params(),
            static_cast<std::uint64_t>(llama.max_seq) * llama.d_model);
}

TEST(ConfigContract, KvBytesScaleWithBits) {
  const auto cfg = zoo_config("GPT2-XL");
  EXPECT_EQ(cfg.kv_cache_bytes(12, 1024) * 4, cfg.kv_cache_bytes(16, 1024) * 3);
}

TEST(AccessStatsContract, MergeIsAdditive) {
  AccessStats a, b;
  a.k_bits_fetched = 100;
  a.tokens_kept = 3;
  a.chunk_histogram[1] = 5;
  b.k_bits_fetched = 50;
  b.tokens_kept = 2;
  b.chunk_histogram[1] = 7;
  a.merge(b);
  EXPECT_EQ(a.k_bits_fetched, 150u);
  EXPECT_EQ(a.tokens_kept, 5u);
  EXPECT_EQ(a.chunk_histogram[1], 12u);
}

TEST(AccessStatsContract, TotalsAreComponentSums) {
  AccessStats s;
  s.k_bits_fetched = 10;
  s.v_bits_fetched = 20;
  s.k_bits_baseline = 40;
  s.v_bits_baseline = 50;
  EXPECT_EQ(s.total_bits_fetched(), 30u);
  EXPECT_EQ(s.total_bits_baseline(), 90u);
  EXPECT_DOUBLE_EQ(s.total_reduction(), 3.0);
}

TEST(SamplerContract, TopOneEqualsGreedy) {
  Rng rng(1);
  const std::vector<float> logits{0.3f, 2.1f, -0.7f, 1.9f};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(sample_topk(logits, rng, 1.0f, 1), sample_greedy(logits));
  }
}

TEST(SamplerContract, RejectsNonPositiveTemperature) {
  Rng rng(2);
  const std::vector<float> logits{1.0f, 2.0f};
  EXPECT_THROW(sample_topk(logits, rng, 0.0f, 2), std::logic_error);
}

TEST(RngContract, LognormalIsPositive) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(RngContract, BernoulliExtremes) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(OpsContract, GemvShapeMismatchThrows) {
  Tensor w({3, 4});
  std::vector<float> x(5), y(3);
  EXPECT_THROW(ops::gemv(w, x, y), std::logic_error);
}

TEST(OpsContract, SoftmaxOfEmptyThrows) {
  std::vector<float> empty;
  EXPECT_THROW(ops::softmax_inplace(empty), std::logic_error);
}

TEST(ExactAttentionContract, SingleTokenReturnsItsValue) {
  std::vector<float> k{1.0f, -2.0f};
  std::vector<float> v{3.5f, 0.25f};
  std::vector<float> q{0.7f, 0.1f};
  KvHeadView kv{k.data(), v.data(), 1, 2};
  const auto result = exact_attention_f32(q, kv);
  EXPECT_FLOAT_EQ(result.output[0], 3.5f);
  EXPECT_FLOAT_EQ(result.output[1], 0.25f);
  EXPECT_DOUBLE_EQ(result.probs[0], 1.0);
}

TEST(EstimatorContract, RemovedFixedPointCompareIsRejected) {
  EstimatorConfig config;
  config.fixed_point_compare = true;
  EXPECT_THROW(ProbabilityEstimator{config}, std::logic_error);
}

TEST(TrafficContract, EmbeddingFractionShrinksWithBatch) {
  const auto cfg = zoo_config("OPT-1.3B");
  const auto b1 = an::generation_step_traffic(cfg, 1, 2048);
  const auto b32 = an::generation_step_traffic(cfg, 32, 2048);
  EXPECT_GT(b1.embedding_fraction(), b32.embedding_fraction());
}

}  // namespace
}  // namespace topick
