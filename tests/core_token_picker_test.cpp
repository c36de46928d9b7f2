#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/exact_attention.h"
#include "core/ordering.h"
#include "core/token_picker.h"
#include "model/kv_cache.h"

namespace topick {
namespace {

// Builds a random KV head backed by owned storage.
struct OwnedKv {
  std::vector<float> keys;
  std::vector<float> values;
  std::size_t len;
  std::size_t head_dim;

  KvHeadView view() const {
    return KvHeadView{keys.data(), values.data(), len, head_dim};
  }
};

OwnedKv random_kv(Rng& rng, std::size_t len, std::size_t head_dim,
                  double key_scale = 1.0) {
  OwnedKv kv;
  kv.len = len;
  kv.head_dim = head_dim;
  kv.keys.resize(len * head_dim);
  kv.values.resize(len * head_dim);
  for (auto& x : kv.keys) x = static_cast<float>(rng.normal(0.0, key_scale));
  for (auto& x : kv.values) x = static_cast<float>(rng.normal());
  return kv;
}

std::vector<float> random_q(Rng& rng, std::size_t head_dim,
                            double scale = 1.0) {
  std::vector<float> q(head_dim);
  for (auto& x : q) x = static_cast<float>(rng.normal(0.0, scale));
  return q;
}

TEST(Ordering, ReverseChronoFirstPromoted) {
  const auto order =
      make_visit_order(6, OrderingPolicy::reverse_chrono_first_promoted);
  const std::vector<std::size_t> expected{5, 0, 4, 3, 2, 1};
  EXPECT_EQ(order, expected);
}

TEST(Ordering, SingleTokenOrder) {
  const auto order =
      make_visit_order(1, OrderingPolicy::reverse_chrono_first_promoted);
  EXPECT_EQ(order, std::vector<std::size_t>{0});
}

TEST(Ordering, AllPoliciesArePermutations) {
  Rng rng(1);
  for (auto policy :
       {OrderingPolicy::reverse_chrono_first_promoted,
        OrderingPolicy::reverse_chrono, OrderingPolicy::chrono,
        OrderingPolicy::random_order}) {
    auto order = make_visit_order(32, policy, &rng);
    std::vector<bool> seen(32, false);
    for (auto i : order) {
      ASSERT_LT(i, 32u);
      ASSERT_FALSE(seen[i]);
      seen[i] = true;
    }
    EXPECT_EQ(order.size(), 32u);
  }
}

TEST(Ordering, RandomOrderRequiresRng) {
  EXPECT_THROW(make_visit_order(4, OrderingPolicy::random_order, nullptr),
               std::logic_error);
}

TEST(TokenPicker, ZeroThresholdMatchesQuantizedExact) {
  Rng rng(2);
  const auto kv = random_kv(rng, 48, 32);
  const auto q = random_q(rng, 32);

  TokenPickerConfig config;
  config.estimator.threshold = 0.0;
  TokenPickerAttention op(config);
  const auto picker = op.attend(q, kv.view());
  const auto exact = exact_attention_quantized(q, kv.view());

  EXPECT_EQ(picker.stats.tokens_kept, kv.len);
  for (std::size_t d = 0; d < 32; ++d) {
    EXPECT_NEAR(picker.output[d], exact.output[d], 1e-5f);
  }
  // With nothing pruned, all chunks of all tokens were fetched.
  EXPECT_EQ(picker.stats.k_bits_fetched, picker.stats.k_bits_baseline);
  EXPECT_EQ(picker.stats.v_bits_fetched, picker.stats.v_bits_baseline);
}

TEST(TokenPicker, AccountingClosure) {
  Rng rng(3);
  const auto kv = random_kv(rng, 64, 64);
  const auto q = random_q(rng, 64, 2.0);

  TokenPickerConfig config;
  config.estimator.threshold = 1e-3;
  TokenPickerAttention op(config);
  const auto result = op.attend(q, kv.view());

  // Baselines: len * head_dim * 12 bits for each of K and V.
  EXPECT_EQ(result.stats.k_bits_baseline, 64ull * 64 * 12);
  EXPECT_EQ(result.stats.v_bits_baseline, 64ull * 64 * 12);
  // Chunk histogram covers every token exactly once.
  std::uint64_t histo_total = 0;
  std::uint64_t k_bits_from_histo = 0;
  for (std::size_t c = 0; c < result.stats.chunk_histogram.size(); ++c) {
    histo_total += result.stats.chunk_histogram[c];
    k_bits_from_histo +=
        result.stats.chunk_histogram[c] * (c + 1) * 64 * 4;
  }
  EXPECT_EQ(histo_total, 64u);
  EXPECT_EQ(k_bits_from_histo, result.stats.k_bits_fetched);
  // V fetched only for survivors.
  EXPECT_EQ(result.stats.v_bits_fetched,
            result.stats.tokens_kept * 64ull * 12);
  EXPECT_EQ(result.decisions.size(), 64u);
}

// A (K/V head, query) pair. Each context draws K/V before Q, so the draw
// order does not depend on argument evaluation order.
using Context = std::pair<OwnedKv, std::vector<float>>;

// The contexts the soundness sweep checks: random heads plus the adversarial
// edges of the quantized bound.
std::vector<Context> soundness_contexts(Rng& rng) {
  constexpr std::size_t kDim = 32;
  std::vector<Context> contexts;
  for (int trial = 0; trial < 10; ++trial) {
    auto kv = random_kv(rng, 96, kDim, 1.5);
    contexts.emplace_back(std::move(kv), random_q(rng, kDim, 1.5));
  }
  // One token: its probability is 1, so nothing may be pruned.
  {
    auto kv = random_kv(rng, 1, kDim, 1.5);
    contexts.emplace_back(std::move(kv), random_q(rng, kDim, 1.5));
  }
  // All rows equal: every token has probability 1/160, between the
  // thresholds 1e-3 and 1e-2.
  {
    auto kv = random_kv(rng, 160, kDim, 1.5);
    for (std::size_t t = 1; t < kv.len; ++t) {
      std::copy_n(kv.keys.begin(), kDim, kv.keys.begin() + t * kDim);
    }
    contexts.emplace_back(std::move(kv), random_q(rng, kDim, 1.5));
  }
  // Saturated: every key and query element is ±max, so each quantizes to
  // ±qmax and the scores reach the widest integer dots.
  {
    auto kv = random_kv(rng, 96, kDim);
    for (auto& x : kv.keys) x = rng.uniform() < 0.5 ? -2.0f : 2.0f;
    std::vector<float> q(kDim);
    for (auto& x : q) x = rng.uniform() < 0.5 ? -1.5f : 1.5f;
    contexts.emplace_back(std::move(kv), std::move(q));
  }
  // One dominant row sets the head's key scale, so every other key
  // quantizes to a few levels around zero.
  {
    auto kv = random_kv(rng, 96, kDim, 1.5);
    for (std::size_t d = 0; d < kDim; ++d) kv.keys[40 * kDim + d] *= 200.0f;
    contexts.emplace_back(std::move(kv), random_q(rng, kDim, 1.5));
  }
  return contexts;
}

// Soundness sweep: across thresholds, orderings, chunk widths, denominator
// policies and the fixed-point compare, every pruned token's true (full
// quantized softmax) probability must be below the threshold.
class TokenPickerSoundness
    : public ::testing::TestWithParam<
          std::tuple<double, OrderingPolicy, int, DenominatorPolicy, bool>> {};

TEST_P(TokenPickerSoundness, PrunedTokensBelowThreshold) {
  const auto [threshold, policy, chunk_bits, denominator, fixed_point] =
      GetParam();
  TokenPickerConfig config;
  config.estimator.threshold = threshold;
  config.estimator.policy = denominator;
  config.estimator.fixed_point_compare = fixed_point;
  config.quant.chunk_bits = chunk_bits;
  config.order = policy;

  // Each threshold draws its own contexts, shared by the other axes.
  static std::map<double, std::vector<Context>> contexts;
  if (!contexts.contains(threshold)) {
    Rng rng(500 + static_cast<std::uint64_t>(threshold * 1e6));
    contexts.emplace(threshold, soundness_contexts(rng));
  }
  for (const auto& [kv, q] : contexts.at(threshold)) {
    TokenPickerAttention op(config);
    const auto result = op.attend(q, kv.view());
    const auto exact = exact_attention_quantized(q, kv.view(), config.quant);

    for (const auto& decision : result.decisions) {
      if (!decision.kept) {
        EXPECT_LT(exact.probs[decision.token], threshold)
            << "token " << decision.token << " of " << kv.len
            << " pruned at chunk " << decision.chunks_fetched;
      }
    }
    // Dropped mass is bounded by len * thr.
    EXPECT_LE(result.oracle_dropped_mass,
              threshold * static_cast<double>(kv.len) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TokenPickerSoundness,
    ::testing::Combine(
        ::testing::Values(1e-4, 1e-3, 1e-2),
        ::testing::Values(OrderingPolicy::reverse_chrono_first_promoted,
                          OrderingPolicy::chrono,
                          OrderingPolicy::random_order),
        ::testing::Values(2, 3, 4, 6, 12),
        ::testing::Values(DenominatorPolicy::remove_on_prune,
                          DenominatorPolicy::keep_stale),
        ::testing::Bool()));

TEST(TokenPicker, NewestTokenAlwaysSurvives) {
  // The newest token is visited first, so it can never be pruned (empty
  // denominator) — matching causal attention where a query always sees
  // its own position.
  Rng rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    const auto kv = random_kv(rng, 32, 16, 2.0);
    const auto q = random_q(rng, 16, 2.0);
    TokenPickerConfig config;
    config.estimator.threshold = 5e-2;  // aggressive
    TokenPickerAttention op(config);
    const auto result = op.attend(q, kv.view());
    bool newest_kept = false;
    for (const auto& d : result.decisions) {
      if (d.token == kv.len - 1) newest_kept = d.kept;
    }
    EXPECT_TRUE(newest_kept);
  }
}

TEST(TokenPicker, HigherThresholdPrunesAtLeastAsMuch) {
  Rng rng(44);
  const auto kv = random_kv(rng, 128, 32, 1.5);
  const auto q = random_q(rng, 32, 1.5);
  std::uint64_t prev_kept = kv.len + 1;
  for (double thr : {1e-5, 1e-4, 1e-3, 1e-2}) {
    TokenPickerConfig config;
    config.estimator.threshold = thr;
    TokenPickerAttention op(config);
    const auto result = op.attend(q, kv.view());
    EXPECT_LE(result.stats.tokens_kept, prev_kept);
    prev_kept = result.stats.tokens_kept;
  }
}

TEST(TokenPicker, OutputErrorBoundedByDroppedMass) {
  Rng rng(45);
  const auto kv = random_kv(rng, 96, 32, 1.5);
  const auto q = random_q(rng, 32, 1.5);

  TokenPickerConfig config;
  config.estimator.threshold = 1e-3;
  TokenPickerAttention op(config);
  const auto picker = op.attend(q, kv.view());
  const auto exact = exact_attention_quantized(q, kv.view());

  // Renormalized pruned softmax error is O(dropped mass * value range).
  float vmax = 0.0f;
  for (float v : kv.values) vmax = std::max(vmax, std::abs(v));
  const double bound = 2.0 * picker.oracle_dropped_mass * vmax + 1e-4;
  for (std::size_t d = 0; d < 32; ++d) {
    EXPECT_NEAR(picker.output[d], exact.output[d], bound);
  }
}

TEST(TokenPicker, EstimatorDenominatorMatchesSurvivorsOnRemovePolicy) {
  Rng rng(46);
  const auto kv = random_kv(rng, 64, 32, 1.5);
  const auto q = random_q(rng, 32, 1.5);
  TokenPickerConfig config;
  config.estimator.threshold = 1e-3;
  TokenPickerAttention op(config);
  const auto result = op.attend(q, kv.view());
  EXPECT_NEAR(result.log_denominator, result.log_denominator_estimator, 1e-6);
}

TEST(TokenPicker, SingleTokenInstanceKeepsToken) {
  Rng rng(47);
  const auto kv = random_kv(rng, 1, 16);
  const auto q = random_q(rng, 16);
  TokenPickerConfig config;
  config.estimator.threshold = 0.1;
  TokenPickerAttention op(config);
  const auto result = op.attend(q, kv.view());
  EXPECT_EQ(result.stats.tokens_kept, 1u);
  const auto exact = exact_attention_quantized(q, kv.view());
  for (std::size_t d = 0; d < 16; ++d) {
    EXPECT_NEAR(result.output[d], exact.output[d], 1e-5f);
  }
}

TEST(TokenPicker, WiderScoreSpreadPrunesMore) {
  // Fig. 3's motivation: wider score distributions have fewer dominant
  // tokens, so instance-adaptive pruning should remove more.
  Rng rng(48);
  const auto kv_narrow = random_kv(rng, 128, 32, 0.4);
  const auto kv_wide = random_kv(rng, 128, 32, 2.5);
  const auto q = random_q(rng, 32, 1.0);

  TokenPickerConfig config;
  config.estimator.threshold = 1e-3;
  TokenPickerAttention op_a(config), op_b(config);
  const auto narrow = op_a.attend(q, kv_narrow.view());
  const auto wide = op_b.attend(q, kv_wide.view());
  EXPECT_LT(wide.stats.tokens_kept, narrow.stats.tokens_kept);
}

TEST(ExactAttention, FloatAndQuantizedAgreeLoosely) {
  Rng rng(49);
  const auto kv = random_kv(rng, 32, 16);
  const auto q = random_q(rng, 16);
  const auto f = exact_attention_f32(q, kv.view());
  const auto qz = exact_attention_quantized(q, kv.view());
  for (std::size_t d = 0; d < 16; ++d) {
    EXPECT_NEAR(f.output[d], qz.output[d], 0.05f);
  }
}

TEST(ExactAttention, ProbabilitiesSumToOne) {
  Rng rng(50);
  const auto kv = random_kv(rng, 40, 16);
  const auto q = random_q(rng, 16);
  const auto result = exact_attention_quantized(q, kv.view());
  double sum = 0.0;
  for (double p : result.probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

}  // namespace
}  // namespace topick
