#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "analytic/traffic.h"
#include "common/rng.h"
#include "common/stats.h"
#include "workload/generator.h"
#include "workload/zoo.h"

namespace topick {
namespace {

TEST(Workload, InstanceShapesMatchParams) {
  wl::WorkloadParams params;
  params.context_len = 64;
  params.head_dim = 32;
  wl::Generator gen(params);
  Rng rng(1);
  const auto inst = gen.make_instance(rng);
  EXPECT_EQ(inst.len, 64u);
  EXPECT_EQ(inst.head_dim, 32u);
  EXPECT_EQ(inst.q.size(), 32u);
  EXPECT_EQ(inst.keys.size(), 64u * 32u);
  EXPECT_EQ(inst.values.size(), 64u * 32u);
}

TEST(Workload, BackSolvedScoresHitTargets) {
  wl::WorkloadParams params;
  params.context_len = 32;
  params.head_dim = 64;
  wl::Generator gen(params);
  Rng rng(2);
  const auto inst = gen.make_instance(rng);
  const double inv_sqrt_d = 1.0 / std::sqrt(64.0);
  for (std::size_t i = 0; i < inst.len; ++i) {
    double dot = 0.0;
    for (std::size_t j = 0; j < 64; ++j) {
      dot += static_cast<double>(inst.q[j]) * inst.keys[i * 64 + j];
    }
    EXPECT_NEAR(dot * inv_sqrt_d, inst.target_scores[i], 1e-3)
        << "token " << i;
  }
}

TEST(Workload, LocalityBoostsRecentAndFirstTokens) {
  wl::WorkloadParams params;
  params.context_len = 256;
  wl::Generator gen(params);
  Rng rng(3);
  RunningStat recent, first, middle;
  for (int trial = 0; trial < 30; ++trial) {
    const auto inst = gen.make_instance(rng);
    first.add(inst.target_scores[0]);
    recent.add(inst.target_scores[inst.len - 1]);
    for (std::size_t i = 32; i < inst.len - 32; ++i) {
      middle.add(inst.target_scores[i]);
    }
  }
  // The configured boosts should show up (at least half, after noise).
  EXPECT_GT(first.mean(), middle.mean() + 0.5 * params.sink_boost);
  EXPECT_GT(recent.mean(), middle.mean() + 0.5 * params.recency_boost);
}

TEST(Workload, InstanceSpreadVaries) {
  // Fig. 3: dominant-token counts differ widely across instances.
  wl::WorkloadParams params;
  params.context_len = 1024;
  wl::Generator gen(params);
  Rng rng(4);
  std::vector<double> dominant_counts;
  for (int trial = 0; trial < 24; ++trial) {
    const auto inst = gen.make_instance(rng);
    // Count tokens with softmax probability above 1e-3.
    double m = inst.target_scores[0];
    for (double s : inst.target_scores) m = std::max(m, s);
    double denom = 0.0;
    for (double s : inst.target_scores) denom += std::exp(s - m);
    int dominant = 0;
    for (double s : inst.target_scores) {
      if (std::exp(s - m) / denom > 1e-3) ++dominant;
    }
    dominant_counts.push_back(dominant);
  }
  const double lo = percentile(dominant_counts, 10.0);
  const double hi = percentile(dominant_counts, 90.0);
  EXPECT_GT(hi, 1.5 * lo) << "instance variability collapsed";
  const double lo_min = percentile(dominant_counts, 0.0);
  const double hi_max = percentile(dominant_counts, 100.0);
  EXPECT_GT(hi_max, 2.0 * lo_min) << "instance variability collapsed";
}

TEST(Workload, ContextOverrideShortensInstance) {
  wl::WorkloadParams params;
  params.context_len = 512;
  wl::Generator gen(params);
  Rng rng(5);
  const auto inst = gen.make_instance(rng, 100);
  EXPECT_EQ(inst.len, 100u);
}

TEST(Workload, InvalidParamsThrow) {
  wl::WorkloadParams params;
  params.context_len = 0;
  EXPECT_THROW(wl::Generator{params}, std::logic_error);

  // A NaN spread used to pass through: a NaN key_noise_std gave NaN keys,
  // which quantize to 0 without a word.
  const double bad_spreads[] = {-1.0, std::nan(""), INFINITY};
  double wl::WorkloadParams::*const spreads[] = {
      &wl::WorkloadParams::sigma_log_sd, &wl::WorkloadParams::spike_boost_sd,
      &wl::WorkloadParams::spike_fraction_log_sd,
      &wl::WorkloadParams::key_noise_std, &wl::WorkloadParams::value_std};
  for (auto spread : spreads) {
    for (double bad : bad_spreads) {
      wl::WorkloadParams p;
      p.context_len = 16;
      p.*spread = bad;
      EXPECT_THROW(wl::Generator{p}, std::logic_error) << bad;
    }
    wl::WorkloadParams zero;
    zero.context_len = 16;
    zero.*spread = 0.0;  // a zero spread is valid
    EXPECT_NO_THROW(wl::Generator{zero});
  }

  // The override must not be 0 either, as params.context_len must not.
  wl::WorkloadParams ok;
  ok.context_len = 16;
  const wl::Generator gen(ok);
  Rng rng(7);
  EXPECT_THROW(gen.make_instance(rng, 0), std::logic_error);
}

// Today's generator as one serial loop, kept as the oracle the pooled,
// block-drawn generator must reproduce bit for bit.
wl::Instance serial_oracle(const wl::WorkloadParams& params, Rng& rng) {
  const auto d = static_cast<std::size_t>(params.head_dim);
  const std::size_t n = params.context_len;
  wl::Instance inst;
  inst.len = n;
  inst.head_dim = d;
  inst.q.resize(d);
  inst.keys.resize(n * d);
  inst.values.resize(n * d);
  inst.target_scores.resize(n);
  const double sigma = rng.lognormal(params.sigma_log_mean, params.sigma_log_sd);
  const double spike_rate = std::min(
      1.0, params.spike_fraction *
               rng.lognormal(0.0, params.spike_fraction_log_sd));
  for (std::size_t i = 0; i < n; ++i) {
    double score = rng.normal(0.0, sigma);
    if (rng.bernoulli(spike_rate)) {
      score += std::abs(rng.normal(params.spike_boost_mean,
                                   params.spike_boost_sd));
    }
    const auto age = n - 1 - i;
    if (age < static_cast<std::size_t>(params.recency_window)) {
      const double falloff =
          1.0 - static_cast<double>(age) /
                    static_cast<double>(params.recency_window);
      score += params.recency_boost * falloff;
    }
    if (i == 0) score += params.sink_boost;
    inst.target_scores[i] = score;
  }
  double qnorm2 = 0.0;
  for (auto& x : inst.q) {
    x = static_cast<float>(rng.normal());
    qnorm2 += static_cast<double>(x) * x;
  }
  const double sqrt_d = std::sqrt(static_cast<double>(d));
  std::vector<double> noise(d);
  for (std::size_t i = 0; i < n; ++i) {
    const double dot_target = inst.target_scores[i] * sqrt_d;
    double ndotq = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      noise[j] = rng.normal();
      ndotq += noise[j] * inst.q[j];
    }
    const double coeff = dot_target / qnorm2;
    const double proj = ndotq / qnorm2;
    for (std::size_t j = 0; j < d; ++j) {
      const double orth = (noise[j] - proj * inst.q[j]) * params.key_noise_std;
      inst.keys[i * d + j] = static_cast<float>(coeff * inst.q[j] + orth);
    }
    for (std::size_t j = 0; j < d; ++j) {
      inst.values[i * d + j] =
          static_cast<float>(rng.normal(0.0, params.value_std));
    }
  }
  return inst;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(Workload, PoolWidthNeverChangesBits) {
  // The Generator's pool is one thread per CPU the process may use, so a
  // run pinned to 1, 2 or 4 CPUs checks that width against the serial
  // oracle. Contexts hit the block tails: a single token (built inline), one
  // short of a block, one past it, and a multi-block length with a ragged
  // last block.
  constexpr std::size_t kBlock = wl::Generator::kBlockTokens;
  const std::size_t contexts[] = {1, kBlock - 1, kBlock + 1, 1027};
  const int head_dims[] = {1, 64, 80, 128};
  for (std::size_t len : contexts) {
    for (int d : head_dims) {
      wl::WorkloadParams params;
      params.context_len = len;
      params.head_dim = d;
      const std::uint64_t seed = 1000 * len + static_cast<std::uint64_t>(d);
      Rng oracle_rng(seed), rng(seed);
      const auto want = serial_oracle(params, oracle_rng);
      const auto got = wl::Generator(params).make_instance(rng);
      SCOPED_TRACE(testing::Message()
                   << "context " << len << " head_dim " << d);
      EXPECT_TRUE(same_bits(got.q, want.q));
      EXPECT_TRUE(same_bits(got.keys, want.keys));
      EXPECT_TRUE(same_bits(got.values, want.values));
      EXPECT_TRUE(same_bits(got.target_scores, want.target_scores));
      // The caller's stream is left where the serial loop leaves it.
      EXPECT_EQ(rng.next_u64(), oracle_rng.next_u64());
    }
  }
}

TEST(Workload, NegativeRecencyWindowThrows) {
  // A negative window used to wrap to SIZE_MAX: every token got the recency
  // boost, and the boost grew with the token's age.
  wl::WorkloadParams params;
  params.context_len = 64;
  params.recency_window = -8;
  EXPECT_THROW(wl::Generator{params}, std::logic_error);
  // A zero window is valid and boosts nothing, however large the boost.
  params.recency_window = 0;
  params.recency_boost = 1e6;
  wl::Generator gen(params);
  Rng rng(6);
  const auto inst = gen.make_instance(rng);
  for (std::size_t i = 0; i < inst.len; ++i) {
    EXPECT_LT(inst.target_scores[i], 1e3) << "token " << i;
  }
}

TEST(Zoo, HasEightEntriesWithPaperContexts) {
  const auto zoo = wl::workload_zoo();
  ASSERT_EQ(zoo.size(), 8u);
  EXPECT_EQ(zoo[0].eval_context, 1024);  // GPT2
  EXPECT_EQ(zoo[1].eval_context, 1024);
  for (std::size_t i = 2; i < 8; ++i) EXPECT_EQ(zoo[i].eval_context, 2048);
  for (const auto& entry : zoo) {
    EXPECT_GT(entry.reference_ppl, 0.0);
    EXPECT_EQ(entry.workload.head_dim, entry.model.head_dim());
  }
}

TEST(Zoo, Gpt2MediumEntryForFig9) {
  const auto entry = wl::gpt2_medium_entry();
  EXPECT_EQ(entry.model.name, "GPT2-Medium");
  EXPECT_EQ(entry.model.head_dim(), 64);
}

TEST(Traffic, KvFractionGrowsWithBatch) {
  const auto config = zoo_config("GPT2-XL");
  const auto b1 = an::generation_step_traffic(config, 1, 1024);
  const auto b64 = an::generation_step_traffic(config, 64, 1024);
  EXPECT_LT(b1.kv_fraction(), 0.15);
  EXPECT_GT(b64.kv_fraction(), 0.80);
  EXPECT_GT(b64.kv_fraction(), b1.kv_fraction());
}

TEST(Traffic, FractionsSumToOne) {
  const auto config = zoo_config("OPT-6.7B");
  const auto t = an::generation_step_traffic(config, 16, 2048);
  EXPECT_NEAR(t.kv_fraction() + t.weight_fraction() + t.embedding_fraction(),
              1.0, 1e-12);
}

TEST(Traffic, KvBytesLinearInBatch) {
  const auto config = zoo_config("OPT-2.7B");
  const auto b2 = an::generation_step_traffic(config, 2, 2048);
  const auto b8 = an::generation_step_traffic(config, 8, 2048);
  EXPECT_NEAR(b8.kv_bytes / b2.kv_bytes, 4.0, 1e-9);
  EXPECT_NEAR(b8.weight_bytes, b2.weight_bytes, 1e-9);
}

TEST(Traffic, TwelveBitKvShrinksTraffic) {
  const auto config = zoo_config("LLaMa-2-7B");
  const auto fp16 = an::generation_step_traffic(config, 8, 4096, 16, 16);
  const auto q12 = an::generation_step_traffic(config, 8, 4096, 16, 12);
  EXPECT_NEAR(fp16.kv_bytes / q12.kv_bytes, 16.0 / 12.0, 1e-9);
}

TEST(Traffic, RejectsBadArguments) {
  const auto config = zoo_config("GPT2-Large");
  EXPECT_THROW(an::generation_step_traffic(config, 0, 1024), std::logic_error);
  EXPECT_THROW(an::generation_step_traffic(config, 1, 99999), std::logic_error);
}

}  // namespace
}  // namespace topick
