#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fixedpoint/chunks.h"
#include "fixedpoint/margin.h"
#include "fixedpoint/quant.h"

namespace topick::fx {
namespace {

std::vector<float> random_vec(Rng& rng, std::size_t n, double scale = 1.0) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal() * scale);
  return v;
}

TEST(Quant, RoundTripWithinHalfStep) {
  Rng rng(1);
  const auto xs = random_vec(rng, 256);
  const auto q = quantize_auto(xs);
  const auto back = dequantize(q);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(back[i], xs[i], 0.5f * q.params.scale + 1e-6f);
  }
}

TEST(Quant, SaturatesAtRangeLimits) {
  QuantParams p;
  p.scale = 1.0f;
  const std::vector<float> xs{1e9f, -1e9f};
  const auto q = quantize(xs, p);
  EXPECT_EQ(q.values[0], p.qmax());
  EXPECT_EQ(q.values[1], p.qmin());
}

TEST(Quant, ExtremeRatiosSaturateInsteadOfWrapping) {
  // Regression for the narrowing bug: the old path cast lround's long result
  // to int32 BEFORE clamping, so a ratio in (INT32_MAX, LONG_MAX] wrapped to
  // the wrong sign — and a ratio beyond long range hit lround's unspecified
  // domain. A tiny-scale head or an outlier activation produces exactly
  // these ratios; they must saturate to qmax/qmin.
  QuantParams p;
  p.scale = 1.0f;
  const std::vector<float> xs{
      3e9f,    // > INT32_MAX: the old cast wrapped this negative
      -3e9f,   // < INT32_MIN mirrored
      1e30f,   // far beyond long range: old lround was unspecified
      -1e30f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
  };
  const auto q = quantize(xs, p);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(q.values[i], xs[i] > 0 ? p.qmax() : p.qmin()) << "i=" << i;
  }

  // The same ratios via a denormal-small scale (the headroom-band edge
  // shape: moderate floats over a tiny shared scale).
  QuantParams tiny;
  tiny.scale = 1e-30f;
  const std::vector<float> ys{7.5f, -7.5f};
  const auto qt = quantize(ys, tiny);
  EXPECT_EQ(qt.values[0], tiny.qmax());
  EXPECT_EQ(qt.values[1], tiny.qmin());

  // Randomized extreme float/scale pairs: the result must always carry the
  // input's sign and stay inside [qmin, qmax].
  Rng rng(0xfeed);
  for (int trial = 0; trial < 500; ++trial) {
    QuantParams rp;
    rp.scale = std::pow(10.0f, static_cast<float>(rng.uniform() * 60 - 30));
    const float x = static_cast<float>(rng.normal()) *
                    std::pow(10.0f, static_cast<float>(rng.uniform() * 60 - 30));
    const auto qv = quantize(std::vector<float>{x}, rp);
    EXPECT_GE(qv.values[0], rp.qmin());
    EXPECT_LE(qv.values[0], rp.qmax());
    if (std::abs(x / rp.scale) >= 1.0f) {
      EXPECT_EQ(qv.values[0] > 0, x > 0)
          << "x=" << x << " scale=" << rp.scale;
    }
  }
}

TEST(Quant, ZeroVectorGetsUnitScale) {
  const std::vector<float> xs{0.0f, 0.0f};
  EXPECT_EQ(choose_scale(xs), 1.0f);
}

TEST(Quant, ScaleMapsMaxToQmax) {
  const std::vector<float> xs{0.5f, -2.0f, 1.0f};
  const float s = choose_scale(xs, 12);
  EXPECT_NEAR(2.0f / s, 2047.0f, 1e-3f);
}

TEST(Quant, DotMatchesManualAccumulation) {
  QuantParams p;
  p.scale = 1.0f;
  QuantizedVector a{p, {3, -5, 7}};
  QuantizedVector b{p, {2, 4, -1}};
  EXPECT_EQ(dot_i64(a, b), 3 * 2 - 5 * 4 - 7);
}

TEST(Quant, RejectsBadParams) {
  QuantParams p;
  p.total_bits = 20;  // does not fit int16 storage
  const std::vector<float> xs{1.0f};
  EXPECT_THROW(quantize(xs, p), std::logic_error);
}

TEST(Chunks, TwelveBitSplitsIntoThreeNibbles) {
  QuantParams p;
  EXPECT_EQ(p.num_chunks(), 3);
  // 0b1010'0110'0011 = -1437 in 12-bit two's complement.
  const auto value = static_cast<std::int16_t>(-1437);
  EXPECT_EQ(chunk_bits_of(value, 0, p), 0xAu);
  EXPECT_EQ(chunk_bits_of(value, 1, p), 0x6u);
  EXPECT_EQ(chunk_bits_of(value, 2, p), 0x3u);
}

TEST(Chunks, AssembleInvertsChunking) {
  QuantParams p;
  Rng rng(2);
  for (int trial = 0; trial < 500; ++trial) {
    const auto v = static_cast<std::int16_t>(
        static_cast<int>(rng.uniform_index(4096)) - 2048);
    std::vector<std::uint16_t> chunks;
    for (int b = 0; b < p.num_chunks(); ++b) {
      chunks.push_back(chunk_bits_of(v, b, p));
    }
    EXPECT_EQ(assemble(chunks, p), v);
  }
}

TEST(Chunks, ResidualWeightShrinksSixteenfold) {
  QuantParams p;
  EXPECT_EQ(residual_weight(0, p), 4095);
  EXPECT_EQ(residual_weight(1, p), 255);
  EXPECT_EQ(residual_weight(2, p), 15);
  EXPECT_EQ(residual_weight(3, p), 0);
}

TEST(Chunks, PartialValueBracketsTrueValue) {
  QuantParams p;
  Rng rng(3);
  for (int trial = 0; trial < 1000; ++trial) {
    const auto v = static_cast<std::int16_t>(
        static_cast<int>(rng.uniform_index(4096)) - 2048);
    // Level 0: sign bit unknown, partial pinned at zero, value anywhere in
    // the representable range.
    EXPECT_EQ(partial_value(v, 0, p), 0);
    EXPECT_GE(v, p.qmin());
    EXPECT_LE(v, p.qmax());
    // Levels >= 1: unknown low bits only ever add [0, residual].
    for (int level = 1; level <= p.num_chunks(); ++level) {
      const int lo = partial_value(v, level, p);
      const int residual = residual_weight(level, p);
      EXPECT_LE(lo, v);
      EXPECT_GE(lo + residual, v);
    }
  }
}

TEST(Chunks, PaperWorkedExampleFigure4b) {
  // Fig. 4(b): 6-bit value, Q = (8, -5) fully known, K column known 2 then 4
  // bits. Reproduce the bracket-tightening behaviour on 6-bit params.
  QuantParams p;
  p.total_bits = 6;
  p.chunk_bits = 2;
  // K element 0b110100 = -12; after one 2-bit chunk (bits 5..4 = 0b11):
  const auto k = static_cast<std::int16_t>(-12);
  EXPECT_EQ(partial_value(k, 1, p), -16);  // 0b110000
  EXPECT_EQ(residual_weight(1, p), 15);
  EXPECT_EQ(partial_value(k, 2, p), -12);  // 0b110100 exactly
  EXPECT_EQ(residual_weight(2, p), 3);
}

TEST(Chunks, PartialDotAtEveryChunkIsTheFullDot) {
  Rng rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    const auto qv = quantize_auto(random_vec(rng, 64));
    const auto kv = quantize_auto(random_vec(rng, 64));
    EXPECT_EQ(partial_dot_i64(qv, kv, kv.params.num_chunks()), dot_i64(qv, kv));
    EXPECT_EQ(partial_dot_i64(qv, kv, 0), 0);
  }
}

TEST(Margin, SignSplitSeparatesSigns) {
  QuantParams p;
  p.scale = 1.0f;
  QuantizedVector q{p, {5, -3, 0, 7, -2}};
  const auto split = sign_split(q);
  EXPECT_EQ(split.positive_sum, 12);
  EXPECT_EQ(split.negative_sum, -5);
}

TEST(Margin, FinalLevelHasZeroMargins) {
  Rng rng(6);
  const auto qv = quantize_auto(random_vec(rng, 64));
  MarginTable table(qv, qv.params);
  const auto& last = table.at_level(qv.params.num_chunks());
  EXPECT_EQ(last.min_margin, 0);
  EXPECT_EQ(last.max_margin, 0);
}

// Property sweep: for random Q/K at every chunk level, the margin pair
// brackets the exact dot product. This is the soundness foundation of the
// whole pruning scheme.
class MarginSoundness : public ::testing::TestWithParam<int> {};

TEST_P(MarginSoundness, BracketsExactScore) {
  const int dim = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(dim));
  for (int trial = 0; trial < 200; ++trial) {
    const auto qv = quantize_auto(random_vec(rng, static_cast<std::size_t>(dim)));
    const auto kv = quantize_auto(random_vec(rng, static_cast<std::size_t>(dim)));
    const MarginTable table(qv, kv.params);
    const std::int64_t exact = dot_i64(qv, kv);
    for (int level = 0; level <= kv.params.num_chunks(); ++level) {
      const std::int64_t partial = partial_dot_i64(qv, kv, level);
      const auto& margin = table.at_level(level);
      EXPECT_LE(partial + margin.min_margin, exact)
          << "dim=" << dim << " level=" << level;
      EXPECT_GE(partial + margin.max_margin, exact)
          << "dim=" << dim << " level=" << level;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, MarginSoundness,
                         ::testing::Values(1, 2, 16, 64, 128));

// The same property must hold for non-default chunk widths (ablation configs).
class MarginSoundnessChunkWidth : public ::testing::TestWithParam<int> {};

TEST_P(MarginSoundnessChunkWidth, BracketsExactScore) {
  const int chunk_bits = GetParam();
  Rng rng(200 + static_cast<std::uint64_t>(chunk_bits));
  QuantParams base;
  base.chunk_bits = chunk_bits;
  for (int trial = 0; trial < 100; ++trial) {
    auto xs = random_vec(rng, 64);
    auto ks = random_vec(rng, 64);
    QuantParams qp = base;
    qp.scale = choose_scale(xs);
    QuantParams kp = base;
    kp.scale = choose_scale(ks);
    const auto qv = quantize(xs, qp);
    const auto kv = quantize(ks, kp);
    const MarginTable table(qv, kp);
    const std::int64_t exact = dot_i64(qv, kv);
    for (int level = 0; level <= kp.num_chunks(); ++level) {
      const std::int64_t partial = partial_dot_i64(qv, kv, level);
      const auto& margin = table.at_level(level);
      EXPECT_LE(partial + margin.min_margin, exact);
      EXPECT_GE(partial + margin.max_margin, exact);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MarginSoundnessChunkWidth,
                         ::testing::Values(1, 2, 3, 4, 6, 12));

TEST(Margin, MarginsShrinkMonotonically) {
  Rng rng(7);
  const auto qv = quantize_auto(random_vec(rng, 64));
  const MarginTable table(qv, qv.params);
  for (int level = 0; level < qv.params.num_chunks(); ++level) {
    const auto& cur = table.at_level(level);
    const auto& next = table.at_level(level + 1);
    EXPECT_LE(next.max_margin, cur.max_margin);
    EXPECT_GE(next.min_margin, cur.min_margin);
  }
}

}  // namespace
}  // namespace topick::fx
