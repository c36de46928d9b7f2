#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/expsum.h"
#include "common/require.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace topick {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(9);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) stat.add(rng.normal());
  EXPECT_NEAR(stat.mean(), 0.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 1.0, 0.05);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng b = a.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformIndexInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) ASSERT_LT(rng.uniform_index(17), 17u);
}

TEST(Rng, UniformIndexOfZeroThrows) {
  // [0, 0) is empty: the modulo by zero used to be undefined behaviour
  // (SIGFPE on x86).
  Rng rng(11);
  EXPECT_THROW(rng.uniform_index(0), std::logic_error);
  EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, NormalIsBoxMullerOfDraw) {
  // normal() == box_muller(draw_normal()) bit for bit, and both advance the
  // stream identically, so a caller may draw serially and transform later.
  Rng a(11), b(11);
  for (int i = 0; i < 100000; ++i) {
    const double direct = a.normal();
    const double split = Rng::box_muller(b.draw_normal());
    ASSERT_EQ(std::bit_cast<std::uint64_t>(direct),
              std::bit_cast<std::uint64_t>(split))
        << "draw " << i;
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(ShiftedExpSum, MatchesLogSumExp) {
  Rng rng(13);
  std::vector<double> xs;
  ShiftedExpSum sum;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(-50.0, 50.0);
    xs.push_back(x);
    sum.add(x);
  }
  EXPECT_NEAR(sum.log(), log_sum_exp(xs.data(), xs.size()), 1e-9);
}

TEST(ShiftedExpSum, EmptyIsMinusInfinity) {
  ShiftedExpSum sum;
  EXPECT_TRUE(std::isinf(sum.log()));
  EXPECT_LT(sum.log(), 0.0);
  EXPECT_EQ(sum.value(), 0.0);
}

TEST(ShiftedExpSum, RemoveRestoresPreviousLog) {
  ShiftedExpSum sum;
  sum.add(1.0);
  sum.add(2.0);
  const double before = sum.log();
  sum.add(25.0);  // forces a rescale
  sum.remove(25.0);
  // The rescale rounds the small terms at ~eps relative to exp(25); the
  // residual error is orders of magnitude below any pruning margin.
  EXPECT_NEAR(sum.log(), before, 1e-5);
}

TEST(ShiftedExpSum, ExtremeRescaleAbsorbsConservatively) {
  // Removing a term that dwarfed the rest can absorb the tiny terms into
  // rounding (double eps). The residual sum only ever *underestimates*,
  // which inflates p'' and keeps the pruning decision conservative.
  ShiftedExpSum sum;
  sum.add(1.0);
  sum.add(2.0);
  sum.add(60.0);
  sum.remove(60.0);
  const double exact = std::log(std::exp(1.0) + std::exp(2.0));
  EXPECT_LE(sum.log(), exact + 1e-9);
}

TEST(ShiftedExpSum, RemoveLastTermEmptiesSum) {
  ShiftedExpSum sum;
  sum.add(3.0);
  sum.remove(3.0);
  EXPECT_TRUE(sum.empty());
  EXPECT_TRUE(std::isinf(sum.log()));
}

TEST(ShiftedExpSum, ReplaceEqualsRemoveThenAdd) {
  ShiftedExpSum a, b;
  for (double x : {1.0, 5.0, -2.0}) {
    a.add(x);
    b.add(x);
  }
  a.replace(5.0, 7.5);
  b.remove(5.0);
  b.add(7.5);
  EXPECT_NEAR(a.log(), b.log(), 1e-9);
  EXPECT_EQ(a.terms(), 3u);
}

TEST(ShiftedExpSum, HandlesLargeMagnitudes) {
  ShiftedExpSum sum;
  sum.add(700.0);  // exp(700) overflows double; log() must stay finite
  sum.add(699.0);
  EXPECT_NEAR(sum.log(), 700.0 + std::log(1.0 + std::exp(-1.0)), 1e-9);
}

TEST(LogSumExp, EmptyIsMinusInfinity) {
  EXPECT_TRUE(std::isinf(log_sum_exp(nullptr, 0)));
}

TEST(LogSumExp, SingleElementIsIdentity) {
  const double x = 3.25;
  EXPECT_NEAR(log_sum_exp(&x, 1), 3.25, 1e-12);
}

TEST(RunningStat, BasicMoments) {
  RunningStat stat;
  for (double x : {1.0, 2.0, 3.0, 4.0}) stat.add(x);
  EXPECT_EQ(stat.count(), 4u);
  EXPECT_DOUBLE_EQ(stat.mean(), 2.5);
  EXPECT_NEAR(stat.variance(), 1.25, 1e-12);
  EXPECT_DOUBLE_EQ(stat.min(), 1.0);
  EXPECT_DOUBLE_EQ(stat.max(), 4.0);
  EXPECT_DOUBLE_EQ(stat.sum(), 10.0);
}

TEST(Histogram, BinsAndEdgeClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-100.0);  // clamps into first bin
  h.add(100.0);   // clamps into last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, BinGeometry) {
  Histogram h(-5.0, 5.0, 10);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), -5.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(9), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_center(5), 0.5);
}

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
}

TEST(TablePrinter, RendersAlignedColumns) {
  TablePrinter table({"model", "speedup"});
  table.add_row({"GPT2-XL", "2.02x"});
  const std::string out = table.render();
  EXPECT_NE(out.find("model"), std::string::npos);
  EXPECT_NE(out.find("GPT2-XL"), std::string::npos);
  EXPECT_NE(out.find("2.02x"), std::string::npos);
}

TEST(TablePrinter, RejectsMisshapenRow) {
  TablePrinter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::logic_error);
}

TEST(TablePrinter, FormatHelpers) {
  EXPECT_EQ(TablePrinter::fmt(2.567, 2), "2.57");
  EXPECT_EQ(TablePrinter::fmt_pct(0.843, 1), "84.3%");
  EXPECT_EQ(TablePrinter::fmt_ratio(12.08, 1), "12.1x");
}

TEST(Csv, RendersHeaderAndRows) {
  const auto text = to_csv({"a", "b"}, {{"1", "2"}, {"3", "4"}});
  EXPECT_EQ(text, "a,b\n1,2\n3,4\n");
}

TEST(Require, ThrowsWithMessage) {
  EXPECT_THROW(require(false, "boom"), std::logic_error);
  EXPECT_NO_THROW(require(true, "fine"));
}

}  // namespace
}  // namespace topick
