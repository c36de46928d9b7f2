// Runtime ISA dispatch suite (fixedpoint/dispatch.h).
//
// * Registry shape: scalar always present and first, levels strictly
//   ascending, supported ⊆ compiled, the active table is supported.
// * Forced-level matrix: for EVERY compiled-in variant this CPU can run,
//   force it and assert the entry points (the active row_dot_i64,
//   weighted_value_accum, fx::quantize_row_i16, fx::row_amax,
//   fx::choose_scale, fx::rescale_row_i16, fx::nibble_dot_i64,
//   fx::pack_planes_i16, fx::unpack_planes_i16) are
//   bit-identical to the scalar reference over randomized rows, odd
//   remainders, int16/nibble extremes, and half-way rounding cases — the
//   "selected ISA can never change a result" contract, per level.
// * Kernel-edge regressions: NaN / signed-zero / infinity handling of
//   row_amax (PR 5's AVX2 reduction let one NaN poison the running max —
//   maxps returns its second operand on NaN, so operand order is load-
//   bearing), pinned across every variant.
// * Serve determinism: a full ServeEngine run at a forced non-default level
//   is bit-identical to the scalar-forced run — outputs, token sets, and
//   fleet metrics.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/quantized_kv_cache.h"
#include "fixedpoint/dispatch.h"
#include "fixedpoint/quant.h"
#include "serve/serve_engine.h"
#include "serve_identity.h"
#include "workload/arrivals.h"

namespace topick {
namespace {

// Every test that forces a level must restore the startup selection even on
// assertion failure — other suites in this binary read the active table.
struct IsaGuard {
  ~IsaGuard() { fx::reset_isa(); }
};

TEST(DispatchRegistry, ScalarIsAlwaysPresentAndFirst) {
  const auto compiled = fx::compiled_kernel_tables();
  ASSERT_FALSE(compiled.empty());
  EXPECT_EQ(compiled.front()->level, fx::IsaLevel::scalar);
  EXPECT_STREQ(compiled.front()->name, "scalar");
  for (const fx::KernelTable* table : compiled) {
    ASSERT_NE(table->row_dot_i64, nullptr) << table->name;
    ASSERT_NE(table->weighted_value_accum, nullptr) << table->name;
    ASSERT_NE(table->quantize_row_i16, nullptr) << table->name;
    ASSERT_NE(table->row_amax, nullptr) << table->name;
    ASSERT_NE(table->rescale_row_i16, nullptr) << table->name;
    ASSERT_NE(table->nibble_dot_i64, nullptr) << table->name;
    ASSERT_NE(table->pack_planes_i16, nullptr) << table->name;
    ASSERT_NE(table->unpack_planes_i16, nullptr) << table->name;
    EXPECT_STREQ(table->name, fx::isa_name(table->level));
  }
  for (std::size_t i = 1; i < compiled.size(); ++i) {
    EXPECT_LT(static_cast<int>(compiled[i - 1]->level),
              static_cast<int>(compiled[i]->level));
  }
}

TEST(DispatchRegistry, SupportedIsSubsetOfCompiledAndContainsActive) {
  const auto compiled = fx::compiled_kernel_tables();
  const auto supported = fx::supported_kernel_tables();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front()->level, fx::IsaLevel::scalar);
  for (const fx::KernelTable* table : supported) {
    bool in_compiled = false;
    for (const fx::KernelTable* c : compiled) in_compiled |= (c == table);
    EXPECT_TRUE(in_compiled) << table->name;
  }
  // The probe's natural pick is the highest supported level.
  fx::reset_isa();
  if (std::getenv("TOPICK_FORCE_ISA") == nullptr) {
    EXPECT_EQ(fx::kernel_isa_level(), supported.back()->level);
    EXPECT_FALSE(fx::kernel_isa_forced());
  }
  bool active_supported = false;
  for (const fx::KernelTable* table : supported) {
    active_supported |= (table->level == fx::kernel_isa_level());
  }
  EXPECT_TRUE(active_supported);
}

TEST(DispatchRegistry, ForceIsaRejectsUnknownAndUncompiledLevels) {
  IsaGuard guard;
  const char* before = fx::kernel_isa_name();
  EXPECT_FALSE(fx::force_isa("mmx"));
  EXPECT_FALSE(fx::force_isa(static_cast<const char*>(nullptr)));
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_FALSE(fx::force_isa(fx::IsaLevel::neon));
#else
  EXPECT_FALSE(fx::force_isa(fx::IsaLevel::avx2));
#endif
  EXPECT_STREQ(fx::kernel_isa_name(), before);  // selection unchanged

  ASSERT_TRUE(fx::force_isa(fx::IsaLevel::scalar));
  EXPECT_EQ(fx::kernel_isa_level(), fx::IsaLevel::scalar);
  EXPECT_TRUE(fx::kernel_isa_forced());
  fx::reset_isa();
  if (std::getenv("TOPICK_FORCE_ISA") == nullptr) {
    EXPECT_FALSE(fx::kernel_isa_forced());
  }
}

// ---- forced-level matrix: public entry points vs scalar ---------------------

TEST(DispatchForcedMatrix, EveryLevelBitMatchesScalarThroughPublicEntryPoints) {
  IsaGuard guard;
  Rng rng(0xd15b);
  // Odd remainders around every vector width (4/8/16/32) and their
  // half-vector steps, plus the tiny-row inlined fast paths (n < 8, n < 16).
  const std::size_t lengths[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17,
                                 31, 32, 33, 63, 64, 65, 96, 128, 257};
  for (const fx::KernelTable* table : fx::supported_kernel_tables()) {
    SCOPED_TRACE(table->name);
    ASSERT_TRUE(fx::force_isa(table->level));
    EXPECT_STREQ(fx::kernel_isa_name(), table->name);
    EXPECT_TRUE(fx::kernel_isa_forced());

    for (const std::size_t n : lengths) {
      for (int trial = 0; trial < 12; ++trial) {
        // row_dot over the quantized domain plus ±32767 saturation runs.
        std::vector<std::int16_t> a(n), b(n);
        for (std::size_t i = 0; i < n; ++i) {
          if (trial % 4 == 0) {
            a[i] = (i % 2 == 0) ? std::int16_t{32767} : std::int16_t{-32767};
            b[i] = (i % 3 == 0) ? std::int16_t{-32767} : std::int16_t{32767};
          } else {
            a[i] = static_cast<std::int16_t>(
                static_cast<int>(rng.uniform_index(4096)) - 2048);
            b[i] = static_cast<std::int16_t>(
                static_cast<int>(rng.uniform_index(4096)) - 2048);
          }
        }
        EXPECT_EQ(fx::active_kernels().row_dot_i64(a.data(), b.data(), n),
                  fx::row_dot_i64_scalar(a.data(), b.data(), n))
            << "n=" << n;

        // weighted_value_accum through the dispatching wrapper.
        std::vector<float> out(n), ref(n);
        for (std::size_t d = 0; d < n; ++d) {
          out[d] = ref[d] = static_cast<float>(rng.normal());
        }
        const double p = rng.uniform();
        const double v_scale = rng.uniform() * 0.01 + 1e-6;
        weighted_value_accum(out.data(), a.data(), p, v_scale, n);
        fx::weighted_value_accum_scalar(ref.data(), a.data(), p, v_scale, n);
        EXPECT_EQ(out, ref) << "n=" << n;

        // quantize through fx::quantize_row_i16, half-way and saturating
        // inputs included (the ±32767-boundary regression pin).
        fx::QuantParams params;
        params.scale = trial % 2 == 0 ? 1.0f
                                      : 0.25f + static_cast<float>(rng.uniform());
        std::vector<float> xs(n);
        for (std::size_t i = 0; i < n; ++i) {
          switch (rng.uniform_index(4)) {
            case 0:
              xs[i] = (static_cast<float>(rng.uniform_index(4096)) - 2048.0f +
                       0.5f) * params.scale;
              break;
            case 1:
              xs[i] = (rng.uniform() < 0.5 ? 1.0f : -1.0f) *
                      (3e9f + static_cast<float>(rng.normal()));
              break;
            default:
              xs[i] = static_cast<float>(rng.normal() * 500.0);
          }
        }
        // Non-finite elements: ±inf saturates and NaN of either sign
        // quantizes to 0 (a SIMD lane that truncated NaN read -32768).
        if (n > 0 && trial % 3 == 1) {
          constexpr float inf = std::numeric_limits<float>::infinity();
          constexpr float nan = std::numeric_limits<float>::quiet_NaN();
          xs[rng.uniform_index(n)] = inf;
          xs[rng.uniform_index(n)] = -inf;
          xs[rng.uniform_index(n)] = nan;
          xs[rng.uniform_index(n)] = -nan;
        }
        std::vector<std::int16_t> got(n), want(n);
        fx::quantize_row_i16(xs.data(), n, params, got.data());
        fx::quantize_row_i16_scalar(xs.data(), n, params, want.data());
        EXPECT_EQ(got, want) << "n=" << n << " scale=" << params.scale;
        for (std::size_t i = 0; i < n; ++i) {
          if (std::isnan(xs[i])) {
            EXPECT_EQ(got[i], 0) << "n=" << n;
          }
        }

        // row_amax + choose_scale (the scale decides every quantized bit).
        EXPECT_EQ(fx::row_amax(xs.data(), n), fx::row_amax_scalar(xs.data(), n))
            << "n=" << n;
        if (n > 0) {
          float sa = fx::row_amax_scalar(xs.data(), n);
          float expected = sa == 0.0f ? 1.0f : sa / 2047.0f;
          if (std::isinf(sa)) {
            // An inf element has no finite scale: refused at every level.
            EXPECT_THROW(fx::choose_scale({xs.data(), n}), std::logic_error)
                << "n=" << n;
          } else {
            EXPECT_EQ(fx::choose_scale({xs.data(), n}), expected) << "n=" << n;
          }
        }
      }
    }
    fx::reset_isa();
  }
}

// A NaN-bearing K/V row appends to the cache at every level and lands on
// the same bits: a NaN element quantizes to 0 (fixedpoint/quant.h), so it
// stays inside the [qmin, qmax] the offset-binary planes hold and reads
// back as 0 from the key and the value planes alike. The record-setting
// last row forces a rescale that re-quantizes the NaN rows from their
// floats.
TEST(DispatchForcedMatrix, NanBearingRowAppendsIdenticallyAtEveryLevel) {
  IsaGuard guard;
  constexpr float nan = std::numeric_limits<float>::quiet_NaN();
  const std::size_t dim = 64;
  const std::size_t len = 4;
  Rng rng(0x7a11);
  std::vector<float> ks(len * dim), vs(len * dim);
  for (std::size_t i = 0; i < len * dim; ++i) {
    const double sigma = i / dim == len - 1 ? 10.0 : 1.0;  // the record row
    ks[i] = static_cast<float>(rng.normal(0.0, sigma));
    vs[i] = static_cast<float>(rng.normal(0.0, sigma));
  }
  ks[1 * dim + 5] = nan;
  vs[1 * dim + 17] = nan;
  ks[2 * dim + 0] = -nan;
  vs[2 * dim + dim - 1] = nan;
  const KvHeadView rows{ks.data(), vs.data(), len, dim};
  const ViewRescaleSource source(rows);

  std::vector<std::int16_t> ref_keys, ref_values;
  for (const fx::KernelTable* table : fx::supported_kernel_tables()) {
    SCOPED_TRACE(table->name);
    ASSERT_TRUE(fx::force_isa(table->level));
    QuantizedKvCache cache(dim);
    for (std::size_t r = 0; r + 1 < len; ++r) {
      cache.append(rows.key(r), rows.value(r), r, source);
    }
    const std::uint64_t rescales = cache.key_rescales();
    cache.append(rows.key(len - 1), rows.value(len - 1), len - 1, source);
    EXPECT_GT(cache.key_rescales(), rescales);

    const QuantizedKvView view = cache.view();
    std::vector<std::int16_t> keys(view.len * dim), values(view.len * dim);
    for (std::size_t t = 0; t < view.len; ++t) {
      view.key_row(t, keys.data() + t * dim);
      view.value_row(t, values.data() + t * dim);
    }
    EXPECT_EQ(keys[1 * dim + 5], 0);
    EXPECT_EQ(values[1 * dim + 17], 0);
    EXPECT_EQ(keys[2 * dim + 0], 0);
    EXPECT_EQ(values[2 * dim + dim - 1], 0);
    if (table->level == fx::IsaLevel::scalar) {
      ref_keys = keys;
      ref_values = values;
    } else {
      EXPECT_EQ(keys, ref_keys);
      EXPECT_EQ(values, ref_values);
    }
    fx::reset_isa();
  }
}

// rescale_row_i16 gets its own matrix leg: the int-domain re-gridding
// (timed by perfbench as fixedpoint.rescale_row_ns) must be element-exact
// across every compiled-in variant — through the dispatching wrapper,
// through the raw table pointer (covering SIMD at n < the wrapper's inline
// threshold), and under src == out aliasing — over identity, grow,
// shrink-to-saturation, and degenerate ratios. Each result is additionally
// pinned within 1 ULP of the real-ratio grid round(|q| * old/new).
TEST(DispatchForcedMatrix, RescaleRowEveryLevelMatchesScalarAndRealRatioGrid) {
  IsaGuard guard;
  Rng rng(0x4e5c);
  const fx::QuantParams params;  // the 12-bit production grid
  const std::size_t lengths[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17,
                                 31, 32, 33, 63, 64, 65, 96, 128, 257};
  for (const fx::KernelTable* table : fx::supported_kernel_tables()) {
    SCOPED_TRACE(table->name);
    ASSERT_TRUE(fx::force_isa(table->level));

    for (const std::size_t n : lengths) {
      for (int trial = 0; trial < 16; ++trial) {
        // Alternate the production 12-bit clamp with the full int16 range
        // (the kernel contract only requires qmin/qmax to fit int16).
        const bool full_range = trial % 5 == 0;
        const std::int32_t qmax = full_range ? 32767 : params.qmax();
        const std::int32_t qmin = full_range ? -32768 : params.qmin();
        std::vector<std::int16_t> src(n);
        for (auto& q : src) {
          q = full_range
                  ? static_cast<std::int16_t>(
                        static_cast<int>(rng.uniform_index(65536)) - 32768)
                  : static_cast<std::int16_t>(
                        static_cast<int>(rng.uniform_index(4095)) - 2047);
        }
        const float old_scale = 0.25f + static_cast<float>(rng.uniform());
        float new_scale;
        switch (trial % 4) {
          case 0: new_scale = old_scale; break;           // identity ratio
          case 1: new_scale = old_scale * 64.0f; break;   // coarser grid
          case 2: new_scale = old_scale / 64.0f; break;   // finer: saturates
          default:
            new_scale =
                old_scale * (0.5f + 1.5f * static_cast<float>(rng.uniform()));
        }
        if (trial == 7) new_scale = 0.0f;  // degenerate -> all-zero output
        const fx::FixedRatio ratio = fx::make_fixed_ratio(old_scale, new_scale);

        std::vector<std::int16_t> want(n), got(n);
        fx::rescale_row_i16_scalar(src.data(), n, ratio, qmin, qmax,
                                   want.data());
        fx::rescale_row_i16(src.data(), n, ratio, qmin, qmax, got.data());
        EXPECT_EQ(got, want) << "n=" << n << " trial=" << trial;

        if (n >= 1) {
          table->rescale_row_i16(src.data(), n, ratio, qmin, qmax, got.data());
          EXPECT_EQ(got, want) << "direct call, n=" << n;
        }
        std::vector<std::int16_t> alias = src;
        fx::rescale_row_i16(alias.data(), n, ratio, qmin, qmax, alias.data());
        EXPECT_EQ(alias, want) << "aliased, n=" << n;

        if (new_scale > 0.0f) {
          const double r = static_cast<double>(old_scale) /
                           static_cast<double>(new_scale);
          for (std::size_t i = 0; i < n; ++i) {
            const double mag = std::abs(static_cast<double>(src[i]));
            double exact = std::floor(mag * r + 0.5);
            if (src[i] < 0) exact = -exact;
            exact = std::min(static_cast<double>(qmax),
                             std::max(static_cast<double>(qmin), exact));
            EXPECT_LE(std::abs(static_cast<double>(want[i]) - exact), 1.0)
                << "n=" << n << " i=" << i << " q=" << src[i] << " r=" << r;
          }
        }
      }
    }
    fx::reset_isa();
  }
}

// nibble_dot_i64 (the estimation walk over offset-binary key nibble planes)
// must be element-exact at every level for every length 0..257 — odd
// lengths and sub-16 tails included — and every chunk mask 0x1..0xF,
// through the dispatching wrapper and the raw table pointer (SIMD below the
// wrapper's inline threshold), over random nibbles, all-15 nibbles against
// q = +qmax and -qmax at 12 bits and the int16 extremes, and an
// int32-overflow stress: q = -32768 against all-15 nibbles sums to
// -n * 491520, which at n = 131072 exceeds 2^31 in each of 16 int32 lanes,
// so a variant that did not widen to int64 in time would wrap.
TEST(DispatchForcedMatrix, NibbleDotEveryLevelMatchesScalarAtExtremes) {
  IsaGuard guard;
  Rng rng(0x91a7);
  constexpr std::int16_t kQmax12 = 2047;
  for (const fx::KernelTable* table : fx::supported_kernel_tables()) {
    SCOPED_TRACE(table->name);
    ASSERT_TRUE(fx::force_isa(table->level));
    for (std::size_t n = 0; n <= 257; ++n) {
      for (int trial = 0; trial < 5; ++trial) {
        std::vector<std::int16_t> q(n);
        std::vector<std::uint8_t> nibbles(fx::PlaneLayout::row_bytes(n));
        for (auto& byte : nibbles) {
          byte = trial == 0 ? static_cast<std::uint8_t>(rng.uniform_index(256))
                            : 0xFF;  // all-15 nibbles
        }
        for (std::size_t i = 0; i < n; ++i) {
          switch (trial) {
            case 0:  // full int16 domain against random nibbles
              q[i] = static_cast<std::int16_t>(
                  static_cast<int>(rng.uniform_index(65536)) - 32768);
              break;
            case 1:
              q[i] = kQmax12;
              break;
            case 2:
              q[i] = -kQmax12;
              break;
            case 3:
              q[i] = std::numeric_limits<std::int16_t>::min();
              break;
            default:  // alternating-sign extremes
              q[i] = (i % 2 == 0) ? std::numeric_limits<std::int16_t>::min()
                                  : std::numeric_limits<std::int16_t>::max();
          }
        }
        for (unsigned m = 0x1; m <= 0xF; ++m) {
          const auto mask = static_cast<std::uint8_t>(m);
          std::int64_t want = 0;
          for (std::size_t i = 0; i < n; ++i) {
            want += std::int64_t{q[i]} *
                    ((nibbles[i / 2] >> (4 * (i % 2))) & m);
          }
          ASSERT_EQ(fx::nibble_dot_i64_scalar(q.data(), nibbles.data(), mask,
                                              n),
                    want)
              << "n=" << n << " trial=" << trial << " mask=" << m;
          ASSERT_EQ(fx::nibble_dot_i64(q.data(), nibbles.data(), mask, n),
                    want)
              << "n=" << n << " trial=" << trial << " mask=" << m;
          ASSERT_EQ(table->nibble_dot_i64(q.data(), nibbles.data(), mask, n),
                    want)
              << "direct call, n=" << n << " trial=" << trial
              << " mask=" << m;
        }
      }
    }

    for (const std::size_t n : {std::size_t{4096}, std::size_t{131072}}) {
      const std::vector<std::int16_t> q(
          n, std::numeric_limits<std::int16_t>::min());
      const std::vector<std::uint8_t> nibbles(fx::PlaneLayout::row_bytes(n),
                                              0xFF);
      const std::int64_t exact = -static_cast<std::int64_t>(n) * 32768 * 15;
      EXPECT_EQ(fx::nibble_dot_i64_scalar(q.data(), nibbles.data(), 0xF, n),
                exact);
      EXPECT_EQ(fx::nibble_dot_i64(q.data(), nibbles.data(), 0xF, n), exact)
          << "n=" << n;
      EXPECT_EQ(table->nibble_dot_i64(q.data(), nibbles.data(), 0xF, n),
                exact)
          << "direct call, n=" << n;
    }
    fx::reset_isa();
  }
}

// pack_planes_i16 / unpack_planes_i16 (the one stored K/V format) must be
// byte- and element-exact at every level for every total_bits 2..15, odd and
// even lengths on both sides of each variant's block widths (16/32/64), and
// rows of random in-range elements, all qmin, all qmax, all 0 and
// alternating qmin/qmax — through the dispatching wrapper and the raw table
// pointer. The scalar reference is checked against the format's definition
// (plane j holds bits [4(P-1-j), 4(P-j)) of x + 2^(T-1), the odd tail's
// high nibble 0), every variant writes nothing past ceil(n / 2) bytes, a row
// with one element just outside [qmin, qmax] is refused alike, and unpack
// agrees with scalar on arbitrary plane bytes.
TEST(DispatchForcedMatrix, PlanePackAndUnpackEveryLevelMatchScalar) {
  IsaGuard guard;
  Rng rng(0x9ac4);
  constexpr std::uint8_t kGuard = 0xA5;
  constexpr std::size_t kGuardBytes = 8;
  const std::size_t lengths[] = {0,  1,  2,  7,  15, 16,  17,  31,  32, 33,
                                 63, 64, 65, 80, 95, 127, 128, 129, 257};
  // Packs src into four guarded plane buffers; returns them and the verdict.
  struct Packed {
    bool in_range = false;
    std::vector<std::vector<std::uint8_t>> planes;
  };
  const auto pack = [&](auto&& kernel, const std::vector<std::int16_t>& src,
                        int bits) {
    Packed out;
    const std::size_t bytes = fx::PlaneLayout::row_bytes(src.size());
    out.planes.assign(
        static_cast<std::size_t>(fx::PlaneLayout::planes_for(bits)),
        std::vector<std::uint8_t>(bytes + kGuardBytes, kGuard));
    std::uint8_t* rows[4] = {};
    for (std::size_t j = 0; j < out.planes.size(); ++j) {
      rows[j] = out.planes[j].data();
    }
    out.in_range = kernel(src.data(), src.size(), bits, rows);
    return out;
  };
  const auto unpack = [&](auto&& kernel, const Packed& packed, std::size_t n,
                          int bits) {
    std::vector<std::int16_t> out(n + kGuardBytes, 0x5A5A);
    const std::uint8_t* rows[4] = {};
    for (std::size_t j = 0; j < packed.planes.size(); ++j) {
      rows[j] = packed.planes[j].data();
    }
    kernel(rows, n, bits, out.data());
    return out;
  };

  for (const fx::KernelTable* table : fx::supported_kernel_tables()) {
    SCOPED_TRACE(table->name);
    ASSERT_TRUE(fx::force_isa(table->level));
    for (int bits = 2; bits <= 15; ++bits) {
      const int half = 1 << (bits - 1);
      const int planes = fx::PlaneLayout::planes_for(bits);
      for (const std::size_t n : lengths) {
        for (int kind = 0; kind < 6; ++kind) {
          SCOPED_TRACE("bits=" + std::to_string(bits) +
                       " n=" + std::to_string(n) +
                       " kind=" + std::to_string(kind));
          std::vector<std::int16_t> src(n);
          for (std::size_t i = 0; i < n; ++i) {
            switch (kind) {
              case 0:
                src[i] = static_cast<std::int16_t>(
                    static_cast<int>(rng.uniform_index(2 * half)) - half);
                break;
              case 1:
                src[i] = static_cast<std::int16_t>(-half);
                break;
              case 2:
                src[i] = static_cast<std::int16_t>(half - 1);
                break;
              case 3:
                src[i] = 0;
                break;
              default:
                src[i] = static_cast<std::int16_t>(i % 2 == 0 ? -half
                                                              : half - 1);
            }
          }
          // Kind 5: one element just outside the range, low or high.
          const bool refused = kind == 5 && n > 0;
          if (refused) {
            const std::size_t at = rng.uniform_index(n);
            src[at] = static_cast<std::int16_t>(at % 2 == 0 ? -half - 1 : half);
          }
          const Packed want = pack(fx::pack_planes_i16_scalar, src, bits);
          ASSERT_EQ(want.in_range, !refused);
          const std::size_t bytes = fx::PlaneLayout::row_bytes(n);
          if (!refused) {
            for (std::size_t i = 0; i < n; ++i) {
              const int u = src[i] + half;
              for (int j = 0; j < planes; ++j) {
                const int nibble =
                    (want.planes[static_cast<std::size_t>(j)][i / 2] >>
                     (4 * (i % 2))) &
                    0xF;
                ASSERT_EQ(nibble, (u >> (4 * (planes - 1 - j))) & 0xF)
                    << "element " << i << " plane " << j;
              }
            }
            if (n % 2 != 0) {
              for (const auto& plane : want.planes) {
                ASSERT_EQ(plane[bytes - 1] >> 4, 0);
              }
            }
          }
          for (auto* const kernel :
               {&fx::pack_planes_i16, table->pack_planes_i16}) {
            const Packed got = pack(*kernel, src, bits);
            EXPECT_EQ(got.in_range, want.in_range);
            ASSERT_EQ(got.planes, want.planes);  // guard bytes included
          }
          if (refused) continue;
          for (auto* const kernel :
               {&fx::unpack_planes_i16, table->unpack_planes_i16}) {
            const auto got = unpack(*kernel, want, n, bits);
            ASSERT_TRUE(std::equal(src.begin(), src.end(), got.begin()));
            for (std::size_t i = n; i < got.size(); ++i) {
              ASSERT_EQ(got[i], 0x5A5A) << "wrote past the row at " << i;
            }
          }
        }
        // Arbitrary plane bytes, high nibble of an odd tail included.
        Packed noise;
        noise.planes.assign(
            static_cast<std::size_t>(planes),
            std::vector<std::uint8_t>(fx::PlaneLayout::row_bytes(n)));
        for (auto& plane : noise.planes) {
          for (auto& byte : plane) {
            byte = static_cast<std::uint8_t>(rng.uniform_index(256));
          }
        }
        const auto want = unpack(fx::unpack_planes_i16_scalar, noise, n, bits);
        for (auto* const kernel :
             {&fx::unpack_planes_i16, table->unpack_planes_i16}) {
          ASSERT_EQ(unpack(*kernel, noise, n, bits), want)
              << "bits=" << bits << " n=" << n;
        }
      }
    }
    fx::reset_isa();
  }
}

// ---- kernel-edge regressions ------------------------------------------------

TEST(DispatchRegistry, RowAmaxNanAndSignedZeroMatchScalar) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // NaN in every alignment slot of a full vector, NaN-only rows, signed
  // zeros, infinities, and NaN in the scalar tail — the scalar fold skips
  // NaN (std::max's comparison is false), keeps +0 for -0, and returns inf
  // when present; every variant must reproduce those bits.
  std::vector<std::vector<float>> rows;
  for (std::size_t slot = 0; slot < 17; ++slot) {
    std::vector<float> row(19, 1.5f);
    row[slot] = nan;
    rows.push_back(row);
  }
  rows.push_back(std::vector<float>(16, nan));
  rows.push_back({-0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f});
  rows.push_back({1.0f, -inf, 2.0f, nan, 3.0f, inf, -4.0f, 0.5f, nan});
  rows.push_back({nan, nan, nan});  // tail-only (below every vector width)
  for (const auto& row : rows) {
    const float want = fx::row_amax_scalar(row.data(), row.size());
    for (const fx::KernelTable* table : fx::supported_kernel_tables()) {
      const float got = table->row_amax(row.data(), row.size());
      // Bit-compare so NaN==NaN counts as a match and -0 != +0 is caught.
      EXPECT_EQ(std::isnan(got), std::isnan(want)) << table->name;
      if (!std::isnan(want)) {
        EXPECT_EQ(got, want) << table->name;
        EXPECT_EQ(std::signbit(got), std::signbit(want)) << table->name;
      }
    }
  }
}

// ---- serve determinism at a forced non-default level ------------------------

TEST(DispatchServeDeterminism, ForcedNonDefaultLevelIsBitIdenticalToScalar) {
  const auto supported = fx::supported_kernel_tables();
  if (supported.size() < 2) {
    GTEST_SKIP() << "only the scalar variant runs on this CPU";
  }
  IsaGuard guard;

  serve::ServeConfig config;
  config.n_layer = 1;
  config.n_head = 2;
  config.head_dim = 16;
  config.max_batch = 4;
  config.pool_pages = 48;
  config.page_tokens = 4;
  config.backend = serve::BackendKind::token_picker;
  config.picker.estimator.threshold = 1e-3;
  config.persistence_window = 2;
  config.reclaim = true;
  config.capture_outputs = true;

  wl::PriorityMixParams mix;
  mix.arrivals.rate = 0.8;
  for (auto& m : mix.mix) {
    m.prompt_min = 4;
    m.prompt_max = 20;
    m.decode_min = 8;
    m.decode_max = 16;
  }
  Rng trace_rng(4242);
  const auto trace = wl::make_priority_mix_trace(mix, 12, trace_rng);

  ASSERT_TRUE(fx::force_isa(fx::IsaLevel::scalar));
  serve::ServeEngine scalar_run(config);
  scalar_run.submit_trace(trace);
  scalar_run.run();

  // The highest supported level — on any SIMD-capable host this is a
  // genuinely different code path for all four kernels.
  ASSERT_TRUE(fx::force_isa(supported.back()->level));
  EXPECT_NE(fx::kernel_isa_level(), fx::IsaLevel::scalar);
  serve::ServeEngine simd_run(config);
  simd_run.submit_trace(trace);
  simd_run.run();

  EXPECT_GT(scalar_run.metrics().tokens_generated, 0u);
  serve::expect_runs_identical(scalar_run, simd_run);
}

}  // namespace
}  // namespace topick
