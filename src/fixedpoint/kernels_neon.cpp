// NEON kernel variants. NEON is baseline on aarch64, so this TU needs no
// per-file flags — it gates on __ARM_NEON directly and the registry includes
// it whenever the toolchain defines it. Only the kernels with a proven NEON
// win carry vector code (row_dot_i64 from PR 5, plus the amax reduction);
// weighted_value_accum and quantize_row_i16 point at the scalar references —
// their element contract is double-precision mul/round sequences that NEON
// (pre-SVE) has no exact twin for at a worthwhile width, and this host-side
// simulator's ARM builds are correctness targets, not perf targets.
#if defined(__ARM_NEON)

#include <arm_neon.h>

#include "fixedpoint/kernels.h"

namespace topick::fx::detail {
namespace {

std::int64_t row_dot_i64_neon(const std::int16_t* a, const std::int16_t* b,
                              std::size_t n) {
  // vmull widens int16 products to exact int32; vpadal folds them pairwise
  // into int64 accumulators. Exact for every int16 input.
  int64x2_t acc = vdupq_n_s64(0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int16x8_t va = vld1q_s16(a + i);
    const int16x8_t vb = vld1q_s16(b + i);
    acc = vpadalq_s32(acc, vmull_s16(vget_low_s16(va), vget_low_s16(vb)));
    acc = vpadalq_s32(acc, vmull_s16(vget_high_s16(va), vget_high_s16(vb)));
  }
  std::int64_t sum = vgetq_lane_s64(acc, 0) + vgetq_lane_s64(acc, 1);
  for (; i < n; ++i) {
    sum += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return sum;
}

#if defined(__aarch64__)
float row_amax_neon(const float* xs, std::size_t n) {
  // Exact (max over |x|, no rounding). vmaxnmq implements IEEE maxNum: a NaN
  // operand yields the other (numeric) operand, which reproduces the scalar
  // std::max(amax, NaN)-keeps-amax fold for NaN elements regardless of
  // operand order.
  float32x4_t vmax = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vmax = vmaxnmq_f32(vmax, vabsq_f32(vld1q_f32(xs + i)));
  }
  float lanes[4];
  vst1q_f32(lanes, vmax);
  float amax = 0.0f;
  for (const float lane : lanes) amax = amax < lane ? lane : amax;
  for (; i < n; ++i) {
    const float a = xs[i] < 0.0f ? -xs[i] : xs[i];
    amax = amax < a ? a : amax;
  }
  return amax;
}
#endif  // __aarch64__

}  // namespace

const KernelTable& neon_kernels() {
  static constexpr KernelTable table = {
      IsaLevel::neon,
      "neon",
      row_dot_i64_neon,
      weighted_value_accum_scalar,
      quantize_row_i16_scalar,
      // vmaxnm (IEEE maxNum, the NaN-skipping max the scalar fold needs) is
      // an ARMv8 instruction; 32-bit NEON's vmax propagates NaN instead, so
      // armv7 builds keep the scalar reduction.
#if defined(__aarch64__)
      row_amax_neon,
#else
      row_amax_scalar,
#endif
      // rescale_row_i16 needs 32x32->64 unsigned multiplies per element;
      // NEON's vmull_u32 covers it, but the kernel only runs on whole-head
      // rescales (rare by design) and ARM builds here are correctness
      // targets — the scalar reference stays.
      rescale_row_i16_scalar,
      // nibble_dot_i64 is a widening int16 x nibble dot; the scalar loop is
      // the ARM path for the same correctness-target reason.
      nibble_dot_i64_scalar,
      // The plane pack/unpack are integer bit moves; the scalar loops are
      // the ARM path for the same reason.
      pack_planes_i16_scalar,
      unpack_planes_i16_scalar,
  };
  return table;
}

}  // namespace topick::fx::detail

#endif  // __ARM_NEON
