// Scalar reference kernels — the portable TU every build compiles (no arch
// flags) and the equivalence oracle every SIMD variant in this directory is
// tested against. The element math here DEFINES the contract: a variant
// that disagrees with any function in this file on any input is a bug, not
// a rounding difference (see fixedpoint/dispatch.h).
#include <algorithm>
#include <cmath>

#include "fixedpoint/kernels.h"

namespace topick::fx {

std::int64_t row_dot_i64_scalar(const std::int16_t* a, const std::int16_t* b,
                                std::size_t n) {
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return acc;
}

void weighted_value_accum_scalar(float* out, const std::int16_t* v, double p,
                                 double v_scale, std::size_t n) {
  // Per element: double mul, double mul, round-to-float, float add — SIMD
  // variants replicate exactly this sequence per lane.
  for (std::size_t d = 0; d < n; ++d) {
    out[d] += static_cast<float>(p * static_cast<double>(v[d]) * v_scale);
  }
}

// The scalar quantize reference: see the narrowing-bug note in quant.h — the
// clamp runs in the float domain BEFORE lround so extreme ratios saturate,
// and lround is never handed a value outside long range (where its result is
// unspecified). NaN maps to 0 explicitly (see quant.h). For every in-range
// ratio the result is bit-identical to the historical path
// (tests/fixedpoint_test.cpp pins the extremes).
void quantize_row_i16_scalar(const float* xs, std::size_t n,
                             const QuantParams& params, std::int16_t* out) {
  const auto fmax = static_cast<float>(params.qmax());
  const auto fmin = static_cast<float>(params.qmin());
  for (std::size_t i = 0; i < n; ++i) {
    const float ratio = xs[i] / params.scale;
    if (std::isnan(ratio)) {
      out[i] = 0;
    } else if (ratio >= fmax) {
      out[i] = static_cast<std::int16_t>(params.qmax());
    } else if (ratio <= fmin) {
      out[i] = static_cast<std::int16_t>(params.qmin());
    } else {
      out[i] = static_cast<std::int16_t>(std::lround(ratio));
    }
  }
}

// The int-domain rescale reference. Magnitude-first so the rounding is
// half-away-from-zero like lround: (|q| * mantissa + 2^(shift-1)) >> shift,
// sign restored afterward, then the clamp (an evict-shrink ratio > 1 can
// push a row past the new grid's qmax). Everything fits int64: |q| <= 2^15,
// mantissa < 2^32, so the product is < 2^47 and half <= 2^61.
void rescale_row_i16_scalar(const std::int16_t* src, std::size_t n,
                            FixedRatio ratio, std::int32_t qmin,
                            std::int32_t qmax, std::int16_t* out) {
  const auto m = static_cast<std::int64_t>(ratio.mantissa);
  const std::int64_t half =
      ratio.shift > 0 ? (std::int64_t{1} << (ratio.shift - 1)) : 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t q = src[i];
    const std::int64_t mag = (q < 0 ? -q : q) * m;
    std::int64_t r = (mag + half) >> ratio.shift;
    if (q < 0) r = -r;
    if (r > qmax) r = qmax;
    if (r < qmin) r = qmin;
    out[i] = static_cast<std::int16_t>(r);
  }
}

std::int64_t nibble_dot_i64_scalar(const std::int16_t* q,
                                   const std::uint8_t* nibbles,
                                   std::uint8_t mask, std::size_t n) {
  // One byte per step: element 2j is its low nibble, 2j + 1 its high one.
  const std::int32_t m = mask & 0xF;
  std::int64_t acc = 0;
  std::size_t j = 0;
  for (; 2 * j + 1 < n; ++j) {
    acc += q[2 * j] * (nibbles[j] & m) + q[2 * j + 1] * ((nibbles[j] >> 4) & m);
  }
  if (2 * j < n) acc += q[2 * j] * (nibbles[j] & m);
  return acc;
}

float row_amax_scalar(const float* xs, std::size_t n) {
  // std::max(amax, NaN) keeps amax (the comparison is false), so NaN
  // elements are skipped; |−0.0| folds to +0.0. SIMD variants order their
  // max operands to reproduce exactly this (maxps returns the SECOND operand
  // when either is NaN, so the running max goes second).
  float amax = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    amax = std::max(amax, std::abs(xs[i]));
  }
  return amax;
}

namespace detail {

const KernelTable& scalar_kernels() {
  static constexpr KernelTable table = {
      IsaLevel::scalar,        "scalar",
      row_dot_i64_scalar,      weighted_value_accum_scalar,
      quantize_row_i16_scalar, row_amax_scalar,
      rescale_row_i16_scalar,  nibble_dot_i64_scalar,
  };
  return table;
}

}  // namespace detail
}  // namespace topick::fx
