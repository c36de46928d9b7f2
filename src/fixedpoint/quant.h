// 12-bit two's-complement quantization (Table 1: "operand precision for
// self-attention is set to 12 bits, segmented into three 4-bit chunks").
//
// Values are stored sign-extended in int16_t; the scale maps integers back to
// reals: real ~= value * scale. Scales are symmetric per-tensor.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace topick::fx {

struct QuantParams {
  int total_bits = 12;
  int chunk_bits = 4;
  float scale = 1.0f;

  int num_chunks() const { return (total_bits + chunk_bits - 1) / chunk_bits; }
  std::int32_t qmax() const { return (1 << (total_bits - 1)) - 1; }
  std::int32_t qmin() const { return -(1 << (total_bits - 1)); }
};

// A borrowed quantized row: its params plus a span of its int16 values. A
// QuantizedVector converts to one implicitly. The two's-complement oracles
// (dot_i64, fx::partial_dot_i64) take it; a stored head keeps its keys as
// nibble planes instead (QuantizedKv, core/quantized_kv_cache.h).
struct QuantizedRowView {
  QuantParams params;
  std::span<const std::int16_t> values;
};

struct QuantizedVector {
  QuantParams params;
  std::vector<std::int16_t> values;

  std::size_t size() const { return values.size(); }
  operator QuantizedRowView() const { return {params, values}; }
};

// Symmetric scale so that max|x| maps to qmax. A zero vector gets scale 1.
// NaN elements are skipped; an inf element throws std::logic_error.
float choose_scale(std::span<const float> xs, int total_bits = 12);

// Quantizes with round-to-nearest and saturation to [qmin, qmax].
QuantizedVector quantize(std::span<const float> xs, const QuantParams& params);

// Allocation-free variant: quantizes into caller scratch (values cleared,
// capacity reused). The per-query path of the attention hot loop.
void quantize_into(std::span<const float> xs, const QuantParams& params,
                   QuantizedVector* out);

// Raw-buffer quantization kernel: out[i] = saturate-round(xs[i] / scale) —
// the single implementation of the element math behind quantize/
// quantize_into and the KV-cache row path. IEEE float divide; round to
// nearest, half away from zero (lround); saturation happens in the FLOAT
// domain before any narrowing, so extreme |x|/scale ratios (tiny-scale
// head, outlier activation, inf) clamp to qmin/qmax instead of wrapping —
// the historical int32 narrowing bug. A NaN element quantizes to 0 at every
// ISA level (row_amax skips NaN when picking the scale, so one NaN neither
// poisons the scale nor escapes the [qmin, qmax] range the offset-binary
// key planes hold). quantize_row_i16 dispatches to the runtime-selected ISA
// variant (fixedpoint/dispatch.h); every SIMD variant is element-exact to
// the scalar reference — the divide is IEEE per lane, and for a float ratio
// r promoted to double d, trunc(d + copysign(0.5, d)) equals lround(d)
// exactly (d and d±0.5 are both exactly representable) — pinned in
// tests/dispatch_test.cpp over half-way, saturating and NaN/inf extremes at
// every compiled-in level.
void quantize_row_i16(const float* xs, std::size_t n,
                      const QuantParams& params, std::int16_t* out);
void quantize_row_i16_scalar(const float* xs, std::size_t n,
                             const QuantParams& params, std::int16_t* out);

// Convenience: picks the scale from the data, then quantizes.
QuantizedVector quantize_auto(std::span<const float> xs, int total_bits = 12,
                              int chunk_bits = 4);

std::vector<float> dequantize(const QuantizedVector& v);

// Exact integer dot product of two quantized vectors (int64 accumulator).
std::int64_t dot_i64(QuantizedRowView a, QuantizedRowView b);

}  // namespace topick::fx
