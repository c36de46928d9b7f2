#include "fixedpoint/quant.h"

#include <cmath>

#include "common/require.h"
#include "fixedpoint/dispatch.h"

namespace topick::fx {

float choose_scale(std::span<const float> xs, int total_bits) {
  // row_amax dispatches to the active ISA table; every variant is exact
  // (max has no rounding), so the scale is independent of the selection.
  // row_amax skips NaN, so only an inf element leaves the max non-finite;
  // its scale would be inf and every quantized value would divide to NaN.
  const float amax = row_amax(xs);
  require(std::isfinite(amax), "choose_scale: inf value cannot be quantized");
  if (amax == 0.0f) return 1.0f;
  const auto qmax = static_cast<float>((1 << (total_bits - 1)) - 1);
  return amax / qmax;
}

QuantizedVector quantize(std::span<const float> xs, const QuantParams& params) {
  QuantizedVector out;
  quantize_into(xs, params, &out);
  return out;
}

void quantize_into(std::span<const float> xs, const QuantParams& params,
                   QuantizedVector* out) {
  require(params.total_bits >= 2 && params.total_bits <= 15,
          "quantize: total_bits must be in [2, 15] for int16 storage");
  require(params.chunk_bits >= 1 && params.chunk_bits <= params.total_bits,
          "quantize: chunk_bits must be in [1, total_bits]");
  require(params.scale > 0.0f, "quantize: scale must be positive");

  out->params = params;
  out->values.resize(xs.size());
  quantize_row_i16(xs.data(), xs.size(), params, out->values.data());
}

// The scalar reference implementation lives in kernels_scalar.cpp (the
// element math is the registry's oracle); this wrapper dispatches to the
// active ISA variant. Tiny rows skip the table — for n < 8 no variant has a
// full vector of work and the scalar loop is the same bits anyway.
void quantize_row_i16(const float* xs, std::size_t n,
                      const QuantParams& params, std::int16_t* out) {
  if (n < 8) {
    quantize_row_i16_scalar(xs, n, params, out);
    return;
  }
  active_kernels().quantize_row_i16(xs, n, params, out);
}

QuantizedVector quantize_auto(std::span<const float> xs, int total_bits,
                              int chunk_bits) {
  QuantParams params;
  params.total_bits = total_bits;
  params.chunk_bits = chunk_bits;
  params.scale = choose_scale(xs, total_bits);
  return quantize(xs, params);
}

std::vector<float> dequantize(const QuantizedVector& v) {
  std::vector<float> out;
  out.reserve(v.values.size());
  for (auto q : v.values) out.push_back(static_cast<float>(q) * v.params.scale);
  return out;
}

std::int64_t dot_i64(QuantizedRowView a, QuantizedRowView b) {
  require(a.values.size() == b.values.size(), "dot_i64: length mismatch");
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    acc += static_cast<std::int64_t>(a.values[i]) * b.values[i];
  }
  return acc;
}

}  // namespace topick::fx
