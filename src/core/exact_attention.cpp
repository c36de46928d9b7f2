#include "core/exact_attention.h"

#include <cmath>

#include "common/expsum.h"
#include "common/require.h"
#include "core/quantized_kv_cache.h"

namespace topick {

ExactAttentionResult exact_attention_f32(std::span<const float> q,
                                         const KvHeadView& kv) {
  require(kv.len > 0, "exact_attention: empty KV view");
  require(q.size() == kv.head_dim, "exact_attention: q size mismatch");

  ExactAttentionResult result;
  result.scores.resize(kv.len);
  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(kv.head_dim));
  for (std::size_t t = 0; t < kv.len; ++t) {
    auto key = kv.key(t);
    double acc = 0.0;
    for (std::size_t d = 0; d < kv.head_dim; ++d) {
      acc += static_cast<double>(q[d]) * key[d];
    }
    result.scores[t] = acc * inv_sqrt_d;
  }

  const double log_denom = log_sum_exp(result.scores.data(), kv.len);
  result.probs.resize(kv.len);
  for (std::size_t t = 0; t < kv.len; ++t) {
    result.probs[t] = std::exp(result.scores[t] - log_denom);
  }

  result.output.assign(kv.head_dim, 0.0f);
  for (std::size_t t = 0; t < kv.len; ++t) {
    auto value = kv.value(t);
    const auto p = static_cast<float>(result.probs[t]);
    for (std::size_t d = 0; d < kv.head_dim; ++d) {
      result.output[d] += p * value[d];
    }
  }
  return result;
}

double quantize_query(std::span<const float> q, const fx::QuantParams& base,
                      float key_scale, fx::QuantizedVector* out) {
  fx::QuantParams qp = base;
  qp.scale = fx::choose_scale(q, base.total_bits);
  fx::quantize_into(q, qp, out);
  return static_cast<double>(qp.scale) * key_scale /
         std::sqrt(static_cast<double>(q.size()));
}

ExactAttentionResult exact_attention_quantized(std::span<const float> q,
                                               const KvHeadView& kv,
                                               const fx::QuantParams& base) {
  return exact_attention_view(q, quantize_kv(kv, base).view());
}

}  // namespace topick
