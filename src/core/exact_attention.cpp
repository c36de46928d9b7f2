#include "core/exact_attention.h"

#include <cmath>
#include <utility>

#include "common/expsum.h"
#include "common/require.h"

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

std::size_t QuantizedKv::checked_len(std::size_t dim) const {
  require(keys.dim == dim && values.dim == dim,
          "QuantizedKv: K/V row width differs from the query");
  const std::size_t len = keys.size();
  require(keys.data.size() == len * dim && values.data.size() == len * dim,
          "QuantizedKv: K/V length mismatch");
  return len;
}

QuantizedKv quantize_kv(const KvHeadView& kv, const fx::QuantParams& base) {
  // Per arena: the shared scale over all len × head_dim contiguous floats,
  // then one quantize pass over the whole head.
  const auto arena = [&](const float* xs) {
    const std::span<const float> all(xs, kv.len * kv.head_dim);
    fx::QuantParams params = base;
    params.scale = fx::choose_scale(all, base.total_bits);
    fx::QuantizedVector q = fx::quantize(all, params);
    return QuantizedRows{q.params, kv.head_dim, std::move(q.values)};
  };
  return {arena(kv.keys), arena(kv.values)};
}

ExactAttentionResult exact_attention_quantized(std::span<const float> q,
                                               const KvHeadView& kv,
                                               const fx::QuantParams& base) {
  require(kv.len > 0, "exact_attention_quantized: empty KV view");
  require(q.size() == kv.head_dim, "exact_attention_quantized: q size");

  const QuantizedKv qkv = quantize_kv(kv, base);
  fx::QuantizedVector qq;
  const double score_scale =
      quantize_query(q, base, qkv.keys.params.scale, &qq);

  ExactAttentionResult result;
  result.scores.resize(kv.len);
  for (std::size_t t = 0; t < kv.len; ++t) {
    result.scores[t] =
        static_cast<double>(fx::dot_i64(qq, qkv.keys[t])) * score_scale;
  }

  const double log_denom = log_sum_exp(result.scores.data(), kv.len);
  result.probs.resize(kv.len);
  for (std::size_t t = 0; t < kv.len; ++t) {
    result.probs[t] = std::exp(result.scores[t] - log_denom);
  }

  result.output.assign(kv.head_dim, 0.0f);
  const float v_scale = qkv.values.params.scale;
  for (std::size_t t = 0; t < kv.len; ++t) {
    const auto value = qkv.values[t];
    const auto p = result.probs[t];
    for (std::size_t d = 0; d < kv.head_dim; ++d) {
      result.output[d] += static_cast<float>(
          p * static_cast<double>(value.values[d]) * v_scale);
    }
  }
  return result;
}

}  // namespace topick
