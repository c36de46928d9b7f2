// Reference attention implementations: exact float softmax and the 12-bit
// quantized exact path (what ToPick computes when nothing is pruned).
#pragma once

#include <span>
#include <vector>

#include "fixedpoint/quant.h"
#include "model/kv_cache.h"

namespace topick {

struct ExactAttentionResult {
  std::vector<float> output;   // head_dim
  std::vector<double> probs;   // len: full softmax probabilities
  std::vector<double> scores;  // len: pre-softmax scaled scores
};

// Full-precision float reference.
ExactAttentionResult exact_attention_f32(std::span<const float> q,
                                         const KvHeadView& kv);

// Quantized reference: Q/K/V quantized with the given precision (paper: 12-bit
// operands), scores computed exactly in integers, softmax in double. This is
// the semantics Token-Picker must match bit-for-bit at thr = 0.
ExactAttentionResult exact_attention_quantized(std::span<const float> q,
                                               const KvHeadView& kv,
                                               const fx::QuantParams& base =
                                                   fx::QuantParams{});

// Quantizes a query into `out` with its own symmetric scale at `base`'s
// precision and returns q_scale * key_scale / sqrt(q.size()): the factor that
// turns an integer q.k dot into a softmax logit.
double quantize_query(std::span<const float> q, const fx::QuantParams& base,
                      float key_scale, fx::QuantizedVector* out);

// One head's quantized K or V rows as one flat arena: `len × dim` int16
// values, row-major, and one QuantParams shared by every row (one symmetric
// scale per head, as stored on-device). `rows[t]` is a view, not a copy.
struct QuantizedRows {
  fx::QuantParams params;
  std::size_t dim = 0;
  std::vector<std::int16_t> data;

  std::size_t size() const { return dim == 0 ? 0 : data.size() / dim; }
  fx::QuantizedRowView operator[](std::size_t t) const {
    return {params, std::span<const std::int16_t>(data).subspan(t * dim, dim)};
  }
};

// A head's quantized K and V. The struct is public, so its rows need not come
// from quantize_kv(); readers take the token count from checked_len(), which
// throws unless both arenas hold equally many whole rows of width `dim`.
struct QuantizedKv {
  QuantizedRows keys;
  QuantizedRows values;

  std::size_t checked_len(std::size_t dim) const;
};
QuantizedKv quantize_kv(const KvHeadView& kv, const fx::QuantParams& base);

}  // namespace topick
