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
// operands) by quantize_kv(), scores computed exactly in integers from the
// key planes (QuantizedKvView::key_dot), softmax in double. This is the
// semantics Token-Picker must match bit-for-bit at thr = 0; it is
// exact_attention_view() over a from-scratch quantized head.
ExactAttentionResult exact_attention_quantized(std::span<const float> q,
                                               const KvHeadView& kv,
                                               const fx::QuantParams& base =
                                                   fx::QuantParams{});

// Quantizes a query into `out` with its own symmetric scale at `base`'s
// precision and returns q_scale * key_scale / sqrt(q.size()): the factor that
// turns an integer q.k dot into a softmax logit.
double quantize_query(std::span<const float> q, const fx::QuantParams& base,
                      float key_scale, fx::QuantizedVector* out);

}  // namespace topick
