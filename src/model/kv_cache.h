// Per-layer, per-head key/value cache for autoregressive decoding (§2.1.2).
//
// Layout: contiguous per (layer, head), token-major — k(layer, head, t) is a
// head_dim span. Attention backends read through KvHeadView, which is also the
// unit the accelerator model maps onto DRAM addresses.
//
// Lengths are tracked per layer: during a decode step, layer L appends its
// K/V before attending, so its view includes the current token while deeper
// layers still hold the previous length.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace topick {

// Read-only view over one head's cached keys and values.
struct KvHeadView {
  const float* keys = nullptr;    // (len, head_dim) row-major
  const float* values = nullptr;  // (len, head_dim) row-major
  std::size_t len = 0;
  std::size_t head_dim = 0;

  std::span<const float> key(std::size_t t) const {
    return {keys + t * head_dim, head_dim};
  }
  std::span<const float> value(std::size_t t) const {
    return {values + t * head_dim, head_dim};
  }
};

class KvCache {
 public:
  KvCache(int n_layer, int n_head, int head_dim, int max_seq);

  // Appends one token's K and V for every head of a layer. k/v are the
  // full d_model = n_head * head_dim projections, head-major.
  void append(int layer, std::span<const float> k, std::span<const float> v);

  KvHeadView head_view(int layer, int head) const;

  // Token count of a layer (layers mid-step may differ by one).
  std::size_t len(int layer) const;
  // Token count once a full decode step has completed (max over layers).
  std::size_t len() const;

  int n_layer() const { return n_layer_; }
  int n_head() const { return n_head_; }
  int head_dim() const { return head_dim_; }
  int max_seq() const { return max_seq_; }

  void clear();

 private:
  std::size_t slab_offset(int layer, int head) const;

  int n_layer_;
  int n_head_;
  int head_dim_;
  int max_seq_;
  std::vector<std::size_t> lens_;  // per-layer token counts
  std::vector<float> keys_;        // (layer, head, max_seq, head_dim)
  std::vector<float> values_;
};

}  // namespace topick
