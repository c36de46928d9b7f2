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

// Page-indexed read-only view over one head's live tokens. View position t
// (chronological over live tokens) resolves through slots[t] = page * page_tokens
// + slot_in_page, so pages need not be contiguous in memory and reclaimed
// tokens leave no holes in the view. Produced both by the contiguous KvCache
// (trivial identity paging) and by a serve PagedSequence (the held pages of
// its bound rows; swept pages drop out of the table).
struct PagedHeadView {
  std::vector<const float*> key_pages;    // each page: (page_tokens, head_dim)
  std::vector<const float*> value_pages;
  std::vector<std::size_t> slots;         // per view token: page*page_tokens+slot
  std::size_t head_dim = 0;
  std::size_t page_tokens = 0;

  std::size_t len() const { return slots.size(); }

  std::span<const float> key(std::size_t t) const {
    const std::size_t s = slots[t];
    return {key_pages[s / page_tokens] + (s % page_tokens) * head_dim,
            head_dim};
  }
  std::span<const float> value(std::size_t t) const {
    const std::size_t s = slots[t];
    return {value_pages[s / page_tokens] + (s % page_tokens) * head_dim,
            head_dim};
  }

  // Gathers live tokens into contiguous caller scratch (resized as needed)
  // and returns a KvHeadView over it — the unit attention backends consume.
  KvHeadView gather(std::vector<float>& key_scratch,
                    std::vector<float>& value_scratch) const;
};

class KvCache {
 public:
  KvCache(int n_layer, int n_head, int head_dim, int max_seq);

  // Appends one token's K and V for every head of a layer. k/v are the
  // full d_model = n_head * head_dim projections, head-major.
  void append(int layer, std::span<const float> k, std::span<const float> v);

  KvHeadView head_view(int layer, int head) const;

  // Page-indexed view of the same storage: the head's contiguous slab sliced
  // into page_tokens-sized pages (the last page may be partially filled).
  PagedHeadView paged_head_view(int layer, int head,
                                std::size_t page_tokens) const;

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
