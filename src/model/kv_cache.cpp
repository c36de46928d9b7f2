#include "model/kv_cache.h"

#include <algorithm>

#include "common/require.h"

namespace topick {

KvCache::KvCache(int n_layer, int n_head, int head_dim, int max_seq)
    : n_layer_(n_layer),
      n_head_(n_head),
      head_dim_(head_dim),
      max_seq_(max_seq),
      lens_(static_cast<std::size_t>(n_layer), 0) {
  require(n_layer > 0 && n_head > 0 && head_dim > 0 && max_seq > 0,
          "KvCache: dimensions must be positive");
  const auto slab =
      static_cast<std::size_t>(n_layer) * n_head * max_seq * head_dim;
  keys_.assign(slab, 0.0f);
  values_.assign(slab, 0.0f);
}

std::size_t KvCache::slab_offset(int layer, int head) const {
  require(layer >= 0 && layer < n_layer_, "KvCache: layer out of range");
  require(head >= 0 && head < n_head_, "KvCache: head out of range");
  return (static_cast<std::size_t>(layer) * n_head_ + head) *
         static_cast<std::size_t>(max_seq_) * head_dim_;
}

void KvCache::append(int layer, std::span<const float> k,
                     std::span<const float> v) {
  require(k.size() == static_cast<std::size_t>(n_head_ * head_dim_) &&
              v.size() == k.size(),
          "KvCache::append: expected full d_model projections");
  auto& len = lens_[static_cast<std::size_t>(layer)];
  require(len < static_cast<std::size_t>(max_seq_), "KvCache: cache full");

  for (int h = 0; h < n_head_; ++h) {
    const auto base = slab_offset(layer, h) + len * head_dim_;
    for (int d = 0; d < head_dim_; ++d) {
      keys_[base + d] = k[static_cast<std::size_t>(h * head_dim_ + d)];
      values_[base + d] = v[static_cast<std::size_t>(h * head_dim_ + d)];
    }
  }
  ++len;
}

KvHeadView KvCache::head_view(int layer, int head) const {
  KvHeadView view;
  const auto base = slab_offset(layer, head);
  view.keys = keys_.data() + base;
  view.values = values_.data() + base;
  view.len = lens_[static_cast<std::size_t>(layer)];
  view.head_dim = static_cast<std::size_t>(head_dim_);
  return view;
}

std::size_t KvCache::len(int layer) const {
  require(layer >= 0 && layer < n_layer_, "KvCache: layer out of range");
  return lens_[static_cast<std::size_t>(layer)];
}

std::size_t KvCache::len() const {
  return *std::max_element(lens_.begin(), lens_.end());
}

void KvCache::clear() {
  std::fill(lens_.begin(), lens_.end(), 0);
}

}  // namespace topick
