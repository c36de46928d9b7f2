#include "serve/paged_sequence.h"

#include <algorithm>

#include "common/require.h"

namespace topick::serve {

PagedSequence::PagedSequence(PagedKvPool* pool, std::size_t capacity)
    : pool_(pool), capacity_(capacity) {
  require(pool != nullptr, "PagedSequence: null pool");
}

PagedSequence::~PagedSequence() { release_all(); }

PagedSequence::PagedSequence(PagedSequence&& other) noexcept
    : pool_(other.pool_),
      capacity_(other.capacity_),
      pages_(std::move(other.pages_)),
      page_live_(std::move(other.page_live_)),
      live_(std::move(other.live_)),
      appended_(other.appended_),
      live_count_(other.live_count_),
      pages_held_(other.pages_held_) {
  other.pages_.clear();
  other.page_live_.clear();
  other.live_.clear();
  other.appended_ = 0;
  other.live_count_ = 0;
  other.pages_held_ = 0;
}

bool PagedSequence::append() {
  require(appended_ < capacity_,
          "PagedSequence::append: the sequence is at capacity");
  const std::size_t page_tokens = pool_->config().page_tokens;
  if (appended_ % page_tokens == 0) {
    const auto page = pool_->alloc_page();
    if (page == PagedKvPool::kInvalidPage) return false;
    pages_.push_back(page);
    page_live_.push_back(0);
    ++pages_held_;
  }
  live_.push_back(true);
  ++page_live_[appended_ / page_tokens];
  ++appended_;
  ++live_count_;
  return true;
}

void PagedSequence::mark_dead(std::size_t token_id) {
  require(token_id < appended_, "PagedSequence: token id out of range");
  if (!live_[token_id]) return;
  live_[token_id] = false;
  --live_count_;
  --page_live_[token_id / pool_->config().page_tokens];
}

std::size_t PagedSequence::sweep() {
  const std::size_t page_tokens = pool_->config().page_tokens;
  // Logical pages strictly before this one are full.
  const std::size_t full_pages = appended_ / page_tokens;
  std::size_t freed = 0;
  for (std::size_t p = 0; p < std::min(full_pages, pages_.size()); ++p) {
    if (pages_[p] != PagedKvPool::kInvalidPage && page_live_[p] == 0) {
      pool_->free_page(pages_[p]);
      pages_[p] = PagedKvPool::kInvalidPage;
      --pages_held_;
      ++freed;
    }
  }
  return freed;
}

bool PagedSequence::live(std::size_t token_id) const {
  return token_id < appended_ && live_[token_id];
}

void PagedSequence::require_resident(std::size_t token_id) const {
  require(token_id < appended_, "PagedSequence: row id out of range");
  require(pages_[token_id / pool_->config().page_tokens] !=
              PagedKvPool::kInvalidPage,
          "PagedSequence: token's page not resident");
}

void PagedSequence::release_all() {
  for (const auto page : pages_) {
    if (page != PagedKvPool::kInvalidPage) pool_->free_page(page);
  }
  pages_.clear();
  page_live_.clear();
  live_.clear();
  appended_ = 0;
  live_count_ = 0;
  pages_held_ = 0;
}

void PagedRescaleSource::fill_rows(std::span<const std::size_t> ids,
                                   float* keys, float* values) const {
  for (const std::size_t id : ids) seq_->require_resident(id);
  stream_->fill_rows(layer_, head_, ids, keys, values);
}

PagedKvCache::PagedKvCache(PagedKvPool* pool, int n_layer, int n_head,
                           std::size_t capacity)
    : pool_(pool), n_layer_(n_layer), n_head_(n_head) {
  require(n_layer_ > 0 && n_head_ > 0, "PagedKvCache: bad shape");
  const std::size_t n = static_cast<std::size_t>(n_layer_) * n_head_;
  seqs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) seqs_.emplace_back(pool, capacity);
}

std::size_t PagedKvCache::pages_held() const {
  std::size_t total = 0;
  for (const auto& s : seqs_) total += s.pages_held();
  return total;
}

std::size_t PagedKvCache::live_tokens() const {
  std::size_t total = 0;
  for (const auto& s : seqs_) total += s.live_tokens();
  return total;
}

double PagedKvCache::fragmentation() const {
  const std::size_t allocated_slots =
      pages_held() * pool_->config().page_tokens;
  if (allocated_slots == 0) return 0.0;
  return 1.0 - static_cast<double>(live_tokens()) /
                   static_cast<double>(allocated_slots);
}

void PagedKvCache::release_all() {
  for (auto& s : seqs_) s.release_all();
}

}  // namespace topick::serve
