#include "serve/paged_sequence.h"

#include <utility>

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
      appended_(other.appended_),
      pages_held_(other.pages_held_) {
  other.pages_.clear();
  other.appended_ = 0;
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
    ++pages_held_;
  }
  ++appended_;
  return true;
}

std::size_t PagedSequence::sweep(std::span<const std::size_t> live_ids) {
  const std::size_t page_tokens = pool_->config().page_tokens;
  // Logical pages strictly before this one are full.
  const std::size_t full_pages = appended_ / page_tokens;
  std::size_t freed = 0;
  std::size_t next = 0;  // first listed id not yet walked
  for (std::size_t p = 0; p < full_pages; ++p) {
    const std::size_t page_end = (p + 1) * page_tokens;
    bool has_live = false;
    for (; next < live_ids.size() && live_ids[next] < page_end; ++next) {
      require(next == 0 || live_ids[next - 1] < live_ids[next],
              "PagedSequence::sweep: live ids must be strictly ascending");
      has_live = true;
    }
    if (pages_[p] == PagedKvPool::kInvalidPage) {
      require(!has_live, "PagedSequence::sweep: a live id's page was freed");
    } else if (!has_live) {
      pool_->free_page(pages_[p]);
      pages_[p] = PagedKvPool::kInvalidPage;
      --pages_held_;
      ++freed;
    }
  }
  return freed;
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
  appended_ = 0;
  pages_held_ = 0;
}

void PagedRescaleSource::fill_rows(std::span<const std::size_t> ids,
                                   float* keys, float* values) const {
  for (const std::size_t id : ids) seq_->require_resident(id);
  stream_->fill_rows(layer_, head_, ids, keys, values);
}

}  // namespace topick::serve
