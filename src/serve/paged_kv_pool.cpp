#include "serve/paged_kv_pool.h"

#include <algorithm>

#include "common/require.h"

namespace topick::serve {

PagedKvPool::PagedKvPool(const PagedPoolConfig& config) : config_(config) {
  require(config.num_pages > 0 && config.page_tokens > 0,
          "PagedKvPool: dimensions must be positive");
  // Low page ids pop first so address streams stay compact.
  free_list_.resize(config.num_pages);
  for (std::size_t i = 0; i < config.num_pages; ++i) {
    free_list_[i] = static_cast<PageId>(config.num_pages - 1 - i);
  }
  ever_used_.assign(config.num_pages, false);
  in_use_.assign(config.num_pages, false);
}

PagedKvPool::PageId PagedKvPool::alloc_page() {
  if (free_list_.empty()) return kInvalidPage;
  const PageId page = free_list_.back();
  free_list_.pop_back();
  ++allocs_;
  if (ever_used_[page]) ++reuses_;
  ever_used_[page] = true;
  in_use_[page] = true;
  peak_in_use_ = std::max(peak_in_use_, pages_in_use());
  return page;
}

void PagedKvPool::free_page(PageId page) {
  require(page < config_.num_pages, "PagedKvPool: bad page id");
  require(in_use_[page], "PagedKvPool: double free");
  in_use_[page] = false;
  free_list_.push_back(page);
  ++frees_;
}

}  // namespace topick::serve
