// Fixed-size-page KV accounting pool shared by every in-flight request
// (vLLM-style paged attention, adapted to Token-Picker).
//
// The serving motivation in the paper's §1 is that per-request KV residency —
// not weights — bounds batch size and DRAM traffic. A paged pool makes
// Token-Picker's pruning *reclaim* that residency: when every token in a full
// page has been persistently pruned (core/token_picker.h's PrunePersistence)
// and evicted from the head's quantized cache, whose id list no longer
// touches the page, the page returns to the free list and a new request's
// tokens move in.
//
// A page is a budget of `page_tokens` token slots of one head; it holds no
// floats. Requests own pages through PagedSequence (paged_sequence.h), which
// only accounts which of its tokens' pages are held.
// The pool tracks the free list, occupancy, the high-water mark, and how many
// allocations were served from previously-used pages — the numbers the
// acceptance scenario and the serving bench report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace topick::serve {

struct PagedPoolConfig {
  std::size_t num_pages = 1024;
  std::size_t page_tokens = 8;  // tokens per page
};

class PagedKvPool {
 public:
  using PageId = std::uint32_t;
  static constexpr PageId kInvalidPage = 0xffffffffu;

  explicit PagedKvPool(const PagedPoolConfig& config);

  // Returns kInvalidPage when the pool is exhausted.
  PageId alloc_page();
  void free_page(PageId page);

  std::size_t pages_total() const { return config_.num_pages; }
  std::size_t pages_free() const { return free_list_.size(); }
  std::size_t pages_in_use() const {
    return config_.num_pages - free_list_.size();
  }
  // High-water mark of pages_in_use since construction.
  std::size_t peak_pages_in_use() const { return peak_in_use_; }
  // Never divides by zero: the constructor requires a non-empty pool
  // (num_pages and page_tokens positive), so a zero-page config throws at
  // construction instead of silently poisoning FleetMetrics aggregates with
  // NaN here (tests/serve_test.cpp pins the edge cases).
  double occupancy() const {
    return static_cast<double>(pages_in_use()) /
           static_cast<double>(config_.num_pages);
  }

  std::uint64_t allocs() const { return allocs_; }
  std::uint64_t frees() const { return frees_; }
  // Allocations served from a page some earlier sequence had used and freed —
  // nonzero iff reclamation/retirement actually recycled storage.
  std::uint64_t reuses() const { return reuses_; }

  const PagedPoolConfig& config() const { return config_; }

 private:
  PagedPoolConfig config_;
  std::vector<PageId> free_list_;
  std::vector<bool> ever_used_;
  std::vector<bool> in_use_;
  std::size_t peak_in_use_ = 0;
  std::uint64_t allocs_ = 0;
  std::uint64_t frees_ = 0;
  std::uint64_t reuses_ = 0;
};

}  // namespace topick::serve
