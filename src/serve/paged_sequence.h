// One head's growing token stream accounted on pool pages — the paged
// counterpart of one of model/kv_cache.h's contiguous per-(layer, head)
// slabs. ServeEngine keeps one per (layer, head) of a running request, beside
// that head's quantized cache and prune-persistence tracker.
//
// A sequence is page accounting only: it holds no K/V rows and no per-token
// state. Appending token t charges t's page slot to the pool. Tokens keep
// their stable chronological id for life. Which of them are live is the
// head's QuantizedKvCache id list alone. The worker that attends the head
// evicts from that cache; the engine's serial reduce then hands the cache's
// id list to sweep(), which returns every held *full* page holding no listed
// id to the shared pool, after which its ids are no longer resident.
// Attention never reads through the sequence: its whole-head rescales
// regenerate rows from the request's DecodeStream through a
// PagedRescaleSource, which refuses any id the sequence does not hold.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/quantized_kv_cache.h"
#include "serve/paged_kv_pool.h"
#include "workload/decode_stream.h"

namespace topick::serve {

class PagedSequence {
 public:
  // `capacity` is the number of tokens the sequence may append (the
  // request's stream length).
  PagedSequence(PagedKvPool* pool, std::size_t capacity);
  ~PagedSequence();

  PagedSequence(const PagedSequence&) = delete;
  PagedSequence& operator=(const PagedSequence&) = delete;
  PagedSequence(PagedSequence&& other) noexcept;
  PagedSequence& operator=(PagedSequence&&) = delete;

  // Appends the next token (stable id = appended_tokens() before the call).
  // Returns false, changing nothing, when the pool can't supply a page;
  // throws once `capacity` tokens are appended.
  bool append();

  // Frees every held *full* page that holds none of `live_ids` (the live
  // token ids, strictly ascending; throws otherwise, or when a listed id
  // lies on a page already freed). The partially-filled tail page is never
  // freed: appends still land there. Returns the number of pages freed.
  std::size_t sweep(std::span<const std::size_t> live_ids);

  // Throws unless token_id is appended and its page is still held. Every
  // live id is resident (sweep frees only pages without one, never the
  // tail), and the engine orders eviction rescales before sweep(), so
  // rescale-time lookups of survivors land on resident pages.
  void require_resident(std::size_t token_id) const;

  std::size_t appended_tokens() const { return appended_; }
  std::size_t pages_held() const { return pages_held_; }

  // Frees every page (request retired or preempted). The sequence resets to
  // empty and may be appended to again (preemption-recompute).
  void release_all();

 private:
  PagedKvPool* pool_;
  std::size_t capacity_;
  // Logical page p holds token ids [p*page_tokens, (p+1)*page_tokens); a
  // reclaimed logical page keeps its slot with kInvalidPage.
  std::vector<PagedKvPool::PageId> pages_;
  std::size_t appended_ = 0;
  std::size_t pages_held_ = 0;
};

// RescaleSource over one (layer, head) of a request: QuantizedKvCache's
// stable ids == PagedSequence token ids == stream token ids, so a
// whole-head rescale regenerates its floats from the stream's checkpoints,
// after the sequence confirmed every id is resident. Non-owning and
// short-lived: ServeEngine's attention unit builds one on its stack for the
// cache calls it makes, so the sequence and the stream outlive it.
class PagedRescaleSource final : public RescaleSource {
 public:
  PagedRescaleSource(const PagedSequence& seq, const wl::DecodeStream& stream,
                     int layer, int head)
      : seq_(seq), stream_(stream), layer_(layer), head_(head) {}
  void fill_rows(std::span<const std::size_t> ids, float* keys,
                 float* values) const override;

 private:
  const PagedSequence& seq_;
  const wl::DecodeStream& stream_;
  int layer_;
  int head_;
};

}  // namespace topick::serve
