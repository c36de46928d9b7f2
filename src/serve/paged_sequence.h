// One head's growing token stream accounted on pool pages, plus the
// per-request bundle of sequences (PagedKvCache) — the paged counterpart of
// model/kv_cache.h's contiguous per-(layer, head) slabs.
//
// A sequence is bound to immutable K/V rows (the request's DecodeStream head)
// and never copies them: appending token t charges t's page slot to the pool
// and makes row t readable. Tokens keep their stable chronological id (= row
// index) for life; pruning marks them dead in place (no compaction inside
// pages), and a *full* page whose live count hits zero is returned to the
// pool, after which its rows read as not resident. Attention never reads
// through the sequence: the engine's QuantizedKvCache holds the live set,
// and the sequence serves its whole-head rescales (PagedRescaleSource).
#pragma once

#include <cstddef>
#include <vector>

#include "core/quantized_kv_cache.h"
#include "model/kv_cache.h"
#include "serve/paged_kv_pool.h"
#include "workload/decode_stream.h"

namespace topick::serve {

class PagedSequence {
 public:
  // `rows` holds the K/V of every token the sequence may append, token id =
  // row index. The sequence keeps only the pointers: the rows must stay at
  // the same address for the sequence's lifetime.
  PagedSequence(PagedKvPool* pool, KvHeadView rows);
  ~PagedSequence();

  PagedSequence(const PagedSequence&) = delete;
  PagedSequence& operator=(const PagedSequence&) = delete;
  PagedSequence(PagedSequence&& other) noexcept;
  PagedSequence& operator=(PagedSequence&&) = delete;

  // Appends the next bound row (stable id = appended_tokens() before the
  // call). Returns false, changing nothing, when the pool can't supply a
  // page; throws once every bound row is appended.
  bool append();

  // Marks a token dead (persistently pruned). Storage is reclaimed by
  // sweep(), which frees every *full* page with no live tokens left; the
  // partially-filled tail page is never freed (appends still land there).
  void mark_dead(std::size_t token_id);
  // Returns the number of pages returned to the pool.
  std::size_t sweep();

  bool live(std::size_t token_id) const;

  // Direct float-row access by stable id into the bound rows — the
  // serve-side rescale source (QuantizedKvCache keeps no mirror). Throws for
  // an id not yet appended or on a page already swept. Every live id is
  // resident (only fully-dead full pages are freed, never the tail), and the
  // engine orders eviction rescales before sweep(), so rescale-time lookups
  // of survivors land on resident pages.
  const float* key_row(std::size_t token_id) const;
  const float* value_row(std::size_t token_id) const;

  std::size_t appended_tokens() const { return appended_; }
  std::size_t live_tokens() const { return live_count_; }
  std::size_t pages_held() const { return pages_held_; }

  // Frees every page (request retired or preempted). The sequence resets to
  // empty and may be appended to again (preemption-recompute).
  void release_all();

 private:
  // Throws unless token_id is appended and its page is still held.
  void require_resident(std::size_t token_id) const;

  PagedKvPool* pool_;
  KvHeadView rows_;
  // Logical page p holds token ids [p*page_tokens, (p+1)*page_tokens); a
  // reclaimed logical page keeps its slot with kInvalidPage.
  std::vector<PagedKvPool::PageId> pages_;
  std::vector<int> page_live_;  // live tokens per logical page
  std::vector<bool> live_;      // per token id
  std::size_t appended_ = 0;
  std::size_t live_count_ = 0;
  std::size_t pages_held_ = 0;
};

// RescaleSource adapter over one sequence: QuantizedKvCache's stable ids ==
// PagedSequence token ids, so a whole-head rescale re-reads its floats
// straight from the sequence's bound rows. Non-owning; the sequence must
// outlive it (ServeEngine ties both to the slot).
class PagedRescaleSource final : public RescaleSource {
 public:
  PagedRescaleSource() = default;
  explicit PagedRescaleSource(const PagedSequence* seq) : seq_(seq) {}
  const float* key_row(std::size_t id) const override {
    return seq_->key_row(id);
  }
  const float* value_row(std::size_t id) const override {
    return seq_->value_row(id);
  }

 private:
  const PagedSequence* seq_ = nullptr;
};

// Per-request paged KV accounting: one sequence per (layer, head) of
// `stream`, each bound to that head's rows. `stream` must outlive the cache
// and keep its rows at the same address.
class PagedKvCache {
 public:
  PagedKvCache(PagedKvPool* pool, const wl::DecodeStream& stream);

  PagedSequence& seq(int layer, int head) {
    return seqs_[static_cast<std::size_t>(layer) * n_head_ + head];
  }
  const PagedSequence& seq(int layer, int head) const {
    return seqs_[static_cast<std::size_t>(layer) * n_head_ + head];
  }

  int n_layer() const { return n_layer_; }
  int n_head() const { return n_head_; }

  std::size_t pages_held() const;
  std::size_t live_tokens() const;
  // Dead-but-unreclaimed slots over allocated slots (internal fragmentation).
  double fragmentation() const;

  void release_all();

 private:
  PagedKvPool* pool_;
  int n_layer_;
  int n_head_;
  std::vector<PagedSequence> seqs_;
};

}  // namespace topick::serve
