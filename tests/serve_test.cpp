#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/exact_attention.h"
#include "core/token_picker.h"
#include "serve/batcher.h"
#include "serve/paged_kv_pool.h"
#include "serve/paged_sequence.h"
#include "serve/serve_engine.h"
#include "workload/arrivals.h"
#include "workload/decode_stream.h"

namespace topick::serve {
namespace {

// ---- PagedKvPool ------------------------------------------------------------

TEST(PagedKvPool, AllocFreeAccounting) {
  PagedKvPool pool({4, 2});
  EXPECT_EQ(pool.pages_free(), 4u);
  const auto a = pool.alloc_page();
  const auto b = pool.alloc_page();
  ASSERT_NE(a, PagedKvPool::kInvalidPage);
  ASSERT_NE(b, PagedKvPool::kInvalidPage);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.pages_in_use(), 2u);
  EXPECT_EQ(pool.peak_pages_in_use(), 2u);
  pool.free_page(a);
  EXPECT_EQ(pool.pages_in_use(), 1u);
  EXPECT_EQ(pool.peak_pages_in_use(), 2u);  // peak sticks
  EXPECT_EQ(pool.reuses(), 0u);
  const auto c = pool.alloc_page();  // comes back from the free list
  EXPECT_EQ(c, a);
  EXPECT_EQ(pool.reuses(), 1u);
}

TEST(PagedKvPool, ExhaustionReturnsInvalid) {
  PagedKvPool pool({2, 2});
  EXPECT_NE(pool.alloc_page(), PagedKvPool::kInvalidPage);
  EXPECT_NE(pool.alloc_page(), PagedKvPool::kInvalidPage);
  EXPECT_EQ(pool.alloc_page(), PagedKvPool::kInvalidPage);
}

TEST(PagedKvPool, DoubleFreeThrows) {
  PagedKvPool pool({2, 2});
  const auto a = pool.alloc_page();
  pool.free_page(a);
  EXPECT_THROW(pool.free_page(a), std::logic_error);
}

TEST(PagedKvPool, RejectsDegenerateConfigs) {
  // A zero-page pool would make occupancy() divide by zero and silently
  // poison FleetMetrics aggregates with NaN; the constructor must refuse it
  // (and a zero page size) up front.
  EXPECT_THROW(PagedKvPool({0, 8}), std::logic_error);
  EXPECT_THROW(PagedKvPool({4, 0}), std::logic_error);
}

TEST(PagedKvPool, OccupancyIsFiniteAndTracksUse) {
  PagedKvPool pool({2, 4});
  EXPECT_EQ(pool.occupancy(), 0.0);
  const auto a = pool.alloc_page();
  EXPECT_TRUE(std::isfinite(pool.occupancy()));
  EXPECT_NEAR(pool.occupancy(), 0.5, 1e-12);
  pool.alloc_page();
  EXPECT_NEAR(pool.occupancy(), 1.0, 1e-12);
  pool.free_page(a);
  EXPECT_NEAR(pool.occupancy(), 0.5, 1e-12);
}

// ---- PagedSequence ----------------------------------------------------------

// The sequence keeps no liveness: each test holds its live ids itself, as
// the engine's quantized cache does, and hands them to sweep().

TEST(PagedSequence, AppendSpansPageBoundaries) {
  PagedKvPool pool({8, 4});
  PagedSequence seq(&pool, 10);
  for (int t = 0; t < 10; ++t) ASSERT_TRUE(seq.append());  // 2.5 pages of 4
  EXPECT_EQ(seq.appended_tokens(), 10u);
  EXPECT_EQ(seq.pages_held(), 3u);
  const std::vector<std::size_t> all{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(seq.sweep(all), 0u);  // every page holds a live id
  for (std::size_t t = 0; t < 10; ++t) {
    EXPECT_NO_THROW(seq.require_resident(t)) << t;
  }
}

TEST(PagedSequence, ReclamationFreesOnlyFullDeadPagesAndKeepsSurvivorsResident) {
  PagedKvPool pool({8, 4});
  PagedSequence seq(&pool, 12);
  for (int t = 0; t < 12; ++t) ASSERT_TRUE(seq.append());  // 3 full pages
  // All of page 1 (tokens 4..7) and part of page 0 are dead:
  // 12 - 4 (page 1) - 1 (token 0).
  const std::vector<std::size_t> live{1, 2, 3, 8, 9, 10, 11};
  EXPECT_EQ(seq.sweep(live), 1u);  // only page 1 is fully dead
  EXPECT_EQ(seq.pages_held(), 2u);
  EXPECT_EQ(pool.pages_free(), 8u - 2u);
  EXPECT_EQ(seq.sweep(live), 0u);  // a freed page is not freed twice

  for (const std::size_t id : live) {
    EXPECT_NO_THROW(seq.require_resident(id)) << id;
  }
  // Token 0 is dead but its page is still held.
  EXPECT_NO_THROW(seq.require_resident(0));
}

TEST(PagedSequence, PartialTailPageIsNeverFreed) {
  PagedKvPool pool({8, 4});
  PagedSequence seq(&pool, 7);
  // Page 0 full, page 1 holds 2 tokens, both dead.
  for (int t = 0; t < 6; ++t) ASSERT_TRUE(seq.append());
  EXPECT_EQ(seq.sweep(std::vector<std::size_t>{0, 1, 2, 3}), 0u);
  EXPECT_NO_THROW(seq.require_resident(4));  // tail partial: still held
  ASSERT_TRUE(seq.append());  // token 6, same page
  EXPECT_EQ(seq.pages_held(), 2u);
  for (const std::size_t id : {0, 1, 2, 3, 6}) {
    EXPECT_NO_THROW(seq.require_resident(id)) << id;
  }
}

TEST(PagedSequence, SweptFullTailPageThenAppendKeepsIndicesConsistent) {
  // A fully-dead page sitting at an exact page boundary (the tail page is
  // full, so sweep may free it) must leave the page table, pages_held, and
  // the residency lookups consistent when the sequence then appends past
  // the hole.
  PagedKvPool pool({8, 4});
  PagedSequence seq(&pool, 9);
  for (int t = 0; t < 8; ++t) ASSERT_TRUE(seq.append());  // 2 full pages
  std::vector<std::size_t> live{0, 1, 2, 3};
  EXPECT_EQ(seq.sweep(live), 1u);  // page 1 is full AND fully dead -> freed
  EXPECT_EQ(seq.pages_held(), 1u);
  EXPECT_EQ(pool.pages_in_use(), 1u);

  // Append past the swept boundary: token 8 opens logical page 2.
  ASSERT_TRUE(seq.append());
  live.push_back(8);
  EXPECT_EQ(seq.appended_tokens(), 9u);
  EXPECT_EQ(seq.pages_held(), 2u);
  EXPECT_EQ(pool.pages_in_use(), 2u);
  EXPECT_EQ(seq.sweep(live), 0u);

  // Survivors and the token past the hole are resident; the swept page's
  // ids no longer resolve.
  for (const std::size_t id : live) {
    EXPECT_NO_THROW(seq.require_resident(id)) << id;
  }
  for (std::size_t id = 4; id < 8; ++id) {
    EXPECT_THROW(seq.require_resident(id), std::logic_error) << id;
  }
}

// The residency contract the engine's rescale source relies on: every id
// the page accounting cannot back throws, and so does an append past the
// sequence's capacity.
TEST(PagedSequence, ResidencyIsCheckedAgainstAppendsAndSweeps) {
  PagedKvPool pool({8, 4});
  PagedSequence seq(&pool, 10);
  for (int t = 0; t < 9; ++t) ASSERT_TRUE(seq.append());
  const std::vector<std::size_t> live{0, 1, 2, 3, 8};
  ASSERT_EQ(seq.sweep(live), 1u);  // logical page 1 (ids 4..7) leaves the pool

  for (std::size_t t = 0; t < 9; ++t) {
    if (t >= 4 && t < 8) {
      // An id on a swept page.
      EXPECT_THROW(seq.require_resident(t), std::logic_error) << t;
      continue;
    }
    EXPECT_NO_THROW(seq.require_resident(t)) << t;
  }
  // An id at or past appended_tokens(), though the capacity reaches 9.
  EXPECT_THROW(seq.require_resident(9), std::logic_error);
  EXPECT_THROW(seq.require_resident(100), std::logic_error);

  // Appending past the capacity throws and changes nothing.
  ASSERT_TRUE(seq.append());  // id 9, the last one
  EXPECT_NO_THROW(seq.require_resident(9));
  const std::size_t in_use = pool.pages_in_use();
  EXPECT_THROW(seq.append(), std::logic_error);
  EXPECT_EQ(seq.appended_tokens(), 10u);
  EXPECT_EQ(seq.pages_held(), 2u);
  EXPECT_EQ(pool.pages_in_use(), in_use);

  // A sequence of capacity 0 can never append.
  PagedSequence empty(&pool, 0);
  EXPECT_THROW(empty.append(), std::logic_error);
  EXPECT_EQ(pool.pages_in_use(), in_use);
}

// sweep() walks the live list once, so it must be strictly ascending; a
// listed id on a page an earlier sweep freed means the list and the pages
// disagree. Both throw.
TEST(PagedSequence, SweepRejectsUnorderedIdsAndIdsOnFreedPages) {
  PagedKvPool pool({8, 4});
  PagedSequence seq(&pool, 12);
  for (int t = 0; t < 12; ++t) ASSERT_TRUE(seq.append());
  EXPECT_THROW(seq.sweep(std::vector<std::size_t>{2, 1, 9}),
               std::logic_error);
  EXPECT_THROW(seq.sweep(std::vector<std::size_t>{1, 1, 9}),
               std::logic_error);
  EXPECT_EQ(seq.pages_held(), 3u);
  ASSERT_EQ(seq.sweep(std::vector<std::size_t>{1, 9}), 1u);  // page 1 goes
  EXPECT_THROW(seq.sweep(std::vector<std::size_t>{1, 5, 9}),
               std::logic_error);
  EXPECT_EQ(seq.pages_held(), 2u);
}

// The serve source regenerates exactly the stream's rows for resident ids,
// and refuses an id on a swept page or one not yet appended, before
// writing anything.
TEST(PagedRescaleSource, RegeneratesResidentRowsAndRefusesTheRest) {
  wl::DecodeStreamParams params;
  params.head_dim = 5;
  const auto stream = wl::make_decode_stream(params, 20, 4, 2, 2, 0x5eed);
  const wl::HeadRows all = wl::materialize(stream, 1, 0);
  PagedKvPool pool({16, 4});
  PagedSequence seq(&pool, stream.total_tokens());
  std::vector<std::size_t> live;
  for (std::size_t t = 0; t < 18; ++t) {
    ASSERT_TRUE(seq.append());
    if (t < 8 || t >= 12) live.push_back(t);
  }
  ASSERT_EQ(seq.sweep(live), 1u);  // ids 8..11 leave the pool
  const PagedRescaleSource source(&seq, &stream, 1, 0);

  const std::vector<std::size_t> ids{0, 3, 7, 12, 13, 17};
  std::vector<float> keys(ids.size() * 5), values(ids.size() * 5);
  source.fill_rows(ids, keys.data(), values.data());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(std::memcmp(keys.data() + i * 5, all.view().key(ids[i]).data(),
                          5 * sizeof(float)),
              0)
        << ids[i];
    EXPECT_EQ(std::memcmp(values.data() + i * 5,
                          all.view().value(ids[i]).data(), 5 * sizeof(float)),
              0)
        << ids[i];
  }

  std::vector<float> untouched(2 * 5, -7.0f);
  for (const std::size_t bad : {std::size_t{9}, std::size_t{18},
                                std::size_t{23}}) {
    const std::vector<std::size_t> with_bad{3, bad};
    EXPECT_THROW(source.fill_rows(with_bad, untouched.data(), nullptr),
                 std::logic_error)
        << bad;
  }
  EXPECT_TRUE(std::all_of(untouched.begin(), untouched.end(),
                          [](float x) { return x == -7.0f; }));
}

// The serve-side RescaleSource contract end to end: a QuantizedKvCache with
// a PagedRescaleSource provider and NO floats of its own survives a
// mid-decode record-holder eviction bit-identically to quantizing the
// survivors from scratch. The engine's ordering discipline is replicated:
// the cache eviction (whose rescale queries the provider) runs BEFORE
// sweep, fed the cache's surviving ids, releases the pool pages.
TEST(PagedSequence, PoolProviderKeepsRecordHolderEvictionBitIdentical) {
  wl::DecodeStreamParams params;
  params.head_dim = 16;
  const auto stream = wl::make_decode_stream(params, 40, 8, 1, 1, 0x9a6e);
  const std::size_t dim = 16;
  const std::size_t n = stream.total_tokens();
  const wl::HeadRows rows = wl::materialize(stream, 0, 0);
  const KvHeadView bound = rows.view();

  // The key record holder and the ids of its (full) pool page.
  constexpr std::size_t kPage = 4;
  std::size_t holder = 0;
  float best = 0.0f;
  for (std::size_t t = 0; t < n; ++t) {
    for (const float x : bound.key(t)) {
      if (std::abs(x) > best) {
        best = std::abs(x);
        holder = t;
      }
    }
  }
  std::vector<std::size_t> dead;
  const std::size_t page_start = holder / kPage * kPage;
  for (std::size_t t = page_start; t < page_start + kPage; ++t) {
    dead.push_back(t);
  }

  PagedKvPool pool({16, kPage});
  PagedSequence seq(&pool, n);
  QuantizedKvCache cache(dim);
  const PagedRescaleSource provider(&seq, &stream, 0, 0);
  cache.set_rescale_source(&provider);
  for (std::size_t t = 0; t < n; ++t) {
    ASSERT_TRUE(seq.append());
    cache.append(bound.key(t), bound.value(t), t);
  }

  // Mid-decode, persistence prunes the whole page — record holder included.
  const auto rescales_before = cache.key_rescales();
  EXPECT_EQ(cache.evict_ids(dead), kPage);  // provider queried for survivors
  EXPECT_EQ(cache.key_rescales(), rescales_before + 1);
  EXPECT_EQ(seq.sweep(cache.ids()), 1u);  // only now does the page go

  // Bit-identity vs a fresh quantize of the survivors' floats.
  std::vector<float> k_flat, v_flat;
  std::vector<std::size_t> survivors;
  for (std::size_t t = 0; t < n; ++t) {
    if (std::find(dead.begin(), dead.end(), t) != dead.end()) continue;
    survivors.push_back(t);
    k_flat.insert(k_flat.end(), bound.key(t).begin(), bound.key(t).end());
    v_flat.insert(v_flat.end(), bound.value(t).begin(), bound.value(t).end());
  }
  const KvHeadView fresh_view{k_flat.data(), v_flat.data(), survivors.size(),
                              dim};
  const QuantizedKv fresh = quantize_kv(fresh_view, cache.config().base);
  const QuantizedKvView cached = cache.view();
  ASSERT_EQ(cache.len(), survivors.size());
  EXPECT_EQ(cached.key_params.scale, fresh.keys.params.scale);
  EXPECT_EQ(cached.value_params.scale, fresh.values.params.scale);
  for (std::size_t j = 0; j < fresh.keys.planes.size(); ++j) {
    EXPECT_TRUE(std::equal(fresh.keys.planes[j].begin(),
                           fresh.keys.planes[j].end(),
                           cached.key_planes[j].begin(),
                           cached.key_planes[j].end()))
        << "key plane " << j;
    EXPECT_TRUE(std::equal(fresh.values.planes[j].begin(),
                           fresh.values.planes[j].end(),
                           cached.value_planes[j].begin(),
                           cached.value_planes[j].end()))
        << "value plane " << j;
  }
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    EXPECT_EQ(cache.id_at(i), survivors[i]);
  }
}

TEST(PagedKvCache, EachHeadHasItsOwnSequence) {
  PagedKvPool pool({16, 4});
  PagedKvCache cache(&pool, 1, 2, 8);
  // Head 0: page 0 full, page 1 half full; head 1: one token.
  for (int t = 0; t < 6; ++t) ASSERT_TRUE(cache.seq(0, 0).append());
  ASSERT_TRUE(cache.seq(0, 1).append());
  EXPECT_EQ(cache.seq(0, 0).appended_tokens(), 6u);
  EXPECT_EQ(cache.seq(0, 1).appended_tokens(), 1u);
  EXPECT_EQ(cache.pages_held(), 3u);
  EXPECT_EQ(pool.pages_in_use(), 3u);
  cache.release_all();
  EXPECT_EQ(cache.pages_held(), 0u);
  EXPECT_EQ(pool.pages_in_use(), 0u);
}

TEST(PagedSequence, ReleaseAllReturnsPages) {
  PagedKvPool pool({8, 4});
  {
    PagedSequence seq(&pool, 9);
    for (int t = 0; t < 9; ++t) ASSERT_TRUE(seq.append());
    EXPECT_EQ(pool.pages_in_use(), 3u);
    seq.release_all();
    EXPECT_EQ(pool.pages_in_use(), 0u);
    EXPECT_EQ(seq.appended_tokens(), 0u);
    EXPECT_THROW(seq.require_resident(0), std::logic_error);
    // Recompute after release starts again from the first token.
    ASSERT_TRUE(seq.append());
    EXPECT_NO_THROW(seq.require_resident(0));
    EXPECT_EQ(pool.pages_in_use(), 1u);
  }
  // The destructor frees the page the recompute took, and nothing twice.
  EXPECT_EQ(pool.pages_free(), 8u);
}

// ---- PrunePersistence -------------------------------------------------------

TEST(PrunePersistence, StreaksAndReset) {
  PrunePersistence tracker(3);
  for (int i = 0; i < 2; ++i) EXPECT_FALSE(tracker.observe(7, /*kept=*/false));
  EXPECT_FALSE(tracker.observe(7, /*kept=*/true));  // kept resets the streak
  EXPECT_EQ(tracker.streak(7), 0);
  EXPECT_FALSE(tracker.observe(7, /*kept=*/false));
  EXPECT_FALSE(tracker.observe(7, /*kept=*/false));
  EXPECT_TRUE(tracker.observe(7, /*kept=*/false));  // the third in a row
  EXPECT_EQ(tracker.streak(7), 3);
  EXPECT_EQ(tracker.streak(3), 0);  // untouched token
  EXPECT_FALSE(tracker.observe(3, /*kept=*/false));

  EXPECT_TRUE(PrunePersistence(1).observe(0, /*kept=*/false));
  EXPECT_THROW(PrunePersistence{0}, std::logic_error);
}

// ---- workload: arrivals and decode streams ----------------------------------

TEST(Arrivals, PoissonTraceOrderedAndInRange) {
  wl::ArrivalParams params;
  params.rate = 1.5;
  params.prompt_min = 4;
  params.prompt_max = 9;
  params.decode_min = 2;
  params.decode_max = 5;
  Rng rng(11);
  const auto trace = wl::make_arrival_trace(params, 64, rng);
  ASSERT_EQ(trace.size(), 64u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].request_id, i);
    if (i > 0) {
      EXPECT_GE(trace[i].step, trace[i - 1].step);
    }
    EXPECT_GE(trace[i].prompt_len, 4u);
    EXPECT_LE(trace[i].prompt_len, 9u);
    EXPECT_GE(trace[i].decode_len, 2u);
    EXPECT_LE(trace[i].decode_len, 5u);
  }
}

TEST(Arrivals, BurstyTraceClustersMoreThanPoisson) {
  // Same mean arrival budget; the bursty trace should show a higher maximum
  // per-step arrival count (crude burstiness proxy, deterministic seeds).
  wl::ArrivalParams poisson;
  poisson.rate = 0.8;
  wl::ArrivalParams bursty = poisson;
  bursty.kind = wl::ArrivalKind::bursty;

  auto max_per_step = [](const std::vector<wl::ArrivalEvent>& trace) {
    std::size_t best = 0, run = 0, step = static_cast<std::size_t>(-1);
    for (const auto& e : trace) {
      run = (e.step == step) ? run + 1 : 1;
      step = e.step;
      best = std::max(best, run);
    }
    return best;
  };
  Rng rng_a(5), rng_b(5);
  const auto p = wl::make_arrival_trace(poisson, 256, rng_a);
  const auto b = wl::make_arrival_trace(bursty, 256, rng_b);
  EXPECT_GT(max_per_step(b), max_per_step(p));
}

// Bitwise equality of two float rows (EXPECT_EQ on floats would let -0.0
// match +0.0).
bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}
bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && same_bits(a.data(), b.data(), a.size());
}

TEST(DecodeStream, DeterministicAndShaped) {
  wl::DecodeStreamParams params;
  params.head_dim = 8;
  const auto a = wl::make_decode_stream(params, 5, 3, 2, 2, 99);
  const auto b = wl::make_decode_stream(params, 5, 3, 2, 2, 99);
  ASSERT_EQ(a.heads.size(), 4u);
  EXPECT_EQ(a.total_tokens(), 8u);
  for (int h = 0; h < 4; ++h) {
    // No rows are stored: one checkpoint covers the 8 tokens.
    EXPECT_EQ(a.heads[h].checkpoints.size(), 1u);
    EXPECT_EQ(a.heads[h].topic.size(), 8u);
    EXPECT_EQ(a.heads[h].queries.size(), 3u * 8u);
    const auto rows_a = wl::materialize(a, h / 2, h % 2);
    const auto rows_b = wl::materialize(b, h / 2, h % 2);
    EXPECT_TRUE(same_bits(rows_a.keys, rows_b.keys));
    EXPECT_TRUE(same_bits(rows_a.values, rows_b.values));
    EXPECT_EQ(a.heads[h].queries, b.heads[h].queries);
  }
  EXPECT_TRUE(a.spike[0]);  // attention sink is always spiky
}

TEST(DecodeStream, PoolWidthNeverChangesBits) {
  wl::DecodeStreamParams params;
  params.head_dim = 8;
  // 1x3: the head count is not a multiple of widths 2 and 4.
  for (const auto& [n_layer, n_head] :
       std::vector<std::pair<int, int>>{{2, 4}, {1, 3}, {1, 1}}) {
    const auto ref =
        wl::make_decode_stream(params, 37, 11, n_layer, n_head, 4242);
    for (const std::size_t width : {1u, 2u, 4u}) {
      ThreadPool pool(width);
      const auto got = wl::make_decode_stream(params, 37, 11, n_layer, n_head,
                                              4242, &pool);
      SCOPED_TRACE(testing::Message() << n_layer << "x" << n_head
                                      << " width " << width);
      EXPECT_EQ(got.spike, ref.spike);
      ASSERT_EQ(got.heads.size(), ref.heads.size());
      for (int h = 0; h < n_layer * n_head; ++h) {
        const auto got_rows = wl::materialize(got, h / n_head, h % n_head);
        const auto ref_rows = wl::materialize(ref, h / n_head, h % n_head);
        EXPECT_TRUE(same_bits(got_rows.keys, ref_rows.keys)) << h;
        EXPECT_TRUE(same_bits(got_rows.values, ref_rows.values)) << h;
        EXPECT_TRUE(same_bits(got.heads[h].queries, ref.heads[h].queries))
            << h;
      }
    }
  }
}

// Rows regenerated from a mid-stream checkpoint are the materialized rows,
// byte for byte: every [first, first + count) that crosses a checkpoint
// boundary, scattered and unordered ids, and one arena at a time — over
// odd and SIMD-wide head_dim, 0/1/3 sink tokens, a 1-token prompt, and
// streams built on pools of width 1 and 4.
TEST(DecodeStream, RegeneratedRowsEqualMaterializedRows) {
  for (const int dim : {7, 64}) {
    for (const int sinks : {0, 1, 3}) {
      for (const std::size_t prompt : {std::size_t{1}, std::size_t{19}}) {
        for (const std::size_t width : {1u, 4u}) {
          SCOPED_TRACE(testing::Message() << "dim " << dim << " sinks "
                                          << sinks << " prompt " << prompt
                                          << " width " << width);
          wl::DecodeStreamParams params;
          params.head_dim = dim;
          params.sink_tokens = sinks;
          ThreadPool pool(width);
          const auto stream =
              wl::make_decode_stream(params, prompt, 13, 1, 2, 77, &pool);
          const std::size_t n = stream.total_tokens();
          const auto d = static_cast<std::size_t>(dim);
          ASSERT_EQ(stream.heads[1].checkpoints.size(),
                    (n + wl::kCheckpointTokens - 1) / wl::kCheckpointTokens);
          const wl::HeadRows all = wl::materialize(stream, 0, 1);
          std::vector<float> keys(n * d), values(n * d);
          for (std::size_t first = 0; first < n; ++first) {
            for (std::size_t count = 1; first + count <= n; ++count) {
              if (first / wl::kCheckpointTokens ==
                  (first + count - 1) / wl::kCheckpointTokens) {
                continue;  // within one checkpoint's tokens
              }
              stream.fill_rows(0, 1, first, count, keys.data(),
                               values.data());
              ASSERT_TRUE(same_bits(keys.data(),
                                    all.keys.data() + first * d, count * d))
                  << first << "+" << count;
              ASSERT_TRUE(same_bits(values.data(),
                                    all.values.data() + first * d, count * d))
                  << first << "+" << count;
            }
          }
          // Scattered ids, out of order, repeated; then one arena only.
          std::vector<std::size_t> ids{n - 1, 0, 9, 9, 2, 17, 8, 16, 15};
          ids.erase(std::remove_if(ids.begin(), ids.end(),
                                   [n](std::size_t t) { return t >= n; }),
                    ids.end());
          stream.fill_rows(0, 1, ids, keys.data(), values.data());
          for (std::size_t i = 0; i < ids.size(); ++i) {
            EXPECT_TRUE(same_bits(keys.data() + i * d,
                                  all.keys.data() + ids[i] * d, d))
                << ids[i];
            EXPECT_TRUE(same_bits(values.data() + i * d,
                                  all.values.data() + ids[i] * d, d))
                << ids[i];
          }
          std::fill(keys.begin(), keys.end(), 0.0f);
          stream.fill_rows(0, 1, ids, keys.data(), nullptr);
          for (std::size_t i = 0; i < ids.size(); ++i) {
            EXPECT_TRUE(same_bits(keys.data() + i * d,
                                  all.keys.data() + ids[i] * d, d));
          }
          stream.fill_rows(0, 1, n - 1, 1, nullptr, values.data());
          EXPECT_TRUE(same_bits(values.data(),
                                all.values.data() + (n - 1) * d, d));
        }
      }
    }
  }
}

TEST(DecodeStream, SinkTokensMustBeNonNegative) {
  wl::DecodeStreamParams params;
  params.head_dim = 4;
  params.spike_fraction = 0.0;
  // Exactly the leading sink_tokens are spiky when no other token can be.
  for (const int sinks : {0, 3}) {
    params.sink_tokens = sinks;
    const auto stream = wl::make_decode_stream(params, 6, 2, 1, 1, 7);
    for (std::size_t t = 0; t < stream.total_tokens(); ++t) {
      EXPECT_EQ(stream.spike[t], t < static_cast<std::size_t>(sinks))
          << "sinks " << sinks << " token " << t;
    }
  }
  // A negative count used to wrap to SIZE_MAX and make every token a spike.
  params.sink_tokens = -1;
  EXPECT_THROW(wl::make_decode_stream(params, 6, 2, 1, 1, 7),
               std::logic_error);
}

TEST(DecodeStream, AccessorsRejectOutOfRange) {
  wl::DecodeStreamParams params;
  params.head_dim = 4;
  const auto stream = wl::make_decode_stream(params, 5, 3, 2, 3, 99);
  std::vector<float> row(4, -1.0f);
  for (const auto& [layer, head] :
       std::vector<std::pair<int, int>>{{-1, 0}, {2, 0}, {0, -1}, {0, 3}}) {
    EXPECT_THROW(stream.head(layer, head), std::logic_error)
        << layer << "," << head;
    EXPECT_THROW(stream.fill_rows(layer, head, 0, 1, row.data(), nullptr),
                 std::logic_error)
        << layer << "," << head;
    EXPECT_THROW(stream.query(layer, head, 0), std::logic_error)
        << layer << "," << head;
  }
  // One past the last token / decode step would read past the head; a
  // refused call writes nothing.
  EXPECT_NO_THROW(stream.fill_rows(1, 2, 7, 1, row.data(), row.data()));
  EXPECT_EQ(stream.query(1, 2, 2).data(),
            stream.head(1, 2).queries.data() + 8);
  std::fill(row.begin(), row.end(), -1.0f);
  EXPECT_THROW(stream.fill_rows(0, 0, stream.total_tokens(), 1, row.data(),
                                nullptr),
               std::logic_error);
  EXPECT_THROW(stream.fill_rows(0, 0, 6, 3, row.data(), nullptr),
               std::logic_error);
  const std::vector<std::size_t> ids{1, stream.total_tokens()};
  EXPECT_THROW(stream.fill_rows(0, 0, ids, row.data(), row.data()),
               std::logic_error);
  EXPECT_TRUE(std::all_of(row.begin(), row.end(),
                          [](float x) { return x == -1.0f; }));
  EXPECT_THROW(stream.query(0, 0, stream.decode_len), std::logic_error);
  // A zero-decode request's stream is never generated and has no heads.
  const wl::DecodeStream empty;
  EXPECT_THROW(empty.head(0, 0), std::logic_error);
}

// ---- engine helpers ---------------------------------------------------------

// Shadow check: every captured step of every retired request must match the
// single-request exact-attention path over the FULL context (including any
// reclaimed tokens), within the established pruning tolerance — the
// OutputErrorBoundedByDroppedMass bound, plus a small absolute term because
// the serving path quantizes over the live view, whose quantization scales
// can differ slightly from the full-context reference's. A retired request
// holds no stream rows, so the reference rebuilds them from its event.
void expect_outputs_match_exact(const ServeEngine& engine,
                                double extra_abs_tol) {
  const auto& config = engine.config();
  for (const auto& request : engine.requests()) {
    ASSERT_EQ(request.state, RequestState::finished);
    ASSERT_EQ(request.outputs.size(), request.event.decode_len);
    const auto stream = wl::make_decode_stream(
        config.stream, request.event.prompt_len, request.event.decode_len,
        config.n_layer, config.n_head, request.event.stream_seed);
    std::vector<wl::HeadRows> rows;
    for (int inst = 0; inst < config.n_layer * config.n_head; ++inst) {
      rows.push_back(
          wl::materialize(stream, inst / config.n_head, inst % config.n_head));
    }
    for (const auto& step : request.outputs) {
      const std::size_t context_len = step.position + 1;
      for (int layer = 0; layer < config.n_layer; ++layer) {
        for (int head = 0; head < config.n_head; ++head) {
          const auto inst =
              static_cast<std::size_t>(layer) * config.n_head + head;
          KvHeadView view = rows[inst].view();
          view.len = context_len;
          const std::size_t decode_step = step.position -
                                          request.event.prompt_len;
          const auto q = stream.query(layer, head, decode_step);
          const auto exact =
              exact_attention_quantized(q, view, config.picker.quant);

          double kept_mass = 0.0;
          for (const std::size_t t : step.kept_tokens[inst]) {
            kept_mass += exact.probs[t];
          }
          const double dropped = 1.0 - kept_mass;
          float vmax = 0.0f;
          for (std::size_t t = 0; t < context_len; ++t) {
            for (const float x : view.value(t)) {
              vmax = std::max(vmax, std::abs(x));
            }
          }
          const double bound = 2.0 * std::max(dropped, 0.0) * vmax +
                               extra_abs_tol;
          ASSERT_EQ(step.out[inst].size(),
                    static_cast<std::size_t>(config.head_dim));
          for (int d = 0; d < config.head_dim; ++d) {
            EXPECT_NEAR(step.out[inst][static_cast<std::size_t>(d)],
                        exact.output[static_cast<std::size_t>(d)], bound)
                << "request " << request.event.request_id << " pos "
                << step.position << " layer " << layer << " head " << head
                << " dim " << d << " dropped " << dropped;
          }
        }
      }
    }
  }
}

std::vector<wl::ArrivalEvent> concurrent_trace(std::size_t count, Rng& rng,
                                               std::size_t prompt_min,
                                               std::size_t prompt_max,
                                               std::size_t decode_min,
                                               std::size_t decode_max) {
  // All requests arrive at step 0 so the whole set is concurrently in flight.
  wl::ArrivalParams params;
  params.rate = static_cast<double>(count) * 2.0;
  params.prompt_min = prompt_min;
  params.prompt_max = prompt_max;
  params.decode_min = decode_min;
  params.decode_max = decode_max;
  auto trace = wl::make_arrival_trace(params, count, rng);
  for (auto& event : trace) event.step = 0;
  return trace;
}

ServeConfig acceptance_config() {
  ServeConfig config;
  config.n_layer = 1;
  config.n_head = 2;
  config.head_dim = 32;
  config.max_batch = 40;
  config.pool_pages = 2048;  // ample: no preemption in the acceptance run
  config.page_tokens = 8;
  config.backend = BackendKind::token_picker;
  config.picker.estimator.threshold = 1e-3;
  config.persistence_window = 4;
  config.reclaim = true;
  config.capture_outputs = true;
  config.simulate_dram = true;
  return config;
}

// ---- the acceptance scenario ------------------------------------------------

TEST(ServeEngine, ThirtyTwoConcurrentRequestsMatchExactAndReclaim) {
  Rng rng(2024);
  const auto trace = concurrent_trace(32, rng, 16, 48, 16, 48);

  ServeConfig config = acceptance_config();
  ServeEngine engine(config);
  engine.submit_trace(trace);
  engine.run();

  const auto& metrics = engine.metrics();
  EXPECT_EQ(metrics.requests_retired, 32u);
  EXPECT_EQ(metrics.preemptions, 0u);

  // All 32 were genuinely concurrent: admitted at step 0.
  for (const auto& request : engine.requests()) {
    EXPECT_EQ(request.admit_step, 0u);
  }

  // Every retired request's per-step attention output matches the
  // single-request exact path within the pruning tolerance.
  expect_outputs_match_exact(engine, 5e-3);

  // Pruning actually reclaimed storage, and freed pages were reused.
  EXPECT_GT(metrics.pages_reclaimed, 0u);
  EXPECT_GT(metrics.pool_reuses, 0u);

  // Peak page occupancy strictly below the no-reclamation baseline of the
  // identical scenario.
  ServeConfig baseline = config;
  baseline.reclaim = false;
  baseline.capture_outputs = false;
  ServeEngine no_reclaim(baseline);
  no_reclaim.submit_trace(trace);
  no_reclaim.run();
  EXPECT_EQ(no_reclaim.metrics().requests_retired, 32u);
  EXPECT_LT(metrics.pool_peak_pages, no_reclaim.metrics().pool_peak_pages);

  // Pruning also moved fewer bits than the no-pruning baseline accounting.
  EXPECT_LT(metrics.stats.total_bits_fetched(),
            metrics.stats.total_bits_baseline());

  // Latency proxy populated and ordered.
  ASSERT_FALSE(metrics.step_cycle_samples.empty());
  EXPECT_GE(metrics.p95_step_cycles(), metrics.p50_step_cycles());
  EXPECT_GE(metrics.p99_step_cycles(), metrics.p95_step_cycles());
  EXPECT_GT(metrics.tokens_per_second(), 0.0);
  EXPECT_GT(metrics.bytes_per_token(), 0.0);
}

TEST(ServeEngine, ExactBackendMatchesExactReferenceTightly) {
  Rng rng(77);
  const auto trace = concurrent_trace(6, rng, 8, 16, 6, 12);
  ServeConfig config = acceptance_config();
  config.backend = BackendKind::exact_quantized;
  config.reclaim = false;  // nothing prunes, nothing to reclaim
  config.simulate_dram = false;
  ServeEngine engine(config);
  engine.submit_trace(trace);
  engine.run();
  EXPECT_EQ(engine.metrics().requests_retired, 6u);
  // dropped mass is zero for the exact backend, so the bound reduces to the
  // absolute term.
  expect_outputs_match_exact(engine, 1e-5);
  EXPECT_EQ(engine.metrics().stats.total_bits_fetched(),
            engine.metrics().stats.total_bits_baseline());
}

TEST(ServeEngine, PreemptionUnderPoolPressureStillFinishesCorrectly) {
  Rng rng(31337);
  const auto trace = concurrent_trace(12, rng, 12, 24, 8, 24);
  ServeConfig config = acceptance_config();
  config.max_batch = 12;
  config.pool_pages = 60;  // tight: forces eviction + recompute
  config.simulate_dram = false;
  ServeEngine engine(config);
  engine.submit_trace(trace);
  engine.run();

  const auto& metrics = engine.metrics();
  EXPECT_EQ(metrics.requests_retired, 12u);
  EXPECT_GT(metrics.preemptions, 0u);
  // Re-prefill after preemption replays the prompt (plus already-generated
  // tokens), so charged prefill tokens exceed the one-shot prompt total.
  std::size_t prompt_total = 0;
  for (const auto& event : trace) prompt_total += event.prompt_len;
  EXPECT_GT(metrics.prefill_tokens, prompt_total);
  // Preempted-and-recomputed requests still satisfy the exact-match bound.
  expect_outputs_match_exact(engine, 5e-3);
}

TEST(ServeEngine, StaggeredPoissonArrivalsDrainCompletely) {
  wl::ArrivalParams params;
  params.rate = 0.7;
  params.prompt_min = 8;
  params.prompt_max = 24;
  params.decode_min = 4;
  params.decode_max = 16;
  Rng rng(4242);
  const auto trace = wl::make_arrival_trace(params, 24, rng);

  ServeConfig config = acceptance_config();
  config.max_batch = 6;  // smaller than the request count: queueing happens
  config.capture_outputs = false;
  config.simulate_dram = false;
  ServeEngine engine(config);
  engine.submit_trace(trace);
  engine.run();

  EXPECT_EQ(engine.metrics().requests_retired, 24u);
  std::uint64_t tokens = 0;
  for (const auto& request : engine.requests()) {
    EXPECT_EQ(request.state, RequestState::finished);
    EXPECT_GE(request.admit_step, request.event.step);
    tokens += request.event.decode_len;
  }
  EXPECT_EQ(engine.metrics().tokens_generated, tokens);
}

// ---- DRAM address layout ----------------------------------------------------

TEST(DramLayout, StreamAddressesStayWithinTheRequestRegion) {
  const std::uint64_t granule = 32;
  const std::uint64_t per_region = dram_layout::kRegionBytes / granule;
  // Offsets far past the region size (a long request) must wrap in place
  // instead of walking into request 1's address range (the aliasing bug:
  // dram_offset_ grew unboundedly past the 64 MiB region).
  const std::uint64_t offsets[] = {0, per_region - 1, per_region,
                                   3 * per_region + 17, std::uint64_t{1} << 40};
  for (const std::uint64_t off : offsets) {
    const auto addr = dram_layout::stream_addr(0, off, granule);
    EXPECT_GE(addr, dram_layout::region_base(0)) << "offset " << off;
    EXPECT_LT(addr, dram_layout::region_base(1)) << "offset " << off;
  }
  // Wrap is positional: offset per_region + 5 lands where offset 5 does.
  EXPECT_EQ(dram_layout::stream_addr(2, per_region + 5, granule),
            dram_layout::region_base(2) + 5 * granule);
}

// The serial driver is the only DRAM timing model and the exact sample
// vectors the only stored latency form; the retired modes' flags must fail
// loudly rather than be silently ignored.
TEST(ServeEngineConfig, RetiredModeFlagsAreRejected) {
  ServeConfig config = acceptance_config();
  config.shard_replay = true;
  EXPECT_THROW(ServeEngine{config}, std::logic_error);
  config.simulate_dram = false;
  EXPECT_THROW(ServeEngine{config}, std::logic_error);

  ServeConfig bounded = acceptance_config();
  bounded.retain_latency_samples = false;
  EXPECT_THROW(ServeEngine{bounded}, std::logic_error);
}

// RetryPolicy::backoff_steps casts the grown wait to std::size_t, which is
// undefined for a negative or NaN value; the engine rejects such multipliers
// up front and still takes the serve_overload benchmark's retry policy.
TEST(ServeEngineConfig, BackoffMultiplierMustBeFiniteAndNonNegative) {
  ServeConfig config = acceptance_config();
  config.retry.max_retries = 2;
  config.retry.backoff_base_steps = 4;
  EXPECT_NO_THROW(ServeEngine{config});
  config.retry.backoff_multiplier = -1.0;
  EXPECT_THROW(ServeEngine{config}, std::logic_error);
  config.retry.backoff_multiplier = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ServeEngine{config}, std::logic_error);
}

// A NaN or inf threshold_scale would pin every degraded threshold at the 0.5
// cap, and a negative headroom_step would throw only at the first degraded
// admission, mid-run. Both are refused at construction; the defaults (the
// serve_overload benchmark's knobs) construct.
TEST(ServeEngineConfig, DegradationKnobsMustBeFiniteAndInRange) {
  ServeConfig config = acceptance_config();
  config.degradation.enabled = true;
  EXPECT_NO_THROW(ServeEngine{config});
  for (const double scale : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), 0.5}) {
    ServeConfig bad = config;
    bad.degradation.threshold_scale = scale;
    EXPECT_THROW(ServeEngine{bad}, std::logic_error) << scale;
  }
  for (const float step : {std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(), -0.5f}) {
    ServeConfig bad = config;
    bad.degradation.headroom_step = step;
    EXPECT_THROW(ServeEngine{bad}, std::logic_error) << step;
  }
  config.degradation.threshold_scale = 1.0;
  config.degradation.headroom_step = 0.0f;
  EXPECT_NO_THROW(ServeEngine{config});
}

// Every slot tracks prune streaks over persistence_window, with reclaim on
// or off; a window below 1 is refused at construction rather than at the
// first admission, mid-run.
TEST(ServeEngineConfig, PersistenceWindowMustBePositive) {
  ServeConfig config = acceptance_config();
  config.persistence_window = 1;
  EXPECT_NO_THROW(ServeEngine{config});
  for (const int window : {0, -1}) {
    config.persistence_window = window;
    EXPECT_THROW(ServeEngine{config}, std::logic_error) << window;
  }
  config.reclaim = false;
  EXPECT_THROW(ServeEngine{config}, std::logic_error);
}

// ---- host KV footprint -------------------------------------------------------

// FleetMetrics' kv_* fields are the quantized cache and nothing more. At
// head_dim 64 with 12-bit keys and values in 4-bit chunks, a resident token
// holds three packed value nibble planes (96 B), three packed key nibble
// planes (96 B), its key and value row maxima (8 B) and a stable id (8 B):
// 208 B. Each (layer, head) cache adds its two running maxima (8 B) once.
TEST(ServeEngine, KvResidencyGaugesPinTheQuantizedFootprint) {
  ServeConfig config = acceptance_config();
  config.head_dim = 64;
  config.capture_outputs = false;
  config.simulate_dram = false;
  ASSERT_EQ(config.picker.quant.total_bits, 12);
  ASSERT_EQ(config.picker.quant.chunk_bits, 4);
  Rng rng(336);
  ServeEngine engine(config);
  engine.submit_trace(concurrent_trace(4, rng, 16, 48, 16, 48));

  std::size_t checked = 0;
  while (engine.step()) {
    const FleetMetrics& m = engine.metrics();
    const double tokens = static_cast<double>(m.kv_resident_tokens);
    if (tokens == 0.0) continue;
    const double value_bytes = static_cast<double>(m.kv_value_plane_bytes);
    const double key_bytes = static_cast<double>(m.kv_key_plane_bytes);
    const double maxima_bytes = static_cast<double>(m.kv_maxima_bytes);
    const double ids_bytes = static_cast<double>(m.kv_ids_bytes);
    const double head_maxima =
        8.0 * static_cast<double>(engine.batcher().running().size() *
                                  config.n_layer * config.n_head);
    EXPECT_EQ(value_bytes / tokens, 96.0);
    EXPECT_EQ(key_bytes / tokens, 96.0);
    EXPECT_EQ((maxima_bytes - head_maxima) / tokens, 8.0);
    EXPECT_EQ(ids_bytes / tokens, 8.0);
    EXPECT_EQ((value_bytes + key_bytes + maxima_bytes + ids_bytes -
               head_maxima) /
                  tokens,
              208.0);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

// The host cost of keeping no float rows: stored rows that whole-head
// rescales regenerated, per arena. A request's rescales depend only on its
// own stream and the reclaim verdicts over it, so without preemption the
// fleet total is the sum of each request served alone — at any thread count
// and with either executor. The totals are pinned on this fixed trace.
TEST(ServeEngine, RequantizedRowCountsArePinnedAndSumOverRequests) {
  ServeConfig config = acceptance_config();
  config.head_dim = 64;
  config.capture_outputs = false;
  config.simulate_dram = false;
  Rng rng(336);
  const auto trace = concurrent_trace(4, rng, 16, 48, 16, 48);

  std::uint64_t solo_keys = 0, solo_values = 0;
  for (wl::ArrivalEvent event : trace) {
    event.step = 0;
    ServeEngine solo(config);
    solo.submit(event);
    solo.run();
    solo_keys += solo.metrics().key_rows_requantized;
    solo_values += solo.metrics().value_rows_requantized;
  }
  for (const bool pipeline : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE(testing::Message() << "pipeline " << pipeline
                                      << " threads " << threads);
      config.pipeline = pipeline;
      config.threads = threads;
      ServeEngine engine(config);
      engine.submit_trace(trace);
      engine.run();
      const FleetMetrics& m = engine.metrics();
      ASSERT_EQ(m.preemptions, 0u);
      EXPECT_EQ(m.key_rows_requantized, solo_keys);
      EXPECT_EQ(m.value_rows_requantized, solo_values);
      EXPECT_EQ(m.key_rows_requantized, 217u);
      EXPECT_EQ(m.value_rows_requantized, 349u);
    }
  }
}

// Page reclamation end to end: which pages persistent pruning frees, how
// high the pool climbs, how often freed pages come back, and the per-step
// fraction of held slots that hold no live token — pinned on one fixed
// reclaiming trace whose pool is tight enough to preempt, at any thread
// count and with either executor.
TEST(ServeEngine, ReclaimPageCountsArePinned) {
  ServeConfig config = acceptance_config();
  config.capture_outputs = false;
  config.simulate_dram = false;
  config.persistence_window = 2;
  config.pool_pages = 80;
  Rng rng(5150);
  const auto trace = concurrent_trace(8, rng, 16, 48, 16, 48);
  for (const bool pipeline : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE(testing::Message() << "pipeline " << pipeline
                                      << " threads " << threads);
      config.pipeline = pipeline;
      config.threads = threads;
      ServeEngine engine(config);
      engine.submit_trace(trace);
      engine.run();
      const FleetMetrics& m = engine.metrics();
      ASSERT_EQ(m.requests_retired, 8u);
      EXPECT_EQ(m.preemptions, 1u);
      EXPECT_EQ(m.pages_reclaimed, 18u);
      EXPECT_EQ(m.pool_peak_pages, 79u);
      EXPECT_EQ(m.pool_reuses, 45u);
      EXPECT_EQ(m.avg_fragmentation, 0.66886104496950838);
    }
  }
}

// ---- chunked prefill --------------------------------------------------------

TEST(ServeEngine, ChunkedPrefillChargesTrafficAndDelaysFirstToken) {
  Rng rng(404);
  const auto trace = concurrent_trace(4, rng, 32, 32, 8, 8);
  ServeConfig config = acceptance_config();
  config.capture_outputs = false;
  config.prefill_chunk_tokens = 16;  // 32-token prompts -> 2 prefill steps
  ServeEngine engine(config);
  engine.submit_trace(trace);
  engine.run();

  const auto& metrics = engine.metrics();
  EXPECT_EQ(metrics.requests_retired, 4u);
  // Prefill is no longer free: every prompt token's K/V write was charged.
  EXPECT_EQ(metrics.prefill_tokens, 4u * 32u);
  // K and V, head_dim elements each at the quantized width, per (layer,
  // head).
  const std::uint64_t per_token =
      2ull * static_cast<std::uint64_t>(config.head_dim) *
      static_cast<std::uint64_t>(config.n_layer) *
      static_cast<std::uint64_t>(config.n_head) *
      static_cast<std::uint64_t>(config.picker.quant.total_bits);
  EXPECT_EQ(metrics.prefill_bits, 4u * 32u * per_token);

  ASSERT_EQ(metrics.ttft_cycle_samples.size(), 4u);
  ASSERT_EQ(metrics.request_latency_cycle_samples.size(), 4u);
  EXPECT_GT(metrics.p50_ttft_cycles(), 0.0);
  EXPECT_GE(metrics.p99_ttft_cycles(), metrics.p50_ttft_cycles());
  EXPECT_GE(metrics.p99_request_latency_cycles(),
            metrics.p50_request_latency_cycles());

  for (const auto& request : engine.requests()) {
    // Two prefill steps before the first decode step.
    EXPECT_EQ(request.first_token_step, request.admit_step + 2);
    EXPECT_EQ(request.prefill_bits, 32u * per_token);
    EXPECT_GT(request.ttft_cycles(), 0u);
    EXPECT_GE(request.latency_cycles(), request.ttft_cycles());
  }
}

TEST(ServeEngine, MonolithicPrefillLandsInOneCostedStep) {
  Rng rng(404);
  const auto trace = concurrent_trace(4, rng, 32, 32, 8, 8);
  ServeConfig config = acceptance_config();
  config.capture_outputs = false;
  config.prefill_chunk_tokens = 0;  // monolithic: whole prompt in one step
  ServeEngine engine(config);
  engine.submit_trace(trace);
  engine.run();

  EXPECT_EQ(engine.metrics().requests_retired, 4u);
  EXPECT_EQ(engine.metrics().prefill_tokens, 4u * 32u);
  EXPECT_GT(engine.metrics().prefill_bits, 0u);
  for (const auto& request : engine.requests()) {
    EXPECT_EQ(request.first_token_step, request.admit_step + 1);
  }
}

double decode_p99_step_cycles(std::size_t prefill_chunk_tokens,
                              const std::vector<wl::ArrivalEvent>& trace) {
  ServeConfig config;
  config.n_layer = 2;
  config.n_head = 2;
  config.head_dim = 64;
  config.max_batch = 12;
  config.pool_pages = 4096;
  config.page_tokens = 8;
  config.backend = BackendKind::token_picker;
  config.picker.estimator.threshold = 1e-3;
  config.persistence_window = 4;
  config.reclaim = true;
  config.capture_outputs = false;
  config.prefill_chunk_tokens = prefill_chunk_tokens;
  ServeEngine engine(config);
  engine.submit_trace(trace);
  engine.run();
  return engine.metrics().p99_step_cycles();
}

// Bursty arrivals with long prompts: monolithic prefill dumps a whole
// prompt's K/V writes into one step, so co-scheduled decodes eat the burst
// in their tail latency. Chunking the prompt must strictly lower it.
TEST(ServeEngine, ChunkedPrefillLowersDecodeP99UnderBurstyLongPrompts) {
  wl::ArrivalParams params;
  params.kind = wl::ArrivalKind::bursty;
  params.rate = 0.5;
  params.burst_factor = 8.0;
  params.prompt_min = 96;
  params.prompt_max = 256;
  params.decode_min = 16;
  params.decode_max = 48;
  Rng rng(23);
  const auto trace = wl::make_arrival_trace(params, 32, rng);
  EXPECT_LT(decode_p99_step_cycles(16, trace),
            decode_p99_step_cycles(/*monolithic*/ 0, trace));
}

TEST(ServeEngine, MaxPrefillSlotsStaggerAdmission) {
  Rng rng(7);
  const auto trace = concurrent_trace(3, rng, 16, 16, 4, 4);
  ServeConfig config = acceptance_config();
  config.capture_outputs = false;
  config.simulate_dram = false;
  config.prefill_chunk_tokens = 4;  // 16-token prompts -> 4 prefill steps
  config.max_prefill = 1;
  ServeEngine engine(config);
  engine.submit_trace(trace);
  engine.run();

  EXPECT_EQ(engine.metrics().requests_retired, 3u);
  // One prefill slot: each admission waits for the previous request to
  // finish its 4-step prefill.
  std::vector<std::size_t> admit_steps;
  for (const auto& request : engine.requests()) {
    admit_steps.push_back(request.admit_step);
  }
  std::sort(admit_steps.begin(), admit_steps.end());
  EXPECT_EQ(admit_steps, (std::vector<std::size_t>{0, 4, 8}));
  EXPECT_GT(engine.metrics().avg_queue_wait_steps(), 0.0);
}

TEST(ServeEngine, SameStepAdmissionsDoNotOvercommitThePool) {
  // Chunked prefill allocates pages lazily, so admission must reserve the
  // outstanding demand of already-admitted prefills: two requests that
  // together exceed the pool must be admitted sequentially, not both at
  // step 0 followed by mid-prefill preemption churn.
  Rng rng(55);
  const auto trace = concurrent_trace(2, rng, 32, 32, 4, 4);
  ServeConfig config = acceptance_config();
  config.capture_outputs = false;
  config.simulate_dram = false;
  config.prefill_chunk_tokens = 8;
  // Each request needs ceil(33/8) * 2 heads = 10 pages; only one fits.
  config.pool_pages = 16;
  ServeEngine engine(config);
  engine.submit_trace(trace);
  engine.run();

  EXPECT_EQ(engine.metrics().requests_retired, 2u);
  EXPECT_EQ(engine.metrics().preemptions, 0u);
  EXPECT_NE(engine.requests()[0].admit_step, engine.requests()[1].admit_step);
}

TEST(ServeEngine, ZeroDecodeLenRetiresAtArrivalWithoutTraffic) {
  wl::ArrivalEvent empty;
  empty.request_id = 0;
  empty.step = 0;
  empty.prompt_len = 12;
  empty.decode_len = 0;  // nothing to generate
  empty.stream_seed = 1;
  wl::ArrivalEvent normal;
  normal.request_id = 1;
  normal.step = 0;
  normal.prompt_len = 8;
  normal.decode_len = 4;
  normal.stream_seed = 2;

  ServeConfig config = acceptance_config();
  ServeEngine engine(config);
  engine.submit_trace({empty, normal});
  engine.run();

  const auto& metrics = engine.metrics();
  EXPECT_EQ(metrics.requests_retired, 2u);
  // The zero-length request generated no spurious token and moved no bytes.
  const Request& req = engine.requests()[0];
  EXPECT_EQ(req.state, RequestState::finished);
  EXPECT_EQ(req.generated, 0u);
  EXPECT_TRUE(req.outputs.empty());
  EXPECT_EQ(req.prefill_bits, 0u);
  EXPECT_EQ(req.dram_cycles, 0u);
  EXPECT_EQ(req.stats.total_bits_fetched(), 0u);
  EXPECT_EQ(metrics.tokens_generated, 4u);
}

TEST(ServeEngine, CapturedViewTokensReflectPostReclaimLiveness) {
  // With persistence_window = 1 a token pruned this step is reclaimed this
  // step, so the post-reclaim live set must equal the kept set exactly. The
  // stale pre-reclaim capture made view_tokens a strict superset whenever
  // anything was pruned.
  Rng rng(123);
  const auto trace = concurrent_trace(4, rng, 16, 32, 8, 16);
  ServeConfig config = acceptance_config();
  config.persistence_window = 1;
  config.simulate_dram = false;
  ServeEngine engine(config);
  engine.submit_trace(trace);
  engine.run();

  const auto& metrics = engine.metrics();
  EXPECT_EQ(metrics.requests_retired, 4u);
  ASSERT_GT(metrics.stats.tokens_total, metrics.stats.tokens_kept)
      << "scenario must actually prune for this regression to bite";
  for (const auto& request : engine.requests()) {
    for (const auto& step : request.outputs) {
      for (std::size_t inst = 0; inst < step.view_tokens.size(); ++inst) {
        // kept_tokens follows the picker's (out-of-order) decision order;
        // compare as sets.
        auto kept = step.kept_tokens[inst];
        std::sort(kept.begin(), kept.end());
        EXPECT_EQ(step.view_tokens[inst], kept)
            << "request " << request.event.request_id << " pos "
            << step.position << " inst " << inst;
      }
    }
  }
}

TEST(ServeEngine, FragmentationReportedWithinUnitInterval) {
  Rng rng(1);
  const auto trace = concurrent_trace(8, rng, 8, 24, 8, 16);
  ServeConfig config = acceptance_config();
  config.capture_outputs = false;
  config.simulate_dram = false;
  ServeEngine engine(config);
  engine.submit_trace(trace);
  engine.run();
  EXPECT_GE(engine.metrics().avg_fragmentation, 0.0);
  EXPECT_LE(engine.metrics().avg_fragmentation, 1.0);
}

}  // namespace
}  // namespace topick::serve
