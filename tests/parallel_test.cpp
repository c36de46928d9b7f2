// PR 5 concurrency-subsystem suite:
//   * ThreadPool: every index runs exactly once, results land regardless of
//     thread count, reuse across many parallel_fors, exception propagation.
//   * SerialLane: a job's exception surfaces at the next back-pressure wait,
//     and only once.
//   * row_dot_i64 SIMD-vs-scalar equivalence: randomized lengths including
//     odd remainders and adversarial int16 extremes (±32767 runs) — integer
//     dot products have one right answer, so EVERY kernel variant the
//     runtime registry carries (fixedpoint/dispatch.h) must match the scalar
//     reference element-exactly, pinning the accumulator width of each
//     vectorized path. The loops below iterate supported_kernel_tables();
//     tests/dispatch_test.cpp adds the forced-level wrapper matrix.
//   * AccessStats::merge as the parallel reduction primitive: associativity,
//     commutativity, and tail-bucket consistency with record_chunk_fetch's
//     clamp (merging clamped-last-bucket stats into unclamped ones is plain
//     histogram addition — no double counting).
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/access_stats.h"
#include "core/quantized_kv_cache.h"

namespace topick {
namespace {

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    constexpr std::size_t kTasks = 997;  // not a multiple of any pool size
    std::vector<std::atomic<int>> hits(kTasks);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(kTasks, [&](std::size_t i, std::size_t worker) {
      EXPECT_LT(worker, threads);
      hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i;
    }
  }
}

TEST(ThreadPool, ZeroThreadsMeansSequential) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1u);
  int calls = 0;
  pool.parallel_for(5, [&](std::size_t, std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 5);
}

TEST(ThreadPool, EmptyAndSingleTaskWork) {
  ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  pool.parallel_for(1, [&](std::size_t i, std::size_t) {
    EXPECT_EQ(i, 0u);
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, ReusableAcrossManyDispatches) {
  // The serve engine dispatches once per step; the pool must not leak state
  // (or wedge on generation counting) across thousands of barriers.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 2000; ++round) {
    pool.parallel_for(7, [&](std::size_t i, std::size_t) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 2000u * (7u * 8u / 2u));
}

TEST(ThreadPool, NarrowBatchesBetweenWideOnesRunEveryTaskOnce) {
  // A batch narrower than the pool leaves some spawned workers unengaged.
  // They must not read the next batch's state (a data race under TSan) or
  // join it late; every task of every batch runs exactly once.
  ThreadPool pool(8);
  for (int round = 0; round < 500; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(round % 5);
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(n, [&](std::size_t i, std::size_t) {
      hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " task " << i;
    }
  }
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  // Two throwing tasks: every task still runs, and the lower index's
  // exception is the one rethrown at every width.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    try {
      pool.parallel_for(64, [&](std::size_t i, std::size_t) {
        ran.fetch_add(1);
        if (i == 13) throw std::runtime_error("task 13");
        if (i == 40) throw std::runtime_error("task 40");
      });
      ADD_FAILURE() << "parallel_for swallowed the task exceptions";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 13");
    }
    EXPECT_EQ(ran.load(), 64);
    // And the pool still works after the failed dispatch.
    std::atomic<int> ok{0};
    pool.parallel_for(8, [&](std::size_t, std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 8);
  }
}

// Deterministic reduction pattern the engine relies on: parallel produce into
// per-task slots, sequential reduce — identical for every thread count.
TEST(ThreadPool, PerTaskSlotsGiveThreadCountIndependentResults) {
  constexpr std::size_t kTasks = 257;
  auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> slot(kTasks, 0);
    pool.parallel_for(kTasks, [&](std::size_t i, std::size_t) {
      slot[i] = i * i + 17;
    });
    std::uint64_t acc = 0;  // order-sensitive fold (not just a sum)
    for (const std::uint64_t v : slot) acc = acc * 31 + v;
    return acc;
  };
  const std::uint64_t reference = run(1);
  EXPECT_EQ(run(2), reference);
  EXPECT_EQ(run(8), reference);
}

// ---- SerialLane -------------------------------------------------------------

// The serve engine waits on its pipelined lane every step, so a job that
// throws in step t stops the run at step t + 1, as the inline lane stops it
// at step t; the final drain does not report it a second time.
TEST(SerialLane, WaitDepthBelowRethrowsACapturedJobExceptionOnce) {
  SerialLane lane(/*enabled=*/true);
  std::atomic<int> ran{0};
  lane.submit([] { throw std::runtime_error("job 0"); });
  lane.submit([&] { ran.fetch_add(1); });
  try {
    lane.wait_depth_below(1);  // blocks until both jobs completed
    ADD_FAILURE() << "wait_depth_below swallowed the job exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 0");
  }
  EXPECT_EQ(ran.load(), 1);  // the failed job did not stop the lane
  EXPECT_NO_THROW(lane.drain());
  EXPECT_NO_THROW(lane.wait_depth_below(1));
  lane.submit([&] { ran.fetch_add(1); });
  lane.drain();
  EXPECT_EQ(ran.load(), 2);
}

// ---- row_dot_i64 variant-vs-scalar equivalence ------------------------------

TEST(RowDotI64, KernelNameIsKnown) {
  // The active name must be a registry name the running CPU supports — not a
  // hardcoded list, so a new ISA variant cannot silently miss this test.
  const std::string name = fx::kernel_isa_name();
  bool found = false;
  for (const fx::KernelTable* table : fx::supported_kernel_tables()) {
    if (name == table->name) found = true;
  }
  EXPECT_TRUE(found) << name;
}

TEST(RowDotI64, EveryVariantMatchesScalarOnRandomizedLengths) {
  Rng rng(0x5eed);
  // Odd remainders around every unroll width (scalar x4, SSE x8, AVX2 x16,
  // AVX-512 x32 plus their half-vector steps), plus typical head dims.
  const std::size_t lengths[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 31,
                                 32, 33, 63, 64, 65, 100, 127, 128, 256};
  for (const std::size_t n : lengths) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<std::int16_t> a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Full 12-bit quantized range, the hot path's actual domain.
        a[i] = static_cast<std::int16_t>(
            static_cast<int>(rng.uniform_index(4096)) - 2048);
        b[i] = static_cast<std::int16_t>(
            static_cast<int>(rng.uniform_index(4096)) - 2048);
      }
      const std::int64_t want = fx::row_dot_i64_scalar(a.data(), b.data(), n);
      EXPECT_EQ(fx::active_kernels().row_dot_i64(a.data(), b.data(), n), want)
          << "n=" << n << " trial=" << trial;
      for (const fx::KernelTable* table : fx::supported_kernel_tables()) {
        EXPECT_EQ(table->row_dot_i64(a.data(), b.data(), n), want)
            << table->name << " n=" << n << " trial=" << trial;
      }
    }
  }
}

TEST(RowDotI64, AdversarialInt16ExtremesPinAccumulatorWidth) {
  // ±32767 runs: every partial sum is at the magnitude where an int32 (or
  // madd-pair int32) accumulator would wrap. 256 * 32767^2 ≈ 2^38 forces
  // the accumulation to be 64-bit wide in every variant.
  const std::size_t lengths[] = {1, 7, 16, 31, 33, 64, 256};
  for (const std::size_t n : lengths) {
    std::vector<std::int16_t> pos(n, 32767);
    std::vector<std::int16_t> neg(n, -32767);
    std::vector<std::int16_t> alt(n);
    for (std::size_t i = 0; i < n; ++i) {
      alt[i] = (i % 2 == 0) ? std::int16_t{32767} : std::int16_t{-32767};
    }
    const std::vector<std::int16_t>* vecs[] = {&pos, &neg, &alt};
    for (const auto* a : vecs) {
      for (const auto* b : vecs) {
        const std::int64_t expected =
            fx::row_dot_i64_scalar(a->data(), b->data(), n);
        EXPECT_EQ(fx::active_kernels().row_dot_i64(a->data(), b->data(), n),
                  expected)
            << "n=" << n;
        for (const fx::KernelTable* table : fx::supported_kernel_tables()) {
          EXPECT_EQ(table->row_dot_i64(a->data(), b->data(), n), expected)
              << table->name << " n=" << n;
        }
        // Sanity: the all-same-sign cases really exceed int32 range for the
        // longer runs, so the equality above is meaningful.
        if (a == &pos && b == &pos && n >= 3) {
          EXPECT_GT(expected, static_cast<std::int64_t>(INT32_MAX));
        }
      }
    }
  }
}

TEST(RowDotI64, ZeroLengthIsZero) {
  EXPECT_EQ(fx::active_kernels().row_dot_i64(nullptr, nullptr, 0), 0);
  EXPECT_EQ(fx::row_dot_i64_scalar(nullptr, nullptr, 0), 0);
  for (const fx::KernelTable* table : fx::supported_kernel_tables()) {
    EXPECT_EQ(table->row_dot_i64(nullptr, nullptr, 0), 0) << table->name;
  }
}

// ---- the other SIMD hot kernels: bit-exact vs their scalar references ------

TEST(WeightedValueAccum, EveryVariantMatchesScalarBitExactly) {
  Rng rng(0x77a1);
  const std::size_t lengths[] = {1, 3, 4, 5, 7, 8, 31, 64, 65};
  for (const std::size_t n : lengths) {
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<std::int16_t> v(n);
      for (auto& x : v) {
        x = static_cast<std::int16_t>(
            static_cast<int>(rng.uniform_index(4096)) - 2048);
      }
      std::vector<float> seed(n), out_ref(n);
      for (std::size_t d = 0; d < n; ++d) {
        seed[d] = out_ref[d] = static_cast<float>(rng.normal());
      }
      const double p = rng.uniform();
      const double v_scale = rng.uniform() * 0.01 + 1e-6;
      weighted_value_accum_scalar(out_ref.data(), v.data(), p, v_scale, n);
      std::vector<float> out(n);
      out = seed;
      weighted_value_accum(out.data(), v.data(), p, v_scale, n);
      EXPECT_EQ(out, out_ref) << "dispatch wrapper, n=" << n;
      for (const fx::KernelTable* table : fx::supported_kernel_tables()) {
        out = seed;
        table->weighted_value_accum(out.data(), v.data(), p, v_scale, n);
        EXPECT_EQ(out, out_ref) << table->name << " n=" << n;
      }
    }
  }
}

TEST(QuantizeRow, EveryVariantMatchesScalarIncludingHalfwayAndSaturation) {
  Rng rng(0x9a3f);
  fx::QuantParams params;
  const std::size_t lengths[] = {1, 7, 8, 9, 16, 33, 64};
  for (const std::size_t n : lengths) {
    for (int trial = 0; trial < 40; ++trial) {
      params.scale = trial % 3 == 0 ? 1.0f : 0.25f + static_cast<float>(
                                                 rng.uniform());
      std::vector<float> xs(n);
      for (std::size_t i = 0; i < n; ++i) {
        switch (rng.uniform_index(4)) {
          case 0:  // exact half-way ratios: rounding mode must match lround
            xs[i] = (static_cast<float>(rng.uniform_index(4096)) - 2048.0f +
                     0.5f) * params.scale;
            break;
          case 1:  // saturating extremes, both signs
            xs[i] = (rng.uniform() < 0.5 ? 1.0f : -1.0f) *
                    (3e9f + static_cast<float>(rng.normal()));
            break;
          default:
            xs[i] = static_cast<float>(rng.normal() * 500.0);
        }
      }
      std::vector<std::int16_t> got(n), want(n);
      fx::quantize_row_i16_scalar(xs.data(), n, params, want.data());
      fx::quantize_row_i16(xs.data(), n, params, got.data());
      EXPECT_EQ(got, want) << "dispatch wrapper, n=" << n
                           << " scale=" << params.scale;
      for (const fx::KernelTable* table : fx::supported_kernel_tables()) {
        std::vector<std::int16_t> variant(n);
        table->quantize_row_i16(xs.data(), n, params, variant.data());
        EXPECT_EQ(variant, want)
            << table->name << " n=" << n << " scale=" << params.scale;
      }
    }
  }
}

// ---- AccessStats::merge as the reduction primitive --------------------------

AccessStats random_stats(Rng& rng, bool clamped_tail) {
  AccessStats s;
  s.k_bits_fetched = rng.uniform_index(1 << 20);
  s.v_bits_fetched = rng.uniform_index(1 << 20);
  s.k_bits_baseline = rng.uniform_index(1 << 21);
  s.v_bits_baseline = rng.uniform_index(1 << 21);
  s.tokens_total = rng.uniform_index(4096);
  s.tokens_kept = rng.uniform_index(s.tokens_total + 1);
  const int max_chunks = clamped_tail ? 24 : 8;  // > 8 folds into the tail
  const int records = static_cast<int>(rng.uniform_index(200));
  for (int i = 0; i < records; ++i) {
    s.record_chunk_fetch(1 + static_cast<int>(rng.uniform_index(
                                 static_cast<std::size_t>(max_chunks))));
  }
  return s;
}

void expect_stats_equal(const AccessStats& a, const AccessStats& b) {
  EXPECT_EQ(a.k_bits_fetched, b.k_bits_fetched);
  EXPECT_EQ(a.v_bits_fetched, b.v_bits_fetched);
  EXPECT_EQ(a.k_bits_baseline, b.k_bits_baseline);
  EXPECT_EQ(a.v_bits_baseline, b.v_bits_baseline);
  EXPECT_EQ(a.tokens_total, b.tokens_total);
  EXPECT_EQ(a.tokens_kept, b.tokens_kept);
  EXPECT_EQ(a.chunk_histogram, b.chunk_histogram);
}

std::uint64_t histogram_total(const AccessStats& s) {
  return std::accumulate(s.chunk_histogram.begin(), s.chunk_histogram.end(),
                         std::uint64_t{0});
}

TEST(AccessStatsMerge, AssociativeCommutativeAndClampConsistent) {
  Rng rng(0xacce55);
  for (int trial = 0; trial < 200; ++trial) {
    // Mix clamped-tail producers (> 8-chunk configs, e.g. chunk_bits = 1)
    // with unclamped ones — the serve engine's reduction merges both kinds
    // into the same fleet-wide stats.
    const AccessStats a = random_stats(rng, trial % 2 == 0);
    const AccessStats b = random_stats(rng, trial % 3 == 0);
    const AccessStats c = random_stats(rng, true);

    AccessStats ab = a;
    ab.merge(b);
    AccessStats ba = b;
    ba.merge(a);
    expect_stats_equal(ab, ba);  // commutative

    AccessStats ab_c = ab;
    ab_c.merge(c);
    AccessStats bc = b;
    bc.merge(c);
    AccessStats a_bc = a;
    a_bc.merge(bc);
    expect_stats_equal(ab_c, a_bc);  // associative

    // Tail-bucket consistency: merge is plain histogram addition, so the
    // merged totals (and the clamped tail bucket) are exactly the sums —
    // a clamped-last-bucket producer merged into an unclamped one cannot
    // double-count or lose records.
    EXPECT_EQ(histogram_total(ab_c),
              histogram_total(a) + histogram_total(b) + histogram_total(c));
    EXPECT_EQ(ab_c.chunk_histogram.back(),
              a.chunk_histogram.back() + b.chunk_histogram.back() +
                  c.chunk_histogram.back());
  }
}

TEST(AccessStatsMerge, MergeMatchesRecordingInOneAccumulator) {
  // Splitting a record stream across instances and merging must equal
  // recording everything into one AccessStats — the exact claim the engine's
  // per-instance reduction relies on.
  Rng rng(0x1234);
  AccessStats combined;
  AccessStats parts[4];
  for (int i = 0; i < 1000; ++i) {
    const int chunks = 1 + static_cast<int>(rng.uniform_index(24));
    combined.record_chunk_fetch(chunks);
    parts[rng.uniform_index(4)].record_chunk_fetch(chunks);
  }
  AccessStats reduced;
  for (const auto& p : parts) reduced.merge(p);
  EXPECT_EQ(histogram_total(reduced), histogram_total(combined));
  EXPECT_EQ(reduced.chunk_histogram, combined.chunk_histogram);
}

}  // namespace
}  // namespace topick
