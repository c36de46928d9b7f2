// Cross-cutting property sweeps: randomized invariants that tie modules
// together (quantization formats x margins x estimator x engine x memsim).
#include <cmath>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "accel/engine.h"
#include "accel/kv_layout.h"
#include "common/expsum.h"
#include "common/rng.h"
#include "core/attention_backends.h"
#include "core/quantized_kv_cache.h"
#include "core/token_picker.h"
#include "fixedpoint/chunks.h"
#include "memsim/hbm.h"
#include "train/corpus.h"
#include "workload/generator.h"

namespace topick {
namespace {

// ---------- fixed-point format sweep ---------------------------------------

class QuantFormatSweep : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(QuantFormatSweep, ChunkRoundTripAndResidualInvariant) {
  const auto [total_bits, chunk_bits] = GetParam();
  fx::QuantParams p;
  p.total_bits = total_bits;
  p.chunk_bits = chunk_bits;
  Rng rng(1000 + static_cast<std::uint64_t>(total_bits * 16 + chunk_bits));
  const int span = 1 << total_bits;
  for (int trial = 0; trial < 300; ++trial) {
    const auto v = static_cast<std::int16_t>(
        static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(span))) -
        span / 2);
    // Chunks reassemble exactly.
    std::vector<std::uint16_t> chunks;
    for (int b = 0; b < p.num_chunks(); ++b) {
      chunks.push_back(fx::chunk_bits_of(v, b, p));
    }
    ASSERT_EQ(fx::assemble(chunks, p), v);
    // Partial + residual brackets for every level >= 1.
    for (int level = 1; level <= p.num_chunks(); ++level) {
      const int lo = fx::partial_value(v, level, p);
      ASSERT_LE(lo, v);
      ASSERT_GE(lo + fx::residual_weight(level, p), v);
    }
  }
}

// Every representable value of the format, pushed as one key row, must be
// reassembled by the store's offset-binary nibble planes:
// sum_j nibble_j * 16^(planes-1-j) - 2^(total_bits-1). Every chunk level of
// the walk (offset plus the masked nibble dots of the chunks so far) must
// equal the two's-complement partial_dot_i64, and key_row / key_dot the
// int16 row and its exact dot.
TEST_P(QuantFormatSweep, DigitPlanesReassembleEveryValue) {
  const auto [total_bits, chunk_bits] = GetParam();
  fx::QuantParams p;
  p.total_bits = total_bits;
  p.chunk_bits = chunk_bits;
  std::vector<std::int16_t> row;
  for (std::int32_t v = p.qmin(); v <= p.qmax(); ++v) {
    row.push_back(static_cast<std::int16_t>(v));
  }
  QuantizedKv store;
  store.reset(p, p, row.size());
  store.push_row(row.data(), row.data());
  const QuantizedKvView view = store.view();
  const int planes = view.key_layout->planes();
  ASSERT_EQ(planes, (total_bits + 3) / 4);
  for (std::size_t d = 0; d < row.size(); ++d) {
    std::int64_t sum = -(std::int64_t{1} << (total_bits - 1));
    for (int j = 0; j < planes; ++j) {
      const std::uint8_t byte = view.key_plane_row(j, 0)[d / 2];
      sum += std::int64_t{(byte >> (4 * (d % 2))) & 0xF}
             << (4 * (planes - 1 - j));
    }
    ASSERT_EQ(sum, row[d]);
  }

  // The view's two key readers: key_row reassembles the pushed row, and
  // key_dot is the exact int16 dot over it.
  std::vector<std::int16_t> reassembled(row.size());
  view.key_row(0, reassembled.data());
  EXPECT_EQ(reassembled, row);
  Rng rng(0x9e7 + static_cast<std::uint64_t>(total_bits * 16 + chunk_bits));
  std::vector<std::int16_t> q_max(row.size()), q_min(row.size()),
      q_alt(row.size()), q_rand(row.size());
  for (std::size_t d = 0; d < row.size(); ++d) {
    q_max[d] = static_cast<std::int16_t>(p.qmax());
    q_min[d] = static_cast<std::int16_t>(p.qmin());
    q_alt[d] = d % 2 == 0 ? q_max[d] : q_min[d];
    q_rand[d] = static_cast<std::int16_t>(
        p.qmin() + static_cast<std::int32_t>(rng.uniform_index(
                       static_cast<std::uint64_t>(p.qmax() - p.qmin() + 1))));
  }
  for (const auto* q : {&q_max, &q_min, &q_alt, &q_rand}) {
    EXPECT_EQ(view.key_dot(q->data(), 0, view.key_offset_dot(q->data())),
              fx::row_dot_i64_scalar(q->data(), row.data(), row.size()));
    const fx::QuantizedRowView qv{p, *q};
    const fx::QuantizedRowView kv{p, row};
    std::int64_t partial = view.key_offset_dot(q->data());
    for (int b = 0; b < p.num_chunks(); ++b) {
      partial += view.key_chunk_dot(q->data(), 0, b);
      EXPECT_EQ(partial, fx::partial_dot_i64(qv, kv, b + 1)) << "chunk " << b;
    }
  }
}

TEST(DigitPlanes, OutOfRangeFormatsAreRejected) {
  // The planes hold any chunk width up to total_bits; only a format the
  // int16 quantizer rejects is refused.
  const std::tuple<int, int> rejected[] = {{16, 8}, {1, 1}, {12, 0}, {12, 13}};
  for (const auto& [total_bits, chunk_bits] : rejected) {
    fx::QuantParams p;
    p.total_bits = total_bits;
    p.chunk_bits = chunk_bits;
    QuantizedKv store;
    EXPECT_THROW(store.reset(p, p, 4), std::logic_error)
        << total_bits << "/" << chunk_bits;
    EXPECT_THROW(QuantizedKvCache(4, QuantizedKvCache::Config{p}),
                 std::logic_error)
        << total_bits << "/" << chunk_bits;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, QuantFormatSweep,
    ::testing::Values(std::tuple{12, 4}, std::tuple{12, 2}, std::tuple{12, 6},
                      std::tuple{8, 4}, std::tuple{8, 2}, std::tuple{6, 2},
                      std::tuple{10, 3}, std::tuple{12, 5},
                      std::tuple{12, 1}, std::tuple{12, 3}, std::tuple{12, 7},
                      std::tuple{15, 7}, std::tuple{8, 8},
                      // Chunks wider than a nibble plane, up to one chunk
                      // holding the whole key.
                      std::tuple{12, 8}, std::tuple{12, 9},
                      std::tuple{12, 12}));

// ---------- estimator invariants over head dims ----------------------------

class HeadDimSweep : public ::testing::TestWithParam<int> {};

TEST_P(HeadDimSweep, TokenPickerSoundAtAnyHeadDim) {
  const int head_dim = GetParam();
  wl::WorkloadParams params;
  params.context_len = 128;
  params.head_dim = head_dim;
  wl::Generator gen(params);
  Rng rng(2000 + static_cast<std::uint64_t>(head_dim));
  const auto inst = gen.make_instance(rng);

  TokenPickerConfig config;
  config.estimator.threshold = 2e-3;
  TokenPickerAttention op(config);
  const auto result = op.attend(inst.q, inst.view());
  const auto exact = exact_attention_quantized(inst.q, inst.view());
  for (const auto& d : result.decisions) {
    if (!d.kept) {
      ASSERT_LT(exact.probs[d.token], 2e-3) << "head_dim " << head_dim;
    }
  }
  ASSERT_GT(result.stats.tokens_kept, 0u);
}

INSTANTIATE_TEST_SUITE_P(Dims, HeadDimSweep,
                         ::testing::Values(16, 32, 64, 80, 128));

// ---------- context-length scaling -----------------------------------------

TEST(ContextScaling, KeptFractionShrinksWithContext) {
  // A fixed probability threshold prunes little at short contexts (uniform
  // probability 1/len can exceed thr) and much at long ones — the kept
  // fraction must be non-increasing in context length.
  TokenPickerConfig config;
  config.estimator.threshold = 1e-3;
  double prev_fraction = 1.1;
  for (const int context : {64, 256, 1024, 2048}) {
    wl::WorkloadParams params;
    params.context_len = static_cast<std::size_t>(context);
    params.head_dim = 64;
    wl::Generator gen(params);
    Rng rng(3000);
    AccessStats agg;
    TokenPickerAttention op(config);
    for (int i = 0; i < 4; ++i) {
      const auto inst = gen.make_instance(rng);
      agg.merge(op.attend(inst.q, inst.view()).stats);
    }
    const double kept_fraction = static_cast<double>(agg.tokens_kept) /
                                 static_cast<double>(agg.tokens_total);
    EXPECT_LT(kept_fraction, prev_fraction + 0.02) << "context " << context;
    prev_fraction = kept_fraction;
  }
  // At generation-scale contexts pruning must be substantial.
  EXPECT_LT(prev_fraction, 0.20);
}

// ---------- engine design-point matrix -------------------------------------

class EngineDesignSweep
    : public ::testing::TestWithParam<accel::DesignPoint> {};

TEST_P(EngineDesignSweep, AllTokensResolvedAndAccountingCloses) {
  const auto design = GetParam();
  wl::WorkloadParams params;
  params.context_len = 192;
  params.head_dim = 64;
  wl::Generator gen(params);
  Rng rng(4000 + static_cast<std::uint64_t>(design));
  const auto inst = gen.make_instance(rng);

  const auto hw = accel::make_instance(inst.q, inst.view());

  accel::AccelConfig config;
  config.design = design;
  config.estimator.threshold = 1e-3;
  config.dram.enable_refresh = false;
  accel::Engine engine(config);
  const auto result = engine.run(hw);

  // Everyone is resolved exactly once.
  std::uint64_t histo = 0;
  for (auto c : result.access.chunk_histogram) histo += c;
  EXPECT_EQ(histo, 192u);
  EXPECT_EQ(result.kept.size(), 192u);
  // V accounting: bits = survivors x granules x granule bits.
  EXPECT_EQ(result.access.v_bits_fetched,
            static_cast<std::uint64_t>(result.survivors) * 3 * 32 * 8);
  // Survivor outputs are finite.
  for (float v : result.output) EXPECT_TRUE(std::isfinite(v));
  EXPECT_GT(result.survivors, 0u);
}

INSTANTIATE_TEST_SUITE_P(Designs, EngineDesignSweep,
                         ::testing::Values(accel::DesignPoint::baseline,
                                           accel::DesignPoint::topick_kv,
                                           accel::DesignPoint::topick_stalled,
                                           accel::DesignPoint::topick_ooo));

TEST(EngineOrdering, StalledIsSlowerThanOutOfOrder) {
  wl::WorkloadParams params;
  params.context_len = 256;
  params.head_dim = 64;
  wl::Generator gen(params);
  Rng rng(4100);
  const auto inst = gen.make_instance(rng);

  const auto hw = accel::make_instance(inst.q, inst.view());

  auto cycles_at = [&](accel::DesignPoint design) {
    accel::AccelConfig config;
    config.design = design;
    config.estimator.threshold = 1e-3;
    config.dram.enable_refresh = false;
    accel::Engine engine(config);
    return engine.run(hw).core_cycles;
  };
  const auto stalled = cycles_at(accel::DesignPoint::topick_stalled);
  const auto ooo = cycles_at(accel::DesignPoint::topick_ooo);
  EXPECT_GT(stalled, 2 * ooo)
      << "out-of-order must hide DRAM latency the stalled design exposes";
}

// ---------- KV layout: address injectivity ---------------------------------

TEST(KvLayoutProperty, AddressesAreInjectiveAcrossTokensChunksGranules) {
  accel::AccelConfig config;
  const accel::KvLayout layout(config, 1 << 20, 96, 128);
  std::set<std::uint64_t> seen;
  for (std::size_t t = 0; t < 96; ++t) {
    for (int b = 0; b < 3; ++b) {
      for (int g = 0; g < layout.granules_per_chunk(); ++g) {
        ASSERT_TRUE(seen.insert(layout.key_chunk_addr(t, b, g)).second);
      }
    }
    for (int g = 0; g < layout.granules_per_value(); ++g) {
      ASSERT_TRUE(seen.insert(layout.value_addr(t, g)).second);
    }
  }
  // All addresses sit at or above the base (the bank-group mapping spreads
  // planes sparsely, so the span exceeds the nominal data footprint).
  for (auto addr : seen) {
    ASSERT_GE(addr, 1u << 20);
  }
}

// ---------- memsim: channel-count sweep -------------------------------------

class ChannelSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChannelSweep, StreamingScalesWithChannels) {
  const int channels = GetParam();
  mem::DramConfig config;
  config.enable_refresh = false;
  config.channels = channels;
  mem::Hbm hbm(config);
  const int n = 512;
  int issued = 0;
  std::uint64_t addr = 0;
  while (issued < n || !hbm.idle()) {
    while (issued < n && hbm.try_enqueue(mem::MemRequest{
                             addr, static_cast<std::uint64_t>(issued)})) {
      addr += 32;
      ++issued;
    }
    hbm.tick();
    ASSERT_LT(hbm.cycle(), 1000000u);
  }
  const double per_channel_ideal = static_cast<double>(n) / channels;
  EXPECT_GE(static_cast<double>(hbm.cycle()), per_channel_ideal);
  EXPECT_LE(static_cast<double>(hbm.cycle()), per_channel_ideal * 2.0 + 100.0);
}

INSTANTIATE_TEST_SUITE_P(Channels, ChannelSweep, ::testing::Values(1, 2, 4, 8));

// ---------- corpus determinism ----------------------------------------------

TEST(CorpusProperty, SameSeedSameDocuments) {
  train::CorpusConfig config;
  train::Corpus corpus(config);
  Rng a(77), b(77);
  EXPECT_EQ(corpus.make_document(a), corpus.make_document(b));
}

TEST(CorpusProperty, DifferentSeedsDifferentDocuments) {
  train::CorpusConfig config;
  train::Corpus corpus(config);
  Rng a(77), b(78);
  EXPECT_NE(corpus.make_document(a), corpus.make_document(b));
}

// ---------- expsum randomized consistency -----------------------------------

TEST(ExpSumProperty, RandomAddRemoveReplaceMatchesBatch) {
  Rng rng(5000);
  for (int trial = 0; trial < 30; ++trial) {
    ShiftedExpSum sum;
    std::vector<double> live;
    for (int step = 0; step < 200; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.6 || live.empty()) {
        const double x = rng.uniform(-30.0, 30.0);
        sum.add(x);
        live.push_back(x);
      } else if (roll < 0.8) {
        const auto i = rng.uniform_index(live.size());
        sum.remove(live[i]);
        live[i] = live.back();
        live.pop_back();
      } else {
        const auto i = rng.uniform_index(live.size());
        const double nx = live[i] + rng.uniform(0.0, 5.0);
        sum.replace(live[i], nx);
        live[i] = nx;
      }
    }
    if (live.empty()) {
      EXPECT_TRUE(std::isinf(sum.log()));
    } else {
      const double expected = log_sum_exp(live.data(), live.size());
      EXPECT_NEAR(sum.log(), expected, 1e-5) << "trial " << trial;
    }
  }
}

// ---------- probes: recorded probabilities are a distribution ---------------

TEST(RecordingProperty, ProbabilitiesFormDistribution) {
  Rng rng(6000);
  const auto weights = TransformerWeights::random_init(test_lm_config(), rng);
  int records = 0;
  RecordingBackend backend([&](const ProbRecord& record) {
    double sum = 0.0;
    for (double p : record.probs) {
      ASSERT_GE(p, 0.0);
      sum += p;
    }
    ASSERT_NEAR(sum, 1.0, 1e-9);
    ASSERT_EQ(record.probs.size(),
              static_cast<std::size_t>(record.position) + 1);
    ++records;
  });
  Transformer model(&weights, &backend);
  model.begin_sequence();
  for (int t = 0; t < 12; ++t) model.decode_step(t % 16);
  EXPECT_EQ(records, 12 * test_lm_config().n_layer * test_lm_config().n_head);
}

}  // namespace
}  // namespace topick
