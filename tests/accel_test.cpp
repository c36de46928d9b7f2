#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "accel/energy_model.h"
#include "accel/engine.h"
#include "accel/kv_layout.h"
#include "accel/scoreboard.h"
#include "core/exact_attention.h"
#include "core/quantized_kv_cache.h"
#include "workload/generator.h"

namespace topick::accel {
namespace {

AccelConfig make_config(DesignPoint design, double threshold = 1e-3) {
  AccelConfig config;
  config.design = design;
  config.estimator.threshold = threshold;
  config.dram.enable_refresh = false;  // determinism in unit tests
  return config;
}

// Builds a quantized accelerator instance from a synthetic workload.
AccelInstance make_instance(Rng& rng, std::size_t len, int head_dim = 64) {
  wl::WorkloadParams params;
  params.context_len = len;
  params.head_dim = head_dim;
  wl::Generator gen(params);
  const auto inst = gen.make_instance(rng);
  return accel::make_instance(inst.q, inst.view());
}

// quantize_kv's head must equal the per-row construction — one scale from
// choose_scale over the whole arena, then fx::quantize of each row — params
// included, also where the quantizer zeroes (NaN) or saturates (±1e30): the
// key rows reassembled from the nibble planes and the value rows as stored.
// An inf element has no finite scale and is refused
// (tests/edge_cases_test.cpp).
TEST(QuantizeKvTest, ArenaMatchesPerRowQuantize) {
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  const std::vector<std::vector<float>> specials = {
      {}, {kNaN, 1e30f, -1e30f}, {-1e30f, 1e30f, -kNaN}};
  constexpr std::size_t len = 9;
  Rng rng(0xa7e4a);
  for (const std::size_t dim : {1, 7, 64, 80, 128}) {
    for (const auto& special : specials) {
      for (const fx::QuantParams base : {fx::QuantParams{}, {10, 3}}) {
        std::vector<float> k(len * dim), v(len * dim);
        for (auto& x : k) x = static_cast<float>(rng.normal());
        for (auto& x : v) x = static_cast<float>(rng.normal());
        for (std::size_t i = 0; i < special.size(); ++i) {
          k[((3 + i) % len) * dim + i % dim] = special[i];
          v[((5 + 2 * i) % len) * dim + dim - 1 - i % dim] = special[i];
        }
        const auto kv = quantize_kv({k.data(), v.data(), len, dim}, base);
        const QuantizedKvView view = kv.view();
        ASSERT_EQ(view.head_dim, dim);
        ASSERT_EQ(view.len, len);
        std::vector<std::int16_t> key(dim);
        for (const bool keys : {true, false}) {
          const std::vector<float>& src = keys ? k : v;
          fx::QuantParams params = base;
          params.scale = fx::choose_scale(src, base.total_bits);
          const fx::QuantParams& got_params =
              keys ? view.key_params : view.value_params;
          EXPECT_EQ(got_params.total_bits, params.total_bits);
          EXPECT_EQ(got_params.chunk_bits, params.chunk_bits);
          EXPECT_EQ(got_params.scale, params.scale);
          for (std::size_t t = 0; t < len; ++t) {
            const auto want = fx::quantize({&src[t * dim], dim}, params);
            const std::int16_t* got = view.value(t);
            if (keys) {
              view.key_row(t, key.data());
              got = key.data();
            }
            EXPECT_TRUE(std::equal(want.values.begin(), want.values.end(), got))
                << "dim " << dim << " row " << t << (keys ? " key" : " value");
          }
        }
      }
    }
  }
}

// quantize_kv holds exactly the bytes its layout needs: P nibble planes of
// ceil(d / 2) bytes per row and a 2-byte value per element, with no
// capacity slack in any arena.
TEST(QuantizeKvTest, HoldsExactlyThePlanesAndTheValueArena) {
  Rng rng(0xf007);
  for (const fx::QuantParams base : {fx::QuantParams{}, {10, 3}}) {
    for (const std::size_t dim : {7, 64}) {
      constexpr std::size_t len = 37;
      std::vector<float> k(len * dim), v(len * dim);
      for (auto& x : k) x = static_cast<float>(rng.normal());
      for (auto& x : v) x = static_cast<float>(rng.normal());
      const auto kv = quantize_kv({k.data(), v.data(), len, dim}, base);
      const std::size_t planes = (base.total_bits + 3) / 4;
      ASSERT_EQ(kv.keys.planes.size(), planes);
      std::size_t bytes = kv.values.data.capacity() * sizeof(std::int16_t);
      EXPECT_EQ(kv.values.data.capacity(), kv.values.data.size());
      for (const auto& plane : kv.keys.planes) {
        EXPECT_EQ(plane.capacity(), plane.size());
        bytes += plane.capacity();
      }
      EXPECT_EQ(bytes, len * (planes * ((dim + 1) / 2) + 2 * dim))
          << base.total_bits << "/" << base.chunk_bits << " dim " << dim;
    }
  }
}

// A head built by hand refuses a key its offset-binary planes cannot hold,
// at the push, leaving the head as it was.
TEST(QuantizedKvTest, PushRowRejectsAKeyOutsideTheQuantRange) {
  const fx::QuantParams params;
  const std::size_t dim = 8;
  for (const std::int32_t bad : {params.qmax() + 1, params.qmin() - 1}) {
    QuantizedKv kv;
    kv.reset(params, params, dim);
    std::vector<std::int16_t> k(dim, 3), v(dim, 5);
    kv.push_row(k.data(), v.data());
    k[5] = static_cast<std::int16_t>(bad);
    EXPECT_THROW(kv.push_row(k.data(), v.data()), std::logic_error) << bad;
    EXPECT_EQ(kv.len, 1u);
    EXPECT_EQ(kv.view().len, 1u);
  }
}

// QuantizedKv's members are public, so its readers check what quantize_kv
// guarantees. Engine::run and attend_quantized read every K plane and V row
// up to the query's width, so rows narrower than the query and arenas that
// do not hold len rows must throw at entry.
TEST(EngineTest, MalformedArenasThrow) {
  Rng rng(42);
  const auto good = make_instance(rng, 64);
  auto narrow = good, short_v = good, short_k = good;
  narrow.kv.head_dim = 32;
  narrow.kv.values.data.resize(64 * 32);
  for (auto& plane : narrow.kv.keys.planes) plane.resize(64 * 16);
  short_v.kv.values.data.resize(63 * 64);
  short_k.kv.keys.planes[1].resize(63 * 32);
  TokenPickerAttention op(TokenPickerConfig{});
  EXPECT_NO_THROW(op.attend_quantized(good.q, good.kv, good.score_scale));
  for (const auto* bad : {&narrow, &short_v, &short_k}) {
    EXPECT_THROW(op.attend_quantized(bad->q, bad->kv, bad->score_scale),
                 std::logic_error);
  }
  for (const auto design : {DesignPoint::baseline, DesignPoint::topick_ooo}) {
    Engine engine(make_config(design, 1e-3));
    EXPECT_NO_THROW(engine.run(good));
    for (const auto* bad : {&narrow, &short_v, &short_k}) {
      EXPECT_THROW(engine.run(*bad), std::logic_error);
    }
  }
}

TEST(KvLayoutTest, FirstChunkPlaneIsContiguous) {
  const AccelConfig config = make_config(DesignPoint::topick_ooo);
  KvLayout layout(config, 0, 128, 64);
  EXPECT_EQ(layout.granules_per_chunk(), 1);
  EXPECT_EQ(layout.granules_per_value(), 3);
  // Consecutive tokens' chunk-0 granules interleave channels (streaming
  // friendly): the first 8 tokens land in 8 different channels.
  mem::Hbm hbm(config.dram);
  std::set<int> channels;
  for (std::size_t t = 0; t < 8; ++t) {
    channels.insert(hbm.channel_of(layout.key_chunk_addr(t, 0, 0)));
  }
  EXPECT_EQ(channels.size(), 8u);
}

TEST(KvLayoutTest, PlanesOccupyDisjointBankGroups) {
  // The mapping's whole point: chunk-0, chunk-1, chunk-2 and V streams must
  // never collide in a bank, so interleaved on-demand traffic cannot thrash
  // row buffers across planes.
  const AccelConfig config = make_config(DesignPoint::topick_ooo);
  KvLayout layout(config, 0, 256, 64);
  mem::Hbm hbm(config.dram);
  std::array<std::set<std::uint64_t>, 4> banks_used;
  for (std::size_t t = 0; t < 256; ++t) {
    for (int b = 0; b < 3; ++b) {
      banks_used[static_cast<std::size_t>(b)].insert(
          hbm.local_of(layout.key_chunk_addr(t, b, 0)).bank);
    }
    for (int g = 0; g < layout.granules_per_value(); ++g) {
      banks_used[3].insert(hbm.local_of(layout.value_addr(t, g)).bank);
    }
  }
  // The K planes interleave in time and must be pairwise bank-disjoint.
  for (int a = 0; a < 3; ++a) {
    for (int b = a + 1; b < 3; ++b) {
      for (auto bank : banks_used[static_cast<std::size_t>(a)]) {
        EXPECT_FALSE(banks_used[static_cast<std::size_t>(b)].count(bank))
            << "K plane " << a << " and K plane " << b << " share bank "
            << bank;
      }
    }
  }
  // V streams alone in step 1 and deliberately uses every bank.
  EXPECT_EQ(banks_used[3].size(), 16u);
  EXPECT_EQ(layout.region_bytes(), 256u * (3u + 3u) * 32u);
}

TEST(KvLayoutTest, WideHeadUsesMultipleGranules) {
  const AccelConfig config = make_config(DesignPoint::topick_ooo);
  KvLayout layout(config, 0, 16, 128);
  EXPECT_EQ(layout.granules_per_chunk(), 2);   // 128 dims x 4 bit = 64 B
  EXPECT_EQ(layout.granules_per_value(), 6);   // 128 dims x 12 bit = 192 B
}

TEST(KvLayoutTest, RejectsUnalignedBase) {
  const AccelConfig config = make_config(DesignPoint::topick_ooo);
  EXPECT_THROW(KvLayout(config, 17, 16, 64), std::logic_error);
}

TEST(KvLayoutTest, HostResidentLayoutChargesHostElementWidths) {
  // host_resident_layout switches the granule math from packed bits to the
  // rows the host cache actually stores — one packed nibble row per 4-bit
  // chunk, int16 values: a 64-dim chunk plane row stays 32 B (the device's
  // packed width at 4-bit chunks), a value row goes 96 B -> 128 B, and an
  // odd head_dim rounds its nibble row up to whole bytes.
  AccelConfig config = make_config(DesignPoint::topick_ooo);
  config.host_resident_layout = true;
  KvLayout layout(config, 0, 128, 64);
  EXPECT_EQ(layout.granules_per_chunk(), 1);
  EXPECT_EQ(layout.granules_per_value(), 4);
  EXPECT_EQ(config.granules_per_chunk(130), 3);  // 65 B
  EXPECT_EQ(config.granules_per_chunk(128), 2);  // 64 B

  // Same bank-group discipline as the packed layout: the contiguity charged
  // is the host's contiguous plane walk, so K planes stay bank-disjoint.
  mem::Hbm hbm(config.dram);
  std::array<std::set<std::uint64_t>, 3> banks_used;
  for (std::size_t t = 0; t < 128; ++t) {
    for (int b = 0; b < 3; ++b) {
      for (int g = 0; g < layout.granules_per_chunk(); ++g) {
        banks_used[static_cast<std::size_t>(b)].insert(
            hbm.local_of(layout.key_chunk_addr(t, b, g)).bank);
      }
    }
  }
  for (int a = 0; a < 3; ++a) {
    for (int b = a + 1; b < 3; ++b) {
      for (auto bank : banks_used[static_cast<std::size_t>(a)]) {
        EXPECT_FALSE(banks_used[static_cast<std::size_t>(b)].count(bank));
      }
    }
  }
}

TEST(KvLayoutTest, HostResidentLayoutNeedsChunksInsideOnePlane) {
  // One nibble row per K chunk is what the host reads only when no chunk
  // spans two planes: 12/3's chunk 1 (bits 6-8) does, 12/4's never do.
  AccelConfig config = make_config(DesignPoint::topick_ooo);
  config.host_resident_layout = true;
  config.quant = {12, 3};
  EXPECT_THROW(KvLayout(config, 0, 16, 64), std::logic_error);
  Rng rng(0x12);
  const auto inst = make_instance(rng, 64);
  EXPECT_THROW(Engine(config).run(inst), std::logic_error);
  config.quant = {12, 4};
  EXPECT_NO_THROW(KvLayout(config, 0, 16, 64));
  const auto result = Engine(config).run(inst);
  EXPECT_GT(result.survivors, 0u);
  EXPECT_EQ(result.access.k_bits_baseline, 64u * 3u * 32u * 8u);
}

TEST(KvLayoutTest, HostResidentRegionMatchesCacheResidency) {
  // Cross-layer pin: the host-layout region footprint must equal what one
  // head of QuantizedKvCache reports as resident for its planes + value
  // arena (head_dim 64 rows are granule-aligned, so no rounding slack).
  AccelConfig config = make_config(DesignPoint::topick_ooo);
  config.host_resident_layout = true;
  const std::size_t len = 96;
  const int head_dim = 64;

  const auto dim = static_cast<std::size_t>(head_dim);
  Rng rng(0x1d);
  std::vector<float> keys(len * dim), values(len * dim);
  for (auto& x : keys) x = static_cast<float>(rng.normal());
  for (auto& x : values) x = static_cast<float>(rng.normal());
  const KvHeadView rows{keys.data(), values.data(), len, dim};
  const ViewRescaleSource source(rows);
  QuantizedKvCache cache(dim);
  cache.set_rescale_source(&source);
  for (std::size_t t = 0; t < len; ++t) {
    cache.append(rows.key(t), rows.value(t));
  }
  const auto res = cache.residency();

  const KvLayout layout(config, 0, len, head_dim);
  // Keys live only in the nibble planes and int16_arena holds the value
  // rows, so the region is exactly the cache's two arenas.
  EXPECT_EQ(layout.region_bytes(), res.planes + res.int16_arena);
}

TEST(ScoreboardTest, InsertTakeRoundTrip) {
  Scoreboard sb(4);
  sb.insert(ScoreboardEntry{7, 1, 1234, -0.5});
  EXPECT_TRUE(sb.contains(7));
  auto entry = sb.take(7);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->partial_score, 1234);
  EXPECT_FALSE(sb.contains(7));
}

TEST(ScoreboardTest, CapacityAndPeak) {
  Scoreboard sb(2);
  sb.insert(ScoreboardEntry{1, 1, 0, 0.0});
  sb.insert(ScoreboardEntry{2, 1, 0, 0.0});
  EXPECT_TRUE(sb.full());
  EXPECT_THROW(sb.insert(ScoreboardEntry{3, 1, 0, 0.0}), std::logic_error);
  sb.take(1);
  EXPECT_FALSE(sb.full());
  EXPECT_EQ(sb.peak_occupancy(), 2u);
}

TEST(ScoreboardTest, DuplicateInsertThrows) {
  Scoreboard sb(4);
  sb.insert(ScoreboardEntry{5, 1, 0, 0.0});
  EXPECT_THROW(sb.insert(ScoreboardEntry{5, 2, 0, 0.0}), std::logic_error);
}

TEST(ScoreboardTest, TakeMissingReturnsEmpty) {
  Scoreboard sb(4);
  EXPECT_FALSE(sb.take(9).has_value());
}

TEST(EngineTest, BaselineKeepsEverythingAndMatchesExact) {
  Rng rng(21);
  const auto inst = make_instance(rng, 128);
  Engine engine(make_config(DesignPoint::baseline));
  const auto result = engine.run(inst);

  EXPECT_EQ(result.survivors, 128u);
  EXPECT_EQ(result.access.k_bits_fetched, result.access.k_bits_baseline);
  EXPECT_EQ(result.access.v_bits_fetched, result.access.v_bits_baseline);
  EXPECT_GT(result.core_cycles, 0u);

  // Output must match the functional quantized exact reference.
  TokenPickerConfig ref_config;
  ref_config.estimator.threshold = 0.0;
  TokenPickerAttention ref(ref_config);
  const auto expected = ref.attend_quantized(inst.q, inst.kv, inst.score_scale);
  for (std::size_t d = 0; d < result.output.size(); ++d) {
    EXPECT_NEAR(result.output[d], expected.output[d], 1e-4f);
  }
}

TEST(EngineTest, TopickPrunesSoundly) {
  Rng rng(22);
  const auto inst = make_instance(rng, 256);
  Engine engine(make_config(DesignPoint::topick_ooo, 1e-3));
  const auto result = engine.run(inst);

  EXPECT_LT(result.survivors, 256u);
  EXPECT_GT(result.survivors, 0u);

  // Oracle check: every pruned token's true probability is below thr.
  const QuantizedKvView kv = inst.kv.view();
  const std::int16_t* q = inst.q.values.data();
  std::vector<double> scores(256);
  for (std::size_t t = 0; t < 256; ++t) {
    scores[t] =
        static_cast<double>(kv.key_dot(q, t, kv.key_offset_dot(q))) *
        inst.score_scale;
  }
  const double log_denom = log_sum_exp(scores.data(), scores.size());
  for (std::size_t t = 0; t < 256; ++t) {
    if (!result.kept[t]) {
      EXPECT_LT(std::exp(scores[t] - log_denom), 1e-3)
          << "token " << t << " pruned unsoundly";
    }
  }
}

TEST(EngineTest, TopickReducesAccessAndCycles) {
  // Generation-scale context (1024): at very short contexts the on-demand
  // round trips are not amortized and streaming can win (the paper
  // evaluates at 1024-2048).
  Rng rng(23);
  const auto inst = make_instance(rng, 1024);

  Engine base(make_config(DesignPoint::baseline));
  Engine kv(make_config(DesignPoint::topick_kv, 1e-3));
  Engine ooo(make_config(DesignPoint::topick_ooo, 1e-3));

  const auto rb = base.run(inst);
  const auto rkv = kv.run(inst);
  const auto rooo = ooo.run(inst);

  // topick_kv streams all of K; only V shrinks.
  EXPECT_EQ(rkv.access.k_bits_fetched, rb.access.k_bits_fetched);
  EXPECT_LT(rkv.access.v_bits_fetched, rb.access.v_bits_fetched);
  // topick_ooo also cuts K.
  EXPECT_LT(rooo.access.k_bits_fetched, rkv.access.k_bits_fetched);
  // Cycle ordering: baseline slowest, full ToPick fastest.
  EXPECT_LT(rkv.core_cycles, rb.core_cycles);
  EXPECT_LT(rooo.core_cycles, rkv.core_cycles);
}

TEST(EngineTest, ZeroThresholdOooMatchesBaselineSurvivors) {
  Rng rng(24);
  const auto inst = make_instance(rng, 96);
  Engine engine(make_config(DesignPoint::topick_ooo, 0.0));
  const auto result = engine.run(inst);
  EXPECT_EQ(result.survivors, 96u);
  EXPECT_EQ(result.access.k_bits_fetched, result.access.k_bits_baseline);
}

TEST(EngineTest, ScoreboardPeakWithinCapacity) {
  Rng rng(25);
  const auto inst = make_instance(rng, 512);
  auto config = make_config(DesignPoint::topick_ooo, 1e-3);
  Engine engine(config);
  const auto result = engine.run(inst);
  EXPECT_LE(result.scoreboard_peak,
            static_cast<std::size_t>(config.scoreboard_entries));
}

TEST(EngineTest, TinyScoreboardStillCompletes) {
  Rng rng(26);
  const auto inst = make_instance(rng, 256);
  auto config = make_config(DesignPoint::topick_ooo, 1e-3);
  config.scoreboard_entries = 2;  // heavy stall pressure
  Engine engine(config);
  const auto result = engine.run(inst);
  EXPECT_EQ(result.kept.size(), 256u);
  EXPECT_GT(result.survivors, 0u);
  // All tokens resolved: histogram covers everyone.
  std::uint64_t total = 0;
  for (auto c : result.access.chunk_histogram) total += c;
  EXPECT_EQ(total, 256u);
}

TEST(EngineTest, OutputCloseToFunctionalTokenPicker) {
  Rng rng(27);
  const auto inst = make_instance(rng, 192);
  Engine engine(make_config(DesignPoint::topick_ooo, 1e-3));
  const auto hw = engine.run(inst);

  TokenPickerConfig ref_config;
  ref_config.estimator.threshold = 0.0;  // exact reference
  TokenPickerAttention ref(ref_config);
  const auto exact = ref.attend_quantized(inst.q, inst.kv, inst.score_scale);

  // Pruned-softmax output stays within the dropped-mass bound of exact.
  float vmax = 0.0f;
  for (auto x : inst.kv.values.data) {
    vmax = std::max(vmax, std::abs(x * inst.kv.values.params.scale));
  }
  const double bound = 2.0 * 1e-3 * 192 * vmax + 1e-3;
  for (std::size_t d = 0; d < hw.output.size(); ++d) {
    EXPECT_NEAR(hw.output[d], exact.output[d], bound);
  }
}

TEST(EngineTest, TimelineRecordsScheduleEvents) {
  Rng rng(28);
  const auto inst = make_instance(rng, 64);
  Engine engine(make_config(DesignPoint::topick_ooo, 1e-3));
  const auto result = engine.run(inst, /*record_timeline=*/true);
  EXPECT_FALSE(result.timeline.empty());
  bool has_request = false, has_arrive = false, has_decision = false;
  for (const auto& e : result.timeline) {
    has_request |= (e.kind == EventKind::request);
    has_arrive |= (e.kind == EventKind::arrive);
    has_decision |= (e.kind == EventKind::prune || e.kind == EventKind::keep);
  }
  EXPECT_TRUE(has_request);
  EXPECT_TRUE(has_arrive);
  EXPECT_TRUE(has_decision);
}

TEST(EngineTest, StepCyclesSumToTotal) {
  Rng rng(29);
  const auto inst = make_instance(rng, 128);
  Engine engine(make_config(DesignPoint::topick_ooo, 1e-3));
  const auto result = engine.run(inst);
  EXPECT_EQ(result.step0_cycles + result.step1_cycles, result.core_cycles);
}

TEST(EnergyModelTest, Table2TotalsMatchPaper) {
  AreaPowerModel model;
  EXPECT_NEAR(model.total_area_mm2(), 8.593, 0.1);
  EXPECT_NEAR(model.total_power_mw(), 1492.78, 25.0);
  EXPECT_NEAR(model.lane_area_mm2() * 16, 2.518, 0.1);
  EXPECT_NEAR(model.lane_power_mw() * 16, 426.76, 16.0);
}

TEST(EnergyModelTest, OverheadsMatchPaperAnalysis) {
  AreaPowerModel model;
  EXPECT_NEAR(model.area_overhead_v(), 0.010, 0.003);   // +1.0% area
  EXPECT_NEAR(model.power_overhead_v(), 0.013, 0.003);  // +1.3% power
  EXPECT_NEAR(model.area_overhead_k(), 0.049, 0.005);   // +4.9% area
  EXPECT_NEAR(model.power_overhead_k(), 0.056, 0.005);  // +5.6% power
}

TEST(EnergyModelTest, BreakdownComponentsPositiveAndDramDominant) {
  Rng rng(30);
  const auto inst = make_instance(rng, 512);
  Engine engine(make_config(DesignPoint::baseline));
  const auto result = engine.run(inst);
  const auto energy = energy_of(result);
  EXPECT_GT(energy.dram_pj, 0.0);
  EXPECT_GT(energy.buffer_pj, 0.0);
  EXPECT_GT(energy.compute_pj, 0.0);
  // Generation phase is memory-bound: DRAM dominates the baseline energy.
  EXPECT_GT(energy.dram_pj, 0.5 * energy.total_pj());
}

TEST(EnergyModelTest, TopickUsesLessEnergyThanBaseline) {
  Rng rng(31);
  const auto inst = make_instance(rng, 512);
  Engine base(make_config(DesignPoint::baseline));
  Engine ooo(make_config(DesignPoint::topick_ooo, 1e-3));
  const auto eb = energy_of(base.run(inst));
  const auto eo = energy_of(ooo.run(inst));
  EXPECT_LT(eo.total_pj(), eb.total_pj());
}

}  // namespace
}  // namespace topick::accel
