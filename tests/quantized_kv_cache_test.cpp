// Equivalence suite for the incrementally-quantized, chunk-planar KV cache:
// the hot path must be *bit-identical* to quantize-from-scratch across
// append / rescale / evict-compact interleavings (ISSUE 4 acceptance).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/expsum.h"
#include "common/rng.h"
#include "core/attention_backends.h"
#include "core/exact_attention.h"
#include "core/quantized_kv_cache.h"
#include "core/token_picker.h"
#include "fixedpoint/chunks.h"
#include "model/kv_cache.h"

namespace topick {
namespace {

// Float KV rows kept by the test as the from-scratch reference — and, since
// the cache retains no floats of its own, registered as its RescaleSource so
// whole-head rescales re-read exact rows (the bit-identity contract).
struct ShadowKv final : RescaleSource {
  std::size_t head_dim;
  std::vector<std::vector<float>> keys, values;
  std::vector<std::size_t> ids;

  // Rows handed out per arena, over every fill_rows call.
  mutable std::size_t key_rows_filled = 0, value_rows_filled = 0;

  explicit ShadowKv(std::size_t dim) : head_dim(dim) {}

  void fill_rows(std::span<const std::size_t> rows, float* k_out,
                 float* v_out) const override {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::size_t pos = pos_of(rows[i]);
      if (k_out != nullptr) {
        std::copy(keys[pos].begin(), keys[pos].end(), k_out + i * head_dim);
        ++key_rows_filled;
      }
      if (v_out != nullptr) {
        std::copy(values[pos].begin(), values[pos].end(),
                  v_out + i * head_dim);
        ++value_rows_filled;
      }
    }
  }
  std::size_t pos_of(std::size_t id) const {
    const auto it = std::find(ids.begin(), ids.end(), id);
    EXPECT_NE(it, ids.end()) << "rescale asked for unknown id " << id;
    return static_cast<std::size_t>(it - ids.begin());
  }

  void append(std::vector<float> k, std::vector<float> v, std::size_t id) {
    keys.push_back(std::move(k));
    values.push_back(std::move(v));
    ids.push_back(id);
  }

  void evict(const std::vector<std::size_t>& dead) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < ids.size(); ++r) {
      if (std::find(dead.begin(), dead.end(), ids[r]) != dead.end()) continue;
      keys[w] = keys[r];
      values[w] = values[r];
      ids[w] = ids[r];
      ++w;
    }
    keys.resize(w);
    values.resize(w);
    ids.resize(w);
  }

  // Contiguous gather (what the pre-cache serve engine attended over).
  void gather(std::vector<float>* k_flat, std::vector<float>* v_flat) const {
    k_flat->clear();
    v_flat->clear();
    for (std::size_t r = 0; r < ids.size(); ++r) {
      k_flat->insert(k_flat->end(), keys[r].begin(), keys[r].end());
      v_flat->insert(v_flat->end(), values[r].begin(), values[r].end());
    }
  }
};

std::vector<float> random_row(Rng& rng, std::size_t dim, double scale) {
  std::vector<float> row(dim);
  for (auto& x : row) x = static_cast<float>(rng.normal() * scale);
  return row;
}

// Appends one random K row and one random V row to flat (len, dim) arrays.
void push_random_row(Rng& rng, std::size_t dim, double scale,
                     std::vector<float>* keys, std::vector<float>* values) {
  const auto k = random_row(rng, dim, scale);
  const auto v = random_row(rng, dim, scale);
  keys->insert(keys->end(), k.begin(), k.end());
  values->insert(values->end(), v.begin(), v.end());
}

// A float row quantized under `params`.
std::vector<std::int16_t> quantized(std::span<const float> row,
                                    const fx::QuantParams& params) {
  std::vector<std::int16_t> out(row.size());
  fx::quantize_row_i16(row.data(), row.size(), params, out.data());
  return out;
}

void expect_same_result(const TokenPickerResult& a, const TokenPickerResult& b) {
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].token, b.decisions[i].token);
    EXPECT_EQ(a.decisions[i].chunks_fetched, b.decisions[i].chunks_fetched);
    EXPECT_EQ(a.decisions[i].kept, b.decisions[i].kept);
    EXPECT_EQ(a.decisions[i].final_score, b.decisions[i].final_score);
  }
  EXPECT_EQ(a.stats.k_bits_fetched, b.stats.k_bits_fetched);
  EXPECT_EQ(a.stats.v_bits_fetched, b.stats.v_bits_fetched);
  EXPECT_EQ(a.stats.k_bits_baseline, b.stats.k_bits_baseline);
  EXPECT_EQ(a.stats.v_bits_baseline, b.stats.v_bits_baseline);
  EXPECT_EQ(a.stats.tokens_total, b.stats.tokens_total);
  EXPECT_EQ(a.stats.tokens_kept, b.stats.tokens_kept);
  EXPECT_EQ(a.stats.chunk_histogram, b.stats.chunk_histogram);
  ASSERT_EQ(a.output.size(), b.output.size());
  for (std::size_t d = 0; d < a.output.size(); ++d) {
    EXPECT_EQ(a.output[d], b.output[d]);
  }
  EXPECT_EQ(a.log_denominator, b.log_denominator);
  EXPECT_EQ(a.log_denominator_estimator, b.log_denominator_estimator);
}

TEST(QuantizedKv, PlaneRowsSumToFullKey) {
  // The offset-binary nibbles reassemble the key:
  // sum_j nibble_j * 16^(planes-1-j) - 2^(total_bits-1). An odd head_dim
  // leaves each row's last high nibble 0. Values share the format, so
  // value_row reads back what push_row stored.
  Rng rng(0xabc1);
  const std::size_t dim = 15;
  fx::QuantParams params;
  params.scale = 0.01f;

  QuantizedKv store;
  store.reset(params, params, dim);
  std::vector<std::vector<std::int16_t>> k_rows(
      5, std::vector<std::int16_t>(dim));
  std::vector<std::vector<std::int16_t>> v_rows = k_rows;
  for (std::size_t r = 0; r < k_rows.size(); ++r) {
    for (std::size_t d = 0; d < dim; ++d) {
      k_rows[r][d] = static_cast<std::int16_t>(
          static_cast<std::int32_t>(rng.uniform_index(4096)) - 2048);
      v_rows[r][d] = static_cast<std::int16_t>(-k_rows[r][d] / 2);
    }
    store.push_row(k_rows[r].data(), v_rows[r].data());
  }

  const QuantizedKvView view = store.view();
  ASSERT_EQ(view.len, k_rows.size());
  ASSERT_EQ(view.key_layout->planes(), 3);
  ASSERT_EQ(view.row_bytes(), 8u);
  std::vector<std::int16_t> value(dim);
  for (std::size_t t = 0; t < view.len; ++t) {
    view.value_row(t, value.data());
    EXPECT_EQ(value, v_rows[t]) << "token " << t;
    for (std::size_t d = 0; d < dim; ++d) {
      std::int32_t sum = -2048;
      for (int j = 0; j < 3; ++j) {
        const std::uint8_t byte = view.key_plane_row(j, t)[d / 2];
        sum += ((byte >> (4 * (d % 2))) & 0xF) << (4 * (2 - j));
      }
      EXPECT_EQ(sum, k_rows[t][d]) << "token " << t << " dim " << d;
    }
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(view.key_plane_row(j, t)[dim / 2] >> 4, 0) << "token " << t;
    }
  }
}

// value_rows unpacks a run of rows in one call at an even head_dim and row
// by row at an odd one; either way it reads what value_row reads, for every
// run length up to the step-1 block and past it.
TEST(QuantizedKv, ValueRowsMatchRowByRow) {
  Rng rng(0x7e57);
  for (const std::size_t dim : {7, 8, 64, 80}) {
    const std::size_t len = 2 * kValueBlockRows + 3;
    std::vector<float> keys, values;
    for (std::size_t t = 0; t < len; ++t) {
      push_random_row(rng, dim, 1.0, &keys, &values);
    }
    const QuantizedKv kv =
        quantize_kv({keys.data(), values.data(), len, dim}, fx::QuantParams{});
    const QuantizedKvView view = kv.view();
    std::vector<std::int16_t> want(len * dim);
    for (std::size_t t = 0; t < len; ++t) {
      view.value_row(t, want.data() + t * dim);
    }
    for (std::size_t t = 0; t < len; ++t) {
      for (std::size_t count = 1; t + count <= len; ++count) {
        std::vector<std::int16_t> got(count * dim);
        view.value_rows(t, count, got.data());
        ASSERT_TRUE(std::equal(got.begin(), got.end(),
                               want.begin() + static_cast<std::ptrdiff_t>(
                                                  t * dim)))
            << "dim " << dim << " rows [" << t << ", " << t + count << ")";
      }
    }
  }
}

// Core invariant: the cache's quantized bits equal quantize_kv() run fresh on
// the live float set, after every single mutation.
void expect_matches_from_scratch(const QuantizedKvCache& cache,
                                 const ShadowKv& shadow) {
  ASSERT_EQ(cache.len(), shadow.ids.size());
  if (cache.len() == 0) return;
  std::vector<float> k_flat, v_flat;
  shadow.gather(&k_flat, &v_flat);
  const KvHeadView view{k_flat.data(), v_flat.data(), shadow.ids.size(),
                        shadow.head_dim};
  const QuantizedKv fresh = quantize_kv(view, cache.config().base);

  const QuantizedKvView cached = cache.view();
  EXPECT_EQ(cached.key_params.scale, fresh.keys.params.scale);
  EXPECT_EQ(cached.value_params.scale, fresh.values.params.scale);
  for (std::size_t j = 0; j < fresh.keys.planes.size(); ++j) {
    EXPECT_TRUE(std::equal(fresh.keys.planes[j].begin(),
                           fresh.keys.planes[j].end(),
                           cached.key_planes[j].begin(),
                           cached.key_planes[j].end()))
        << "key plane " << j;
  }
  for (std::size_t j = 0; j < fresh.values.planes.size(); ++j) {
    EXPECT_TRUE(std::equal(fresh.values.planes[j].begin(),
                           fresh.values.planes[j].end(),
                           cached.value_planes[j].begin(),
                           cached.value_planes[j].end()))
        << "value plane " << j;
  }
  for (std::size_t t = 0; t < cache.len(); ++t) {
    EXPECT_EQ(cache.id_at(t), shadow.ids[t]);
  }
}

TEST(QuantizedKvCache, AppendOnlyMatchesFromScratch) {
  Rng rng(0x5eed);
  const std::size_t dim = 24;
  QuantizedKvCache cache(dim);
  ShadowKv shadow(dim);
  cache.set_rescale_source(&shadow);
  for (std::size_t t = 0; t < 64; ++t) {
    auto k = random_row(rng, dim, 1.0);
    auto v = random_row(rng, dim, 1.0);
    cache.append(k, v, t);
    shadow.append(k, v, t);
    expect_matches_from_scratch(cache, shadow);
  }
  // Random data sets a new max only O(log n) times.
  EXPECT_LT(cache.key_rescales(), 20u);
  EXPECT_GT(cache.key_rescales(), 0u);
}

TEST(QuantizedKvCache, ResidencyIsThePlanesAndTheValueArena) {
  // serve.kv_resident_bytes_peak is built from residency(): a head_dim-64
  // token holds three 32 B key nibble planes and three 32 B value nibble
  // planes, 12 bits per element each.
  Rng rng(0x1d);
  const std::size_t len = 96, dim = 64;
  QuantizedKvCache cache(dim);
  ShadowKv shadow(dim);
  cache.set_rescale_source(&shadow);
  for (std::size_t t = 0; t < len; ++t) {
    auto k = random_row(rng, dim, 1.0);
    auto v = random_row(rng, dim, 1.0);
    cache.append(k, v, t);
    shadow.append(k, v, t);
  }
  const auto res = cache.residency();
  EXPECT_EQ(res.key_planes, len * 3 * 32);
  EXPECT_EQ(res.value_planes, len * 3 * 32);
}

TEST(QuantizedKvCache, EngineeredMidDecodeRescale) {
  Rng rng(0x1234);
  const std::size_t dim = 16;
  QuantizedKvCache cache(dim);
  ShadowKv shadow(dim);
  cache.set_rescale_source(&shadow);
  // Quiet prefix, then a spike 10x past the running max: the spike append
  // must trigger exactly one whole-head requantize and stay exact.
  for (std::size_t t = 0; t < 20; ++t) {
    auto k = random_row(rng, dim, 0.5);
    auto v = random_row(rng, dim, 0.5);
    cache.append(k, v, t);
    shadow.append(k, v, t);
  }
  const auto before = cache.key_rescales();
  auto k = random_row(rng, dim, 0.5);
  k[3] = 40.0f;  // new record by an order of magnitude
  auto v = random_row(rng, dim, 0.5);
  cache.append(k, v, 20);
  shadow.append(k, v, 20);
  EXPECT_EQ(cache.key_rescales(), before + 1);
  expect_matches_from_scratch(cache, shadow);

  // Follow-up quiet appends must not rescale again.
  const auto after_spike = cache.key_rescales();
  for (std::size_t t = 21; t < 40; ++t) {
    auto k2 = random_row(rng, dim, 0.5);
    auto v2 = random_row(rng, dim, 0.5);
    cache.append(k2, v2, t);
    shadow.append(k2, v2, t);
  }
  EXPECT_EQ(cache.key_rescales(), after_spike);
  expect_matches_from_scratch(cache, shadow);
}

TEST(QuantizedKvCache, EvictingTheRecordHolderShrinksTheScale) {
  Rng rng(0x77);
  const std::size_t dim = 16;
  QuantizedKvCache cache(dim);
  ShadowKv shadow(dim);
  cache.set_rescale_source(&shadow);
  for (std::size_t t = 0; t < 12; ++t) {
    auto k = random_row(rng, dim, 0.5);
    if (t == 5) k[0] = 25.0f;  // the record holder
    auto v = random_row(rng, dim, 0.5);
    cache.append(k, v, t);
    shadow.append(k, v, t);
  }
  const float scale_with_spike = cache.key_params().scale;
  const std::vector<std::size_t> dead{5};
  EXPECT_EQ(cache.evict_ids(dead), 1u);
  shadow.evict(dead);
  EXPECT_LT(cache.key_params().scale, scale_with_spike);
  expect_matches_from_scratch(cache, shadow);
}

// A rescale re-quantizes only the arena whose scale moved: the other
// arena's bytes are already its floats under an unchanged scale. So a
// value-only record leaves every key plane byte as it was and asks the
// source for value rows only, and a key-only record the other way round —
// both still bit-identical to quantizing from scratch. The prefix is longer
// than one block of rows the cache asks the source for at a time.
TEST(QuantizedKvCache, OneArenaRescaleRereadsOnlyThatArena) {
  Rng rng(0xa7e);
  const std::size_t dim = 16, prefix = 150;
  QuantizedKvCache cache(dim);
  ShadowKv shadow(dim);
  cache.set_rescale_source(&shadow);
  for (std::size_t t = 0; t < prefix; ++t) {
    auto k = random_row(rng, dim, 0.5);
    auto v = random_row(rng, dim, 0.5);
    k[0] = 3.0f;  // pins both maxima, so the quiet rows set no record
    v[0] = 3.0f;
    cache.append(k, v, t);
    shadow.append(k, v, t);
  }
  const auto planes_of = [&] {
    std::vector<std::vector<std::uint8_t>> planes;
    const QuantizedKvView view = cache.view();
    for (int j = 0; j < view.key_layout->planes(); ++j) {
      planes.push_back(view.key_planes[j]);
    }
    return planes;
  };
  const auto value_rows = [&](std::size_t n) {
    std::vector<std::int16_t> rows(n * dim);
    const QuantizedKvView view = cache.view();
    for (std::size_t t = 0; t < n; ++t) view.value_row(t, &rows[t * dim]);
    return rows;
  };

  // Value-only record.
  const auto planes_before = planes_of();
  const std::vector<std::int16_t> values_before = value_rows(prefix);
  const auto key_rescales = cache.key_rescales();
  const auto value_rescales = cache.value_rescales();
  shadow.key_rows_filled = shadow.value_rows_filled = 0;
  auto k = random_row(rng, dim, 0.5);
  auto v = random_row(rng, dim, 0.5);
  v[2] = 9.0f;
  cache.append(k, v, prefix);
  shadow.append(k, v, prefix);
  EXPECT_EQ(cache.key_rescales(), key_rescales);
  EXPECT_EQ(cache.value_rescales(), value_rescales + 1);
  EXPECT_EQ(shadow.key_rows_filled, 0u);
  EXPECT_EQ(shadow.value_rows_filled, prefix);
  EXPECT_EQ(cache.value_rows_requantized(), prefix);
  const auto planes_after = planes_of();
  ASSERT_EQ(planes_after.size(), planes_before.size());
  const std::size_t row_bytes = fx::PlaneLayout::row_bytes(dim);
  for (std::size_t j = 0; j < planes_before.size(); ++j) {
    EXPECT_TRUE(std::equal(planes_before[j].begin(), planes_before[j].end(),
                           planes_after[j].begin(),
                           planes_after[j].begin() +
                               static_cast<std::ptrdiff_t>(prefix * row_bytes)))
        << "plane " << j;
  }
  EXPECT_NE(values_before, value_rows(prefix));
  expect_matches_from_scratch(cache, shadow);

  // Key-only record.
  const auto keys_rows_before = cache.key_rows_requantized();
  const std::vector<std::int16_t> values_mid = value_rows(prefix + 1);
  shadow.key_rows_filled = shadow.value_rows_filled = 0;
  k = random_row(rng, dim, 0.5);
  v = random_row(rng, dim, 0.5);
  k[5] = -11.0f;
  cache.append(k, v, prefix + 1);
  shadow.append(k, v, prefix + 1);
  EXPECT_EQ(cache.key_rescales(), key_rescales + 1);
  EXPECT_EQ(cache.value_rescales(), value_rescales + 1);
  EXPECT_EQ(shadow.key_rows_filled, prefix + 1);
  EXPECT_EQ(shadow.value_rows_filled, 0u);
  EXPECT_EQ(cache.key_rows_requantized(), keys_rows_before + prefix + 1);
  EXPECT_EQ(values_mid, value_rows(prefix + 1));
  expect_matches_from_scratch(cache, shadow);
}

TEST(QuantizedKvCache, BulkAppendRowsMatchesFromScratch) {
  Rng rng(0xb01d);
  const std::size_t dim = 8;
  QuantizedKvCache cache(dim);
  ShadowKv shadow(dim);
  cache.set_rescale_source(&shadow);
  std::vector<float> k_rows, v_rows;
  const std::size_t count = 33;
  for (std::size_t t = 0; t < count; ++t) {
    auto k = random_row(rng, dim, 2.0);
    auto v = random_row(rng, dim, 2.0);
    k_rows.insert(k_rows.end(), k.begin(), k.end());
    v_rows.insert(v_rows.end(), v.begin(), v.end());
    shadow.append(k, v, t);
  }
  cache.append_rows(k_rows.data(), v_rows.data(), count, 0);
  // The bulk path computes the batch scale once.
  EXPECT_LE(cache.key_rescales(), 1u);
  expect_matches_from_scratch(cache, shadow);
}

// The acceptance-criterion suite: randomized append / evict interleavings;
// after every mutation, attention through the incremental cache must equal
// attention through the historical quantize-from-scratch path bit-for-bit —
// decisions, AccessStats, output, and both log denominators.
TEST(QuantizedKvCache, RandomizedInterleavingsAttendBitIdentical) {
  Rng rng(0xf00d);
  const std::size_t dim = 32;
  TokenPickerConfig config;
  config.estimator.threshold = 1e-3;

  QuantizedKvCache cache(dim, {config.quant, 1.0f});
  ShadowKv shadow(dim);
  cache.set_rescale_source(&shadow);
  TokenPickerAttention cached_op(config);
  TokenPickerAttention scratch_op(config);
  TokenPickerResult cached_result;

  std::vector<float> k_flat, v_flat;
  std::size_t next_id = 0;
  for (int op = 0; op < 300; ++op) {
    const auto roll = rng.uniform_index(10);
    if (roll < 6 || shadow.ids.size() < 2) {
      // Append, occasionally spiking to force a mid-decode rescale.
      const double scale = rng.uniform_index(12) == 0 ? 30.0 : 1.0;
      auto k = random_row(rng, dim, scale);
      auto v = random_row(rng, dim, scale);
      cache.append(k, v, next_id);
      shadow.append(k, v, next_id);
      ++next_id;
    } else {
      // Evict a random subset (sometimes including the record holder),
      // mirroring reclamation compaction.
      std::vector<std::size_t> dead;
      const std::size_t count = 1 + rng.uniform_index(3);
      for (std::size_t i = 0; i < count && shadow.ids.size() - dead.size() > 1;
           ++i) {
        dead.push_back(shadow.ids[rng.uniform_index(shadow.ids.size())]);
      }
      cache.evict_ids(dead);
      shadow.evict(dead);
    }

    expect_matches_from_scratch(cache, shadow);

    const auto q = random_row(rng, dim, 1.0);
    cached_op.attend_cached(q, cache, &cached_result);
    shadow.gather(&k_flat, &v_flat);
    const KvHeadView view{k_flat.data(), v_flat.data(), shadow.ids.size(), dim};
    const TokenPickerResult fresh = scratch_op.attend(q, view);
    expect_same_result(cached_result, fresh);
    EXPECT_EQ(cached_result.oracle_dropped_mass, fresh.oracle_dropped_mass);
  }
  EXPECT_GT(cache.key_rescales() + cache.value_rescales(), 0u);
}

// Amortized mode (headroom > 1) gives up the from-scratch scale for fewer
// rescales, but the grid must always stay valid: scale in [max|x|/qmax,
// headroom * max|x|/qmax], so reconstruction error is bounded by scale/2 and
// nothing clips. Since every rescale re-reads floats, each stored row is also
// exactly its floats quantized under the current params, at any headroom.
// Regression: the initial base scale (1.0) once leaked into small-magnitude
// data, quantizing everything to zero.
TEST(QuantizedKvCache, HeadroomAmortizesRescalesWithBoundedError) {
  Rng rng(0x4ead);
  const std::size_t dim = 16;
  const std::size_t len = 200;
  std::vector<float> keys, values;
  for (std::size_t t = 0; t < len; ++t) {
    // Small-magnitude rows (far below the base scale of 1.0) with occasional
    // growth spurts that force the running max upward.
    const double mag = 0.01 * (1.0 + 0.05 * static_cast<double>(t));
    push_random_row(rng, dim, mag, &keys, &values);
  }
  const KvHeadView rows{keys.data(), values.data(), len, dim};
  const ViewRescaleSource source(rows);
  QuantizedKvCache exact(dim, {fx::QuantParams{}, 1.0f});
  QuantizedKvCache amortized(dim, {fx::QuantParams{}, 2.0f});
  exact.set_rescale_source(&source);
  amortized.set_rescale_source(&source);

  std::vector<std::int16_t> key(dim), value(dim);
  for (std::size_t t = 0; t < len; ++t) {
    exact.append(rows.key(t), rows.value(t), t);
    amortized.append(rows.key(t), rows.value(t), t);

    const QuantizedKvView view = amortized.view();
    const float k_scale = view.key_params.scale;
    for (std::size_t r = 0; r <= t; ++r) {
      view.key_row(r, key.data());
      ASSERT_EQ(key, quantized(rows.key(r), view.key_params))
          << "after append " << t << ", key row " << r;
      view.value_row(r, value.data());
      ASSERT_EQ(value, quantized(rows.value(r), view.value_params))
          << "after append " << t << ", value row " << r;
      for (std::size_t d = 0; d < dim; ++d) {
        const float reconstructed = static_cast<float>(key[d]) * k_scale;
        EXPECT_NEAR(reconstructed, rows.key(r)[d], 0.5f * k_scale + 1e-7f)
            << "token " << r << " dim " << d << " scale " << k_scale;
      }
    }
  }
  // The whole point of the slack: strictly fewer whole-head requantizes.
  EXPECT_LT(amortized.key_rescales(), exact.key_rescales());
  EXPECT_GT(amortized.key_rescales(), 0u);
}

// A cache that holds rows but has no RescaleSource refuses every call that
// could rescale them — whether or not the rows would set a new max — and
// leaves its length, scales, ids and bits untouched. rebuild and the first
// append into an empty cache need no source.
TEST(QuantizedKvCache, SourcelessCacheHoldingRowsRefusesMutations) {
  Rng rng(0x50c);
  const std::size_t dim = 8;
  std::vector<float> keys, values;
  for (std::size_t t = 0; t < 12; ++t) {
    push_random_row(rng, dim, 1.0, &keys, &values);
  }
  const KvHeadView rows{keys.data(), values.data(), 12, dim};
  QuantizedKvCache cache(dim);
  cache.rebuild({keys.data(), values.data(), 6, dim});
  ASSERT_EQ(cache.rescale_source(), nullptr);
  ASSERT_EQ(cache.len(), 6u);

  const float k_scale = cache.key_params().scale;
  const float v_scale = cache.value_params().scale;
  const std::vector<std::size_t> ids = cache.ids();
  const QuantizedKvView view = cache.view();
  const std::vector<std::vector<std::uint8_t>> values_before(
      view.value_planes,
      view.value_planes +
          fx::PlaneLayout::planes_for(view.value_params.total_bits));
  const std::vector<std::vector<std::uint8_t>> planes_before(
      view.key_planes, view.key_planes + view.key_layout->planes());

  // A quiet row (no new record) and a spiking one are refused alike.
  std::vector<float> quiet(dim, 0.0f), spike(dim, 0.0f);
  spike[0] = 100.0f;
  EXPECT_THROW(cache.append(quiet, quiet, 6), std::logic_error);
  EXPECT_THROW(cache.append(spike, spike), std::logic_error);
  EXPECT_THROW(cache.append_rows(keys.data() + 6 * dim,
                                 values.data() + 6 * dim, 6, 6),
               std::logic_error);
  const std::vector<std::size_t> dead{0, 3};
  EXPECT_THROW(cache.evict_ids(dead), std::logic_error);

  EXPECT_EQ(cache.len(), 6u);
  EXPECT_EQ(cache.key_params().scale, k_scale);
  EXPECT_EQ(cache.value_params().scale, v_scale);
  EXPECT_EQ(cache.ids(), ids);
  const QuantizedKvView after = cache.view();
  EXPECT_TRUE(std::equal(values_before.begin(), values_before.end(),
                         after.value_planes));
  EXPECT_TRUE(std::equal(planes_before.begin(), planes_before.end(),
                         after.key_planes));

  // With a source the same calls go through.
  const ViewRescaleSource source(rows);
  cache.set_rescale_source(&source);
  cache.append_rows(keys.data() + 6 * dim, values.data() + 6 * dim, 6, 6);
  EXPECT_EQ(cache.evict_ids(dead), 2u);
  EXPECT_EQ(cache.len(), 10u);

  QuantizedKvCache empty(dim);
  empty.append(rows.key(0), rows.value(0));
  EXPECT_EQ(empty.len(), 1u);
}

TEST(QuantizedKvCache, OracleGateOffZeroesDiagnosticOnly) {
  Rng rng(0x0a0a);
  const std::size_t dim = 16;
  // Threshold above the uniform 1/len probability so the instance actually
  // prunes (a pruned token is what gives the oracle nonzero dropped mass).
  TokenPickerConfig with_oracle;
  with_oracle.estimator.threshold = 5e-2;
  TokenPickerConfig no_oracle = with_oracle;
  no_oracle.compute_oracle_mass = false;

  std::vector<float> keys, values;
  for (std::size_t t = 0; t < 40; ++t) {
    push_random_row(rng, dim, 1.0, &keys, &values);
  }
  const KvHeadView rows{keys.data(), values.data(), 40, dim};
  const ViewRescaleSource source(rows);
  QuantizedKvCache cache(dim, {with_oracle.quant, 1.0f});
  cache.set_rescale_source(&source);
  for (std::size_t t = 0; t < 40; ++t) {
    cache.append(rows.key(t), rows.value(t), t);
  }
  const auto q = random_row(rng, dim, 1.0);

  TokenPickerAttention on(with_oracle), off(no_oracle);
  TokenPickerResult r_on, r_off;
  on.attend_cached(q, cache, &r_on);
  off.attend_cached(q, cache, &r_off);
  EXPECT_GT(r_on.oracle_dropped_mass, 0.0);
  EXPECT_EQ(r_off.oracle_dropped_mass, 0.0);
  r_off.oracle_dropped_mass = r_on.oracle_dropped_mass;
  expect_same_result(r_on, r_off);
}

// Regression for the chunk_histogram overflow: >8 chunks per vector (e.g.
// chunk_bits = 1 -> 12 chunks) used to index past the array<8>. The clamp
// folds the tail into the last bucket; the total still counts every token.
TEST(QuantizedKvCache, ChunkHistogramClampsDeepChunkConfigs) {
  Rng rng(0xc1a);
  const std::size_t dim = 16;
  TokenPickerConfig config;
  config.quant.chunk_bits = 1;  // 12 one-bit chunks > 8 buckets
  config.estimator.threshold = 1e-3;

  std::vector<float> keys, values;
  for (std::size_t t = 0; t < 24; ++t) {
    push_random_row(rng, dim, 1.0, &keys, &values);
  }
  const KvHeadView rows{keys.data(), values.data(), 24, dim};
  const ViewRescaleSource source(rows);
  QuantizedKvCache cache(dim, {config.quant, 1.0f});
  cache.set_rescale_source(&source);
  for (std::size_t t = 0; t < 24; ++t) {
    cache.append(rows.key(t), rows.value(t), t);
  }
  TokenPickerAttention op(config);
  TokenPickerResult result;
  op.attend_cached(random_row(rng, dim, 1.0), cache, &result);

  std::uint64_t total = 0;
  for (const auto c : result.stats.chunk_histogram) total += c;
  EXPECT_EQ(total, 24u);
  // Survivors fetch all 12 chunks; they must land in (clamped) bucket 7.
  EXPECT_GE(result.stats.chunk_histogram[7], result.stats.tokens_kept);
}

TEST(QuantizedKvCache, SyncToViewGrowsAndGuardsRestarts) {
  Rng rng(0x9e);
  const std::size_t dim = 8;
  std::vector<float> keys, values;
  auto grow = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      push_random_row(rng, dim, 1.0, &keys, &values);
    }
  };

  QuantizedKvCache cache(dim);
  grow(5);
  sync_cache_to_view(cache,
                     {keys.data(), values.data(), 5, dim});
  EXPECT_EQ(cache.len(), 5u);
  grow(3);
  sync_cache_to_view(cache, {keys.data(), values.data(), 8, dim});
  EXPECT_EQ(cache.len(), 8u);

  // Restart: a different sequence of the same length must be detected via
  // the tail-row guard and rebuilt, not silently reused. The guard has no
  // floats to compare against anymore — it witnesses via stable ids + the
  // recorded row amax + a re-quantization of the tail bits.
  std::vector<float> keys2 = keys, values2 = values;
  for (auto& x : keys2) x += 1.0f;
  sync_cache_to_view(cache, {keys2.data(), values2.data(), 8, dim});
  auto expect_adopted = [&](const std::vector<float>& ks,
                            const std::vector<float>& vs) {
    ShadowKv shadow(dim);
    for (std::size_t t = 0; t < 8; ++t) {
      shadow.append({ks.begin() + static_cast<std::ptrdiff_t>(t * dim),
                     ks.begin() + static_cast<std::ptrdiff_t>((t + 1) * dim)},
                    {vs.begin() + static_cast<std::ptrdiff_t>(t * dim),
                     vs.begin() + static_cast<std::ptrdiff_t>((t + 1) * dim)},
                    t);
    }
    expect_matches_from_scratch(cache, shadow);
  };
  expect_adopted(keys2, values2);

  // Adversarial restart for the amax leg of the witness: reverse the tail
  // row in place. Its max|x| is unchanged, so only the re-quantized-bits
  // check can catch the divergence.
  std::vector<float> keys3 = keys2;
  std::reverse(keys3.end() - static_cast<std::ptrdiff_t>(dim), keys3.end());
  ASSERT_NE(keys3, keys2);
  sync_cache_to_view(cache, {keys3.data(), values2.data(), 8, dim});
  expect_adopted(keys3, values2);
}

// Backend adoption: the cache-backed ExactQuantizedBackend must reproduce
// exact_attention_quantized() on every step of a growing decode.
TEST(BackendAdoption, ExactQuantizedBackendBitIdentical) {
  Rng rng(0xe1);
  const std::size_t dim = 16;
  std::vector<float> keys, values;
  ExactQuantizedBackend backend;
  backend.begin_sequence();
  std::vector<float> out(dim);
  for (std::size_t t = 0; t < 48; ++t) {
    push_random_row(rng, dim, 1.0, &keys, &values);
    const KvHeadView view{keys.data(), values.data(), t + 1, dim};
    const auto q = random_row(rng, dim, 1.0);

    AttentionContext ctx;
    ctx.position = static_cast<int>(t);
    backend.attend(q, view, out, ctx);
    const auto reference = exact_attention_quantized(q, view);
    for (std::size_t d = 0; d < dim; ++d) {
      EXPECT_EQ(out[d], reference.output[d]) << "step " << t << " dim " << d;
    }
  }
}

// And the cache-backed TokenPickerBackend must reproduce the from-scratch
// attend() on every step.
TEST(BackendAdoption, TokenPickerBackendBitIdentical) {
  Rng rng(0xe2);
  const std::size_t dim = 16;
  TokenPickerConfig config;
  config.estimator.threshold = 1e-3;
  std::vector<float> keys, values;
  TokenPickerBackend backend(config);
  TokenPickerAttention reference_op(config);
  backend.begin_sequence();
  std::vector<float> out(dim);
  for (std::size_t t = 0; t < 48; ++t) {
    push_random_row(rng, dim, 1.0, &keys, &values);
    const KvHeadView view{keys.data(), values.data(), t + 1, dim};
    const auto q = random_row(rng, dim, 1.0);

    AttentionContext ctx;
    ctx.position = static_cast<int>(t);
    backend.attend(q, view, out, ctx);
    const auto reference = reference_op.attend(q, view);
    for (std::size_t d = 0; d < dim; ++d) {
      EXPECT_EQ(out[d], reference.output[d]) << "step " << t << " dim " << d;
    }
  }
}

// SpAtten adoption: shadow-replicate the pre-cache implementation (fresh
// quantize_kv + full-K dots over the active set) against the cache-backed
// backend, pruner state and all.
TEST(BackendAdoption, SpAttenBackendBitIdentical) {
  Rng rng(0xe3);
  const std::size_t dim = 16;
  const int n_layer = 2;
  SpAttenConfig config;
  config.final_keep_ratio = 0.5;
  config.value_prob_threshold = 0.01;

  const std::size_t max_tokens = 40;
  SpAttenBackend backend(config, n_layer, 1, max_tokens);
  SpAttenPruner shadow_pruner(config, n_layer);
  shadow_pruner.begin_sequence(max_tokens);
  backend.begin_sequence();

  std::vector<float> keys, values, out(dim);
  for (std::size_t t = 0; t < max_tokens; ++t) {
    push_random_row(rng, dim, 1.0, &keys, &values);
    const KvHeadView view{keys.data(), values.data(), t + 1, dim};

    for (int layer = 0; layer < n_layer; ++layer) {
      const auto q = random_row(rng, dim, 1.0);
      AttentionContext ctx;
      ctx.layer = layer;
      ctx.position = static_cast<int>(t);
      backend.attend(q, view, out, ctx);

      // The historical path, verbatim: re-quantize the whole head, dot the
      // active tokens' full keys, softmax, value-prune.
      const auto active = shadow_pruner.active_tokens(layer, view.len);
      const QuantizedKv head = quantize_kv(view, config.quant);
      const QuantizedKvView qkv = head.view();
      fx::QuantParams qp = config.quant;
      qp.scale = fx::choose_scale(q, config.quant.total_bits);
      const fx::QuantizedVector qq = fx::quantize(q, qp);
      const double score_scale =
          static_cast<double>(qp.scale) * qkv.key_params.scale /
          std::sqrt(static_cast<double>(dim));
      const std::int16_t* qd = qq.values.data();
      std::vector<double> scores(active.size());
      for (std::size_t i = 0; i < active.size(); ++i) {
        scores[i] = static_cast<double>(qkv.key_dot(qd, active[i],
                                                    qkv.key_offset_dot(qd))) *
                    score_scale;
      }
      const double log_denom = log_sum_exp(scores.data(), scores.size());
      std::vector<double> probs(active.size());
      std::vector<float> expected(dim, 0.0f);
      const float v_scale = qkv.value_params.scale;
      std::vector<std::int16_t> value(dim);
      for (std::size_t i = 0; i < active.size(); ++i) {
        probs[i] = std::exp(scores[i] - log_denom);
        if (probs[i] <= config.value_prob_threshold) continue;
        qkv.value_row(active[i], value.data());
        for (std::size_t d = 0; d < dim; ++d) {
          expected[d] += static_cast<float>(
              probs[i] * static_cast<double>(value[d]) * v_scale);
        }
      }
      shadow_pruner.accumulate_importance(active, probs);

      for (std::size_t d = 0; d < dim; ++d) {
        EXPECT_EQ(out[d], expected[d])
            << "token " << t << " layer " << layer << " dim " << d;
      }
    }
  }
}

}  // namespace
}  // namespace topick
