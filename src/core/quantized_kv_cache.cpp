#include "core/quantized_kv_cache.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/expsum.h"
#include "common/require.h"
#include "fixedpoint/dispatch.h"

namespace topick {

namespace {

// Must mirror fx::choose_scale exactly — same expression, same float ops —
// so a scale derived from the running max equals the from-scratch one.
float scale_for_amax(float amax, int total_bits) {
  if (amax == 0.0f) return 1.0f;
  const auto qmax = static_cast<float>((1 << (total_bits - 1)) - 1);
  return amax / qmax;
}

// Dispatched max|x| reduction; every registry variant is exact (max has no
// rounding), so the running maxima — and therefore the scales — do not
// depend on the selected ISA.
float row_amax(std::span<const float> xs) { return fx::row_amax(xs); }

// row_amax skips NaN, so only an inf element leaves a max non-finite; its
// scale would be inf and every output NaN. Checked before the cache changes,
// so a refused append leaves every member as it was.
constexpr const char* kNonFiniteRow =
    "QuantizedKvCache: inf K/V value cannot be quantized";

void require_finite_rows(const float* k_rows, const float* v_rows,
                         std::size_t n) {
  require(std::isfinite(fx::row_amax(k_rows, n)) &&
              std::isfinite(fx::row_amax(v_rows, n)),
          kNonFiniteRow);
}

// fx::quantize's element math exactly — it IS fx::quantize_row_i16, the one
// shared round/saturate kernel (see fixedpoint/quant.h).
void quantize_row(std::span<const float> xs, const fx::QuantParams& params,
                  std::int16_t* out) {
  fx::quantize_row_i16(xs.data(), xs.size(), params, out);
}

// Packs `row` into row t of `arena`'s planes, already sized to hold it.
bool write_arena_row(QuantizedKv::Arena& arena, std::size_t head_dim,
                     std::size_t t, const std::int16_t* row) {
  const std::size_t row_bytes = fx::PlaneLayout::row_bytes(head_dim);
  std::array<std::uint8_t*, 4> rows{};  // total_bits <= 15: at most 4 planes
  for (std::size_t j = 0; j < arena.planes.size(); ++j) {
    rows[j] = arena.planes[j].data() + t * row_bytes;
  }
  return fx::pack_planes_i16(row, head_dim, arena.params.total_bits,
                             rows.data());
}

// Sizes every plane of both arenas to `rows` rows of row_bytes.
void resize_planes(QuantizedKv& kv, std::size_t rows) {
  const std::size_t row_bytes = fx::PlaneLayout::row_bytes(kv.head_dim);
  QuantizedKv::Arena* const arenas[] = {&kv.keys, &kv.values};
  for (auto* arena : arenas) {
    for (auto& plane : arena->planes) plane.resize(rows * row_bytes);
  }
}

}  // namespace

// ---- QuantizedKv ------------------------------------------------------------

void QuantizedKv::reset(const fx::QuantParams& kp, const fx::QuantParams& vp,
                        std::size_t dim) {
  const fx::PlaneLayout layout(kp);  // validates before anything changes
  require(vp.total_bits >= 2 && vp.total_bits <= 15,
          "QuantizedKv: value total_bits must be in [2, 15]");
  keys.layout = layout;
  keys.params = kp;
  values.params = vp;
  head_dim = dim;
  keys.planes.resize(static_cast<std::size_t>(layout.planes()));
  values.planes.resize(
      static_cast<std::size_t>(fx::PlaneLayout::planes_for(vp.total_bits)));
  clear_rows();
}

void QuantizedKv::clear_rows() {
  len = 0;
  resize_planes(*this, 0);
}

bool QuantizedKv::write_key_row(std::size_t t, const std::int16_t* k_row) {
  return write_arena_row(keys, head_dim, t, k_row);
}

bool QuantizedKv::write_value_row(std::size_t t, const std::int16_t* v_row) {
  return write_arena_row(values, head_dim, t, v_row);
}

void QuantizedKv::push_row(const std::int16_t* k_row,
                           const std::int16_t* v_row) {
  resize_planes(*this, len + 1);
  const bool keys_in_range = write_key_row(len, k_row);
  const bool values_in_range = write_value_row(len, v_row);
  if (!keys_in_range || !values_in_range) resize_planes(*this, len);
  require(keys_in_range,
          "QuantizedKv: key element outside the head's quant range");
  require(values_in_range,
          "QuantizedKv: value element outside the head's quant range");
  ++len;
}

void QuantizedKv::compact(const std::uint8_t* keep) {
  const std::size_t row_bytes = fx::PlaneLayout::row_bytes(head_dim);
  Arena* const arenas[] = {&keys, &values};
  std::size_t w = 0;
  for (std::size_t r = 0; r < len; ++r) {
    if (!keep[r]) continue;
    if (w != r) {
      for (auto* arena : arenas) {
        for (auto& plane : arena->planes) {
          std::copy_n(
              plane.begin() + static_cast<std::ptrdiff_t>(r * row_bytes),
              row_bytes,
              plane.begin() + static_cast<std::ptrdiff_t>(w * row_bytes));
        }
      }
    }
    ++w;
  }
  len = w;
  resize_planes(*this, len);
}

QuantizedKvView QuantizedKv::view() const {
  const std::size_t row_bytes = fx::PlaneLayout::row_bytes(head_dim);
  require(keys.planes.size() == static_cast<std::size_t>(keys.layout.planes()),
          "QuantizedKv: key plane count differs from the layout");
  const auto holds_len_rows = [&](const Arena& arena) {
    const int bits = arena.params.total_bits;
    return bits >= 2 && bits <= 15 &&
           arena.planes.size() ==
               static_cast<std::size_t>(fx::PlaneLayout::planes_for(bits)) &&
           std::all_of(arena.planes.begin(), arena.planes.end(),
                       [&](const std::vector<std::uint8_t>& plane) {
                         return plane.size() == len * row_bytes;
                       });
  };
  require(holds_len_rows(keys) && holds_len_rows(values),
          "QuantizedKv: K/V planes do not hold len rows of head_dim at "
          "their bit width");
  QuantizedKvView v;
  v.len = len;
  v.head_dim = head_dim;
  v.key_params = keys.params;
  v.value_params = values.params;
  v.key_planes = keys.planes.data();
  v.key_layout = &keys.layout;
  v.value_planes = values.planes.data();
  return v;
}

QuantizedKv quantize_kv(const KvHeadView& kv, const fx::QuantParams& base) {
  const std::size_t n = kv.len * kv.head_dim;
  const auto arena_params = [&](const float* xs) {
    fx::QuantParams params = base;
    params.scale = fx::choose_scale({xs, n}, base.total_bits);
    return params;
  };
  QuantizedKv out;
  out.reset(arena_params(kv.keys), arena_params(kv.values), kv.head_dim);
  // Every plane is sized to exactly len rows. Each row is quantized into a
  // head_dim scratch and packed into its plane rows (quantize output always
  // lies in [qmin, qmax]).
  resize_planes(out, kv.len);
  std::vector<std::int16_t> row(kv.head_dim);
  for (std::size_t t = 0; t < kv.len; ++t) {
    quantize_row(kv.key(t), out.keys.params, row.data());
    out.write_key_row(t, row.data());
    quantize_row(kv.value(t), out.values.params, row.data());
    out.write_value_row(t, row.data());
  }
  out.len = kv.len;
  return out;
}

// ---- ViewRescaleSource ------------------------------------------------------

void ViewRescaleSource::fill_rows(std::span<const std::size_t> ids,
                                  float* keys, float* values) const {
  const std::size_t dim = view_.head_dim;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (keys != nullptr) {
      std::copy_n(view_.key(ids[i]).data(), dim, keys + i * dim);
    }
    if (values != nullptr) {
      std::copy_n(view_.value(ids[i]).data(), dim, values + i * dim);
    }
  }
}

// ---- QuantizedKvCache -------------------------------------------------------

QuantizedKvCache::QuantizedKvCache(std::size_t head_dim, const Config& config)
    : config_(config), head_dim_(head_dim) {
  require(std::isfinite(config.headroom) && config.headroom >= 1.0f,
          "QuantizedKvCache: headroom must be finite and >= 1");
  store_.reset(config_.base, config_.base, head_dim_);
}

void QuantizedKvCache::clear() {
  store_.reset(config_.base, config_.base, head_dim_);
  key_row_amax_.clear();
  value_row_amax_.clear();
  key_amax_ = 0.0f;
  value_amax_ = 0.0f;
  ids_.clear();
  key_rescales_ = 0;
  value_rescales_ = 0;
  key_rows_requantized_ = 0;
  value_rows_requantized_ = 0;
}

QuantizedKvCache::ResidencyBytes QuantizedKvCache::residency() const {
  ResidencyBytes b;
  for (const auto& plane : store_.values.planes) b.value_planes += plane.size();
  for (const auto& plane : store_.keys.planes) b.key_planes += plane.size();
  b.maxima =
      (key_row_amax_.size() + value_row_amax_.size() + 2) * sizeof(float);
  b.ids = ids_.size() * sizeof(std::size_t);
  return b;
}

// Rows a rescale asks the source for at a time: bounds the float scratch
// (32 KiB at head_dim 64) however long the head is.
constexpr std::size_t kRescaleBlockRows = 64;

// Re-quantizes every row already in the store under the (just-updated)
// shared scale of each requested arena, re-reading that arena's original
// rows by stable id — bit-identical to quantizing the live set from scratch
// at headroom 1. An arena whose scale did not change is left as it is: each
// of its rows already is its floats quantized under that scale. Covers
// exactly store_.len rows: append paths call this BEFORE pushing their new
// rows, whose floats are still at hand and are quantized directly under the
// new scale afterward.
void QuantizedKvCache::requantize(bool keys, bool values,
                                  const RescaleSource& rows) {
  const std::size_t n = store_.len;
  if (n == 0) return;
  static thread_local std::vector<float> k_rows, v_rows;
  if (keys) k_rows.resize(kRescaleBlockRows * head_dim_);
  if (values) v_rows.resize(kRescaleBlockRows * head_dim_);
  k_row_scratch_.resize(head_dim_);
  v_row_scratch_.resize(head_dim_);
  for (std::size_t start = 0; start < n; start += kRescaleBlockRows) {
    const std::size_t count = std::min(kRescaleBlockRows, n - start);
    rows.fill_rows({ids_.data() + start, count},
                   keys ? k_rows.data() : nullptr,
                   values ? v_rows.data() : nullptr);
    for (std::size_t r = 0; r < count; ++r) {
      if (keys) {
        quantize_row({k_rows.data() + r * head_dim_, head_dim_},
                     store_.keys.params, k_row_scratch_.data());
        store_.write_key_row(start + r, k_row_scratch_.data());
      }
      if (values) {
        quantize_row({v_rows.data() + r * head_dim_, head_dim_},
                     store_.values.params, v_row_scratch_.data());
        store_.write_value_row(start + r, v_row_scratch_.data());
      }
    }
  }
  if (keys) key_rows_requantized_ += n;
  if (values) value_rows_requantized_ += n;
}

void QuantizedKvCache::ensure_scales(float key_amax, float value_amax,
                                     const RescaleSource& rows) {
  const float k_target =
      scale_for_amax(key_amax, store_.keys.params.total_bits);
  const float v_target =
      scale_for_amax(value_amax, store_.values.params.total_bits);
  bool requant_keys = false;
  bool requant_values = false;
  if (config_.headroom == 1.0f) {
    // Exact mode: the scale tracks choose_scale() bit-for-bit, shrinking on
    // evict as well as growing on append.
    if (store_.keys.params.scale != k_target) {
      store_.keys.params.scale = k_target;
      ++key_rescales_;
      requant_keys = true;
    }
    if (store_.values.params.scale != v_target) {
      store_.values.params.scale = v_target;
      ++value_rescales_;
      requant_values = true;
    }
  } else {
    // Amortized mode: hold the scale inside [target, target * headroom].
    // Below target the grid clips; above target * headroom it is needlessly
    // coarse (this band also covers the initial base scale, which would
    // otherwise quantize small-magnitude data to all zeros). Either breach
    // re-quantizes to the band's top, so max|x| drift within the headroom
    // costs nothing.
    const float k_hi = k_target * config_.headroom;
    if (store_.keys.params.scale < k_target ||
        store_.keys.params.scale > k_hi) {
      store_.keys.params.scale = k_hi;
      ++key_rescales_;
      requant_keys = true;
    }
    const float v_hi = v_target * config_.headroom;
    if (store_.values.params.scale < v_target ||
        store_.values.params.scale > v_hi) {
      store_.values.params.scale = v_hi;
      ++value_rescales_;
      requant_values = true;
    }
  }
  key_amax_ = key_amax;
  value_amax_ = value_amax;
  if (requant_keys || requant_values) {
    requantize(requant_keys, requant_values, rows);
  }
}

void QuantizedKvCache::push_quantized(const float* k_row, const float* v_row) {
  k_row_scratch_.resize(head_dim_);
  v_row_scratch_.resize(head_dim_);
  quantize_row({k_row, head_dim_}, store_.keys.params, k_row_scratch_.data());
  quantize_row({v_row, head_dim_}, store_.values.params, v_row_scratch_.data());
  store_.push_row(k_row_scratch_.data(), v_row_scratch_.data());
}

void QuantizedKvCache::append(std::span<const float> k,
                              std::span<const float> v, std::size_t id,
                              const RescaleSource& rows) {
  require(head_dim_ > 0, "QuantizedKvCache: head_dim not set");
  require(k.size() == head_dim_ && v.size() == head_dim_,
          "QuantizedKvCache::append: head_dim mismatch");
  const float ka = row_amax(k);
  const float va = row_amax(v);
  require(std::isfinite(ka) && std::isfinite(va), kNonFiniteRow);
  key_row_amax_.push_back(ka);
  value_row_amax_.push_back(va);
  ids_.push_back(id);
  // A record-setting row triggers the whole-head requantize of the rows
  // already stored; the new row's floats are at hand either way, so it is
  // always quantized exactly under the (possibly fresh) scale.
  ensure_scales(std::max(key_amax_, ka), std::max(value_amax_, va), rows);
  push_quantized(k.data(), v.data());
}

void QuantizedKvCache::append_rows(const float* k_rows, const float* v_rows,
                                   std::size_t count, std::size_t first_id,
                                   const RescaleSource& rows) {
  require_finite_rows(k_rows, v_rows, count * head_dim_);
  push_rows(k_rows, v_rows, count, first_id, rows);
}

void QuantizedKvCache::push_rows(const float* k_rows, const float* v_rows,
                                 std::size_t count, std::size_t first_id,
                                 const RescaleSource& rows) {
  require(head_dim_ > 0, "QuantizedKvCache: head_dim not set");
  if (count == 0) return;
  float ka = key_amax_;
  float va = value_amax_;
  for (std::size_t r = 0; r < count; ++r) {
    const float rka = row_amax({k_rows + r * head_dim_, head_dim_});
    const float rva = row_amax({v_rows + r * head_dim_, head_dim_});
    ka = std::max(ka, rka);
    va = std::max(va, rva);
    key_row_amax_.push_back(rka);
    value_row_amax_.push_back(rva);
    ids_.push_back(first_id + r);
  }
  // At most one whole-head requantize for the batch — the scale target is
  // computed over ALL batch maxima before any batch row is quantized, so
  // every batch row lands on the final grid directly from its floats.
  ensure_scales(ka, va, rows);
  for (std::size_t r = 0; r < count; ++r) {
    push_quantized(k_rows + r * head_dim_, v_rows + r * head_dim_);
  }
}

void QuantizedKvCache::rebuild(const KvHeadView& view) {
  require_finite_rows(view.keys, view.values, view.len * view.head_dim);
  head_dim_ = view.head_dim;
  clear();
  // The cache is empty, so the source is never read.
  push_rows(view.keys, view.values, view.len, 0, ViewRescaleSource(view));
}

std::size_t QuantizedKvCache::evict_ids(std::span<const std::size_t> ids,
                                        const RescaleSource& rows) {
  if (ids.empty() || store_.len == 0) return 0;
  evict_scratch_.assign(ids.begin(), ids.end());
  std::sort(evict_scratch_.begin(), evict_scratch_.end());
  const std::size_t n = ids_.size();
  keep_scratch_.assign(n, 1);
  std::size_t evicted = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (std::binary_search(evict_scratch_.begin(), evict_scratch_.end(),
                           ids_[r])) {
      keep_scratch_[r] = 0;
      ++evicted;
    }
  }
  if (evicted == 0) return 0;

  store_.compact(keep_scratch_.data());
  std::size_t w = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (!keep_scratch_[r]) continue;
    if (w != r) {
      key_row_amax_[w] = key_row_amax_[r];
      value_row_amax_[w] = value_row_amax_[r];
      ids_[w] = ids_[r];
    }
    ++w;
  }
  key_row_amax_.resize(w);
  value_row_amax_.resize(w);
  ids_.resize(w);

  // The record holder may have left: recompute the live maxima (cheap — one
  // float per row) and shrink-rescale if the scale must follow.
  float ka = 0.0f, va = 0.0f;
  for (std::size_t r = 0; r < w; ++r) {
    ka = std::max(ka, key_row_amax_[r]);
    va = std::max(va, value_row_amax_[r]);
  }
  ensure_scales(ka, va, rows);
  return evicted;
}

// ---- helpers ----------------------------------------------------------------

namespace {

// Restart witness without retained floats, three checks deep:
//   1. the last shared row's stable id must be its view position (a cache
//      adopted from any view always numbers 0..len-1);
//   2. its recorded per-row max|x| must equal a fresh reduction over the
//      view's floats (catches almost every overwrite on its own);
//   3. the view row re-quantized under the cache's CURRENT params must
//      reproduce the stored int16 bits (catches an overwrite that kept the
//      row's amax — e.g. a permutation of the same values).
// A false negative is impossible at any headroom: stored bits are always
// quantize(floats, current params) for an untouched sequence.
bool tail_matches_view(const QuantizedKvCache& cache, const KvHeadView& view,
                       std::size_t pos) {
  if (cache.id_at(pos) != pos) return false;
  const auto vk = view.key(pos);
  const auto vv = view.value(pos);
  if (fx::row_amax(vk) != cache.key_row_amax(pos) ||
      fx::row_amax(vv) != cache.value_row_amax(pos)) {
    return false;
  }
  static thread_local std::vector<std::int16_t> scratch, stored;
  scratch.resize(view.head_dim);
  stored.resize(view.head_dim);
  const QuantizedKvView qv = cache.view();
  qv.key_row(pos, stored.data());
  fx::quantize_row_i16(vk.data(), vk.size(), cache.key_params(),
                       scratch.data());
  if (scratch != stored) return false;
  qv.value_row(pos, stored.data());
  fx::quantize_row_i16(vv.data(), vv.size(), cache.value_params(),
                       scratch.data());
  return scratch == stored;
}

}  // namespace

void sync_cache_to_view(QuantizedKvCache& cache, const KvHeadView& view) {
  const std::size_t n = cache.len();
  if (view.len < n) {
    cache.rebuild(view);
    return;
  }
  if (n > 0 && !tail_matches_view(cache, view, n - 1)) {
    // A restarted sequence of the same-or-longer length.
    cache.rebuild(view);
    return;
  }
  if (view.len > n) {
    // Rows 0..n-1 are the view's (the witness above), so a suffix rescale
    // re-reads exact floats from it.
    cache.append_rows(view.keys + n * view.head_dim,
                      view.values + n * view.head_dim, view.len - n, n,
                      ViewRescaleSource(view));
  }
}

void exact_attention_view(std::span<const float> q, const QuantizedKvView& kv,
                          fx::QuantizedVector* q_scratch,
                          ExactAttentionResult* result) {
  require(kv.len > 0, "exact_attention_view: empty view");
  require(q.size() == kv.head_dim, "exact_attention_view: q size");

  const double score_scale =
      quantize_query(q, kv.key_params, kv.key_params.scale, q_scratch);

  const std::int16_t* qd = q_scratch->values.data();
  const std::int64_t offset_dot = kv.key_offset_dot(qd);
  result->scores.resize(kv.len);
  for (std::size_t t = 0; t < kv.len; ++t) {
    result->scores[t] =
        static_cast<double>(kv.key_dot(qd, t, offset_dot)) * score_scale;
  }

  const double log_denom = log_sum_exp(result->scores.data(), kv.len);
  result->probs.resize(kv.len);
  for (std::size_t t = 0; t < kv.len; ++t) {
    result->probs[t] = std::exp(result->scores[t] - log_denom);
  }

  result->output.assign(kv.head_dim, 0.0f);
  const float v_scale = kv.value_params.scale;
  static thread_local std::vector<std::int16_t> block;
  block.resize(kValueBlockRows * kv.head_dim);
  for (std::size_t t = 0; t < kv.len; t += kValueBlockRows) {
    const std::size_t run = std::min(kValueBlockRows, kv.len - t);
    kv.value_rows(t, run, block.data());
    for (std::size_t r = 0; r < run; ++r) {
      weighted_value_accum(result->output.data(),
                           block.data() + r * kv.head_dim,
                           result->probs[t + r], static_cast<double>(v_scale),
                           kv.head_dim);
    }
  }
}

ExactAttentionResult exact_attention_view(std::span<const float> q,
                                          const QuantizedKvView& kv) {
  ExactAttentionResult result;
  fx::QuantizedVector q_scratch;
  exact_attention_view(q, kv, &q_scratch, &result);
  return result;
}

}  // namespace topick
