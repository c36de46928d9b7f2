#include "core/quantized_kv_cache.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>

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

// Offset-binary packing, two int16 key elements per 32-bit word (element 2i
// in the low half). For a key k of T = total_bits bits, u = k + 2^(T-1) is
// k's low T bits with the top one flipped: bitwise, so no half carries into
// the other. k lies in [qmin, qmax] iff (k + 2^(T-1)) mod 2^16 < 2^T, a
// half-wise add whose top bit is added apart so that it cannot carry out.
static_assert(std::endian::native == std::endian::little,
              "pack_key_row reads element pairs in little-endian order");
static_assert(fx::KeyPlaneLayout::kPlaneBits == 4);

// Writes key row k's nibbles into rows[0, planes): plane j holds bits
// [4(planes-1-j), 4(planes-j)) of u, element 2i in the low half of byte i,
// and an odd row leaves its last high nibble 0. Returns false, the rows
// then holding garbage, when some element lies outside [qmin, qmax]. Full
// blocks of 16 pairs run fixed-count loops, which the compiler vectorizes.
bool pack_key_row(const std::int16_t* k, std::size_t n, int total_bits,
                  int planes, std::uint8_t* const* rows) {
  constexpr std::uint32_t kHalves = 0x00010001u;
  constexpr std::uint32_t kTop = kHalves * 0x8000u;
  constexpr std::size_t kBlockPairs = 16;
  const std::uint32_t offset = kHalves << (total_bits - 1);
  const std::uint32_t low = kHalves * ((1u << total_bits) - 1);
  std::uint32_t bad = 0;
  // Packs `count` <= kBlockPairs pairs read from src into byte p onward.
  const auto encode = [&](const std::int16_t* src, std::size_t p,
                          std::size_t count) {
    std::uint32_t u[kBlockPairs];
    std::memcpy(u, src, count * sizeof(std::uint32_t));
    for (std::size_t e = 0; e < count; ++e) {
      bad |= (((u[e] & ~kTop) + offset) ^ (u[e] & kTop)) & ~low;
      u[e] = (u[e] & low) ^ offset;
    }
    for (int j = 0; j < planes; ++j) {
      const int shift = 4 * (planes - 1 - j);
      std::uint8_t* row = rows[j] + p;
      for (std::size_t e = 0; e < count; ++e) {
        const std::uint32_t x = (u[e] >> shift) & 0x000F000Fu;
        row[e] = static_cast<std::uint8_t>(x | (x >> 12));
      }
    }
  };
  const std::size_t pairs = n / 2;
  std::size_t p = 0;
  for (; p + kBlockPairs <= pairs; p += kBlockPairs) {
    encode(k + 2 * p, p, kBlockPairs);
  }
  encode(k + 2 * p, p, pairs - p);
  if (n % 2 != 0) {
    // Pairs the last element with qmin, whose u is 0 in every plane.
    const std::int16_t last[2] = {
        k[n - 1], static_cast<std::int16_t>(-(1 << (total_bits - 1)))};
    encode(last, pairs, 1);
  }
  return bad == 0;
}

}  // namespace

// ---- QuantizedKv ------------------------------------------------------------

void QuantizedKv::reset(const fx::QuantParams& kp, const fx::QuantParams& vp,
                        std::size_t dim) {
  keys.layout = fx::KeyPlaneLayout(kp);  // validates before anything changes
  keys.params = kp;
  values.params = vp;
  head_dim = dim;
  keys.planes.resize(static_cast<std::size_t>(keys.layout.planes()));
  clear_rows();
}

void QuantizedKv::clear_rows() {
  len = 0;
  values.data.clear();
  for (auto& plane : keys.planes) plane.clear();
}

bool QuantizedKv::write_key_row(std::size_t t, const std::int16_t* k_row) {
  const std::size_t row_bytes = fx::KeyPlaneLayout::row_bytes(head_dim);
  const int planes = keys.layout.planes();
  std::array<std::uint8_t*, 4> rows{};  // total_bits <= 15: at most 4 planes
  for (int j = 0; j < planes; ++j) {
    rows[static_cast<std::size_t>(j)] =
        keys.planes[static_cast<std::size_t>(j)].data() + t * row_bytes;
  }
  return pack_key_row(k_row, head_dim, keys.params.total_bits, planes,
                      rows.data());
}

void QuantizedKv::push_row(const std::int16_t* k_row,
                           const std::int16_t* v_row) {
  const std::size_t row_bytes = fx::KeyPlaneLayout::row_bytes(head_dim);
  for (auto& plane : keys.planes) plane.resize((len + 1) * row_bytes);
  const bool in_range = write_key_row(len, k_row);
  if (!in_range) {
    for (auto& plane : keys.planes) plane.resize(len * row_bytes);
  }
  require(in_range, "QuantizedKv: key value outside the head's quant range");
  values.data.insert(values.data.end(), v_row, v_row + head_dim);
  ++len;
}

void QuantizedKv::compact(const std::uint8_t* keep) {
  const std::size_t row_bytes = fx::KeyPlaneLayout::row_bytes(head_dim);
  std::size_t w = 0;
  for (std::size_t r = 0; r < len; ++r) {
    if (!keep[r]) continue;
    if (w != r) {
      std::copy_n(
          values.data.begin() + static_cast<std::ptrdiff_t>(r * head_dim),
          head_dim,
          values.data.begin() + static_cast<std::ptrdiff_t>(w * head_dim));
      for (auto& plane : keys.planes) {
        std::copy_n(plane.begin() + static_cast<std::ptrdiff_t>(r * row_bytes),
                    row_bytes,
                    plane.begin() + static_cast<std::ptrdiff_t>(w * row_bytes));
      }
    }
    ++w;
  }
  len = w;
  values.data.resize(len * head_dim);
  for (auto& plane : keys.planes) plane.resize(len * row_bytes);
}

QuantizedKvView QuantizedKv::view() const {
  const std::size_t row_bytes = fx::KeyPlaneLayout::row_bytes(head_dim);
  require(keys.planes.size() == static_cast<std::size_t>(keys.layout.planes()),
          "QuantizedKv: key plane count differs from the layout");
  require(values.data.size() == len * head_dim &&
              std::all_of(keys.planes.begin(), keys.planes.end(),
                          [&](const std::vector<std::uint8_t>& plane) {
                            return plane.size() == len * row_bytes;
                          }),
          "QuantizedKv: K/V arenas do not hold len rows of head_dim");
  QuantizedKvView v;
  v.len = len;
  v.head_dim = head_dim;
  v.key_params = keys.params;
  v.value_params = values.params;
  v.values = values.data.data();
  v.key_planes = keys.planes.data();
  v.key_layout = &keys.layout;
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
  // Every arena is sized to exactly len rows. The values quantize in one
  // pass; each key row is quantized into a head_dim scratch and packed into
  // its plane rows (quantize output always lies in [qmin, qmax]).
  out.values.data.resize(n);
  fx::quantize_row_i16(kv.values, n, out.values.params, out.values.data.data());
  const std::size_t row_bytes = fx::KeyPlaneLayout::row_bytes(kv.head_dim);
  for (auto& plane : out.keys.planes) plane.resize(kv.len * row_bytes);
  std::vector<std::int16_t> k_row(kv.head_dim);
  for (std::size_t t = 0; t < kv.len; ++t) {
    quantize_row(kv.key(t), out.keys.params, k_row.data());
    out.write_key_row(t, k_row.data());
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

QuantizedKvCache::QuantizedKvCache() : QuantizedKvCache(0, Config{}) {}

QuantizedKvCache::QuantizedKvCache(const Config& config)
    : QuantizedKvCache(0, config) {}

QuantizedKvCache::QuantizedKvCache(std::size_t head_dim)
    : QuantizedKvCache(head_dim, Config{}) {}

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
  b.int16_arena = store_.values.data.size() * sizeof(std::int16_t);
  for (const auto& plane : store_.keys.planes) {
    b.planes += plane.size() * sizeof(std::uint8_t);
  }
  b.maxima =
      (key_row_amax_.size() + value_row_amax_.size() + 2) * sizeof(float);
  b.ids = ids_.size() * sizeof(std::size_t);
  return b;
}

void QuantizedKvCache::require_source() const {
  require(store_.len == 0 || source_ != nullptr,
          "QuantizedKvCache: a cache holding rows needs a RescaleSource");
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
void QuantizedKvCache::requantize(bool keys, bool values) {
  const std::size_t n = store_.len;
  if (n == 0) return;
  static thread_local std::vector<float> k_rows, v_rows;
  if (keys) k_rows.resize(kRescaleBlockRows * head_dim_);
  if (values) v_rows.resize(kRescaleBlockRows * head_dim_);
  k_row_scratch_.resize(head_dim_);
  for (std::size_t start = 0; start < n; start += kRescaleBlockRows) {
    const std::size_t count = std::min(kRescaleBlockRows, n - start);
    source_->fill_rows({ids_.data() + start, count},
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
                     store_.values.params,
                     store_.values.data.data() + (start + r) * head_dim_);
      }
    }
  }
  if (keys) key_rows_requantized_ += n;
  if (values) value_rows_requantized_ += n;
}

void QuantizedKvCache::ensure_scales(float key_amax, float value_amax) {
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
    requantize(requant_keys, requant_values);
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
                              std::span<const float> v) {
  append(k, v, ids_.empty() ? 0 : ids_.back() + 1);
}

void QuantizedKvCache::append(std::span<const float> k,
                              std::span<const float> v, std::size_t id) {
  require(head_dim_ > 0, "QuantizedKvCache: head_dim not set");
  require(k.size() == head_dim_ && v.size() == head_dim_,
          "QuantizedKvCache::append: head_dim mismatch");
  require_source();
  const float ka = row_amax(k);
  const float va = row_amax(v);
  require(std::isfinite(ka) && std::isfinite(va), kNonFiniteRow);
  key_row_amax_.push_back(ka);
  value_row_amax_.push_back(va);
  ids_.push_back(id);
  // A record-setting row triggers the whole-head requantize of the rows
  // already stored; the new row's floats are at hand either way, so it is
  // always quantized exactly under the (possibly fresh) scale.
  ensure_scales(std::max(key_amax_, ka), std::max(value_amax_, va));
  push_quantized(k.data(), v.data());
}

void QuantizedKvCache::append_rows(const float* k_rows, const float* v_rows,
                                   std::size_t count, std::size_t first_id) {
  require_source();
  require_finite_rows(k_rows, v_rows, count * head_dim_);
  push_rows(k_rows, v_rows, count, first_id);
}

void QuantizedKvCache::push_rows(const float* k_rows, const float* v_rows,
                                 std::size_t count, std::size_t first_id) {
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
  ensure_scales(ka, va);
  for (std::size_t r = 0; r < count; ++r) {
    push_quantized(k_rows + r * head_dim_, v_rows + r * head_dim_);
  }
}

void QuantizedKvCache::rebuild(const KvHeadView& view) {
  require_finite_rows(view.keys, view.values, view.len * view.head_dim);
  head_dim_ = view.head_dim;
  clear();
  push_rows(view.keys, view.values, view.len, 0);
}

std::size_t QuantizedKvCache::evict_ids(std::span<const std::size_t> ids) {
  require_source();
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
  ensure_scales(ka, va);
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
  static thread_local std::vector<std::int16_t> scratch, stored_key;
  scratch.resize(view.head_dim);
  stored_key.resize(view.head_dim);
  const QuantizedKvView qv = cache.view();
  qv.key_row(pos, stored_key.data());
  fx::quantize_row_i16(vk.data(), vk.size(), cache.key_params(),
                       scratch.data());
  if (scratch != stored_key) return false;
  fx::quantize_row_i16(vv.data(), vv.size(), cache.value_params(),
                       scratch.data());
  return std::equal(scratch.begin(), scratch.end(), qv.value(pos));
}

}  // namespace

void sync_cache_to_view(QuantizedKvCache& cache, const KvHeadView& view) {
  const std::size_t n = cache.len();
  // Register the view as the rescale source for the duration of the sync
  // (restoring the caller's source on every exit path): rebuilds and
  // suffix-append rescales then re-read exact floats from the view.
  const ViewRescaleSource source(view);
  struct RestoreSource {
    QuantizedKvCache* cache;
    const RescaleSource* previous;
    ~RestoreSource() { cache->set_rescale_source(previous); }
  } restore{&cache, cache.rescale_source()};
  cache.set_rescale_source(&source);

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
    cache.append_rows(view.keys + n * view.head_dim,
                      view.values + n * view.head_dim, view.len - n, n);
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
  for (std::size_t t = 0; t < kv.len; ++t) {
    weighted_value_accum(result->output.data(), kv.value(t), result->probs[t],
                         static_cast<double>(v_scale), kv.head_dim);
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
