#include "core/quantized_kv_cache.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/expsum.h"
#include "common/require.h"
#include "fixedpoint/chunks.h"
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

}  // namespace

// ---- QuantizedKvStore -------------------------------------------------------

namespace {

// Builds (or returns the cached) chunk-plane digit table for a bit layout.
// One table per (total_bits, chunk_bits) process-wide — it is immutable
// after construction, so concurrent stores can all read it. The mutex only
// guards the build-once map (reset-time, never the row hot path). A layout
// whose digits overflow int8 is rejected before anything is cached.
const QuantizedKvStore::DigitTable* shared_digit_table(
    const fx::QuantParams& kp) {
  static std::mutex mutex;
  static std::map<std::pair<int, int>,
                  std::unique_ptr<const QuantizedKvStore::DigitTable>>
      cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto& entry = cache[{kp.total_bits, kp.chunk_bits}];
  if (!entry) {
    const auto chunks = static_cast<std::size_t>(kp.num_chunks());
    const auto domain = static_cast<std::size_t>(kp.qmax() - kp.qmin() + 1);
    QuantizedKvStore::DigitTable table;
    table.digits.assign(chunks, std::vector<std::int8_t>(domain));
    table.shifts.resize(chunks);
    for (std::size_t b = 0; b < chunks; ++b) {
      const int chunk = static_cast<int>(b);
      const int shift = fx::unknown_bits(chunk + 1, kp);
      table.shifts[b] = shift;
      for (std::size_t i = 0; i < domain; ++i) {
        const auto q = static_cast<std::int16_t>(
            kp.qmin() + static_cast<std::int32_t>(i));
        // The delta's low `shift` bits are zero, so the shift is exact.
        const std::int32_t digit = (fx::partial_value(q, chunk + 1, kp) -
                                    fx::partial_value(q, chunk, kp)) >>
                                   shift;
        require(digit >= -128 && digit <= 127,
                "QuantizedKvStore: chunk digits must fit int8 (chunk_bits "
                "<= 7; the signed top chunk may be 8 bits)");
        table.digits[b][i] = static_cast<std::int8_t>(digit);
      }
    }
    entry = std::make_unique<const QuantizedKvStore::DigitTable>(
        std::move(table));
  }
  return entry.get();
}

}  // namespace

void QuantizedKvStore::reset(const fx::QuantParams& kp,
                             const fx::QuantParams& vp, std::size_t dim) {
  key_params = kp;
  value_params = vp;
  head_dim = dim;
  digit_table = shared_digit_table(kp);
  key_planes.resize(static_cast<std::size_t>(kp.num_chunks()));
  clear_rows();
}

void QuantizedKvStore::clear_rows() {
  len = 0;
  values.clear();
  for (auto& plane : key_planes) plane.clear();
}

void QuantizedKvStore::push_row(const std::int16_t* k_row,
                                const std::int16_t* v_row) {
  values.insert(values.end(), v_row, v_row + head_dim);
  const int num_chunks = key_params.num_chunks();
  const std::int32_t qmin = key_params.qmin();
  for (int b = 0; b < num_chunks; ++b) {
    auto& plane = key_planes[static_cast<std::size_t>(b)];
    const std::size_t base = plane.size();
    plane.resize(base + head_dim);
    // The chunk's digit: its raw bits for b > 0, the signed prefix for
    // b == 0 (see fixedpoint/chunks.h) — precomputed per quantized value.
    const std::int8_t* lut =
        digit_table->digits[static_cast<std::size_t>(b)].data();
    for (std::size_t d = 0; d < head_dim; ++d) {
      plane[base + d] = lut[k_row[d] - qmin];
    }
  }
  ++len;
}

void QuantizedKvStore::compact(const std::uint8_t* keep) {
  std::size_t w = 0;
  for (std::size_t r = 0; r < len; ++r) {
    if (!keep[r]) continue;
    if (w != r) {
      std::copy_n(values.begin() + static_cast<std::ptrdiff_t>(r * head_dim),
                  head_dim,
                  values.begin() + static_cast<std::ptrdiff_t>(w * head_dim));
      for (auto& plane : key_planes) {
        std::copy_n(plane.begin() + static_cast<std::ptrdiff_t>(r * head_dim),
                    head_dim,
                    plane.begin() + static_cast<std::ptrdiff_t>(w * head_dim));
      }
    }
    ++w;
  }
  len = w;
  values.resize(len * head_dim);
  for (auto& plane : key_planes) plane.resize(len * head_dim);
}

QuantizedKvView QuantizedKvStore::view() const {
  QuantizedKvView v;
  v.len = len;
  v.head_dim = head_dim;
  v.key_params = key_params;
  v.value_params = value_params;
  v.values = values.data();
  v.key_planes = key_planes.data();
  v.key_plane_shifts = digit_table->shifts.data();
  return v;
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
}

QuantizedKvCache::ResidencyBytes QuantizedKvCache::residency() const {
  ResidencyBytes b;
  b.int16_arena = store_.values.size() * sizeof(std::int16_t);
  for (const auto& plane : store_.key_planes) {
    b.planes += plane.size() * sizeof(std::int8_t);
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

// Re-quantizes every row already in the store under the (just-updated)
// shared scales, re-reading the original rows by stable id — bit-identical
// to quantizing the live set from scratch at headroom 1. Covers exactly
// store_.len rows: append paths call this BEFORE pushing their new rows,
// whose floats are still at hand and are quantized directly under the new
// scale afterward.
void QuantizedKvCache::requantize_all() {
  const std::size_t n = store_.len;
  store_.clear_rows();
  for (std::size_t r = 0; r < n; ++r) {
    push_quantized(source_->key_row(ids_[r]), source_->value_row(ids_[r]));
  }
}

void QuantizedKvCache::ensure_scales(float key_amax, float value_amax) {
  const float k_target = scale_for_amax(key_amax, store_.key_params.total_bits);
  const float v_target =
      scale_for_amax(value_amax, store_.value_params.total_bits);
  bool requant = false;
  if (config_.headroom == 1.0f) {
    // Exact mode: the scale tracks choose_scale() bit-for-bit, shrinking on
    // evict as well as growing on append.
    if (store_.key_params.scale != k_target) {
      store_.key_params.scale = k_target;
      ++key_rescales_;
      requant = true;
    }
    if (store_.value_params.scale != v_target) {
      store_.value_params.scale = v_target;
      ++value_rescales_;
      requant = true;
    }
  } else {
    // Amortized mode: hold the scale inside [target, target * headroom].
    // Below target the grid clips; above target * headroom it is needlessly
    // coarse (this band also covers the initial base scale, which would
    // otherwise quantize small-magnitude data to all zeros). Either breach
    // re-quantizes to the band's top, so max|x| drift within the headroom
    // costs nothing.
    const float k_hi = k_target * config_.headroom;
    if (store_.key_params.scale < k_target || store_.key_params.scale > k_hi) {
      store_.key_params.scale = k_hi;
      ++key_rescales_;
      requant = true;
    }
    const float v_hi = v_target * config_.headroom;
    if (store_.value_params.scale < v_target ||
        store_.value_params.scale > v_hi) {
      store_.value_params.scale = v_hi;
      ++value_rescales_;
      requant = true;
    }
  }
  key_amax_ = key_amax;
  value_amax_ = value_amax;
  if (requant) requantize_all();
}

void QuantizedKvCache::push_quantized(const float* k_row, const float* v_row) {
  k_row_scratch_.resize(head_dim_);
  v_row_scratch_.resize(head_dim_);
  quantize_row({k_row, head_dim_}, store_.key_params, k_row_scratch_.data());
  quantize_row({v_row, head_dim_}, store_.value_params, v_row_scratch_.data());
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

  result->scores.resize(kv.len);
  for (std::size_t t = 0; t < kv.len; ++t) {
    result->scores[t] =
        static_cast<double>(kv.key_dot(q_scratch->values.data(), t)) *
        score_scale;
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
