// Incrementally quantized, chunk-planar KV storage — the decode hot path.
//
// quantize_kv() re-quantizes an entire head every decode step because the
// shared symmetric scale depends on the head's max|x| over the live tokens.
// But that is the *only* thing it depends on: while the live set's max|x| is
// unchanged, every already-quantized token is bit-identical to what a fresh
// quantize_kv() would produce from the same floats. QuantizedKvCache
// therefore quantizes each token once at append, tracks the live set's
// max|x| (keys and values separately, via per-row maxima), and re-quantizes
// the whole head only on the rare step where that max changes — a new record
// on append, or the record holder leaving on evict. The cache keeps no
// floats: a rescale re-reads every stored row from the registered
// RescaleSource, so at any headroom each stored row is its floats quantized
// under the head's current scale. With headroom == 1 (default) that scale is
// choose_scale()'s, so the integers, scales, and every downstream pruning
// decision are bit-identical to the from-scratch path
// (tests/quantized_kv_cache_test.cpp proves it over randomized append/evict
// interleavings); headroom > 1 trades the from-scratch scale for even fewer
// rescales.
//
// Keys are stored once, as chunk-planar digit planes — one contiguous int8
// plane per chunk, the chunked most-significant-first format the estimation
// walk fetches. Chunk b's contribution partial_value(k, b+1) -
// partial_value(k, b) always has its low unknown_bits(b+1) bits clear, so
// the plane stores only the digit (that delta >> shift_b, shift_b =
// unknown_bits(b+1)): the signed top chunk for b == 0 ([-8, 7] at 12/4), the
// raw chunk bits for b > 0 ([0, 15]). The estimation pass's chunk_dot_delta
// becomes plane_dot_i64(q, digits) * 2^shift_b — an exact integer identity,
// so partial sums and pruning decisions are those of the full-width delta,
// at one byte per element instead of two. The exact score is that walk with
// every chunk fetched (QuantizedKvView::key_dot), and the cold readers that
// need the int16 key reassemble it from the planes (key_row).
// Values live in a flat int16 arena; nothing on the per-token heap.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/exact_attention.h"
#include "fixedpoint/dispatch.h"
#include "fixedpoint/quant.h"
#include "model/kv_cache.h"

namespace topick {

// Non-owning view over chunk-planar quantized K/V. The unit the attention
// hot paths consume; produced by QuantizedKvCache (incremental) and by
// transient stores built from pre-quantized QuantizedKv arenas.
struct QuantizedKvView {
  std::size_t len = 0;
  std::size_t head_dim = 0;
  fx::QuantParams key_params;    // shared scale across the head's keys
  fx::QuantParams value_params;  // shared scale across the head's values
  const std::int16_t* values = nullptr;  // (len, head_dim) token-major
  // key_params.num_chunks() digit planes, each (len, head_dim) token-major,
  // and each plane's shift (digit * 2^shift == the chunk's delta). The only
  // stored form of a key.
  const std::vector<std::int8_t>* key_planes = nullptr;
  const int* key_plane_shifts = nullptr;

  const std::int16_t* value(std::size_t t) const {
    return values + t * head_dim;
  }
  const std::int8_t* key_plane_row(int chunk, std::size_t t) const {
    return key_planes[chunk].data() + t * head_dim;
  }
  int key_plane_shift(int chunk) const { return key_plane_shifts[chunk]; }

  // Exact integer dot of q with key t: the estimation walk with every chunk
  // fetched (after the last chunk, its `partial` is exactly this sum).
  std::int64_t key_dot(const std::int16_t* q, std::size_t t) const {
    std::int64_t acc = 0;
    for (int b = 0; b < key_params.num_chunks(); ++b) {
      acc += fx::plane_dot_i64(q, key_plane_row(b, t), head_dim) *
             (std::int64_t{1} << key_plane_shift(b));
    }
    return acc;
  }
  // Reassembles key row t's int16 values into out[0, head_dim).
  void key_row(std::size_t t, std::int16_t* out) const {
    for (std::size_t d = 0; d < head_dim; ++d) {
      std::int32_t k = 0;
      for (int b = 0; b < key_params.num_chunks(); ++b) {
        k += std::int32_t{key_plane_row(b, t)[d]} * (1 << key_plane_shift(b));
      }
      out[d] = static_cast<std::int16_t>(k);
    }
  }
};

// out[d] += float(p * double(v[d]) * v_scale) for d in [0, n): the
// survivor-weighted V accumulation of the softmax output. Dispatches at
// runtime through the fixedpoint registry (fixedpoint/dispatch.h), with
// tiny rows taking the inlined scalar loop; every SIMD variant performs
// exactly the scalar op sequence in each lane (double mul, double mul,
// round-to-float, float add), so it is bit-identical to the scalar loop —
// proven against weighted_value_accum_scalar in tests/dispatch_test.cpp per
// variant.
inline void weighted_value_accum(float* out, const std::int16_t* v, double p,
                                 double v_scale, std::size_t n) {
  if (n < 8) {
    fx::weighted_value_accum_scalar(out, v, p, v_scale, n);
    return;
  }
  fx::active_kernels().weighted_value_accum(out, v, p, v_scale, n);
}
inline void weighted_value_accum_scalar(float* out, const std::int16_t* v,
                                        double p, double v_scale,
                                        std::size_t n) {
  fx::weighted_value_accum_scalar(out, v, p, v_scale, n);
}

// Row quantization lives in fx::quantize_row_i16 (fixedpoint/quant.h) — the
// single implementation of the element math shared by fx::quantize_into and
// the cache's append/requantize paths (the prompt-prefill hot kernel).

// Owning chunk-planar storage for already-quantized rows. QuantizedKvCache
// embeds one; TokenPickerAttention builds transient ones from AoS inputs.
struct QuantizedKvStore {
  fx::QuantParams key_params;
  fx::QuantParams value_params;
  std::size_t head_dim = 0;
  std::size_t len = 0;
  std::vector<std::int16_t> values;                  // (len, head_dim)
  std::vector<std::vector<std::int8_t>> key_planes;  // [num_chunks] digits

  // Chunk-plane digit table for one bit layout: digits[b][q - qmin] ==
  // (partial_value(q, b+1) - partial_value(q, b)) >> shifts[b], with
  // shifts[b] == unknown_bits(b+1). A pure function of total_bits /
  // chunk_bits (scale never enters), so it survives rescales and turns
  // push_row's plane fill into table lookups instead of per-element mask
  // arithmetic (the requantize_all hot loop).
  struct DigitTable {
    std::vector<std::vector<std::int8_t>> digits;  // [num_chunks][2^total]
    std::vector<int> shifts;                       // [num_chunks]
  };
  // Points into a process-wide cache keyed by the bit layout: every store
  // across every (slot, layer, head) instance shares one table instead of
  // rebuilding num_chunks * 2^total_bits entries per admission.
  const DigitTable* digit_table = nullptr;

  // Sets precision/scale and head_dim; drops all rows, keeps capacity.
  // Throws (require) when a chunk's digits do not fit int8: the signed top
  // chunk may be up to 8 bits wide, every other chunk up to 7, so any
  // chunk_bits <= 7 is accepted.
  void reset(const fx::QuantParams& key_params,
             const fx::QuantParams& value_params, std::size_t head_dim);
  void clear_rows();
  // Appends one already-quantized token: the key row goes into the digit
  // planes, the value row into the arena.
  // Precondition: every element lies in [params.qmin(), params.qmax()] —
  // quantize() output always does (the plane LUT is indexed by value).
  void push_row(const std::int16_t* k_row, const std::int16_t* v_row);
  // Stable in-place removal of rows where keep[r] == 0.
  void compact(const std::uint8_t* keep);

  QuantizedKvView view() const;
};

// Float-row provider for whole-head rescales, keyed by the caller's stable
// token ids. The cache itself retains NO floats (per-row maxima + ids are
// its only float-domain residue); when a rescale fires it re-reads the
// original rows from whoever still owns them:
//   * a serve PagedSequence (serve/paged_sequence.h) — rows live in the
//     request's DecodeStream under the same ids, readable while their pool
//     page is held, and eviction rescales run before the sweep;
//   * a float view whose row t has stable id t (ViewRescaleSource) —
//     sync_cache_to_view registers one for the duration of the sync.
// A cache that holds rows must have a source: append, append_rows and
// evict_ids throw std::logic_error without one, before changing anything.
// Returned pointers must stay valid for the duration of the rescale call
// and must only be queried for ids currently resident in the cache.
class RescaleSource {
 public:
  virtual ~RescaleSource() = default;
  virtual const float* key_row(std::size_t id) const = 0;
  virtual const float* value_row(std::size_t id) const = 0;
};

// The source for rows that are a float view's rows by position: stable id t
// is view row t. Copies the view (not its rows), which must outlive every
// rescale the source serves.
class ViewRescaleSource final : public RescaleSource {
 public:
  explicit ViewRescaleSource(const KvHeadView& view) : view_(view) {}
  const float* key_row(std::size_t id) const override {
    return view_.key(id).data();
  }
  const float* value_row(std::size_t id) const override {
    return view_.value(id).data();
  }

 private:
  KvHeadView view_;
};

class QuantizedKvCache {
 public:
  struct Config {
    fx::QuantParams base{};  // precision; scales are managed by the cache
    // Scale slack, finite and >= 1. 1.0 (default) reproduces choose_scale()
    // exactly — bit-identical to quantize-from-scratch. > 1.0 holds the scale
    // inside a [max/qmax, headroom*max/qmax] hysteresis band: max|x| drift
    // within the band costs no rescale, at the cost of a coarser grid than
    // from-scratch (every row is still its floats quantized under the
    // current scale); only a band breach (growth past the top, or an evict
    // dropping the max by more than the headroom factor) re-quantizes.
    float headroom = 1.0f;
  };

  QuantizedKvCache();
  explicit QuantizedKvCache(const Config& config);
  explicit QuantizedKvCache(std::size_t head_dim);
  QuantizedKvCache(std::size_t head_dim, const Config& config);

  std::size_t len() const { return store_.len; }
  bool empty() const { return store_.len == 0; }
  std::size_t head_dim() const { return head_dim_; }

  void clear();

  // Appends one token; `id` is the caller's stable token id (the default
  // overload numbers tokens by append order). Every append path and rebuild
  // throws std::logic_error on an inf K/V value and leaves the cache as it
  // was; a NaN value quantizes to 0. append, append_rows and evict_ids also
  // throw, whatever the rows, when the cache holds rows and has no
  // RescaleSource; rebuild and an append into an empty cache need none.
  void append(std::span<const float> k, std::span<const float> v);
  void append(std::span<const float> k, std::span<const float> v,
              std::size_t id);
  // Bulk append of `count` contiguous (count, head_dim) row-major rows with
  // ids first_id, first_id+1, ...; rescales at most once for the batch.
  void append_rows(const float* k_rows, const float* v_rows, std::size_t count,
                   std::size_t first_id);
  // One-shot rebuild from a float view (ids 0..len-1) with a single scale
  // computation; bit-identical to quantize_kv() at headroom 1.
  void rebuild(const KvHeadView& view);

  // Evicts tokens by stable id (order-preserving compaction); unknown ids are
  // ignored. Returns the number of tokens removed. If the evicted set held
  // the live max|x|, the head re-quantizes to the shrunk scale (headroom 1)
  // so the result stays bit-identical to quantizing the survivors fresh.
  std::size_t evict_ids(std::span<const std::size_t> ids);

  const std::vector<std::size_t>& ids() const { return ids_; }
  std::size_t id_at(std::size_t pos) const { return ids_[pos]; }
  // Per-row max|x| as recorded at append (the scale bookkeeping, and the
  // sync guard's restart witness now that no floats are retained).
  float key_row_amax(std::size_t pos) const { return key_row_amax_[pos]; }
  float value_row_amax(std::size_t pos) const { return value_row_amax_[pos]; }

  // Registers (or clears, with nullptr) the float-row provider used by
  // whole-head rescales; not owned. See RescaleSource for the contract.
  void set_rescale_source(const RescaleSource* source) { source_ = source; }
  const RescaleSource* rescale_source() const { return source_; }

  // Resident host bytes, split by arena — what one head of this cache
  // actually keeps alive per token (BENCH_hotpath.json's kv_residency
  // section and the serve fleet gauges aggregate these). There is no float
  // shadow: rescales re-read the rows through the RescaleSource.
  struct ResidencyBytes {
    std::size_t int16_arena = 0;  // flat value rows (keys live in planes)
    std::size_t planes = 0;       // int8 chunk-planar key digit planes
    std::size_t maxima = 0;       // per-row amax pairs + running maxima
    std::size_t ids = 0;          // stable token ids
    std::size_t total() const { return int16_arena + planes + maxima + ids; }
  };
  ResidencyBytes residency() const;

  QuantizedKvView view() const { return store_.view(); }
  const fx::QuantParams& key_params() const { return store_.key_params; }
  const fx::QuantParams& value_params() const { return store_.value_params; }
  const Config& config() const { return config_; }

  // Diagnostics: whole-head re-quantizations since construction/clear().
  std::uint64_t key_rescales() const { return key_rescales_; }
  std::uint64_t value_rescales() const { return value_rescales_; }

 private:
  // Throws unless the cache is empty or has a RescaleSource.
  void require_source() const;
  // Adjusts the shared scales for new live maxima; when a scale changes it
  // re-quantizes every stored row from the registered source's floats.
  void ensure_scales(float key_amax, float value_amax);
  void requantize_all();
  void push_quantized(const float* k_row, const float* v_row);
  // append_rows without its inf check, for callers that already made it.
  void push_rows(const float* k_rows, const float* v_rows, std::size_t count,
                 std::size_t first_id);

  Config config_;
  std::size_t head_dim_ = 0;
  QuantizedKvStore store_;
  const RescaleSource* source_ = nullptr;  // not owned; see RescaleSource
  std::vector<float> key_row_amax_, value_row_amax_;
  float key_amax_ = 0.0f, value_amax_ = 0.0f;
  std::vector<std::size_t> ids_;
  std::uint64_t key_rescales_ = 0, value_rescales_ = 0;
  std::vector<std::int16_t> k_row_scratch_, v_row_scratch_;
  std::vector<std::uint8_t> keep_scratch_;
  std::vector<std::size_t> evict_scratch_;
};

// Append-only sync for transformer decode: grows `cache` by the view's new
// suffix rows; rebuilds from scratch when the view shrank or the last shared
// row diverged (a sequence restarted without begin_sequence()). The guard
// witnesses the divergence without retained floats: stable ids must read
// 0..n-1 (view positions), the last shared row's recorded amax must equal a
// fresh fx::row_amax over the view's floats, and that row re-quantized under
// the cache's current params must reproduce the stored int16 bits. For the
// duration of the call the view itself is registered as the cache's
// RescaleSource (ViewRescaleSource), so a suffix-append rescale stays
// bit-identical to from-scratch; the cache's previous source is restored
// before returning.
void sync_cache_to_view(QuantizedKvCache& cache, const KvHeadView& view);

// Exact quantized attention over a planar view — bit-identical to
// exact_attention_quantized() when the view holds the same quantized data
// (which an incremental cache at headroom 1 guarantees). The out-param form
// reuses the result's and the query scratch's buffers across calls (the
// serve engine's exact-backend decode loop).
void exact_attention_view(std::span<const float> q, const QuantizedKvView& kv,
                          fx::QuantizedVector* q_scratch,
                          ExactAttentionResult* result);
ExactAttentionResult exact_attention_view(std::span<const float> q,
                                          const QuantizedKvView& kv);

}  // namespace topick
