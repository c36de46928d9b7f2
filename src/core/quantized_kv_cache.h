// Chunk-planar quantized KV storage (QuantizedKv, one head; quantize_kv()
// builds one from floats) and its incremental form — the decode hot path.
//
// Calling quantize_kv() every decode step would re-quantize an entire head,
// because the shared symmetric scale depends on the head's max|x| over the
// live tokens.
// But that is the *only* thing it depends on: while the live set's max|x| is
// unchanged, every already-quantized token is bit-identical to what a fresh
// quantize_kv() would produce from the same floats. QuantizedKvCache
// therefore quantizes each token once at append, tracks the live set's
// max|x| (keys and values separately, via per-row maxima), and re-quantizes
// an arena of the whole head only on the rare step where its max changes — a
// new record on append, or the record holder leaving on evict. The cache
// keeps no floats: a rescale re-reads every stored row of the rescaled arena
// from the RescaleSource the mutating call was handed (the other arena's
// rows already are their floats under its unchanged scale), so at any
// headroom each stored row is its floats quantized under the head's current
// scales. With headroom == 1 (default) that scale is
// choose_scale()'s, so the integers, scales, and every downstream pruning
// decision are bit-identical to the from-scratch path
// (tests/quantized_kv_cache_test.cpp proves it over randomized append/evict
// interleavings); headroom > 1 trades the from-scratch scale for even fewer
// rescales.
//
// Keys and values are stored once each, in offset binary: u = x + 2^(T-1)
// (T = total_bits) is an unsigned T-bit integer, cut into ceil(T/4) planes
// of packed 4-bit nibbles, most significant first — two elements per byte,
// each token's row byte-aligned (fx::PlaneLayout, fixedpoint/chunks.h;
// fx::pack_planes_i16 writes a row, fx::unpack_planes_i16 reads one back).
// At 12 bits an element costs 1.5 B, the width the paper's accelerator
// fetches: a head_dim-64 token-head holds 96 B of key planes and 96 B of
// value planes. Offset binary is two's complement with the sign bit
// flipped, and every chunk level c >= 1 knows the sign bit, so
//   partial_value(k, c) == (u & ~(2^unknown_bits(c) - 1)) - 2^(T-1).
// The estimation walk therefore starts each key's partial at the constant
// -2^(T-1) * sum(q) and adds, per chunk, the masked nibble dots
// sum_d q_d * (nibble_d & mask) * 2^shift of the planes the chunk overlaps
// (one plane at 4-bit chunks) — an exact integer identity, so every partial
// sum, pruning decision and output bit is that of the two's-complement
// fx::partial_dot_i64. Any chunk width from 1 to T reads the same planes. The
// exact score is the walk with every chunk fetched (QuantizedKvView::
// key_dot). Values are read whole: step 1 unpacks each survivor's row into
// int16 scratch (value_row) for weighted_value_accum, and the cold readers
// that need an int16 key do the same (key_row). Nothing on the per-token
// heap.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/exact_attention.h"
#include "fixedpoint/chunks.h"
#include "fixedpoint/dispatch.h"
#include "fixedpoint/quant.h"
#include "model/kv_cache.h"

namespace topick {

// Non-owning view over chunk-planar quantized K/V. The unit the attention
// hot paths consume; produced by QuantizedKv::view(), whether the head came
// from quantize_kv() or lives in a QuantizedKvCache.
struct QuantizedKvView {
  std::size_t len = 0;
  std::size_t head_dim = 0;
  fx::QuantParams key_params;    // shared scale across the head's keys
  fx::QuantParams value_params;  // shared scale across the head's values
  // key_layout->planes() offset-binary nibble planes, each len rows of
  // row_bytes() packed bytes, token-major. The only stored form of a key.
  const std::vector<std::uint8_t>* key_planes = nullptr;
  const fx::PlaneLayout* key_layout = nullptr;
  // PlaneLayout::planes_for(value_params.total_bits) planes of the same
  // shape: the only stored form of a value.
  const std::vector<std::uint8_t>* value_planes = nullptr;

  std::size_t row_bytes() const {
    return fx::PlaneLayout::row_bytes(head_dim);
  }
  const std::uint8_t* key_plane_row(int plane, std::size_t t) const {
    return key_planes[plane].data() + t * row_bytes();
  }

  // -2^(T-1) * sum(q): the offset-binary correction every key's score
  // carries — computed once per query, it starts each key's partial sum.
  std::int64_t key_offset_dot(const std::int16_t* q) const {
    std::int64_t sum = 0;
    for (std::size_t d = 0; d < head_dim; ++d) sum += q[d];
    return -std::int64_t{key_layout->offset()} * sum;
  }
  // Chunk b's delta to the walk's partial sum: q against chunk b's bits of
  // the offset-binary key, one masked nibble dot per plane it overlaps.
  std::int64_t key_chunk_dot(const std::int16_t* q, std::size_t t,
                             int chunk) const {
    std::int64_t acc = 0;
    for (const auto& seg : key_layout->chunk(chunk)) {
      acc += fx::nibble_dot_i64(q, key_plane_row(seg.plane, t), seg.mask,
                                head_dim) *
             (std::int64_t{1} << seg.shift);
    }
    return acc;
  }
  // Exact integer dot of q with key t: the estimation walk with every chunk
  // fetched, i.e. every plane at full mask plus the offset correction
  // (key_offset_dot(q), passed in so loops over keys sum q once).
  std::int64_t key_dot(const std::int16_t* q, std::size_t t,
                       std::int64_t offset_dot) const {
    const int planes = key_layout->planes();
    std::int64_t acc = offset_dot;
    for (int j = 0; j < planes; ++j) {
      acc += fx::nibble_dot_i64(q, key_plane_row(j, t), 0xF, head_dim) *
             (std::int64_t{1} << (fx::PlaneLayout::kPlaneBits *
                                  (planes - 1 - j)));
    }
    return acc;
  }
  // Reassemble key / value row t's int16 elements into out[0, head_dim).
  void key_row(std::size_t t, std::int16_t* out) const {
    unpack(key_planes, key_params.total_bits, t, head_dim, out);
  }
  void value_row(std::size_t t, std::int16_t* out) const {
    unpack(value_planes, value_params.total_bits, t, head_dim, out);
  }
  // Value rows [t, t + count) into out[0, count * head_dim). At an even
  // head_dim the rows are contiguous in every plane, so they unpack in one
  // kernel call, which amortizes its set-up over the run.
  void value_rows(std::size_t t, std::size_t count, std::int16_t* out) const {
    if (head_dim % 2 == 0) {
      unpack(value_planes, value_params.total_bits, t, count * head_dim, out);
      return;
    }
    for (std::size_t r = 0; r < count; ++r) {
      value_row(t + r, out + r * head_dim);
    }
  }

 private:
  // n elements from the start of row t of the given planes.
  void unpack(const std::vector<std::uint8_t>* planes, int total_bits,
              std::size_t t, std::size_t n, std::int16_t* out) const {
    const std::uint8_t* rows[4];  // total_bits <= 15: at most 4 planes
    for (int j = 0; j < fx::PlaneLayout::planes_for(total_bits); ++j) {
      rows[j] = planes[j].data() + t * row_bytes();
    }
    fx::unpack_planes_i16(rows, n, total_bits, out);
  }
};

// Value rows step 1 unpacks per kernel call, at most: runs of consecutive
// tokens unpack together (QuantizedKvView::value_rows).
inline constexpr std::size_t kValueBlockRows = 16;

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
// single implementation of the element math shared by quantize_kv() and the
// cache's append/requantize paths (the prompt-prefill hot kernel).

// One head's quantized K and V: the library's one owning form of a
// quantized head. Keys and values are each one arena of the offset-binary
// nibble planes described above, their only stored form. quantize_kv()
// builds one per accelerator instance, and QuantizedKvCache embeds one and
// mutates it row by row. The members are public, so a head need not come
// from either: push_row refuses an element the planes cannot hold, and
// view() refuses arenas that do not hold exactly len rows of head_dim.
struct QuantizedKv {
  struct Arena {
    fx::QuantParams params;  // shared scale across the arena's rows
    // PlaneLayout::planes_for(params.total_bits) nibble planes, each len
    // rows of PlaneLayout::row_bytes(head_dim) packed bytes, token-major.
    std::vector<std::vector<std::uint8_t>> planes;
  };
  struct Keys : Arena {
    fx::PlaneLayout layout;  // the estimation walk's chunk slices of params

    // A key row's handle: its params, which every row of the head shares.
    // Its bits are read through view().
    struct Row {
      fx::QuantParams params;
    };
    Row operator[](std::size_t) const { return {params}; }
  };
  Keys keys;
  Arena values;
  std::size_t head_dim = 0;
  std::size_t len = 0;

  // Sets precision/scale and head_dim; drops all rows, keeps capacity.
  // Throws (require), changing nothing, unless key_params.total_bits is in
  // [2, 15] and chunk_bits in [1, total_bits], and value_params.total_bits
  // is in [2, 15] (a value's chunk_bits is never read).
  void reset(const fx::QuantParams& key_params,
             const fx::QuantParams& value_params, std::size_t head_dim);
  void clear_rows();
  // Appends one already-quantized token into both arenas' planes. Throws
  // (require), changing nothing, unless every key element lies in
  // [keys.params.qmin(), keys.params.qmax()] and every value element in
  // [values.params.qmin(), values.params.qmax()] — the ranges the
  // offset-binary planes hold, and the ranges quantize() output always lies
  // in.
  void push_row(const std::int16_t* k_row, const std::int16_t* v_row);
  // Pack key / value row t in place, into plane bytes already sized to hold
  // it. Return false, row t then holding garbage, when some element lies
  // outside the arena's [qmin, qmax].
  bool write_key_row(std::size_t t, const std::int16_t* k_row);
  bool write_value_row(std::size_t t, const std::int16_t* v_row);
  // Stable in-place removal of rows where keep[r] == 0.
  void compact(const std::uint8_t* keep);

  // Throws (require) unless each arena's total_bits is in [2, 15], it has
  // planes_for(total_bits) planes (keys: also layout.planes()) and every
  // plane holds exactly len rows of head_dim.
  QuantizedKvView view() const;
};

// Quantizes a float head at `base`'s precision: one symmetric scale per
// arena, chosen over all of its len x head_dim floats (fx::choose_scale, so
// an inf element throws), then each key and value row quantized into a
// head_dim scratch and packed straight into planes sized to exactly len
// rows; no plane holds capacity slack. Bit-identical to
// QuantizedKvCache::rebuild at headroom 1.
QuantizedKv quantize_kv(const KvHeadView& kv, const fx::QuantParams& base);

// Float-row provider for whole-head rescales, keyed by the caller's stable
// token ids. The cache itself retains NO floats (per-row maxima + ids are
// its only float-domain residue), so every call that can rescale — append,
// append_rows and evict_ids — takes one; the cache keeps no reference to it
// past the call. When a rescale fires it asks for the original rows of the
// arena whose scale changed, in blocks, into its own scratch:
//   * a serve PagedRescaleSource (serve/paged_sequence.h) regenerates them
//     from the request's DecodeStream checkpoints, for ids whose pool page
//     is still held; eviction rescales run before the sweep;
//   * a float view whose row t has stable id t (ViewRescaleSource) copies
//     them — sync_cache_to_view hands one over the view it syncs to.
// The cache only asks for ids currently resident in it.
class RescaleSource {
 public:
  virtual ~RescaleSource() = default;
  // Writes the floats of token ids[i] into row i of `keys` and of `values`
  // ((ids.size(), head_dim) row-major each). A null pointer means that
  // arena is not wanted: a rescale of one arena asks for its floats only.
  virtual void fill_rows(std::span<const std::size_t> ids, float* keys,
                         float* values) const = 0;
};

// The source for rows that are a float view's rows by position: stable id t
// is view row t. Copies the view (not its rows), which must outlive every
// rescale the source serves.
class ViewRescaleSource final : public RescaleSource {
 public:
  explicit ViewRescaleSource(const KvHeadView& view) : view_(view) {}
  void fill_rows(std::span<const std::size_t> ids, float* keys,
                 float* values) const override;

 private:
  KvHeadView view_;
};

// QuantizedKvCache::Config. At namespace scope so that its default member
// initializers are usable in the cache constructor's default argument.
struct QuantizedKvCacheConfig {
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

class QuantizedKvCache {
 public:
  using Config = QuantizedKvCacheConfig;

  explicit QuantizedKvCache(std::size_t head_dim = 0,
                            const Config& config = {});

  std::size_t len() const { return store_.len; }
  bool empty() const { return store_.len == 0; }
  std::size_t head_dim() const { return head_dim_; }

  void clear();

  // Appends one token under `id`, the caller's stable token id; `rows`
  // supplies the floats of the rows already stored should the append
  // rescale. Every append path and rebuild throws std::logic_error on an inf
  // K/V value and leaves the cache as it was; a NaN value quantizes to 0.
  void append(std::span<const float> k, std::span<const float> v,
              std::size_t id, const RescaleSource& rows);
  // Bulk append of `count` contiguous (count, head_dim) row-major rows with
  // ids first_id, first_id+1, ...; rescales at most once for the batch.
  void append_rows(const float* k_rows, const float* v_rows, std::size_t count,
                   std::size_t first_id, const RescaleSource& rows);
  // One-shot rebuild from a float view (ids 0..len-1) with a single scale
  // computation; bit-identical to quantize_kv() at headroom 1.
  void rebuild(const KvHeadView& view);

  // Evicts tokens by stable id (order-preserving compaction); unknown ids are
  // ignored. Returns the number of tokens removed. If the evicted set held
  // the live max|x|, the head re-quantizes the survivors, read from `rows`,
  // to the shrunk scale (headroom 1) so the result stays bit-identical to
  // quantizing the survivors fresh.
  std::size_t evict_ids(std::span<const std::size_t> ids,
                        const RescaleSource& rows);

  const std::vector<std::size_t>& ids() const { return ids_; }
  std::size_t id_at(std::size_t pos) const { return ids_[pos]; }
  // Per-row max|x| as recorded at append (the scale bookkeeping, and the
  // sync guard's restart witness now that no floats are retained).
  float key_row_amax(std::size_t pos) const { return key_row_amax_[pos]; }
  float value_row_amax(std::size_t pos) const { return value_row_amax_[pos]; }

  // Resident host bytes, split by arena — what one head of this cache
  // actually keeps alive per token (BENCH_hotpath.json's kv_residency
  // section and FleetMetrics' kv_* fields aggregate these). There is no float
  // shadow: rescales re-read the rows through a RescaleSource.
  struct ResidencyBytes {
    std::size_t value_planes = 0;  // offset-binary value nibble planes
    std::size_t key_planes = 0;    // offset-binary key nibble planes
    std::size_t maxima = 0;        // per-row amax pairs + running maxima
    std::size_t ids = 0;           // stable token ids
    std::size_t total() const {
      return value_planes + key_planes + maxima + ids;
    }
  };
  ResidencyBytes residency() const;

  QuantizedKvView view() const { return store_.view(); }
  const fx::QuantParams& key_params() const { return store_.keys.params; }
  const fx::QuantParams& value_params() const { return store_.values.params; }
  const Config& config() const { return config_; }

  // Diagnostics since construction/clear(): whole-head re-quantizations
  // per arena, and the stored rows each one re-read from the source (a
  // rescale re-quantizes only the arena whose scale changed).
  std::uint64_t key_rescales() const { return key_rescales_; }
  std::uint64_t value_rescales() const { return value_rescales_; }
  std::uint64_t key_rows_requantized() const { return key_rows_requantized_; }
  std::uint64_t value_rows_requantized() const {
    return value_rows_requantized_;
  }

 private:
  // Adjusts the shared scales for new live maxima; when a scale changes it
  // re-quantizes that arena's stored rows from `rows`' floats.
  void ensure_scales(float key_amax, float value_amax,
                     const RescaleSource& rows);
  void requantize(bool keys, bool values, const RescaleSource& rows);
  void push_quantized(const float* k_row, const float* v_row);
  // append_rows without its inf check, for callers that already made it.
  void push_rows(const float* k_rows, const float* v_rows, std::size_t count,
                 std::size_t first_id, const RescaleSource& rows);

  Config config_;
  std::size_t head_dim_ = 0;
  QuantizedKv store_;
  std::vector<float> key_row_amax_, value_row_amax_;
  float key_amax_ = 0.0f, value_amax_ = 0.0f;
  std::vector<std::size_t> ids_;
  std::uint64_t key_rescales_ = 0, value_rescales_ = 0;
  std::uint64_t key_rows_requantized_ = 0, value_rows_requantized_ = 0;
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
// the cache's current params must reproduce the stored int16 bits. A
// suffix append rescales from the view itself (ViewRescaleSource), so it
// stays bit-identical to from-scratch.
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
