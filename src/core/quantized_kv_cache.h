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
// from the registered RescaleSource (the other arena's rows already are
// their floats under its unchanged scale), so at any headroom each stored
// row is its floats quantized under the head's current scales. With headroom == 1 (default) that scale is
// choose_scale()'s, so the integers, scales, and every downstream pruning
// decision are bit-identical to the from-scratch path
// (tests/quantized_kv_cache_test.cpp proves it over randomized append/evict
// interleavings); headroom > 1 trades the from-scratch scale for even fewer
// rescales.
//
// Keys are stored once, in offset binary: u = k + 2^(T-1) (T = total_bits)
// is an unsigned T-bit integer, cut into ceil(T/4) planes of packed 4-bit
// nibbles, most significant first — two elements per byte, each token's row
// byte-aligned (fx::KeyPlaneLayout, fixedpoint/chunks.h). At 12/4 a key
// costs 1.5 B per element, the chunk_bits x head_dim bits the paper's
// accelerator fetches. Offset binary is two's complement with the sign bit
// flipped, and every chunk level c >= 1 knows the sign bit, so
//   partial_value(k, c) == (u & ~(2^unknown_bits(c) - 1)) - 2^(T-1).
// The estimation walk therefore starts each key's partial at the constant
// -2^(T-1) * sum(q) and adds, per chunk, the masked nibble dots
// sum_d q_d * (nibble_d & mask) * 2^shift of the planes the chunk overlaps
// (one plane at 4-bit chunks) — an exact integer identity, so every partial
// sum, pruning decision and output bit is that of the two's-complement
// fx::partial_dot_i64. Any chunk width from 1 to T reads the same planes. The
// exact score is the walk with every chunk fetched (QuantizedKvView::
// key_dot), and the cold readers that need the int16 key reassemble it from
// the planes (key_row).
// Values live in a flat int16 arena; nothing on the per-token heap.
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
  const std::int16_t* values = nullptr;  // (len, head_dim) token-major
  // key_layout->planes() offset-binary nibble planes, each len rows of
  // key_row_bytes() packed bytes, token-major. The only stored form of a
  // key.
  const std::vector<std::uint8_t>* key_planes = nullptr;
  const fx::KeyPlaneLayout* key_layout = nullptr;

  const std::int16_t* value(std::size_t t) const {
    return values + t * head_dim;
  }
  std::size_t key_row_bytes() const {
    return fx::KeyPlaneLayout::row_bytes(head_dim);
  }
  const std::uint8_t* key_plane_row(int plane, std::size_t t) const {
    return key_planes[plane].data() + t * key_row_bytes();
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
             (std::int64_t{1} << (fx::KeyPlaneLayout::kPlaneBits *
                                  (planes - 1 - j)));
    }
    return acc;
  }
  // Reassembles key row t's int16 values into out[0, head_dim).
  void key_row(std::size_t t, std::int16_t* out) const {
    const int planes = key_layout->planes();
    for (std::size_t d = 0; d < head_dim; ++d) {
      std::int32_t u = 0;
      for (int j = 0; j < planes; ++j) {
        u = (u << fx::KeyPlaneLayout::kPlaneBits) |
            ((key_plane_row(j, t)[d / 2] >> (4 * (d % 2))) & 0xF);
      }
      out[d] = static_cast<std::int16_t>(u - key_layout->offset());
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
// single implementation of the element math shared by quantize_kv() and the
// cache's append/requantize paths (the prompt-prefill hot kernel).

// One head's quantized K and V: the library's one owning form of a
// quantized head. Keys are the offset-binary nibble planes described above,
// the only stored form of a key; values are one flat (len, head_dim) int16
// arena. quantize_kv() builds one per accelerator instance, and
// QuantizedKvCache embeds one and mutates it row by row. The members are
// public, so a head need not come from either: push_row refuses a key the
// planes cannot hold, and view() refuses arenas that do not hold exactly
// len rows of head_dim.
struct QuantizedKv {
  struct Keys {
    fx::QuantParams params;     // shared scale across the head's keys
    fx::KeyPlaneLayout layout;  // of params' bit layout
    // layout.planes() nibble planes, each len rows of
    // KeyPlaneLayout::row_bytes(head_dim) packed bytes, token-major.
    std::vector<std::vector<std::uint8_t>> planes;

    // A key row's handle: its params, which every row of the head shares.
    // Its bits are read through view().
    struct Row {
      fx::QuantParams params;
    };
    Row operator[](std::size_t) const { return {params}; }
  };
  struct Values {
    fx::QuantParams params;          // shared scale across the head's values
    std::vector<std::int16_t> data;  // (len, head_dim) token-major
  };

  Keys keys;
  Values values;
  std::size_t head_dim = 0;
  std::size_t len = 0;

  // Sets precision/scale and head_dim; drops all rows, keeps capacity.
  // Throws (require), changing nothing, unless key_params.total_bits is in
  // [2, 15] and chunk_bits in [1, total_bits].
  void reset(const fx::QuantParams& key_params,
             const fx::QuantParams& value_params, std::size_t head_dim);
  void clear_rows();
  // Appends one already-quantized token: the key row goes into the nibble
  // planes, the value row into the arena. Throws (require), changing
  // nothing, unless every key element lies in [keys.params.qmin(),
  // keys.params.qmax()] — the range the offset-binary planes hold, and the
  // range quantize() output always lies in.
  void push_row(const std::int16_t* k_row, const std::int16_t* v_row);
  // Packs key row t in place, into plane bytes already sized to hold it.
  // Returns false, row t then holding garbage, when some element lies outside
  // [keys.params.qmin(), keys.params.qmax()].
  bool write_key_row(std::size_t t, const std::int16_t* k_row);
  // Stable in-place removal of rows where keep[r] == 0.
  void compact(const std::uint8_t* keep);

  // Throws (require) unless there are layout.planes() key planes and every
  // arena holds exactly len rows of head_dim.
  QuantizedKvView view() const;
};

// Quantizes a float head at `base`'s precision: one symmetric scale per
// arena, chosen over all of its len x head_dim floats (fx::choose_scale, so
// an inf element throws), then each key row quantized into a head_dim
// scratch and packed straight into planes sized to exactly len rows; no
// arena holds capacity slack. Bit-identical to QuantizedKvCache::rebuild at
// headroom 1.
QuantizedKv quantize_kv(const KvHeadView& kv, const fx::QuantParams& base);

// Float-row provider for whole-head rescales, keyed by the caller's stable
// token ids. The cache itself retains NO floats (per-row maxima + ids are
// its only float-domain residue); when a rescale fires it asks for the
// original rows of the arena whose scale changed, in blocks, into its own
// scratch:
//   * a serve PagedRescaleSource (serve/paged_sequence.h) regenerates them
//     from the request's DecodeStream checkpoints, for ids whose pool page
//     is still held; eviction rescales run before the sweep;
//   * a float view whose row t has stable id t (ViewRescaleSource) copies
//     them — sync_cache_to_view registers one for the duration of the sync.
// A cache that holds rows must have a source: append, append_rows and
// evict_ids throw std::logic_error without one, before changing anything.
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
  // section and FleetMetrics' kv_* fields aggregate these). There is no float
  // shadow: rescales re-read the rows through the RescaleSource.
  struct ResidencyBytes {
    std::size_t int16_arena = 0;  // flat value rows (keys live in planes)
    std::size_t planes = 0;       // offset-binary key nibble planes
    std::size_t maxima = 0;       // per-row amax pairs + running maxima
    std::size_t ids = 0;          // stable token ids
    std::size_t total() const { return int16_arena + planes + maxima + ids; }
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
  // Throws unless the cache is empty or has a RescaleSource.
  void require_source() const;
  // Adjusts the shared scales for new live maxima; when a scale changes it
  // re-quantizes that arena's stored rows from the registered source's
  // floats.
  void ensure_scales(float key_amax, float value_amax);
  void requantize(bool keys, bool values);
  void push_quantized(const float* k_row, const float* v_row);
  // append_rows without its inf check, for callers that already made it.
  void push_rows(const float* k_rows, const float* v_rows, std::size_t count,
                 std::size_t first_id);

  Config config_;
  std::size_t head_dim_ = 0;
  QuantizedKv store_;
  const RescaleSource* source_ = nullptr;  // not owned; see RescaleSource
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
