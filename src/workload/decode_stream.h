// Per-request synthetic decode streams for the serving simulator.
//
// Where generator.h back-solves keys for ONE query over a full context, a
// serving request issues a fresh query every decode step over a growing
// context. The structure that matters for paged reclamation is *persistence*:
// a request has a latent topic direction; spike tokens (and the attention
// sink) align with it and dominate every step's softmax, while bulk tokens
// stay orders of magnitude below the pruning threshold for query after query.
// Token-Picker therefore prunes the same bulk tokens step after step, pages
// filled with them go persistently dead, and the pool can reclaim — the
// serving-side payoff of the paper's estimator.
//
// A stream does not store its K/V rows. Each head draws its rows from its
// own forked xoshiro stream, token after token, and the stream keeps that
// generator's full state at every kCheckpointTokens-token boundary (32 B per
// 8 tokens, against 4 KiB of floats at head_dim 64). fill_rows regenerates
// any rows from the nearest checkpoint at or before them, bit for bit: the
// draws between a checkpoint and a wanted row are replayed without their
// log/cos transforms. Only the queries, read once per decode step, are
// stored as floats. materialize() is the whole-head float form, for tests
// and offline benches.
//
// Streams are a pure function of (params, lengths, shape, seed). They are
// also independent of the pool make_decode_stream fills heads on: every
// head's substream is forked serially before the fan-out, so any pool width
// (or none) gives the same bits. The serve engine relies on both: it builds a
// request's stream at first admission and frees it at retirement, and a
// shadow exact reference rebuilt after the run from the request's event and
// the engine's config reads the same rows the engine attended over.
// Preemption-recompute regenerates the rows the request kept.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "model/kv_cache.h"

namespace topick {
class ThreadPool;
}  // namespace topick

namespace topick::wl {

// Tokens between two saved generator states of a head: checkpoint p is the
// state that draws token p * kCheckpointTokens's row.
inline constexpr std::size_t kCheckpointTokens = 8;

struct DecodeStreamParams {
  int head_dim = 32;
  // Fraction of tokens whose key carries the topic component.
  double spike_fraction = 0.12;
  double spike_scale = 12.0;        // topic-aligned key magnitude
  double bulk_scale = 0.3;          // isotropic noise on every key
  double query_topic_scale = 3.5;   // topic-aligned query magnitude
  double query_noise = 0.5;
  double value_std = 1.0;
  int sink_tokens = 1;              // leading tokens forced spiky (>= 0)
};

// One head's row generator state plus the per-step queries.
struct HeadStream {
  std::vector<float> topic;        // (head_dim) unit-norm topic direction
  std::vector<Rng> checkpoints;    // ceil(n_tokens / kCheckpointTokens)
  std::vector<float> queries;      // (decode_len, head_dim)
};

// One head's rows as floats (materialize()).
struct HeadRows {
  std::vector<float> keys;    // (len, head_dim) row-major
  std::vector<float> values;  // (len, head_dim)
  std::size_t len = 0;
  std::size_t head_dim = 0;

  KvHeadView view() const {
    return KvHeadView{keys.data(), values.data(), len, head_dim};
  }
};

struct DecodeStream {
  DecodeStreamParams params;  // params.head_dim == head_dim
  std::size_t prompt_len = 0;
  std::size_t decode_len = 0;
  int n_layer = 1;
  int n_head = 1;
  int head_dim = 0;
  std::vector<HeadStream> heads;  // layer-major: heads[layer * n_head + head]
  std::vector<bool> spike;        // per token: carries the topic component

  std::size_t total_tokens() const { return prompt_len + decode_len; }

  // Throws std::out_of_range (a std::logic_error) unless (layer, h) names a
  // head this stream generated.
  const HeadStream& head(int layer, int h) const {
    const std::size_t index = static_cast<std::size_t>(layer) * n_head + h;
    if (layer < 0 || layer >= n_layer || h < 0 || h >= n_head ||
        index >= heads.size()) {
      throw std::out_of_range("DecodeStream::head: no such (layer, head)");
    }
    return heads[index];
  }

  // Regenerates the rows of tokens ids[0, n) of head (layer, h): row i of
  // `keys` and of `values` ((n, head_dim) row-major each) receives token
  // ids[i]. A null pointer skips that arena's transforms. Ids may come in
  // any order; ascending ids replay the fewest draws. Throws
  // std::out_of_range for an id at or past total_tokens() or a bad
  // (layer, h), before writing anything.
  void fill_rows(int layer, int h, std::span<const std::size_t> ids,
                 float* keys, float* values) const;
  // The same for the contiguous tokens [first, first + count).
  void fill_rows(int layer, int h, std::size_t first, std::size_t count,
                 float* keys, float* values) const;

  // Throws std::out_of_range for a step at or past decode_len or a bad
  // (layer, h).
  std::span<const float> query(int layer, int h, std::size_t step) const {
    if (step >= decode_len) {
      throw std::out_of_range("DecodeStream::query: step past decode_len");
    }
    return {head(layer, h).queries.data() + step * head_dim,
            static_cast<std::size_t>(head_dim)};
  }
};

// Fills the n_layer x n_head heads with one parallel_for on `pool` (inline
// when pool is null or one wide). Throws std::logic_error for a zero length,
// a non-positive shape or a negative params.sink_tokens.
DecodeStream make_decode_stream(const DecodeStreamParams& params,
                                std::size_t prompt_len, std::size_t decode_len,
                                int n_layer, int n_head, std::uint64_t seed,
                                ThreadPool* pool = nullptr);

// Every row of head (layer, h), tokens [0, total_tokens()), through
// fill_rows. Throws as head() does.
HeadRows materialize(const DecodeStream& stream, int layer, int h);

}  // namespace topick::wl
