#include "workload/decode_stream.h"

#include <cmath>

#include "common/parallel.h"
#include "common/require.h"

namespace topick::wl {
namespace {

// Unit-norm topic direction shared by a head's spikes and queries.
std::vector<float> make_topic(Rng& rng, int head_dim) {
  std::vector<float> topic(static_cast<std::size_t>(head_dim));
  double norm_sq = 0.0;
  for (auto& x : topic) {
    x = static_cast<float>(rng.normal());
    norm_sq += static_cast<double>(x) * x;
  }
  const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq + 1e-12));
  for (auto& x : topic) x *= inv;
  return topic;
}

// The draws of one token's row: per element, a key normal then a value
// normal.
void skip_row(Rng& rng, std::size_t dim) {
  for (std::size_t d = 0; d < 2 * dim; ++d) rng.draw_normal();
}

// Fills one head's topic, checkpoints and queries from its own forked Rng.
// Reads only `head_rng`, the params and the token count, so heads can be
// filled in any order or concurrently. The rows are drawn (skip_row) but not
// transformed: fill_rows regenerates them from the checkpoints.
void fill_head(HeadStream& hs, Rng head_rng, const DecodeStreamParams& params,
               std::size_t n_tokens, std::size_t decode_len) {
  const auto dim = static_cast<std::size_t>(params.head_dim);
  hs.topic = make_topic(head_rng, params.head_dim);

  hs.checkpoints.resize((n_tokens + kCheckpointTokens - 1) /
                        kCheckpointTokens);
  for (std::size_t t = 0; t < n_tokens; ++t) {
    if (t % kCheckpointTokens == 0) {
      hs.checkpoints[t / kCheckpointTokens] = head_rng;
    }
    skip_row(head_rng, dim);
  }

  hs.queries.resize(decode_len * dim);
  for (std::size_t s = 0; s < decode_len; ++s) {
    for (std::size_t d = 0; d < dim; ++d) {
      hs.queries[s * dim + d] = static_cast<float>(
          params.query_topic_scale * hs.topic[d] +
          params.query_noise * head_rng.normal());
    }
  }
}

// The one row generator. Writes token id_at(i)'s row into row i of keys and
// values (either may be null) for i in [0, n). `rng` replays the head's
// draws from the checkpoint at or before each wanted token; consecutive ids
// continue from where the previous row left the generator.
template <class IdAt>
void generate_rows(const DecodeStream& stream, const HeadStream& hs,
                   std::size_t n, IdAt id_at, float* keys, float* values) {
  const std::size_t n_tokens = stream.total_tokens();
  for (std::size_t i = 0; i < n; ++i) {
    if (id_at(i) >= n_tokens) {
      throw std::out_of_range("DecodeStream::fill_rows: token past the end");
    }
  }
  const auto dim = static_cast<std::size_t>(stream.head_dim);
  const DecodeStreamParams& params = stream.params;
  Rng rng;
  std::size_t cursor = n_tokens;  // the token rng draws next; none yet
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t t = id_at(i);
    const std::size_t page = t / kCheckpointTokens;
    if (cursor != t &&
        (cursor > t || cursor / kCheckpointTokens != page)) {
      rng = hs.checkpoints[page];
      cursor = page * kCheckpointTokens;
    }
    for (; cursor < t; ++cursor) skip_row(rng, dim);
    const float boost =
        stream.spike[t] ? static_cast<float>(params.spike_scale) : 0.0f;
    float* k = keys != nullptr ? keys + i * dim : nullptr;
    float* v = values != nullptr ? values + i * dim : nullptr;
    for (std::size_t d = 0; d < dim; ++d) {
      const Rng::NormalDraw k_draw = rng.draw_normal();
      const Rng::NormalDraw v_draw = rng.draw_normal();
      // Exactly Rng::normal() and normal(0.0, value_std) of the draws.
      if (k != nullptr) {
        k[d] = static_cast<float>(boost * hs.topic[d] +
                                  params.bulk_scale * Rng::box_muller(k_draw));
      }
      if (v != nullptr) {
        v[d] = static_cast<float>(0.0 +
                                  params.value_std * Rng::box_muller(v_draw));
      }
    }
    ++cursor;
  }
}

}  // namespace

void DecodeStream::fill_rows(int layer, int h,
                             std::span<const std::size_t> ids, float* keys,
                             float* values) const {
  generate_rows(*this, head(layer, h), ids.size(),
                [ids](std::size_t i) { return ids[i]; }, keys, values);
}

void DecodeStream::fill_rows(int layer, int h, std::size_t first,
                             std::size_t count, float* keys,
                             float* values) const {
  generate_rows(*this, head(layer, h), count,
                [first](std::size_t i) { return first + i; }, keys, values);
}

DecodeStream make_decode_stream(const DecodeStreamParams& params,
                                std::size_t prompt_len, std::size_t decode_len,
                                int n_layer, int n_head, std::uint64_t seed,
                                ThreadPool* pool) {
  require(prompt_len > 0 && decode_len > 0,
          "make_decode_stream: lengths must be positive");
  require(n_layer > 0 && n_head > 0 && params.head_dim > 0,
          "make_decode_stream: bad shape");
  require(params.sink_tokens >= 0,
          "make_decode_stream: sink_tokens must be >= 0");

  DecodeStream stream;
  stream.params = params;
  stream.prompt_len = prompt_len;
  stream.decode_len = decode_len;
  stream.n_layer = n_layer;
  stream.n_head = n_head;
  stream.head_dim = params.head_dim;

  const std::size_t n_tokens = prompt_len + decode_len;

  // Spike pattern is shared across heads (a token is either attended content
  // or filler for the whole request), drawn from its own substream so head
  // generation doesn't perturb it.
  Rng rng(seed);
  Rng spike_rng = rng.fork();
  stream.spike.resize(n_tokens);
  for (std::size_t t = 0; t < n_tokens; ++t) {
    stream.spike[t] = t < static_cast<std::size_t>(params.sink_tokens) ||
                      spike_rng.bernoulli(params.spike_fraction);
  }

  // Every head's substream is forked here, serially and in head order, so a
  // head's rows do not depend on which thread fills it or when.
  const std::size_t n_heads = static_cast<std::size_t>(n_layer) * n_head;
  std::vector<Rng> head_rngs;
  head_rngs.reserve(n_heads);
  for (std::size_t i = 0; i < n_heads; ++i) head_rngs.push_back(rng.fork());

  stream.heads.resize(n_heads);
  const auto fill = [&](std::size_t i, std::size_t /*worker*/) {
    fill_head(stream.heads[i], head_rngs[i], params, n_tokens, decode_len);
  };
  ThreadPool inline_pool;  // width 1: parallel_for runs on this thread
  (pool != nullptr ? *pool : inline_pool).parallel_for(n_heads, fill);
  return stream;
}

HeadRows materialize(const DecodeStream& stream, int layer, int h) {
  HeadRows rows;
  rows.len = stream.total_tokens();
  rows.head_dim = static_cast<std::size_t>(stream.head_dim);
  rows.keys.resize(rows.len * rows.head_dim);
  rows.values.resize(rows.len * rows.head_dim);
  stream.fill_rows(layer, h, 0, rows.len, rows.keys.data(),
                   rows.values.data());
  return rows;
}

}  // namespace topick::wl
