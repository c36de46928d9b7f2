#include "workload/decode_stream.h"

#include <cmath>

#include "common/parallel.h"
#include "common/require.h"
#include "common/rng.h"

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

// Fills one head's K/V rows and queries from its own forked Rng. Reads only
// `head_rng`, the params and the shared spike pattern, so heads can be filled
// in any order or concurrently.
void fill_head(HeadStream& hs, Rng head_rng, const DecodeStreamParams& params,
               const std::vector<bool>& spike, std::size_t decode_len) {
  const std::size_t n_tokens = spike.size();
  const auto dim = static_cast<std::size_t>(params.head_dim);
  const auto topic = make_topic(head_rng, params.head_dim);

  hs.keys.resize(n_tokens * dim);
  hs.values.resize(n_tokens * dim);
  for (std::size_t t = 0; t < n_tokens; ++t) {
    const float boost =
        spike[t] ? static_cast<float>(params.spike_scale) : 0.0f;
    for (std::size_t d = 0; d < dim; ++d) {
      hs.keys[t * dim + d] = static_cast<float>(
          boost * topic[d] + params.bulk_scale * head_rng.normal());
      hs.values[t * dim + d] =
          static_cast<float>(head_rng.normal(0.0, params.value_std));
    }
  }

  hs.queries.resize(decode_len * dim);
  for (std::size_t s = 0; s < decode_len; ++s) {
    for (std::size_t d = 0; d < dim; ++d) {
      hs.queries[s * dim + d] = static_cast<float>(
          params.query_topic_scale * topic[d] +
          params.query_noise * head_rng.normal());
    }
  }
}

}  // namespace

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
    fill_head(stream.heads[i], head_rngs[i], params, stream.spike, decode_len);
  };
  ThreadPool inline_pool;  // width 1: parallel_for runs on this thread
  (pool != nullptr ? *pool : inline_pool).parallel_for(n_heads, fill);
  return stream;
}

}  // namespace topick::wl
