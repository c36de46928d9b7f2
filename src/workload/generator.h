// Calibrated synthetic attention-instance generator.
//
// Stands in for the HuggingFace checkpoints the paper profiled (see
// DESIGN.md §1). Instances reproduce the three statistics the pruning
// results depend on:
//   1. heavy-tailed scores: a bulk of near-irrelevant tokens plus a sparse
//      set of "spike" tokens that dominate the softmax;
//   2. per-instance spread variability (Fig. 3): the bulk sigma is drawn
//      log-normally per instance, so the dominant-token count varies
//      widely between instances at identical shapes;
//   3. locality (Fig. 4a): recent tokens and the first token (attention
//      sink) carry extra weight.
// K vectors are back-solved so that q . k_i / sqrt(d) hits the target score
// exactly (before quantization), with orthogonal noise for realism.
//
// The K/V rows, nearly all of the generator's time, are built on a thread
// pool without changing a bit: each block of tokens has its uniforms drawn
// serially in the caller's stream order, and only the pure Box-Muller
// transforms and the per-row back-solve fan out. An instance is therefore a
// pure function of (params, context length, Rng state) at any pool width.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "model/kv_cache.h"

namespace topick::wl {

struct WorkloadParams {
  std::size_t context_len = 1024;
  int head_dim = 64;

  // Every *_sd / *_std spread must be finite and >= 0.

  // Bulk score distribution: N(0, sigma), sigma ~ LogNormal per instance.
  // Defaults calibrated once against the paper's ToPick operating point —
  // at thr 1e-3 / 4e-3 over this family the functional operator measures
  // V 12.3x / 21.3x, K 1.46x / 1.53x, total 2.62x / 2.86x (paper: 12.1x /
  // 22.2x, 1.45x / 1.51x, 2.57x / 2.79x). bench_fig08_dram_access prints
  // the measured aggregates beside the paper's (§5.2.1).
  double sigma_log_mean = 0.0;
  double sigma_log_sd = 0.40;

  // Spike tokens (the genuinely attended ones): a log-normal-ish ladder
  // whose heavy tail concentrates the softmax mass, keeping the bulk well
  // below pruning thresholds (dropped mass ~1% at thr 1e-3).
  double spike_fraction = 0.052;
  double spike_boost_mean = 5.5;
  double spike_boost_sd = 2.0;
  // Per-instance multiplier on spike_fraction, LogNormal(0, this): some
  // instances have few genuinely-attended tokens, some have many — the
  // Fig. 3 variability that defeats fixed-ratio pruning.
  double spike_fraction_log_sd = 0.5;

  // Locality: the last `recency_window` (>= 0; 0 = off) tokens get a
  // linearly decaying boost; token 0 is the attention sink.
  int recency_window = 8;
  double recency_boost = 3.0;
  double sink_boost = 3.5;

  // Magnitude of the q-orthogonal key noise. Leaves every score (and hence
  // softmax/V-pruning behaviour) untouched, but scales the key quantization
  // range and with it the chunk-level margins — the knob that calibrates
  // how many K chunks a prune decision needs (paper: ~2.1 of 3 on average).
  double key_noise_std = 5.0;

  double value_std = 1.0;
};

// One functional attention instance with owned storage.
struct Instance {
  std::vector<float> q;       // head_dim
  std::vector<float> keys;    // (len, head_dim) row-major
  std::vector<float> values;  // (len, head_dim) row-major
  std::vector<double> target_scores;  // the scores the keys were solved for
  std::size_t len = 0;
  std::size_t head_dim = 0;

  KvHeadView view() const {
    return KvHeadView{keys.data(), values.data(), len, head_dim};
  }
};

class Generator {
 public:
  // Tokens per block of K/V rows: one block's uniforms are drawn before its
  // rows fan out, and the next block's draw overlaps this block's rows. Each
  // of the two block buffers holds 2 * head_dim * kBlockTokens draws (1 MB
  // at head_dim 128), whatever the context length.
  static constexpr std::size_t kBlockTokens = 256;
  // Minimum tokens per participant before another worker engages, so
  // instances shorter than 2 * kFanoutGrain tokens are built inline.
  static constexpr std::size_t kFanoutGrain = 64;

  // K/V rows are built on a pool the Generator owns, one thread per CPU the
  // process may run on, started by the first instance long enough to fan
  // out. Calls to make_instance on one Generator must not overlap. Throws
  // std::logic_error for a zero context_len or head_dim, a spike_fraction
  // outside [0, 1], a negative recency_window, or a spread that is negative
  // or not finite.
  explicit Generator(const WorkloadParams& params);

  Instance make_instance(Rng& rng) const;
  // Convenience: instance with an explicit context length override (> 0).
  Instance make_instance(Rng& rng, std::size_t context_len) const;

  const WorkloadParams& params() const { return params_; }

 private:
  ThreadPool& owned_pool() const;

  WorkloadParams params_;
  mutable std::unique_ptr<ThreadPool> pool_;  // null until first needed
};

}  // namespace topick::wl
