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
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "model/kv_cache.h"

namespace topick::wl {

struct WorkloadParams {
  std::size_t context_len = 1024;
  int head_dim = 64;

  // Bulk score distribution: N(0, sigma), sigma ~ LogNormal per instance.
  // Defaults calibrated once against the paper's ToPick operating point —
  // at thr 1e-3 / 4e-3 over this family the functional operator measures
  // V 12.3x / 21.3x, K 1.46x / 1.53x, total 2.62x / 2.86x (paper: 12.1x /
  // 22.2x, 1.45x / 1.51x, 2.57x / 2.79x) — see EXPERIMENTS.md.
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
  explicit Generator(const WorkloadParams& params);

  Instance make_instance(Rng& rng) const;
  // Convenience: instance with an explicit context length override.
  Instance make_instance(Rng& rng, std::size_t context_len) const;

  const WorkloadParams& params() const { return params_; }

 private:
  WorkloadParams params_;
};

}  // namespace topick::wl
