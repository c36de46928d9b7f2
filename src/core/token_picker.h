// Token-Picker attention (the paper's core contribution, §3).
//
// For one query over a cached K/V head:
//   1. Quantize Q and the cache to 12-bit; build margin pairs from Q alone.
//   2. Visit tokens newest-first with the first token promoted. For each
//      token, fetch K chunks MSB-first; after each chunk evaluate the
//      conservative bound p'' and either prune (skip remaining K chunks and
//      the whole V vector) or fetch the next chunk.
//   3. Survivors enter a renormalized softmax; only their V vectors are
//      fetched for the weighted sum.
// Every DRAM bit that would move is accounted in AccessStats.
//
// The hot path runs over QuantizedKvView (chunk-planar, quantized once at
// append by QuantizedKvCache) and is allocation-free after warm-up: scratch
// buffers and the result's vectors are reused across calls. The float-view
// entry point rebuilds a scratch cache per call, bit-identical to the
// historical quantize-from-scratch behavior; the pre-quantized entry point
// reads its QuantizedKv's planes in place.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/access_stats.h"
#include "core/estimator.h"
#include "core/exact_attention.h"
#include "core/ordering.h"
#include "core/quantized_kv_cache.h"
#include "fixedpoint/margin.h"
#include "fixedpoint/quant.h"
#include "model/kv_cache.h"

namespace topick {

struct TokenPickerConfig {
  EstimatorConfig estimator;
  fx::QuantParams quant;  // 12-bit / 4-bit chunks by default
  OrderingPolicy order = OrderingPolicy::reverse_chrono_first_promoted;
  // When set, the random ordering policy uses this seed.
  std::uint64_t order_seed = 0x70c4;
  // Compute the oracle_dropped_mass diagnostic: an extra exact pass over all
  // tokens per attend. On for tests/examples; the serve engine and the
  // hot-path bench switch it off (it would keep decode O(len) even when
  // everything else is O(kept)).
  bool compute_oracle_mass = true;
};

// Per-token outcome of the estimation pass.
struct TokenDecision {
  std::size_t token = 0;
  int chunks_fetched = 0;
  bool kept = false;
  double final_score = 0.0;       // defined for kept tokens
};

struct TokenPickerResult {
  std::vector<float> output;          // head_dim
  AccessStats stats;                  // this call only
  std::vector<TokenDecision> decisions;
  double log_denominator = 0.0;       // ln sum over survivor scores (exact)
  // Denominator as tracked by the estimator/DAG. Equals log_denominator under
  // remove_on_prune; under keep_stale it also carries stale pruned terms.
  double log_denominator_estimator = 0.0;
  // True full-softmax probability mass of the pruned tokens, computed from
  // the quantized exact reference (oracle diagnostic; costs no "fetches").
  // Zero when TokenPickerConfig::compute_oracle_mass is off.
  double oracle_dropped_mass = 0.0;
};

// Tracks how many consecutive queries each token has been pruned for, across
// the decode steps of one sequence. A token whose streak reaches `window` is
// "persistently pruned": the paper's estimator guarantees its probability
// stayed below threshold for that many queries, so a serving layer can
// reclaim its KV storage — turning skipped reads into freed DRAM residency.
// Tokens are identified by stable (global) ids so the tracker survives view
// compaction after reclamation. The tracker keeps no liveness of its own: a
// reclaimed token is simply never observed again.
class PrunePersistence {
 public:
  explicit PrunePersistence(int window = 4);

  // Records one attention instance's verdict for a token and returns whether
  // the token is now persistently pruned. A kept token's streak resets to
  // zero; a pruned token's streak grows by one. (Header-inline: each serve
  // attention unit calls it once per decision per step.)
  bool observe(std::size_t token, bool kept) {
    if (token >= streaks_.size()) streaks_.resize(token + 1, 0);
    streaks_[token] = kept ? 0 : streaks_[token] + 1;
    return streaks_[token] >= window_;
  }

  int streak(std::size_t token) const {
    return token < streaks_.size() ? streaks_[token] : 0;
  }

  int window() const { return window_; }

 private:
  int window_;
  std::vector<int> streaks_;  // indexed by token id, grown on demand
};

// Step 1 of Token-Picker (§3.1): the renormalized softmax over the tokens
// that survived estimation and its weighted V sum. `survivors` lists them in
// ascending token order and `scores` their exact scores in the same order;
// each survivor's value row is unpacked from kv's value planes
// (QuantizedKvView::value_row) and weighted at kv.value_params.scale.
// Overwrites `out` with kv.head_dim floats and returns the exact ln of the
// survivor denominator; throws when nothing survived. TokenPickerAttention
// and the accelerator model both end here, so their outputs agree bit for
// bit.
double survivor_softmax(std::span<const std::size_t> survivors,
                        std::span<const double> scores,
                        const QuantizedKvView& kv, std::vector<float>* out);

class TokenPickerAttention {
 public:
  explicit TokenPickerAttention(const TokenPickerConfig& config);

  // Float view: quantizes the whole view per call (the historical path,
  // preserved for calibration/examples and as the equivalence reference).
  TokenPickerResult attend(std::span<const float> q, const KvHeadView& kv);

  // Variant for a pre-quantized head (quantize_kv(), as the accelerator
  // model's instances hold): attend_view over kv.view(), so it throws on
  // arenas that do not hold len rows of head_dim and on a query of another
  // width. score_scale converts integer dots to logits.
  TokenPickerResult attend_quantized(const fx::QuantizedVector& q,
                                     const QuantizedKv& kv,
                                     double score_scale);

  // Hot path: one query over an incrementally maintained cache. `result`'s
  // buffers are reused across calls; no heap allocation after warm-up.
  void attend_cached(std::span<const float> q, const QuantizedKvCache& cache,
                     TokenPickerResult* result);

  // Core over a planar view with a caller-supplied quantized query.
  void attend_view(const fx::QuantizedVector& q, const QuantizedKvView& kv,
                   double score_scale, TokenPickerResult* result);

  const TokenPickerConfig& config() const { return config_; }

  // Retune the pruning threshold between attends (graceful degradation under
  // overload: a tighter threshold prunes more tokens, shrinking bytes moved
  // per decode step at some accuracy cost). Takes effect from the next
  // attention instance; restoring the original value restores bit-identical
  // behavior.
  void set_threshold(double threshold) {
    config_.estimator.threshold = threshold;
    estimator_.set_threshold(threshold);
  }

 private:
  TokenPickerConfig config_;
  ProbabilityEstimator estimator_;
  Rng order_rng_;

  // Reused scratch — the hot path allocates nothing after the first call.
  fx::MarginTable margins_;
  std::vector<std::size_t> order_;
  std::vector<double> survivor_scores_;
  std::vector<std::uint8_t> kept_;
  std::vector<std::size_t> surv_tokens_;
  std::vector<double> surv_compact_;
  std::vector<double> oracle_scores_;
  fx::QuantizedVector q_scratch_;
  QuantizedKvCache view_scratch_;   // attend(): per-call from-scratch rebuild
  TokenPickerResult result_scratch_;
};

}  // namespace topick
