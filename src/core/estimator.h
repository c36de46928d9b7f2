// Conservative attention-probability estimation (paper §3.1).
//
// For token i at chunk level b with score bracket [s_min, s_max]:
//     p''_i = exp(s_max_i) / sum_{j in subset} exp(s_min_j)  >=  p_i,
// so p'' <= thr implies the true full-softmax probability is below thr and
// the token can be dropped safely. The comparison runs in the log domain
// (s_max - ln D <= ln thr), as the RPDU evaluates it, in double precision.
// The RPDU's Q16.16 EXP units (Table 1) are not modelled bit for bit: a
// directed-rounding Q16.16 compare changed 1 keep decision in 614,400 and no
// fetched kilobit over 200 synthetic instances each at 1k and 2k tokens.
#pragma once

#include <cmath>
#include <limits>
#include <vector>

#include "common/expsum.h"
#include "common/require.h"

namespace topick {

enum class DenominatorPolicy {
  // Remove a token's exp(s_min) term when it is pruned; after step 0 the
  // denominator is the exponentiated sum of the surviving scores (the paper's
  // description of the DAG state, and the default).
  remove_on_prune,
  // Leave the stale term in place. Cheaper in hardware and still conservative
  // (the stale term underestimates the token's true exp). Ablation only.
  keep_stale,
};

struct EstimatorConfig {
  double threshold = 1e-3;  // thr: attention-probability cutoff; 0 disables
  DenominatorPolicy policy = DenominatorPolicy::remove_on_prune;
  // Removed: the Q16.16 fixed-point compare won nowhere over the double one
  // (see the header). The field remains only because the benchmark's config
  // dump reads it; the estimator rejects true. Delete it with the next change
  // to the benchmark.
  bool fixed_point_compare = false;
};

class ProbabilityEstimator {
 public:
  explicit ProbabilityEstimator(const EstimatorConfig& config);

  // Starts a fresh attention instance over `num_tokens` tokens.
  void reset(std::size_t num_tokens);

  // RPDU decision: should the token with upper score bound s_max be pruned,
  // given the current denominator? Never prunes when the denominator is empty
  // or the threshold is zero. Header-inline (one call per (token, chunk)):
  // first try to prove the keep with a transcendental-free upper bound on
  // ln D — if s_max clears even the over-estimate of ln D, the exact
  // comparison must also keep — then the prune with the matching lower
  // bound: if s_max falls under the threshold against even the
  // under-estimate of ln D, the exact comparison must also prune. Either
  // proof is the exact test's decision without a std::log; only tokens
  // whose margin lies between the two bounds fall through to it.
  bool should_prune(double s_max) const {
    if (denom_.empty()) return false;  // nothing to compare against yet
    if (config_.threshold <= 0.0) return false;
    if (s_max - denom_.log_upper_bound() > log_threshold_) return false;
    if (s_max - denom_.log_lower_bound() <= log_threshold_) return true;
    return s_max - denom_.log() <= log_threshold_;
  }

  // Upper bound p'' for diagnostics (may exceed 1 early on).
  double estimate_upper(double s_max) const;

  // Registers / tightens a surviving token's denominator term exp(s_min).
  // First call for a token adds, later calls replace (the PEC/DAG update).
  // The cached Term lets replace skip re-exponentiating the old s_min when
  // the sum's shift hasn't moved — bit-identical, one std::exp cheaper on
  // the per-chunk tighten path.
  void update_token(std::size_t token, double s_min) {
    require(token < contribution_.size(), "estimator: token out of range");
    double& slot = contribution_[token];
    if (std::isnan(slot)) {
      term_cache_[token] = denom_.add_term(s_min);
    } else {
      term_cache_[token] = denom_.replace_term(slot, s_min,
                                               term_cache_[token]);
    }
    slot = s_min;
  }

  // Marks a token pruned; under remove_on_prune its term leaves the
  // denominator.
  void mark_pruned(std::size_t token);

  double log_denominator() const { return denom_.log(); }
  const EstimatorConfig& config() const { return config_; }

  // Retune the pruning threshold between attention instances (the serve
  // engine's graceful-degradation knob; see src/fault/degradation.h).
  // Setting the same value back restores bit-identical behavior —
  // log_threshold_ is recomputed exactly as the constructor computed it.
  void set_threshold(double threshold) {
    require(threshold >= 0.0 && threshold < 1.0,
            "EstimatorConfig: threshold must be in [0, 1)");
    config_.threshold = threshold;
    log_threshold_ = threshold > 0.0
                         ? std::log(threshold)
                         : -std::numeric_limits<double>::infinity();
  }

 private:
  EstimatorConfig config_;
  double log_threshold_;
  ShiftedExpSum denom_;
  // Last s_min registered per token; NaN = no contribution present.
  std::vector<double> contribution_;
  // Linear-domain cache of each token's denominator term (see
  // ShiftedExpSum::Term) — skips one exp per per-chunk tighten.
  std::vector<ShiftedExpSum::Term> term_cache_;
};

}  // namespace topick
