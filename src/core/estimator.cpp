#include "core/estimator.h"

#include <cmath>

#include "common/require.h"

namespace topick {

ProbabilityEstimator::ProbabilityEstimator(const EstimatorConfig& config)
    : config_(config),
      log_threshold_(config.threshold > 0.0
                         ? std::log(config.threshold)
                         : -std::numeric_limits<double>::infinity()) {
  require(config.threshold >= 0.0 && config.threshold < 1.0,
          "EstimatorConfig: threshold must be in [0, 1)");
  require(!config.fixed_point_compare,
          "EstimatorConfig: fixed_point_compare was removed; the double "
          "log-domain compare is the only prune test");
}

void ProbabilityEstimator::reset(std::size_t num_tokens) {
  denom_ = ShiftedExpSum();
  // assign() reuses the existing allocations — reset is called once per
  // attention instance on the decode hot path.
  contribution_.assign(num_tokens,
                       std::numeric_limits<double>::quiet_NaN());
  term_cache_.assign(num_tokens, ShiftedExpSum::Term{});
}

double ProbabilityEstimator::estimate_upper(double s_max) const {
  if (denom_.empty()) return std::numeric_limits<double>::infinity();
  return std::exp(s_max - denom_.log());
}

void ProbabilityEstimator::mark_pruned(std::size_t token) {
  require(token < contribution_.size(), "estimator: token out of range");
  double& slot = contribution_[token];
  if (config_.policy == DenominatorPolicy::remove_on_prune &&
      !std::isnan(slot)) {
    denom_.remove(slot);
    slot = std::numeric_limits<double>::quiet_NaN();
  }
}

}  // namespace topick
