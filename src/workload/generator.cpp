#include "workload/generator.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"

namespace topick::wl {

Generator::Generator(const WorkloadParams& params) : params_(params) {
  require(params.context_len > 0, "WorkloadParams: context_len must be > 0");
  require(params.head_dim > 0, "WorkloadParams: head_dim must be > 0");
  require(params.spike_fraction >= 0.0 && params.spike_fraction <= 1.0,
          "WorkloadParams: spike_fraction must be in [0, 1]");
  require(params.recency_window >= 0,
          "WorkloadParams: recency_window must be >= 0");
}

Instance Generator::make_instance(Rng& rng) const {
  return make_instance(rng, params_.context_len);
}

Instance Generator::make_instance(Rng& rng, std::size_t context_len) const {
  const auto d = static_cast<std::size_t>(params_.head_dim);
  Instance inst;
  inst.len = context_len;
  inst.head_dim = d;
  inst.q.resize(d);
  inst.keys.resize(context_len * d);
  inst.values.resize(context_len * d);
  inst.target_scores.resize(context_len);

  // Per-instance spread (Fig. 3): wide-sigma instances have few dominant
  // tokens, narrow-sigma instances have many.
  const double sigma =
      rng.lognormal(params_.sigma_log_mean, params_.sigma_log_sd);
  const double spike_rate = std::min(
      1.0, params_.spike_fraction *
               rng.lognormal(0.0, params_.spike_fraction_log_sd));

  for (std::size_t i = 0; i < context_len; ++i) {
    double score = rng.normal(0.0, sigma);
    if (rng.bernoulli(spike_rate)) {
      score += std::abs(rng.normal(params_.spike_boost_mean,
                                   params_.spike_boost_sd));
    }
    // Recency boost decays linearly over the window.
    const auto age = context_len - 1 - i;
    if (age < static_cast<std::size_t>(params_.recency_window)) {
      const double falloff =
          1.0 - static_cast<double>(age) /
                    static_cast<double>(params_.recency_window);
      score += params_.recency_boost * falloff;
    }
    if (i == 0) score += params_.sink_boost;  // attention sink
    inst.target_scores[i] = score;
  }

  // Query with non-trivial magnitude.
  double qnorm2 = 0.0;
  for (auto& x : inst.q) {
    x = static_cast<float>(rng.normal());
    qnorm2 += static_cast<double>(x) * x;
  }
  require(qnorm2 > 0.0, "Generator: degenerate query");

  // Back-solve keys: k_i = (dot_i / |q|^2) q + orthogonal noise, where
  // dot_i = score_i * sqrt(d) (the op divides by sqrt(d)).
  const double sqrt_d = std::sqrt(static_cast<double>(d));
  std::vector<double> noise(d);
  for (std::size_t i = 0; i < context_len; ++i) {
    const double dot_target = inst.target_scores[i] * sqrt_d;
    double ndotq = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      noise[j] = rng.normal();
      ndotq += noise[j] * inst.q[j];
    }
    const double coeff = dot_target / qnorm2;
    const double proj = ndotq / qnorm2;
    for (std::size_t j = 0; j < d; ++j) {
      const double orth = (noise[j] - proj * inst.q[j]) * params_.key_noise_std;
      inst.keys[i * d + j] = static_cast<float>(coeff * inst.q[j] + orth);
    }
    for (std::size_t j = 0; j < d; ++j) {
      inst.values[i * d + j] =
          static_cast<float>(rng.normal(0.0, params_.value_std));
    }
  }
  return inst;
}

}  // namespace topick::wl
