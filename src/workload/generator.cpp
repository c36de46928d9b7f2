#include "workload/generator.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/require.h"

namespace topick::wl {

namespace {

bool is_spread(double x) { return std::isfinite(x) && x >= 0.0; }

// CPUs this process may run on (its affinity mask), which a taskset or
// cgroup pin can make fewer than the host's hardware concurrency.
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

}  // namespace

Generator::Generator(const WorkloadParams& params) : params_(params) {
  require(params.context_len > 0, "WorkloadParams: context_len must be > 0");
  require(params.head_dim > 0, "WorkloadParams: head_dim must be > 0");
  require(params.spike_fraction >= 0.0 && params.spike_fraction <= 1.0,
          "WorkloadParams: spike_fraction must be in [0, 1]");
  require(params.recency_window >= 0,
          "WorkloadParams: recency_window must be >= 0");
  require(is_spread(params.sigma_log_sd) && is_spread(params.spike_boost_sd) &&
              is_spread(params.spike_fraction_log_sd) &&
              is_spread(params.key_noise_std) && is_spread(params.value_std),
          "WorkloadParams: sigma_log_sd, spike_boost_sd, "
          "spike_fraction_log_sd, key_noise_std and value_std must be finite "
          "and >= 0");
}

ThreadPool& Generator::owned_pool() const {
  if (!pool_) pool_ = std::make_unique<ThreadPool>(usable_cpus());
  return *pool_;
}

Instance Generator::make_instance(Rng& rng) const {
  return make_instance(rng, params_.context_len);
}

Instance Generator::make_instance(Rng& rng, std::size_t context_len) const {
  require(context_len > 0, "Generator::make_instance: context_len must be > 0");
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
  // dot_i = score_i * sqrt(d) (the op divides by sqrt(d)). Row i consumes 2d
  // normals from the stream: d key-noise normals, then d value normals.
  // Only their uniforms are drawn in stream order (block by block); the
  // transforms and the back-solve read nothing but the drawn block, so rows
  // fan out with bits independent of the pool width.
  const double sqrt_d = std::sqrt(static_cast<double>(d));
  const std::size_t row_draws = 2 * d;
  const auto fill_row = [&](std::size_t i, const Rng::NormalDraw* draws,
                            double* noise) {
    const double dot_target = inst.target_scores[i] * sqrt_d;
    double ndotq = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      noise[j] = Rng::box_muller(draws[j]);
      ndotq += noise[j] * inst.q[j];
    }
    const double coeff = dot_target / qnorm2;
    const double proj = ndotq / qnorm2;
    for (std::size_t j = 0; j < d; ++j) {
      const double orth = (noise[j] - proj * inst.q[j]) * params_.key_noise_std;
      inst.keys[i * d + j] = static_cast<float>(coeff * inst.q[j] + orth);
    }
    for (std::size_t j = 0; j < d; ++j) {
      // Rng::normal(0.0, value_std), term for term.
      inst.values[i * d + j] = static_cast<float>(
          0.0 + params_.value_std * Rng::box_muller(draws[d + j]));
    }
  };

  // Instances too short to fan out run inline and never start the pool.
  ThreadPool inline_pool(1);
  ThreadPool& pool =
      context_len >= 2 * kFanoutGrain ? owned_pool() : inline_pool;
  std::vector<double> noise(pool.threads() * d);  // per-worker scratch

  // Two block buffers: block b's rows are built from draws[b % 2] while one
  // task draws block b + 1 into the other, so the serial draw is off the
  // critical path and the caller's stream still advances in token order.
  const std::size_t n_blocks = (context_len + kBlockTokens - 1) / kBlockTokens;
  const auto block_tokens = [&](std::size_t b) {
    return std::min(kBlockTokens, context_len - b * kBlockTokens);
  };
  // Both buffers are reserved here, on the calling thread, so the draw task
  // never allocates: a worker's first allocation would open a malloc arena
  // of its own (about 3 MB more peak RSS on accel_zoo).
  std::vector<Rng::NormalDraw> draws[2];
  for (auto& block : draws) block.reserve(block_tokens(0) * row_draws);
  const auto draw_block = [&](std::size_t b) {
    auto& block = draws[b % 2];
    block.resize(block_tokens(b) * row_draws);
    for (auto& draw : block) draw = rng.draw_normal();
  };
  draw_block(0);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t first = b * kBlockTokens;
    const std::size_t prefetch = b + 1 < n_blocks ? 1 : 0;
    const auto task = [&](std::size_t k, std::size_t worker) {
      if (k < prefetch) {
        draw_block(b + 1);
        return;
      }
      const std::size_t t = k - prefetch;
      fill_row(first + t, draws[b % 2].data() + t * row_draws,
               noise.data() + worker * d);
    };
    pool.parallel_for(prefetch + block_tokens(b), task, kFanoutGrain);
  }
  return inst;
}

}  // namespace topick::wl
