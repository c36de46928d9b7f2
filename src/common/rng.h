// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic components in the library (workload generation, corpus
// synthesis, weight initialization) take an explicit Rng so that every
// experiment is replayable from a seed. xoshiro256** is used for speed and
// statistical quality; splitmix64 seeds it.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "common/require.h"

namespace topick {

inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** by Blackman & Vigna (public domain reference implementation).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed'0000'0001ULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  // Uniform integer in [0, n). Throws std::logic_error for n == 0.
  std::uint64_t uniform_index(std::uint64_t n) {
    require(n > 0, "Rng::uniform_index: n must be > 0");
    return next_u64() % n;
  }

  // The two uniforms one standard normal consumes.
  struct NormalDraw {
    double u1;  // in (0, 1)
    double u2;  // in [0, 1)
  };

  // Standard normal via Box-Muller (no cached spare: keeps state replayable
  // regardless of call interleaving). It is split in two: draw_normal()
  // advances the stream (u1 is redrawn while it is exactly 0, then u2 is
  // drawn), and box_muller() is a pure transform of the draw. A caller can
  // therefore draw serially, keeping the stream order, and run the costly
  // log/cos transforms anywhere; normal() is exactly their composition.
  NormalDraw draw_normal() {
    double u1 = uniform();
    while (u1 == 0.0) u1 = uniform();
    return {u1, uniform()};
  }

  static double box_muller(const NormalDraw& draw) {
    return std::sqrt(-2.0 * std::log(draw.u1)) *
           std::cos(6.283185307179586 * draw.u2);
  }

  double normal() { return box_muller(draw_normal()); }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  // Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

  bool bernoulli(double p) { return uniform() < p; }

  // Derive an independent stream (for per-instance / per-layer substreams).
  Rng fork() { return Rng(next_u64()); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace topick
