// Closed-loop graceful degradation for the serve engine.
//
// Token-Picker's pruning threshold is a *tunable* accuracy-vs-memory-transfer
// knob (the paper's core contribution); under overload that makes it a
// degradation lever most serving stacks don't have. The controller watches
// pool pressure and interactive SLO attainment — passed in by the engine at
// each evaluation — and walks a deterministic ladder of degradation levels
// with hysteresis:
//
//   L0  healthy      — no intervention, bit-identical to controller-off.
//   L1  trim         — best_effort pruning threshold tightened (x scale),
//                      best_effort rescale headroom raised for new slots.
//   L2  degrade      — best_effort tightened again, batch tightened once.
//   L3  shed         — best_effort admissions rejected outright (retry /
//                      backoff decides their fate), batch tightened again,
//                      interactive tightened once.
//
// Everything is step-domain and sequential (the engine evaluates between
// phases), so levels — and therefore outputs — are identical at every thread
// count and in both executors. With the controller disabled the engine never
// consults it: controller-off runs are bit-identical to pre-fault builds.
#pragma once

#include <cstddef>
#include <cstdint>

#include "workload/arrivals.h"

namespace topick::fault {

struct DegradationConfig {
  bool enabled = false;
  // Evaluation cadence and minimum dwell between level changes, in engine
  // steps. Dwell gives a level time to take effect before re-judging it.
  std::size_t evaluate_every_steps = 8;
  std::size_t hold_steps = 32;
  // Pool-occupancy hysteresis band: escalate at/above pool_hi, allow
  // recovery at/below pool_lo.
  double pool_hi = 0.85;
  double pool_lo = 0.55;
  // Windowed interactive TTFT-SLO attainment band: escalate below slo_lo,
  // allow recovery above slo_hi. A window with no tracked interactive
  // requests (attainment < 0) is neutral: it neither escalates nor
  // blocks recovery.
  double slo_lo = 0.90;
  double slo_hi = 0.98;
  // Per tightening notch: pruning threshold multiplier and additive rescale
  // headroom. threshold_scale(cls) compounds per notch; headroom applies to
  // slots created while the class is degraded (quantization-side knob, so
  // degraded output may differ from healthy output — that is the point).
  double threshold_scale = 4.0;
  float headroom_step = 0.5f;
};

class DegradationController {
 public:
  static constexpr int kMaxLevel = 3;

  DegradationController() = default;
  explicit DegradationController(const DegradationConfig& config)
      : config_(config) {}

  bool enabled() const { return config_.enabled; }
  const DegradationConfig& config() const { return config_; }

  // True when the controller is enabled and `step` falls on its evaluation
  // cadence (every evaluate_every_steps steps; every step when that is 0).
  bool evaluates_at(std::size_t step) const;

  // Evaluate once per engine step from a sequential phase; acts only on the
  // evaluates_at(step) cadence and after the dwell expires. `pool_occupancy`
  // is the pool's used fraction; `interactive_slo_attainment` is the
  // windowed interactive TTFT-SLO attainment, < 0 for an empty window (no
  // signal).
  // Returns true when the level changed.
  bool observe(std::size_t step, double pool_occupancy,
               double interactive_slo_attainment);

  int level() const { return level_; }
  std::uint64_t level_changes() const { return changes_; }

  // Number of tightening notches applied to a class at the current level:
  // best_effort first, then batch, then interactive (see the ladder above).
  int notches(wl::Priority cls) const {
    const int idx = static_cast<int>(cls);  // interactive=0 .. best_effort=2
    const int n = level_ - (2 - idx);
    return n > 0 ? n : 0;
  }
  // Pruning-threshold multiplier for the class (1.0 at level 0).
  double threshold_scale(wl::Priority cls) const;
  // Rescale headroom for slots created while degraded (1.0 at level 0).
  float headroom(wl::Priority cls) const;
  // L3: reject best_effort admissions outright.
  bool shed_best_effort() const { return level_ >= kMaxLevel; }

 private:
  DegradationConfig config_;
  int level_ = 0;
  std::size_t last_change_step_ = 0;
  bool changed_once_ = false;
  std::uint64_t changes_ = 0;
};

}  // namespace topick::fault
