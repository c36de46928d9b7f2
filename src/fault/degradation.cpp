#include "fault/degradation.h"

#include <cmath>

namespace topick::fault {

bool DegradationController::observe(std::size_t step, double pool_occupancy,
                                    double interactive_slo_attainment) {
  if (!config_.enabled) return false;
  const std::size_t cadence =
      config_.evaluate_every_steps > 0 ? config_.evaluate_every_steps : 1;
  if (step % cadence != 0) return false;
  if (changed_once_ && step - last_change_step_ < config_.hold_steps) {
    return false;
  }

  const bool slo_pressure = interactive_slo_attainment >= 0.0 &&
                            interactive_slo_attainment < config_.slo_lo;
  const bool slo_recovered = interactive_slo_attainment < 0.0 ||
                             interactive_slo_attainment > config_.slo_hi;

  int next = level_;
  if (pool_occupancy >= config_.pool_hi || slo_pressure) {
    if (level_ < kMaxLevel) next = level_ + 1;
  } else if (pool_occupancy <= config_.pool_lo && slo_recovered) {
    if (level_ > 0) next = level_ - 1;
  }
  if (next == level_) return false;

  level_ = next;
  last_change_step_ = step;
  changed_once_ = true;
  ++changes_;
  return true;
}

double DegradationController::threshold_scale(wl::Priority cls) const {
  const int n = notches(cls);
  return n == 0 ? 1.0 : std::pow(config_.threshold_scale, n);
}

float DegradationController::headroom(wl::Priority cls) const {
  const int n = notches(cls);
  return 1.0f + config_.headroom_step * static_cast<float>(n);
}

}  // namespace topick::fault
