#include "fault/fault_plan.h"

#include <algorithm>

#include "common/require.h"
#include "common/rng.h"

namespace topick::fault {

FaultPlan make_chaos_plan(std::uint64_t seed, const ChaosParams& params,
                          std::size_t num_channels, std::size_t num_requests,
                          std::size_t horizon_steps) {
  Rng rng(seed);
  FaultPlan plan;
  plan.seed = seed;

  if (num_channels > 0 && params.max_channel_faults > 0) {
    const auto n = rng.uniform_index(params.max_channel_faults + 1);
    for (std::uint64_t i = 0; i < n; ++i) {
      ChannelFaultSpec spec;
      spec.channel = static_cast<int>(rng.uniform_index(num_channels));
      spec.fault.burst_multiplier =
          rng.uniform(1.0, std::max(1.0, params.burst_multiplier_max));
      if (rng.bernoulli(0.5) && params.stall_period > 0) {
        spec.fault.stall_period = params.stall_period;
        spec.fault.stall_cycles =
            1 + rng.uniform_index(std::max<std::uint64_t>(
                    1, std::min(params.stall_cycles_max,
                                params.stall_period - 1)));
      }
      plan.channels.push_back(spec);
    }
  }

  if (horizon_steps > 0 && params.max_alloc_windows > 0) {
    require(params.alloc_period_max > 0,
            "make_chaos_plan: alloc_period_max must be > 0 when alloc "
            "windows are drawn");
    const auto n = rng.uniform_index(params.max_alloc_windows + 1);
    for (std::uint64_t i = 0; i < n; ++i) {
      AllocFaultSpec spec;
      spec.start_step = rng.uniform_index(horizon_steps);
      spec.end_step =
          spec.start_step + 1 + rng.uniform_index(horizon_steps / 4 + 1);
      spec.period = 1 + rng.uniform_index(params.alloc_period_max);
      plan.alloc_faults.push_back(spec);
    }
  }

  if (num_requests > 0 && params.max_aborts > 0) {
    const auto n = rng.uniform_index(params.max_aborts + 1);
    for (std::uint64_t i = 0; i < n; ++i) {
      AbortFaultSpec spec;
      spec.request_id = rng.uniform_index(num_requests);
      spec.at_step = rng.uniform_index(std::max<std::size_t>(1, horizon_steps));
      plan.aborts.push_back(spec);
    }
  }

  return plan;
}

FaultInjector::FaultInjector(const FaultPlan* plan)
    : plan_(plan != nullptr && !plan->empty() ? plan : nullptr) {
  if (plan_ != nullptr) abort_fired_.assign(plan_->aborts.size(), false);
}

bool FaultInjector::alloc_fault(std::size_t step) {
  if (plan_ == nullptr || plan_->alloc_faults.empty()) return false;
  bool in_window = false;
  std::uint64_t period = 0;
  for (const AllocFaultSpec& spec : plan_->alloc_faults) {
    if (step >= spec.start_step && step < spec.end_step) {
      in_window = true;
      // Overlapping windows: the most aggressive (smallest period) wins.
      period = period == 0 ? spec.period : std::min(period, spec.period);
    }
  }
  if (!in_window) return false;
  const std::uint64_t check = alloc_checks_++;
  if (period <= 1 || check % period == period - 1) {
    ++alloc_fired_;
    return true;
  }
  return false;
}

bool FaultInjector::should_abort(std::uint64_t request_id, std::size_t step) {
  if (plan_ == nullptr) return false;
  for (std::size_t i = 0; i < plan_->aborts.size(); ++i) {
    const AbortFaultSpec& spec = plan_->aborts[i];
    if (!abort_fired_[i] && spec.request_id == request_id &&
        step >= spec.at_step) {
      abort_fired_[i] = true;
      return true;
    }
  }
  return false;
}

}  // namespace topick::fault
