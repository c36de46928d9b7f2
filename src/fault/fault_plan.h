// Deterministic fault injection for the serve runtime.
//
// A FaultPlan is a declarative, fully reproducible description of what goes
// wrong and when: degraded/stalled memsim channels (cycle-domain), transient
// KV-pool allocation failures (step-domain windows over the engine's
// sequential page-allocation gate), and request aborts (step-domain, e.g. a
// client disconnect). The FaultInjector is the engine-side interpreter: it
// answers "does this allocation fail?" / "is this request aborted now?" from
// plan state plus deterministic counters — no wall clock, no global RNG —
// so a fixed seed + plan replays bit-identically at any thread count and in
// both the sequential and pipelined executors.
//
// Contract (mirrors src/obs/ "observability never changes bits"): a null or
// empty plan makes every query free and false — faults off is bit-identical
// to a build without this layer. tests/fault_test.cpp enforces both halves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "memsim/dram_config.h"

namespace topick::fault {

// Degrade one HBM channel (see mem::ChannelFault for the cycle-domain
// semantics). The plan owns the ChannelFault storage; the engine wires a
// pointer to it into the channel, so the plan must outlive the engine.
struct ChannelFaultSpec {
  int channel = 0;
  mem::ChannelFault fault;
};

// Transient page-allocation failures: inside [start_step, end_step) every
// `period`-th allocation *gate check* (an append that actually needs at least
// one new page) fails, aborting the request that needed the page. The gate
// runs in the engine's sequential append phase, so the check counter — and
// therefore which request the fault lands on — is thread-count independent.
struct AllocFaultSpec {
  std::size_t start_step = 0;
  std::size_t end_step = 0;    // exclusive
  std::uint64_t period = 4;    // 1 = every needy allocation in the window fails
};

// Abort one request (client disconnect / upstream cancel): fires once, at
// the first step >= at_step where the request has arrived and is still live.
struct AbortFaultSpec {
  std::uint64_t request_id = 0;
  std::size_t at_step = 0;
};

struct FaultPlan {
  std::uint64_t seed = 0;  // provenance only; plans are explicit data
  std::vector<ChannelFaultSpec> channels;
  std::vector<AllocFaultSpec> alloc_faults;
  std::vector<AbortFaultSpec> aborts;

  bool empty() const {
    return channels.empty() && alloc_faults.empty() && aborts.empty();
  }
};

// Knob ranges for make_chaos_plan's seeded draw.
struct ChaosParams {
  std::size_t max_channel_faults = 2;
  std::size_t max_alloc_windows = 2;
  std::size_t max_aborts = 4;
  double burst_multiplier_max = 4.0;   // degraded channels draw in [1, max]
  std::uint64_t stall_period = 4096;   // stall window shape when drawn
  std::uint64_t stall_cycles_max = 1024;
  std::uint64_t alloc_period_max = 6;  // alloc faults draw period in [1, max]
};

// Seeded random plan over `num_channels` channels, `num_requests` request
// ids, and a step horizon — the randomized fault-matrix tests sweep seeds
// through this to shake the abort/retry/leak invariants. Same seed, same
// plan, always. Throws std::logic_error for alloc_period_max == 0 when alloc
// windows can be drawn (max_alloc_windows > 0 and horizon_steps > 0).
FaultPlan make_chaos_plan(std::uint64_t seed, const ChaosParams& params,
                          std::size_t num_channels, std::size_t num_requests,
                          std::size_t horizon_steps);

// Engine-side interpreter. Holds mutable firing state (the allocation-gate
// counter, per-abort fired flags), so each engine run constructs its own
// injector from the shared immutable plan.
class FaultInjector {
 public:
  FaultInjector() = default;  // disabled: every query is false
  explicit FaultInjector(const FaultPlan* plan);

  bool enabled() const { return plan_ != nullptr && !plan_->empty(); }
  const FaultPlan* plan() const { return plan_; }

  // Called from the sequential append phase for every append that needs at
  // least one new page; returns true when that allocation must fail.
  // Advances the gate counter only inside an active window, so runs that
  // differ merely in steps *outside* fault windows stay aligned.
  bool alloc_fault(std::size_t step);

  // Returns true exactly once per matching AbortFaultSpec, at the first call
  // with step >= at_step. Call from a sequential phase, in deterministic
  // request order.
  bool should_abort(std::uint64_t request_id, std::size_t step);

  std::uint64_t alloc_checks() const { return alloc_checks_; }
  std::uint64_t alloc_faults_fired() const { return alloc_fired_; }

 private:
  const FaultPlan* plan_ = nullptr;
  std::uint64_t alloc_checks_ = 0;
  std::uint64_t alloc_fired_ = 0;
  std::vector<bool> abort_fired_;
};

}  // namespace topick::fault
