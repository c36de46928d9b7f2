// Per-phase wall-time attribution for the serve engine's phased step: where
// does a step actually spend host time — compute (summed per-worker busy ns
// in the parallel attention phase), barrier wait (fan-out wall time x
// workers minus busy: the cost of waiting for the slowest (slot, layer,
// head) unit), sequential append/reduce, or the memsim DRAM replay?
//
// Collection is runtime-gated (ServeConfig::collect_phase_stats) and reads
// only the steady clock — it never touches engine state, so enabling it
// cannot change a bit of output (the determinism suite runs with it on).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>

namespace topick::obs {

struct StepPhaseStats {
  std::uint64_t steps = 0;
  std::uint64_t admit_ns = 0;     // arrival admission + policy picks
  std::uint64_t append_ns = 0;    // sequential paged K/V appends + preemption
  std::uint64_t attention_wall_ns = 0;  // parallel-phase wall time
  std::uint64_t attention_busy_ns = 0;  // summed per-worker unit time
  std::uint64_t barrier_wait_ns = 0;    // engaged fan-out x wall - busy
  std::uint64_t reduce_ns = 0;    // slot-ordered reduction (post-barrier)
  std::uint64_t replay_ns = 0;    // DRAM replay + cycle checkpoints, inline
  std::uint64_t other_ns = 0;     // residency/fragmentation gauges

  // Cross-step lane attribution (zero unless ServeConfig::pipeline):
  //   * lane_busy_ns — the same replay job as replay_ns, executed on the
  //     SerialLane thread, overlapped with the next step's compute (off the
  //     main thread, so NOT part of total_ns()).
  //   * lane_wait_ns — main-thread time blocked on lane backpressure/drain:
  //     the residual serialization the pipeline failed to hide.
  std::uint64_t lane_busy_ns = 0;
  std::uint64_t lane_wait_ns = 0;

  // Widest attention fan-out any step engaged (participants, caller
  // included): ThreadPool::fanout after the spawn cap and the engine's
  // grain, so worker tracks at or beyond it never ran a unit.
  std::uint64_t fanout_peak = 0;

  std::uint64_t total_ns() const {
    return admit_ns + append_ns + attention_wall_ns + reduce_ns + replay_ns +
           other_ns + lane_wait_ns;
  }

  void merge(const StepPhaseStats& other) {
    steps += other.steps;
    admit_ns += other.admit_ns;
    append_ns += other.append_ns;
    attention_wall_ns += other.attention_wall_ns;
    attention_busy_ns += other.attention_busy_ns;
    barrier_wait_ns += other.barrier_wait_ns;
    reduce_ns += other.reduce_ns;
    replay_ns += other.replay_ns;
    other_ns += other.other_ns;
    lane_busy_ns += other.lane_busy_ns;
    lane_wait_ns += other.lane_wait_ns;
    if (other.fanout_peak > fanout_peak) fanout_peak = other.fanout_peak;
  }
};

// Scoped phase timer accumulating into a ns counter; a null target no-ops.
class PhaseTimer {
 public:
  explicit PhaseTimer(std::uint64_t* target) : target_(target) {
    if (target_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~PhaseTimer() {
    if (target_ != nullptr) {
      *target_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count());
    }
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  std::uint64_t* target_;
  std::chrono::steady_clock::time_point start_;
};

// Cache-line-isolated per-worker busy counter for the parallel phase (plain
// writes: each worker owns its slot, consistent with the ThreadPool's
// determinism contract).
struct alignas(64) WorkerBusyNs {
  std::uint64_t ns = 0;
};

}  // namespace topick::obs
