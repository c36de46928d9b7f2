// Transaction types shared by the DRAM model and the accelerator.
#pragma once

#include <cstdint>

namespace topick::mem {

struct MemRequest {
  std::uint64_t addr = 0;  // byte address; one transaction granule
  std::uint64_t id = 0;    // caller-chosen tag returned with the response
};

struct MemResponse {
  std::uint64_t id = 0;
  std::uint64_t ready_cycle = 0;  // DRAM clock when data finished transferring
};

// One scheduled transaction, for trace dumps (the paper's methodology fed
// RTL-simulation traces into DRAMsim3; this is the equivalent hook).
struct TraceEntry {
  std::uint64_t cycle = 0;  // DRAM clock at command commit
  std::uint64_t addr = 0;
  int channel = 0;
  bool row_hit = false;
};

struct DramStats {
  std::uint64_t requests = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;   // includes row conflicts (PRE + ACT)
  std::uint64_t activates = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t data_bus_busy_cycles = 0;  // summed over channels
  // Refused enqueue attempts: Hbm::try_enqueue calls turned away because the
  // target channel queue was full (a caller retrying every cycle counts once
  // per retry).
  std::uint64_t queue_full_stalls = 0;
  // Cycles an injected ChannelFault stall window blocked command issue while
  // work was queued (fault layer only; always zero without a fault plan).
  std::uint64_t fault_stall_cycles = 0;

  double row_hit_rate() const {
    const auto total = row_hits + row_misses;
    return total ? static_cast<double>(row_hits) / static_cast<double>(total)
                 : 0.0;
  }
};

}  // namespace topick::mem
