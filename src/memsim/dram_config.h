// HBM2 configuration (paper Table 1: 8 channels x 128-bit at 2 Gbps/pin,
// 32 GB/s per channel). Stands in for the DRAMsim3 setup the paper used.
//
// Clocking: the command clock is 1 GHz (tCK = 1 ns); the 128-bit DDR bus
// moves 2 beats x 16 B per clock, so one 32 B transaction occupies the data
// bus for one clock -> 32 GB/s per channel, 256 GB/s aggregate.
#pragma once

#include <cstdint>

namespace topick::mem {

// Timing parameters in DRAM command-clock cycles (1 ns each), HBM2-class.
struct DramTiming {
  int t_rcd = 14;   // ACT -> RD
  int t_rp = 14;    // PRE -> ACT
  int t_cl = 14;    // RD -> first data beat
  int t_ras = 28;   // ACT -> PRE minimum
  int t_rrd = 4;    // ACT -> ACT, different banks, same channel
  int t_burst = 1;  // data-bus cycles per 32 B transaction
  int t_refi = 3900;  // refresh interval
  int t_rfc = 260;    // refresh duration (all banks busy)
};

struct DramEnergy {
  // Calibrated so fully-streamed reads land near the ~3.9 pJ/bit HBM2 class:
  // 1 KiB row fully read amortizes the ACT to ~0.15 pJ/bit on top of the
  // per-bit read/IO energy.
  double activate_pj = 1200.0;   // per ACT (activation + eventual precharge)
  double read_pj_per_bit = 3.7;  // RD + IO per bit moved
  double refresh_pj = 2400.0;    // per REF per channel
};

// Degradation model for one channel, used by the fault-injection layer
// (src/fault/). A null fault pointer on a channel is the healthy fast path:
// the checks below are never evaluated and behavior is bit-identical to a
// build without faults.
//
// Two independent mechanisms, both purely cycle-domain and deterministic:
//   * burst_multiplier stretches every data burst (effective t_burst =
//     t_burst * burst_multiplier, floored to >= 1 cycle), modelling a
//     channel running at reduced data-bus throughput;
//   * periodic stall windows: within every `stall_period` cycles the first
//     `stall_cycles` block new command issue (in-flight bursts still drain),
//     modelling transient controller hiccups. Window phase is absolute-cycle
//     arithmetic.
struct ChannelFault {
  double burst_multiplier = 1.0;
  std::uint64_t stall_period = 0;  // 0 = no stall windows
  std::uint64_t stall_cycles = 0;

  bool stalled(std::uint64_t now) const {
    return stall_period != 0 && now % stall_period < stall_cycles;
  }
  std::uint64_t burst_cycles(int t_burst) const {
    const double scaled = static_cast<double>(t_burst) * burst_multiplier;
    return scaled > 1.0 ? static_cast<std::uint64_t>(scaled) : 1;
  }
};

struct DramConfig {
  int channels = 8;
  int banks_per_channel = 16;
  int row_bytes = 1024;          // row-buffer slice per bank
  int transaction_bytes = 32;    // granule; one K chunk (64 dims x 4 bit)
  int queue_depth = 16;          // per-channel request queue
  bool enable_refresh = true;
  DramTiming timing;
  DramEnergy energy;

  int columns_per_row() const { return row_bytes / transaction_bytes; }
  // Peak bandwidth in bytes per DRAM clock (for utilization reporting).
  double peak_bytes_per_cycle() const {
    return static_cast<double>(channels) * transaction_bytes /
           timing.t_burst;
  }
};

}  // namespace topick::mem
