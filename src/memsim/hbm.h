// Top-level HBM2 model: address mapping across channels/banks/rows, the
// per-channel models, and a global clock with energy accounting.
//
// Address map (32 B granule g = addr / 32):
//   channel = g % channels                 (fine interleave: sequential
//   bank    = (g / channels) % banks        streams engage all channels)
//   column  = (g / channels / banks) % columns_per_row
//   row     = g / channels / banks / columns_per_row
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "memsim/channel.h"
#include "memsim/dram_config.h"
#include "memsim/types.h"

namespace topick::mem {

class Hbm {
 public:
  explicit Hbm(const DramConfig& config = DramConfig{});

  int channel_of(std::uint64_t addr) const;
  LocalAddr local_of(std::uint64_t addr) const;

  bool can_accept(std::uint64_t addr) const;
  // Enqueues one transaction-granule read. Returns false (and drops nothing)
  // when the target channel queue is full; the refusal is counted in that
  // channel's DramStats::queue_full_stalls.
  bool try_enqueue(const MemRequest& request);

  // Advances one DRAM clock.
  void tick();

  // Responses completed since the last drain (any order across channels).
  std::vector<MemResponse> drain_responses();

  std::uint64_t cycle() const { return cycle_; }
  // Transactions queued or in flight inside the DRAM. Responses already
  // completed but not yet drained are the caller's to collect and do not
  // count as pending work.
  std::size_t pending() const;
  bool idle() const { return pending() == 0; }

  DramStats stats() const;           // aggregated over channels
  double energy_pj() const;          // from the aggregated stats
  const DramConfig& config() const { return config_; }

  // Per-channel visibility for the observability layer: channel occupancy
  // counters (queued + in-flight transactions) and per-channel DramStats go
  // into cycle-domain trace tracks and the metrics snapshot.
  std::size_t channel_count() const { return channels_.size(); }
  const Channel& channel(std::size_t c) const { return channels_[c]; }

  // Fault injection: degrade one channel (see ChannelFault). Out-of-range
  // channel indices are ignored so a fault plan written for a wider stack
  // degrades the channels that exist. nullptr clears the fault.
  void set_channel_fault(std::size_t c, const ChannelFault* fault) {
    if (c < channels_.size()) channels_[c].set_fault(fault);
  }

  // Transaction tracing (off by default; costs memory proportional to the
  // request count). Entries appear in command-commit order per channel.
  void enable_trace(bool on) { trace_enabled_ = on; }
  const std::vector<TraceEntry>& trace() const { return trace_; }
  // Renders the trace as "cycle,channel,addr,hit" CSV lines.
  std::string trace_csv() const;

 private:
  DramConfig config_;
  std::vector<Channel> channels_;
  std::vector<MemResponse> responses_;
  std::uint64_t cycle_ = 0;
  bool trace_enabled_ = false;
  std::vector<TraceEntry> trace_;
};

}  // namespace topick::mem
