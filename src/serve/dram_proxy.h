// DramProxy: the serve engine's DRAM latency proxy. Each engine step's K/V
// traffic (prefill writes, decode reads and writes) replays through the
// memsim HBM model under contention, so the paper's gain — fewer bytes moved
// on demand (§3.2) — shows up as DRAM cycles per request. The proxy owns the
// model, the address scheme that places every request's stream, and the
// channel faults of the fault plan; the engine turns finish cycles into
// metrics and request stamps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault_plan.h"
#include "memsim/hbm.h"
#include "obs/trace.h"

namespace topick::serve {

// DRAM address layout for the latency proxy: each request streams within its
// own 64 MiB region so concurrent requests hit different rows/banks like
// distinct cache slabs would. Offsets wrap within the region — a long
// request must never walk past its region into a neighbour's address range.
namespace dram_layout {

inline constexpr std::uint64_t kRegionBytes = 1ull << 26;

constexpr std::uint64_t region_base(std::size_t request) {
  return (static_cast<std::uint64_t>(request) + 1) * kRegionBytes;
}

// Byte address of the offset_granules-th transaction of `request`'s stream.
constexpr std::uint64_t stream_addr(std::size_t request,
                                    std::uint64_t offset_granules,
                                    std::uint64_t granule_bytes) {
  const std::uint64_t granules_per_region = kRegionBytes / granule_bytes;
  return region_base(request) +
         (offset_granules % granules_per_region) * granule_bytes;
}

}  // namespace dram_layout

// One request's share of a step's DRAM traffic. `decode` is the caller's
// tag (a decode step's traffic, not a prefill-only chunk); the replay
// ignores it.
struct DramTransfer {
  std::size_t request = 0;
  bool decode = false;
  std::uint64_t bits = 0;  // K/V bits this transfer moves
};

class DramProxy {
 public:
  // Wires the plan's degraded channels into the model. The plan owns the
  // ChannelFault storage and must outlive the proxy; channels the model
  // does not have are ignored.
  DramProxy(const mem::DramConfig& config, const fault::FaultPlan* faults);

  // Opens the stream of the next request index at offset 0 of its region.
  void add_request() { offsets_.push_back(0); }

  // Replays one step's transfers together: every cycle, each transfer with
  // granules left enqueues its next one (transfer order, as the channel
  // queues admit), and the model ticks until all have drained. Returns each
  // transfer's finish cycle, index-aligned with `xfers` and valid until the
  // next replay. With a recorder, the window is traced on `track`: channel
  // occupancy every 64 cycles and one "replay" span, both in DRAM cycles.
  const std::vector<std::uint64_t>& replay(std::span<const DramTransfer> xfers,
                                           obs::TraceRecorder* trace,
                                           std::size_t track);

  std::uint64_t cycle() const { return hbm_.cycle(); }
  mem::DramStats stats() const { return hbm_.stats(); }

 private:
  mem::Hbm hbm_;
  std::vector<std::uint64_t> offsets_;    // per request, next stream granule
  std::vector<std::uint64_t> remaining_;  // replay scratch, per transfer
  std::vector<std::uint64_t> finish_;     // replay result, per transfer
};

}  // namespace topick::serve
