#include "serve/dram_proxy.h"

#include <algorithm>

#include "common/require.h"

namespace topick::serve {

DramProxy::DramProxy(const mem::DramConfig& config,
                     const fault::FaultPlan* faults)
    : hbm_(config) {
  if (faults == nullptr) return;
  for (const auto& spec : faults->channels) {
    if (spec.channel >= 0) {
      hbm_.set_channel_fault(static_cast<std::size_t>(spec.channel),
                             &spec.fault);
    }
  }
}

const std::vector<std::uint64_t>& DramProxy::replay(
    std::span<const DramTransfer> xfers, obs::TraceRecorder* trace,
    std::size_t track) {
  const std::uint64_t start = hbm_.cycle();
  const auto granule =
      static_cast<std::uint64_t>(hbm_.config().transaction_bytes);

  remaining_.resize(xfers.size());
  finish_.assign(xfers.size(), start);
  std::uint64_t total_granules = 0;
  for (std::size_t i = 0; i < xfers.size(); ++i) {
    const std::uint64_t bytes = (xfers[i].bits + 7) / 8;
    remaining_[i] = (bytes + granule - 1) / granule;
    total_granules += remaining_[i];
  }

  std::uint64_t total_remaining = total_granules;

  // Per-channel occupancy sampling cadence (cycle-domain counter tracks).
  // A replay window is typically a few thousand cycles; 64-cycle sampling
  // keeps the queue/in-flight shape visible without bloating the trace.
  constexpr std::uint64_t kChannelSampleCycles = 64;
  static constexpr const char* kChannelKeys[8] = {
      "ch0", "ch1", "ch2", "ch3", "ch4", "ch5", "ch6", "ch7"};

  while (total_remaining > 0 || hbm_.pending() > 0) {
    for (std::size_t i = 0; i < xfers.size(); ++i) {
      if (remaining_[i] == 0) continue;
      const std::size_t request = xfers[i].request;
      mem::MemRequest mreq;
      mreq.addr = dram_layout::stream_addr(request, offsets_[request], granule);
      require(mreq.addr >= dram_layout::region_base(request) &&
                  mreq.addr < dram_layout::region_base(request) +
                                  dram_layout::kRegionBytes,
              "DramProxy: stream address escaped its request region");
      mreq.id = i;
      if (hbm_.try_enqueue(mreq)) {
        --remaining_[i];
        --total_remaining;
        ++offsets_[request];
      }
    }
    for (const auto& resp : hbm_.tick()) {
      finish_[resp.id] = std::max(finish_[resp.id], resp.ready_cycle);
    }
    if (trace != nullptr &&
        (hbm_.cycle() - start) % kChannelSampleCycles == 1) {
      // Sampled at cycle 1 of the window (so even short replays get one
      // loaded-state sample) and every kChannelSampleCycles after.
      obs::TraceEvent e;
      e.name = "channel_pending";
      e.cat = "memsim";
      e.phase = 'C';
      e.domain = obs::TraceDomain::memsim;
      e.ts = hbm_.cycle();
      const std::size_t n_ch =
          std::min<std::size_t>(hbm_.channel_count(),
                                obs::TraceEvent::kMaxArgs);
      for (std::size_t c = 0; c < n_ch; ++c) {
        e.arg(kChannelKeys[c],
              static_cast<double>(hbm_.channel(c).pending()));
      }
      trace->record(track, e);
    }
  }

  // Cycle-domain replay window (pid "memsim"): ts/dur are DRAM cycles.
  if (trace != nullptr) {
    obs::TraceEvent e;
    e.name = "replay";
    e.cat = "memsim";
    e.phase = 'X';
    e.domain = obs::TraceDomain::memsim;
    e.ts = start;
    e.dur = hbm_.cycle() - start;
    e.arg("transfers", static_cast<double>(xfers.size()));
    e.arg("granules", static_cast<double>(total_granules));
    trace->record(track, e);
  }
  return finish_;
}

}  // namespace topick::serve
