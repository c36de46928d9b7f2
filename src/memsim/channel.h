// One HBM2 channel: request queue, FR-FCFS scheduling over banks, a shared
// data bus, and periodic refresh.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "memsim/bank.h"
#include "memsim/dram_config.h"
#include "memsim/types.h"

namespace topick::mem {

// Bank/row/column coordinates of a transaction within a channel.
struct LocalAddr {
  std::uint64_t bank = 0;
  std::uint64_t row = 0;
  std::uint64_t column = 0;
};

class Channel {
 public:
  explicit Channel(const DramConfig& config);

  bool can_accept() const { return queue_.size() < queue_limit_; }
  // Queues `request`, or returns false and counts the refusal in
  // stats().queue_full_stalls when the queue is full.
  bool try_enqueue(const MemRequest& request, const LocalAddr& local);

  // Advances one DRAM clock; completed transactions are appended to `done`.
  // When `trace` is non-null, committed commands are appended to it.
  void tick(std::uint64_t now, std::vector<MemResponse>& done,
            std::vector<TraceEntry>* trace = nullptr);

  std::size_t pending() const { return queue_.size() + in_flight_.size(); }
  const DramStats& stats() const { return stats_; }

  // Fault injection (src/fault/): a non-null fault degrades this channel —
  // stretched bursts and/or periodic issue-stall windows, handled inside
  // tick(). The pointee must outlive the channel's use; nullptr (the
  // default) restores bit-identical healthy behavior.
  void set_fault(const ChannelFault* fault) { fault_ = fault; }
  const ChannelFault* fault() const { return fault_; }

 private:
  struct QueuedRequest {
    MemRequest request;
    LocalAddr local;
  };
  struct InFlight {
    MemRequest request;
    std::uint64_t done_cycle = 0;
  };

  void maybe_refresh(std::uint64_t now);
  // FR-FCFS: first ready row-hit wins, else the oldest issuable request.
  std::size_t pick_request(std::uint64_t now, bool& found);

  const DramConfig* config_;
  std::size_t queue_limit_;
  std::vector<Bank> banks_;
  std::deque<QueuedRequest> queue_;
  std::vector<InFlight> in_flight_;
  std::uint64_t data_bus_free_ = 0;   // next cycle the data bus is free
  std::uint64_t next_refresh_ = 0;
  std::uint64_t refresh_until_ = 0;
  const ChannelFault* fault_ = nullptr;
  DramStats stats_;
};

}  // namespace topick::mem
