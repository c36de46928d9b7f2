// PE-lane state for the cycle-level model (Fig. 7).
//
// Each lane owns a 64-wide multiplier/adder tree (one 4-bit chunk-dot per
// cycle per 32 B granule), a scoreboard for tokens awaiting downstream
// chunks, a ready FIFO fed by the DRAM response router, and an outgoing
// request queue. The engine advances every lane one core cycle at a time.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "accel/scoreboard.h"
#include "memsim/types.h"

namespace topick::accel {

// A fully assembled K chunk (all granules arrived) ready for the adder tree.
struct ReadyChunk {
  std::size_t token = 0;
  int chunk = 0;
};

struct LaneStats {
  std::uint64_t busy_cycles = 0;   // adder tree active
  std::uint64_t stall_cycles = 0;  // blocked on a full scoreboard
};

class PeLane {
 public:
  PeLane(int id, std::size_t scoreboard_capacity)
      : id_(id), scoreboard_(scoreboard_capacity) {}

  int id() const { return id_; }
  Scoreboard& scoreboard() { return scoreboard_; }
  const Scoreboard& scoreboard() const { return scoreboard_; }
  LaneStats& stats() { return stats_; }
  const LaneStats& stats() const { return stats_; }

  // --- granule assembly -----------------------------------------------
  // Counts arrived granules for (token, chunk); returns true when the chunk
  // is complete and has been pushed to the ready FIFO.
  bool deliver_granule(std::size_t token, int chunk, int granules_needed);

  bool has_ready() const { return !ready_.empty(); }
  ReadyChunk pop_ready();
  const ReadyChunk& peek_ready() const { return ready_.front(); }
  // Restores a popped chunk to the FIFO head (used when a stalled lane scans
  // past first chunks looking for a downstream chunk).
  void push_front_ready(const ReadyChunk& chunk) { ready_.push_front(chunk); }

  // --- compute occupancy ------------------------------------------------
  bool compute_free(std::uint64_t cycle) const {
    return cycle >= compute_free_at_;
  }
  void occupy_compute(std::uint64_t until) { compute_free_at_ = until; }

  // --- request queue ----------------------------------------------------
  void push_request(const mem::MemRequest& request) {
    outgoing_.push_back(request);
  }
  bool has_request() const { return !outgoing_.empty(); }
  const mem::MemRequest& front_request() const { return outgoing_.front(); }
  void pop_request() { outgoing_.pop_front(); }

  void reset();

 private:
  int id_;
  Scoreboard scoreboard_;
  LaneStats stats_;
  std::deque<ReadyChunk> ready_;
  // (token, chunk) -> granules received. Small linear map: lanes hold only a
  // handful of in-flight chunks at a time.
  struct Assembly {
    std::size_t token;
    int chunk;
    int received;
  };
  std::vector<Assembly> assembling_;
  std::deque<mem::MemRequest> outgoing_;
  std::uint64_t compute_free_at_ = 0;
};

}  // namespace topick::accel
