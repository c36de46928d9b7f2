// Per-bank state machine: precharged / activating / active(row), with the
// timing constraints that make row hits cheap and conflicts expensive.
#pragma once

#include <cstdint>

#include "memsim/dram_config.h"

namespace topick::mem {

class Bank {
 public:
  explicit Bank(const DramTiming& timing) : timing_(&timing) {}

  bool row_open(std::uint64_t row) const {
    return has_open_row_ && open_row_ == row;
  }

  // Earliest cycle a RD to `row` could issue, counting any needed PRE/ACT.
  // Does not mutate state.
  std::uint64_t earliest_read_cycle(std::uint64_t row,
                                    std::uint64_t now) const;

  // Commits a read of `row` at cycle `now` (caller checked feasibility);
  // returns the cycle the column command issues (after implicit PRE/ACT).
  std::uint64_t issue_read(std::uint64_t row, std::uint64_t now);

  // Refresh forces all banks precharged.
  void force_precharge(std::uint64_t ready_cycle);

 private:
  const DramTiming* timing_;
  bool has_open_row_ = false;
  std::uint64_t open_row_ = 0;
  std::uint64_t ready_cycle_ = 0;      // bank busy until this cycle
  std::uint64_t activated_cycle_ = 0;  // last ACT time (for tRAS)
};

}  // namespace topick::mem
