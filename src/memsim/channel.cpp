#include "memsim/channel.h"

#include <algorithm>

#include "common/require.h"

namespace topick::mem {

Channel::Channel(const DramConfig& config)
    : config_(&config),
      queue_limit_(static_cast<std::size_t>(config.queue_depth)),
      next_refresh_(static_cast<std::uint64_t>(config.timing.t_refi)) {
  banks_.reserve(static_cast<std::size_t>(config.banks_per_channel));
  for (int b = 0; b < config.banks_per_channel; ++b) {
    banks_.emplace_back(config.timing);
  }
}

bool Channel::try_enqueue(const MemRequest& request, const LocalAddr& local) {
  if (queue_.size() >= queue_limit_) {
    ++stats_.queue_full_stalls;
    return false;
  }
  require(local.bank < banks_.size(), "Channel: bank out of range");
  queue_.push_back(QueuedRequest{request, local});
  return true;
}

void Channel::maybe_refresh(std::uint64_t now) {
  if (!config_->enable_refresh) return;
  if (now < next_refresh_) return;
  refresh_until_ = now + static_cast<std::uint64_t>(config_->timing.t_rfc);
  next_refresh_ += static_cast<std::uint64_t>(config_->timing.t_refi);
  for (auto& bank : banks_) bank.force_precharge(refresh_until_);
  ++stats_.refreshes;
}

std::size_t Channel::pick_request(std::uint64_t now) const {
  // First pass: oldest row hit whose bank can take the column command now.
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const auto& qr = queue_[i];
    const auto& bank = banks_[qr.local.bank];
    if (bank.row_open(qr.local.row) &&
        bank.earliest_read_cycle(qr.local.row, now) == now) {
      return i;
    }
  }
  // Second pass: the oldest request (FCFS) regardless of row state.
  return 0;
}

void Channel::tick(std::uint64_t now, std::vector<MemResponse>& done,
                   std::vector<TraceEntry>* trace) {
  maybe_refresh(now);

  // Retire finished transfers. Bursts finish in commit order (see the
  // require at commit), so they leave from the front.
  while (!in_flight_.empty() && in_flight_.front().done_cycle <= now) {
    done.push_back(MemResponse{in_flight_.front().id, now});
    in_flight_.pop_front();
  }

  if (now < refresh_until_) return;  // channel busy refreshing
  // Injected stall window: no new command issues, in-flight bursts drained
  // above. Counted only while work is actually blocked.
  if (fault_ != nullptr && fault_->stalled(now)) {
    if (!queue_.empty()) ++stats_.fault_stall_cycles;
    return;
  }
  if (queue_.empty()) return;

  const std::size_t pick = pick_request(now);

  // Commit the chosen request: the bank walks through its PRE/ACT/RD
  // sequence (reserved via issue_read), the data burst starts after CAS
  // latency once the shared data bus frees up. One commit per clock models
  // the command-bus bandwidth.
  auto& qr = queue_[pick];
  auto& bank = banks_[qr.local.bank];
  const bool was_hit = bank.row_open(qr.local.row);
  const std::uint64_t col_cycle = bank.issue_read(qr.local.row, now);
  // A degraded channel stretches every burst (reduced data-bus throughput).
  const std::uint64_t burst_cycles =
      fault_ != nullptr
          ? fault_->burst_cycles(config_->timing.t_burst)
          : static_cast<std::uint64_t>(config_->timing.t_burst);
  const std::uint64_t burst_start =
      std::max(col_cycle + static_cast<std::uint64_t>(config_->timing.t_cl),
               data_bus_free_);
  const std::uint64_t done_cycle = burst_start + burst_cycles;
  // The data bus serializes bursts, so each one finishes strictly after the
  // previous commit's; tick() retires from the front on that basis.
  require(in_flight_.empty() || done_cycle > in_flight_.back().done_cycle,
          "Channel: bursts must finish in commit order");
  data_bus_free_ = done_cycle;

  if (trace != nullptr) {
    trace->push_back(TraceEntry{now, qr.request.addr, 0, was_hit});
  }
  ++stats_.requests;
  stats_.bytes_read += static_cast<std::uint64_t>(config_->transaction_bytes);
  stats_.data_bus_busy_cycles += burst_cycles;
  if (was_hit) {
    ++stats_.row_hits;
  } else {
    ++stats_.row_misses;
    ++stats_.activates;
  }

  in_flight_.push_back(InFlight{qr.request.id, done_cycle});
  queue_.erase(queue_.begin() + static_cast<long>(pick));
}

}  // namespace topick::mem
