#include "memsim/hbm.h"

#include "common/require.h"

namespace topick::mem {

Hbm::Hbm(const DramConfig& config) : config_(config) {
  require(config.channels > 0 && config.banks_per_channel > 0,
          "DramConfig: channels/banks must be positive");
  // Each of these would otherwise divide by zero below, leave every channel
  // queue permanently full, or keep every channel refreshing so nothing
  // ever issues.
  require(config.transaction_bytes > 0,
          "DramConfig: transaction_bytes must be positive");
  require(config.queue_depth > 0, "DramConfig: queue_depth must be positive");
  require(!config.enable_refresh ||
              (config.timing.t_refi > 0 && config.timing.t_rfc >= 0 &&
               config.timing.t_rfc < config.timing.t_refi),
          "DramConfig: refresh needs 0 < t_refi and 0 <= t_rfc < t_refi");
  require(config.row_bytes % config.transaction_bytes == 0,
          "DramConfig: row_bytes must be a multiple of the granule");
  channels_.reserve(static_cast<std::size_t>(config.channels));
  for (int c = 0; c < config.channels; ++c) channels_.emplace_back(config_);
}

int Hbm::channel_of(std::uint64_t addr) const {
  const std::uint64_t granule = addr / config_.transaction_bytes;
  return static_cast<int>(granule % static_cast<std::uint64_t>(config_.channels));
}

LocalAddr Hbm::local_of(std::uint64_t addr) const {
  const std::uint64_t granule = addr / config_.transaction_bytes;
  std::uint64_t g = granule / static_cast<std::uint64_t>(config_.channels);
  LocalAddr local;
  local.bank = g % static_cast<std::uint64_t>(config_.banks_per_channel);
  g /= static_cast<std::uint64_t>(config_.banks_per_channel);
  local.column = g % static_cast<std::uint64_t>(config_.columns_per_row());
  local.row = g / static_cast<std::uint64_t>(config_.columns_per_row());
  return local;
}

bool Hbm::can_accept(std::uint64_t addr) const {
  return channels_[static_cast<std::size_t>(channel_of(addr))].can_accept();
}

bool Hbm::try_enqueue(const MemRequest& request) {
  return channels_[static_cast<std::size_t>(channel_of(request.addr))]
      .try_enqueue(request, local_of(request.addr));
}

void Hbm::tick() {
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    const std::size_t before = trace_.size();
    channels_[c].tick(cycle_, responses_, trace_enabled_ ? &trace_ : nullptr);
    for (std::size_t i = before; i < trace_.size(); ++i) {
      trace_[i].channel = static_cast<int>(c);
    }
  }
  ++cycle_;
}

std::string Hbm::trace_csv() const {
  std::string out = "cycle,channel,addr,row_hit\n";
  for (const auto& entry : trace_) {
    out += std::to_string(entry.cycle) + "," + std::to_string(entry.channel) +
           "," + std::to_string(entry.addr) + "," +
           (entry.row_hit ? "1" : "0") + "\n";
  }
  return out;
}

std::vector<MemResponse> Hbm::drain_responses() {
  std::vector<MemResponse> out;
  out.swap(responses_);
  return out;
}

std::size_t Hbm::pending() const {
  std::size_t total = 0;
  for (const auto& channel : channels_) total += channel.pending();
  return total;
}

DramStats Hbm::stats() const {
  DramStats total;
  for (const auto& channel : channels_) {
    const auto& s = channel.stats();
    total.requests += s.requests;
    total.row_hits += s.row_hits;
    total.row_misses += s.row_misses;
    total.activates += s.activates;
    total.refreshes += s.refreshes;
    total.bytes_read += s.bytes_read;
    total.data_bus_busy_cycles += s.data_bus_busy_cycles;
    total.queue_full_stalls += s.queue_full_stalls;
    total.fault_stall_cycles += s.fault_stall_cycles;
  }
  return total;
}

double Hbm::energy_pj() const {
  const DramStats s = stats();
  return static_cast<double>(s.activates) * config_.energy.activate_pj +
         static_cast<double>(s.bytes_read) * 8.0 *
             config_.energy.read_pj_per_bit +
         static_cast<double>(s.refreshes) * config_.energy.refresh_pj;
}

}  // namespace topick::mem
