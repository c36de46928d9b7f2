#include "accel/kv_layout.h"

#include <algorithm>

#include "common/require.h"
#include "fixedpoint/chunks.h"

namespace topick::accel {

KvLayout::KvLayout(const AccelConfig& config, std::uint64_t base_addr,
                   std::size_t num_tokens, int head_dim)
    : base_(base_addr),
      num_tokens_(num_tokens),
      granule_bytes_(config.dram.transaction_bytes),
      granules_per_chunk_(config.granules_per_chunk(head_dim)),
      granules_per_value_(config.granules_per_value(head_dim)),
      num_chunks_(config.quant.num_chunks()),
      channels_(config.dram.channels),
      banks_(config.dram.banks_per_channel),
      columns_per_row_(config.dram.columns_per_row()) {
  require(num_tokens > 0, "KvLayout: need at least one token");
  require(base_addr % static_cast<std::uint64_t>(granule_bytes_) == 0,
          "KvLayout: base address must be granule-aligned");
  // The host layout charges one nibble row per K chunk, which is what the
  // host reads only when every chunk lies inside one plane.
  if (config.host_resident_layout) {
    const fx::KeyPlaneLayout planes(config.quant);
    for (int b = 0; b < num_chunks_; ++b) {
      require(planes.chunk(b).size() == 1,
              "KvLayout: host_resident_layout needs every K chunk inside one "
              "nibble plane");
    }
  }
  // Only the K planes interleave in time, so only they split the banks; V
  // streams alone in step 1 and gets every bank (linear mapping above the
  // K region).
  banks_per_plane_ = std::max(1, banks_ / num_chunks_);
}

std::uint64_t KvLayout::plane_addr(int plane, std::uint64_t index) const {
  // Decompose the within-plane index into (channel, bank-in-group, column,
  // row) and reassemble a global granule number whose bank field carries
  // the plane's bank group. Must be the inverse shape of Hbm::local_of:
  //   channel = g % channels; g' = g / channels;
  //   bank = g' % banks; column = (g' / banks) % columns; row = rest.
  const auto channels = static_cast<std::uint64_t>(channels_);
  const auto banks = static_cast<std::uint64_t>(banks_);
  const auto bpp = static_cast<std::uint64_t>(banks_per_plane_);

  const std::uint64_t channel = index % channels;
  const std::uint64_t j = index / channels;
  const std::uint64_t bank_in_group = j % bpp;
  const std::uint64_t k = j / bpp;
  const std::uint64_t bank =
      (static_cast<std::uint64_t>(plane) * bpp + bank_in_group) % banks;

  const std::uint64_t g_prime = k * banks + bank;
  const std::uint64_t g = g_prime * channels + channel;
  return base_ + g * static_cast<std::uint64_t>(granule_bytes_);
}

std::uint64_t KvLayout::key_chunk_addr(std::size_t token, int chunk,
                                       int granule) const {
  require(token < num_tokens_, "KvLayout: token out of range");
  require(chunk >= 0 && chunk < num_chunks_, "KvLayout: chunk out of range");
  require(granule >= 0 && granule < granules_per_chunk_,
          "KvLayout: granule out of range");
  const std::uint64_t index =
      token * static_cast<std::uint64_t>(granules_per_chunk_) +
      static_cast<std::uint64_t>(granule);
  return plane_addr(chunk, index);
}

std::uint64_t KvLayout::value_addr(std::size_t token, int granule) const {
  require(token < num_tokens_, "KvLayout: token out of range");
  require(granule >= 0 && granule < granules_per_value_,
          "KvLayout: granule out of range");
  // Linear mapping in the address range above the (sparsely stretched) K
  // planes: V streaming uses all channels and banks.
  const auto channels = static_cast<std::uint64_t>(channels_);
  const auto banks = static_cast<std::uint64_t>(banks_);
  const auto bpp = static_cast<std::uint64_t>(banks_per_plane_);
  const std::uint64_t plane_granules =
      num_tokens_ * static_cast<std::uint64_t>(granules_per_chunk_);
  const std::uint64_t k_rows_per_bank =
      (plane_granules + channels * bpp - 1) / (channels * bpp);
  const std::uint64_t k_span_granules = k_rows_per_bank * banks * channels;

  const std::uint64_t index =
      k_span_granules +
      token * static_cast<std::uint64_t>(granules_per_value_) +
      static_cast<std::uint64_t>(granule);
  return base_ + index * static_cast<std::uint64_t>(granule_bytes_);
}

std::uint64_t KvLayout::region_bytes() const {
  const std::uint64_t granules =
      num_tokens_ * (static_cast<std::uint64_t>(granules_per_chunk_) *
                         static_cast<std::uint64_t>(num_chunks_) +
                     static_cast<std::uint64_t>(granules_per_value_));
  return granules * static_cast<std::uint64_t>(granule_bytes_);
}

}  // namespace topick::accel
