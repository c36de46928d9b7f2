// DRAM address layout of one head's KV cache region.
//
// Data is organized in "planes": one per K chunk index (all tokens' chunk 0,
// then chunk 1, ...) plus one for V. Plane separation is what lets a prune
// decision skip whole planes of a token; the first-chunk plane is streamed
// "in sequence" (paper §3.2 step 1) while downstream chunks arrive on
// demand.
//
// This is the same chunk-planar shape the host cache is resident in
// (core/quantized_kv_cache.h: one contiguous offset-binary nibble plane per
// 4 key bits, token-major, plus flat int16 value rows — the only value
// copy). At the default 4-bit chunks the key planes coincide: the device
// packs chunk b at chunk_bits and the host stores nibble plane b, both
// head_dim / 2 bytes per token. The values differ in width: the device
// packs them at total_bits, the host stores int16.
// AccelConfig::host_resident_layout switches the granule math to the host
// widths so the cycle model charges exactly the contiguity the host walks
// (the constructor throws on a format with a chunk spanning two nibble
// planes, which the host reads as two rows); the plane → bank-group mapping
// is shared by both.
//
// Bank-group mapping: naively stacking planes puts every plane in the same
// rows of the same banks, so the out-of-order mixture of chunk-0 and
// chunk-1 requests ping-pongs each bank's row buffer (measured: row-hit
// rate 0.97 -> 0.56 and ~25% cycle loss). Instead the granule index is
// constructed so the bank field *encodes the plane*: each plane owns a
// disjoint group of banks in every channel, keeps its own rows open, and
// streams at full row locality regardless of how the planes interleave in
// time. Channels still interleave at granule granularity for bandwidth.
#pragma once

#include <cstdint>

#include "accel/hw_config.h"

namespace topick::accel {

class KvLayout {
 public:
  KvLayout(const AccelConfig& config, std::uint64_t base_addr,
           std::size_t num_tokens, int head_dim);

  // Address of granule `g` of chunk `b` of token `t`'s key.
  std::uint64_t key_chunk_addr(std::size_t token, int chunk, int granule) const;
  // Address of granule `g` of token `t`'s value vector (the V plane).
  std::uint64_t value_addr(std::size_t token, int granule) const;

  int granules_per_chunk() const { return granules_per_chunk_; }
  int granules_per_value() const { return granules_per_value_; }
  int num_chunks() const { return num_chunks_; }
  std::size_t num_tokens() const { return num_tokens_; }
  int planes() const { return num_chunks_ + 1; }
  int banks_per_plane() const { return banks_per_plane_; }
  // Nominal data footprint in bytes (sum of all planes' granules).
  std::uint64_t region_bytes() const;

 private:
  // Maps (plane, index-within-plane) to a byte address.
  std::uint64_t plane_addr(int plane, std::uint64_t index) const;

  std::uint64_t base_;
  std::size_t num_tokens_;
  int granule_bytes_;
  int granules_per_chunk_;
  int granules_per_value_;
  int num_chunks_;
  int channels_;
  int banks_;
  int columns_per_row_;
  int banks_per_plane_;
};

}  // namespace topick::accel
