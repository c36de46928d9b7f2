// MSB-first bit-chunk decomposition of two's-complement values (paper §3.1,
// Fig. 4(b)).
//
// A 12-bit value a11 a10 ... a0 is split into chunks of chunk_bits starting at
// the MSB, so chunk 0 carries the sign bit. After b chunks are known, the
// unknown low bits contribute a value in [0, residual_weight(b)] regardless of
// sign — the property the margin pairs are built on.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "fixedpoint/quant.h"

namespace topick::fx {

// The raw bit pattern of chunk `chunk_idx` (0 = MSB chunk). For total_bits not
// divisible by chunk_bits the final chunk is the remaining low bits.
std::uint16_t chunk_bits_of(std::int16_t value, int chunk_idx,
                            const QuantParams& params);

// Number of low bits still unknown after `chunks_known` chunks.
int unknown_bits(int chunks_known, const QuantParams& params);

// Maximum value the unknown low bits can add: 2^unknown_bits - 1 (0 when all
// chunks are known).
std::int32_t residual_weight(int chunks_known, const QuantParams& params);

// The value with unknown low bits set to zero (the partial value k_known).
// Clearing low bits of the sign-extended representation implements this for
// both signs: e.g. -3 = 0xFFD with one 4-bit chunk unknown becomes -16, and
// -3 lies in [-16, -16 + 15].
std::int16_t partial_value(std::int16_t value, int chunks_known,
                           const QuantParams& params);

// Reassembles a value from its chunk bit patterns; inverse of chunk_bits_of.
std::int16_t assemble(const std::vector<std::uint16_t>& chunks,
                      const QuantParams& params);

// Partial dot product sum_d q_d * partial_value(k_d, chunks_known): the
// score accumulated after `chunks_known` chunks of K arrived, in plain two's
// complement — the oracle the nibble-plane walk below is tested against.
std::int64_t partial_dot_i64(QuantizedRowView q, QuantizedRowView k,
                             int chunks_known);

// ---- offset-binary nibble planes (the stored K/V layout) --------------------
//
// Every quantized head (QuantizedKv, core/quantized_kv_cache.h) stores a key
// or value x as the unsigned total_bits-wide integer u = x + 2^(total_bits-1),
// cut into 4-bit nibble planes, most significant first: plane j of
// P = ceil(total_bits / 4) holds bits [4(P-1-j), 4(P-j)) of u
// (fx::pack_planes_i16 and fx::unpack_planes_i16, fixedpoint/dispatch.h,
// convert int16 rows to planes and back). For keys, since
// partial_value(k, c) == (u & ~(2^unknown_bits(c) - 1)) - 2^(total_bits-1)
// for every c >= 1 (the derivation is in that header), chunk b's delta is
// sum_d q_d * (u_d & chunk b's bits), plus -2^(total_bits-1) * sum(q) once,
// and chunk b's bits are a masked slice of each nibble plane the chunk
// overlaps. PlaneLayout lists those slices for one (total_bits,
// chunk_bits) layout.
class PlaneLayout {
 public:
  static constexpr int kPlaneBits = 4;

  // One chunk's slice of one plane: the chunk's delta gains
  // sum_d q_d * (nibble_d & mask) * 2^shift, shift being the plane's low bit.
  struct Segment {
    std::uint8_t plane = 0;
    std::uint8_t mask = 0;
    std::uint8_t shift = 0;
  };

  PlaneLayout() : PlaneLayout(QuantParams{}) {}
  // Throws unless total_bits is in [2, 15] and chunk_bits in [1, total_bits]
  // — the int16 range quantize() enforces.
  explicit PlaneLayout(const QuantParams& params);

  int planes() const { return planes_; }
  // ceil(total_bits / 4): the planes of a total_bits-wide element.
  static constexpr int planes_for(int total_bits) {
    return (total_bits + kPlaneBits - 1) / kPlaneBits;
  }
  // Chunk b's slices, most significant plane first.
  std::span<const Segment> chunk(int b) const {
    return {segments_.data() + chunk_begin_[static_cast<std::size_t>(b)],
            segments_.data() + chunk_begin_[static_cast<std::size_t>(b) + 1]};
  }
  // 2^(total_bits-1): u - offset is the key.
  std::int32_t offset() const { return offset_; }

  // Bytes of one packed plane row of n elements: two nibbles per byte, the
  // even element in the low nibble, rows byte-aligned.
  static std::size_t row_bytes(std::size_t n) { return (n + 1) / 2; }

 private:
  // total_bits <= 15 bounds the planes at 4 and the chunks at 15; a plane
  // boundary splits at most one chunk, so a layout has at most 15 + 4 - 1
  // slices.
  static constexpr int kMaxChunks = 15;
  static constexpr int kMaxSegments = 18;

  int planes_ = 0;
  std::int32_t offset_ = 0;
  std::array<Segment, kMaxSegments> segments_{};
  std::array<std::uint8_t, kMaxChunks + 1> chunk_begin_{};
};

}  // namespace topick::fx
