// MSB-first bit-chunk decomposition of two's-complement values (paper §3.1,
// Fig. 4(b)).
//
// A 12-bit value a11 a10 ... a0 is split into chunks of chunk_bits starting at
// the MSB, so chunk 0 carries the sign bit. After b chunks are known, the
// unknown low bits contribute a value in [0, residual_weight(b)] regardless of
// sign — the property the margin pairs are built on.
#pragma once

#include <cstdint>
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
// score accumulated by the PE lane after `chunks_known` chunks of K arrived.
std::int64_t partial_dot_i64(QuantizedRowView q, QuantizedRowView k,
                             int chunks_known);

// Incremental form: the contribution of chunk `chunk_idx` of K alone, i.e.
// partial_dot(b+1) - partial_dot(b). This mirrors the hardware, which
// multiplies the 12-bit Q against one 4-bit chunk per cycle and accumulates
// via the scoreboard.
std::int64_t chunk_dot_delta_i64(QuantizedRowView q, QuantizedRowView k,
                                 int chunk_idx);

}  // namespace topick::fx
