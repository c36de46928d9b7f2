#include "fixedpoint/chunks.h"

#include <algorithm>

#include "common/require.h"

namespace topick::fx {

namespace {

// Bit position (from LSB) where chunk `chunk_idx` starts, and its width.
struct ChunkSpan {
  int low_bit;
  int width;
};

ChunkSpan chunk_span(int chunk_idx, const QuantParams& params) {
  require(chunk_idx >= 0 && chunk_idx < params.num_chunks(),
          "chunk index out of range");
  const int consumed = chunk_idx * params.chunk_bits;
  const int width = std::min(params.chunk_bits, params.total_bits - consumed);
  const int low_bit = params.total_bits - consumed - width;
  return {low_bit, width};
}

}  // namespace

std::uint16_t chunk_bits_of(std::int16_t value, int chunk_idx,
                            const QuantParams& params) {
  const auto span = chunk_span(chunk_idx, params);
  const auto raw = static_cast<std::uint16_t>(value) &
                   static_cast<std::uint16_t>((1u << params.total_bits) - 1u);
  return static_cast<std::uint16_t>((raw >> span.low_bit) &
                                    ((1u << span.width) - 1u));
}

int unknown_bits(int chunks_known, const QuantParams& params) {
  require(chunks_known >= 0 && chunks_known <= params.num_chunks(),
          "chunks_known out of range");
  const int known = std::min(chunks_known * params.chunk_bits, params.total_bits);
  return params.total_bits - known;
}

std::int32_t residual_weight(int chunks_known, const QuantParams& params) {
  return (1 << unknown_bits(chunks_known, params)) - 1;
}

std::int16_t partial_value(std::int16_t value, int chunks_known,
                           const QuantParams& params) {
  // With no chunks known the sign bit is unknown too, so there is no "known
  // prefix" — the partial is zero and the level-0 bracket spans the full
  // representable range (see MarginTable). Masking the sign-extended int16
  // here would leak copies of the sign bit into the partial.
  if (chunks_known == 0) return 0;
  const int unknown = unknown_bits(chunks_known, params);
  if (unknown == 0) return value;
  const auto mask = static_cast<std::int16_t>(~((1 << unknown) - 1));
  return static_cast<std::int16_t>(value & mask);
}

std::int16_t assemble(const std::vector<std::uint16_t>& chunks,
                      const QuantParams& params) {
  require(static_cast<int>(chunks.size()) == params.num_chunks(),
          "assemble: wrong number of chunks");
  std::uint16_t raw = 0;
  for (int b = 0; b < params.num_chunks(); ++b) {
    const auto span = chunk_span(b, params);
    raw = static_cast<std::uint16_t>(
        raw | ((chunks[static_cast<std::size_t>(b)] & ((1u << span.width) - 1u))
               << span.low_bit));
  }
  // Sign-extend from total_bits to 16.
  const std::uint16_t sign_bit = 1u << (params.total_bits - 1);
  if (raw & sign_bit) {
    raw = static_cast<std::uint16_t>(raw | ~((1u << params.total_bits) - 1u));
  }
  return static_cast<std::int16_t>(raw);
}

std::int64_t partial_dot_i64(QuantizedRowView q, QuantizedRowView k,
                             int chunks_known) {
  require(q.values.size() == k.values.size(), "partial_dot: length mismatch");
  std::int64_t acc = 0;
  for (std::size_t d = 0; d < q.values.size(); ++d) {
    acc += static_cast<std::int64_t>(q.values[d]) *
           partial_value(k.values[d], chunks_known, k.params);
  }
  return acc;
}

PlaneLayout::PlaneLayout(const QuantParams& params) {
  require(params.total_bits >= 2 && params.total_bits <= 15,
          "PlaneLayout: total_bits must be in [2, 15] for int16 storage");
  require(params.chunk_bits >= 1 && params.chunk_bits <= params.total_bits,
          "PlaneLayout: chunk_bits must be in [1, total_bits]");
  planes_ = planes_for(params.total_bits);
  offset_ = std::int32_t{1} << (params.total_bits - 1);
  const int num_chunks = params.num_chunks();
  std::size_t n = 0;
  for (int b = 0; b < num_chunks; ++b) {
    chunk_begin_[static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(n);
    const auto span = chunk_span(b, params);
    const int lo = span.low_bit;
    const int hi = span.low_bit + span.width;  // exclusive
    for (int j = 0; j < planes_; ++j) {
      const int plane_lo = kPlaneBits * (planes_ - 1 - j);
      const int from = std::max(lo, plane_lo);
      const int to = std::min(hi, plane_lo + kPlaneBits);
      if (from >= to) continue;
      const int mask = ((1 << (to - from)) - 1) << (from - plane_lo);
      segments_[n++] = {static_cast<std::uint8_t>(j),
                        static_cast<std::uint8_t>(mask),
                        static_cast<std::uint8_t>(plane_lo)};
    }
  }
  chunk_begin_[static_cast<std::size_t>(num_chunks)] =
      static_cast<std::uint8_t>(n);
}

}  // namespace topick::fx
