// Internal registry plumbing: per-ISA table getters, one per translation
// unit in src/fixedpoint/kernels_*.cpp. Each TU is compiled with its own
// arch flags (see CMakeLists.txt) and is self-guarded on the matching
// predefined macros, so a TU whose flags the toolchain rejected compiles to
// an empty object and its getter is never referenced: dispatch.cpp includes
// a getter only when the configure step defined the corresponding
// TOPICK_HAVE_KERNELS_* macro (NEON gates on __ARM_NEON directly — it is
// baseline on aarch64). Nothing outside dispatch.cpp and the kernel TUs
// should include this header; the public surface is fixedpoint/dispatch.h.
#pragma once

#include "fixedpoint/chunks.h"
#include "fixedpoint/dispatch.h"

namespace topick::fx::detail {

// The scalar tail of a SIMD plane kernel: elements [i, n) of the row, with i
// even, so the tail starts on a byte boundary of every plane row.
inline bool pack_planes_tail(const std::int16_t* src, std::size_t i,
                             std::size_t n, int total_bits,
                             std::uint8_t* const* rows) {
  std::uint8_t* tail[4];  // total_bits <= 15: at most 4 planes
  for (int j = 0; j < PlaneLayout::planes_for(total_bits); ++j) {
    tail[j] = rows[j] + i / 2;
  }
  return pack_planes_i16_scalar(src + i, n - i, total_bits, tail);
}
inline void unpack_planes_tail(const std::uint8_t* const* rows, std::size_t i,
                               std::size_t n, int total_bits,
                               std::int16_t* out) {
  const std::uint8_t* tail[4];
  for (int j = 0; j < PlaneLayout::planes_for(total_bits); ++j) {
    tail[j] = rows[j] + i / 2;
  }
  unpack_planes_i16_scalar(tail, n - i, total_bits, out + i);
}

const KernelTable& scalar_kernels();  // always compiled (portable C++)
const KernelTable& sse41_kernels();   // TOPICK_HAVE_KERNELS_SSE41
const KernelTable& avx2_kernels();    // TOPICK_HAVE_KERNELS_AVX2
const KernelTable& avx512_kernels();  // TOPICK_HAVE_KERNELS_AVX512
const KernelTable& neon_kernels();    // __ARM_NEON

}  // namespace topick::fx::detail
