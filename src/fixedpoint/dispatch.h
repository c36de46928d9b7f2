// Runtime ISA dispatch for the decode hot kernels (ROADMAP item 2).
//
// Selecting the SIMD kernels at *compile* time (`-march=native`) would tie a
// binary to its build machine and make cross-host BENCH_hotpath.json numbers
// incomparable. This registry
// adopts the rapidyenc pattern instead: every ISA variant is compiled into
// the same binary from its own translation unit (built with per-file arch
// flags, so the base build stays portable), a one-time CPU probe fills a
// function-pointer table at startup, and every call site reaches the fastest
// variant the running machine supports through that table.
//
// The contract from PR 5 is unchanged and now enforced *per variant*: every
// entry in every table is element-exact against the scalar reference, so the
// selected ISA can never change a quantization, score, pruning decision, or
// output bit — only speed. tests/dispatch_test.cpp loops the equivalence
// suite over every compiled-in variant and runs the serve determinism suite
// at a forced non-default level.
//
// Selection order: the probe picks the highest compiled-in level the CPU
// supports. `TOPICK_FORCE_ISA=<scalar|sse41|avx2|avx512|neon>` overrides it
// (for CI matrices and debugging); a forced level that is not compiled in or
// not supported by the CPU is ignored with a stderr note rather than
// crashing on an illegal instruction. `force_isa()` is the same override as
// a test hook.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

#include "fixedpoint/quant.h"

namespace topick::fx {

// Ascending preference within an architecture family. x86 probes never
// report neon and vice versa, so the cross-family ordering is irrelevant.
enum class IsaLevel : int {
  scalar = 0,
  sse41 = 1,
  avx2 = 2,
  avx512 = 3,
  neon = 4,
};

const char* isa_name(IsaLevel level);

// Precomputed fixed-point representation of a positive scale ratio
// old_scale / new_scale — mantissa / 2^shift, mantissa normalized into
// [2^30, 2^31] so the relative representation error is <= 2^-31. The whole
// float divide + frexp happens ONCE per ratio (make_fixed_ratio); the
// per-element op is then a single integer multiply,
// add, shift — no float touches the row. Degenerate ratios collapse to safe
// grids: a ratio too small for any int16 to survive becomes {0, 0} (all
// zeros), a ratio >= 2^31 saturates the mantissa (every nonzero element
// clamps to qmax/qmin downstream, same result as the exact ratio).
struct FixedRatio {
  std::uint32_t mantissa = 0;
  int shift = 0;  // in [0, 62]: (mag * mantissa + half) never overflows int64
};

FixedRatio make_fixed_ratio(float old_scale, float new_scale);

// One ISA variant of the six hot kernels. All entries are element-exact
// against the scalar references below (the registry's invariant).
struct KernelTable {
  IsaLevel level = IsaLevel::scalar;
  const char* name = "scalar";
  std::int64_t (*row_dot_i64)(const std::int16_t* a, const std::int16_t* b,
                              std::size_t n) = nullptr;
  void (*weighted_value_accum)(float* out, const std::int16_t* v, double p,
                               double v_scale, std::size_t n) = nullptr;
  void (*quantize_row_i16)(const float* xs, std::size_t n,
                           const QuantParams& params,
                           std::int16_t* out) = nullptr;
  float (*row_amax)(const float* xs, std::size_t n) = nullptr;
  void (*rescale_row_i16)(const std::int16_t* src, std::size_t n,
                          FixedRatio ratio, std::int32_t qmin,
                          std::int32_t qmax, std::int16_t* out) = nullptr;
  std::int64_t (*nibble_dot_i64)(const std::int16_t* q,
                                 const std::uint8_t* nibbles,
                                 std::uint8_t mask, std::size_t n) = nullptr;
};

// Scalar reference kernels (always compiled, portable TU — the equivalence
// oracle every variant is tested against). quantize_row_i16_scalar is
// declared in quant.h alongside its element-math documentation.
std::int64_t row_dot_i64_scalar(const std::int16_t* a, const std::int16_t* b,
                                std::size_t n);
void weighted_value_accum_scalar(float* out, const std::int16_t* v, double p,
                                 double v_scale, std::size_t n);
// max over |x|; NaN elements are skipped exactly like the scalar
// std::max(amax, std::abs(x)) fold (every SIMD variant matches this, pinned
// by tests/dispatch_test.cpp).
float row_amax_scalar(const float* xs, std::size_t n);
// Int-domain row rescale: out[i] = clamp(round_half_away_from_zero(
// |src[i]| * mantissa / 2^shift) * sign(src[i]), qmin, qmax), computed
// exactly in int64. No library caller: whole-head rescales re-read floats
// (core/quantized_kv_cache.h); it stays while perfbench times it
// (fixedpoint.rescale_row_ns). Precondition: qmin/qmax fit in int16.
// src == out aliasing is allowed (each element is read before its slot is
// written).
void rescale_row_i16_scalar(const std::int16_t* src, std::size_t n,
                            FixedRatio ratio, std::int32_t qmin,
                            std::int32_t qmax, std::int16_t* out);

// Masked nibble dot product: sum of q[i] * (nibble_i & mask) in int64 over
// n packed 4-bit elements, two per byte with element 2j in the low nibble of
// nibbles[j] (ceil(n / 2) bytes are read; an odd n ignores the last byte's
// high nibble). The estimation walk's per-(token, chunk) kernel over an
// offset-binary key nibble plane (fixedpoint/chunks.h KeyPlaneLayout); mask
// selects the chunk's bits within the plane, and bits above 0xF are
// ignored. Exact for ANY int16 q and any n: a nibble is at most 15, so each
// SIMD pair sum is below 2^20 in magnitude, and the variants widen their
// int32 lanes to int64 every iteration.
std::int64_t nibble_dot_i64_scalar(const std::int16_t* q,
                                   const std::uint8_t* nibbles,
                                   std::uint8_t mask, std::size_t n);

// Every variant compiled into this binary, ascending by level (scalar is
// always first). A variant whose per-file arch flags the compiler rejected
// at configure time is simply absent.
std::span<const KernelTable* const> compiled_kernel_tables();
// The compiled variants the *running* CPU supports — the forced-level test
// matrix iterates these (forcing an unsupported level would SIGILL).
std::span<const KernelTable* const> supported_kernel_tables();

// Which variant the one-time probe (or an override) selected.
IsaLevel kernel_isa_level();
const char* kernel_isa_name();
// True when the selection came from TOPICK_FORCE_ISA or force_isa() rather
// than the probe — recorded in BENCH_hotpath.json so archived numbers from
// forced runs are never mistaken for the host's natural selection.
bool kernel_isa_forced();

// Test/CI hook: select a specific compiled-in, CPU-supported variant.
// Returns false (selection unchanged) otherwise. reset_isa() re-runs the
// startup selection (probe + TOPICK_FORCE_ISA).
bool force_isa(IsaLevel level);
bool force_isa(const char* name);
void reset_isa();

namespace detail {
extern std::atomic<const KernelTable*> g_active;
const KernelTable* init_active();
}  // namespace detail

// The active table. First call (from any thread) runs the probe; later
// calls are one acquire load — cheap enough for per-row call sites, and the
// per-element call sites add an inlined scalar fast path on top (see
// core/quantized_kv_cache.h).
inline const KernelTable& active_kernels() {
  const KernelTable* table =
      detail::g_active.load(std::memory_order_acquire);
  return *(table != nullptr ? table : detail::init_active());
}

// Dispatched max|x| reduction (exact: no rounding, order-independent; the
// append-path row maxima and choose_scale both ride on it). Tiny rows skip
// the table — the scalar fold is the same bits.
inline float row_amax(const float* xs, std::size_t n) {
  if (n < 8) return row_amax_scalar(xs, n);
  return active_kernels().row_amax(xs, n);
}
inline float row_amax(std::span<const float> xs) {
  return row_amax(xs.data(), xs.size());
}

// Dispatched int-domain rescale (pure integer math — exact, so every variant
// is bit-identical by construction; pinned per level by dispatch_test). Tiny
// rows take the scalar loop rather than the indirect call.
inline void rescale_row_i16(const std::int16_t* src, std::size_t n,
                            FixedRatio ratio, std::int32_t qmin,
                            std::int32_t qmax, std::int16_t* out) {
  if (n < 16) {
    rescale_row_i16_scalar(src, n, ratio, qmin, qmax, out);
    return;
  }
  active_kernels().rescale_row_i16(src, n, ratio, qmin, qmax, out);
}

// Dispatched masked nibble dot (integer math — exact, so every variant is
// bit-identical by construction; pinned per level by dispatch_test). Tiny
// rows take the scalar loop rather than the indirect call.
inline std::int64_t nibble_dot_i64(const std::int16_t* q,
                                   const std::uint8_t* nibbles,
                                   std::uint8_t mask, std::size_t n) {
  if (n < 16) return nibble_dot_i64_scalar(q, nibbles, mask, n);
  return active_kernels().nibble_dot_i64(q, nibbles, mask, n);
}

}  // namespace topick::fx
