// Registry construction + one-time CPU probe + forced-level overrides (see
// fixedpoint/dispatch.h for the model). The per-ISA tables live in their own
// translation units (kernels_*.cpp, each built with per-file arch flags);
// this TU is portable and only *references* a table's getter when the
// configure step proved the TU actually built with its flags
// (TOPICK_HAVE_KERNELS_* from CMakeLists.txt), so a toolchain that rejects
// -mavx512* simply produces a shorter registry instead of a link error.
#include "fixedpoint/dispatch.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <vector>

#include "fixedpoint/kernels.h"

namespace topick::fx {

// One float divide + frexp per ratio; the rows then see only integer math
// (FixedRatio's contract in dispatch.h). The double quotient is
// split into mantissa * 2^-shift with the mantissa rounded into [2^30, 2^31]
// — 31 significant bits, so round(q * ratio) through this grid differs from
// the real-arithmetic round by at most 1 for any int16 q (pinned by
// dispatch_test's ratio-grid suite).
FixedRatio make_fixed_ratio(float old_scale, float new_scale) {
  const double ratio =
      static_cast<double>(old_scale) / static_cast<double>(new_scale);
  if (!(ratio > 0.0) || std::isinf(ratio)) return {0, 0};
  int exp = 0;
  const double frac = std::frexp(ratio, &exp);  // frac in [0.5, 1)
  auto mant = static_cast<std::uint64_t>(std::llround(std::ldexp(frac, 31)));
  int shift = 31 - exp;
  while (shift < 0 && mant <= std::numeric_limits<std::uint32_t>::max() / 2) {
    mant <<= 1;
    ++shift;
  }
  if (shift < 0) {
    // ratio >= ~2^31: every nonzero element saturates either way.
    return {std::numeric_limits<std::uint32_t>::max(), 0};
  }
  if (shift > 62) {
    // ratio < ~2^-31: every int16 element rounds to zero either way.
    return {0, 0};
  }
  return {static_cast<std::uint32_t>(mant), shift};
}

namespace detail {
std::atomic<const KernelTable*> g_active{nullptr};
}  // namespace detail

namespace {

std::atomic<bool> g_forced{false};

// Every table this binary carries, ascending by level (scalar first). Built
// once; the span accessors hand out views of this storage.
const std::vector<const KernelTable*>& compiled_tables() {
  static const std::vector<const KernelTable*> tables = [] {
    std::vector<const KernelTable*> t;
    t.push_back(&detail::scalar_kernels());
#if defined(TOPICK_HAVE_KERNELS_SSE41)
    t.push_back(&detail::sse41_kernels());
#endif
#if defined(TOPICK_HAVE_KERNELS_AVX2)
    t.push_back(&detail::avx2_kernels());
#endif
#if defined(TOPICK_HAVE_KERNELS_AVX512)
    t.push_back(&detail::avx512_kernels());
#endif
#if defined(__ARM_NEON)
    t.push_back(&detail::neon_kernels());
#endif
    return t;
  }();
  return tables;
}

// Does the machine we are running on execute this table's instructions?
// (Compile-time presence says nothing about the deployment host — that gap
// is the whole point of runtime dispatch.)
bool cpu_supports(IsaLevel level) {
  switch (level) {
    case IsaLevel::scalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case IsaLevel::sse41:
      return __builtin_cpu_supports("sse4.1") != 0;
    case IsaLevel::avx2:
      return __builtin_cpu_supports("avx2") != 0;
    case IsaLevel::avx512:
      // The quartet the AVX-512 TU is compiled with; a CPU missing any of
      // them (e.g. Knights Landing lacks BW/DQ/VL) must not run it.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
#endif
#if defined(__ARM_NEON)
    case IsaLevel::neon:
      // __ARM_NEON is only defined when NEON is baseline for the target
      // (mandatory on aarch64), so compiled-in implies runnable.
      return true;
#endif
    default:
      return false;
  }
}

const std::vector<const KernelTable*>& supported_tables() {
  static const std::vector<const KernelTable*> tables = [] {
    std::vector<const KernelTable*> t;
    for (const KernelTable* table : compiled_tables()) {
      if (cpu_supports(table->level)) t.push_back(table);
    }
    return t;
  }();
  return tables;
}

// Highest supported level (the vectors are ascending; scalar is always
// present, so this never dereferences an empty list).
const KernelTable* probe_best() { return supported_tables().back(); }

const KernelTable* find_supported(const char* name) {
  for (const KernelTable* table : supported_tables()) {
    if (std::strcmp(table->name, name) == 0) return table;
  }
  return nullptr;
}

// Startup selection: probe, then apply TOPICK_FORCE_ISA if set. An unusable
// forced level (unknown name, not compiled in, or not supported by this CPU)
// is reported once on stderr and ignored — crashing on SIGILL because an env
// var was stale would be strictly worse than running the probed kernels.
const KernelTable* select_startup_table(bool* forced) {
  *forced = false;
  const char* env = std::getenv("TOPICK_FORCE_ISA");
  if (env != nullptr && env[0] != '\0') {
    if (const KernelTable* table = find_supported(env)) {
      *forced = true;
      return table;
    }
    std::fprintf(stderr,
                 "topick: TOPICK_FORCE_ISA=%s is not a compiled-in, "
                 "CPU-supported kernel level; using '%s' instead\n",
                 env, probe_best()->name);
  }
  return probe_best();
}

std::mutex g_select_mutex;

}  // namespace

namespace detail {

const KernelTable* init_active() {
  // Serialize first-use racing with force_isa()/reset_isa(); the fast path
  // (g_active already set) never takes the lock.
  std::lock_guard<std::mutex> lock(g_select_mutex);
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table != nullptr) return table;
  bool forced = false;
  table = select_startup_table(&forced);
  g_forced.store(forced, std::memory_order_relaxed);
  g_active.store(table, std::memory_order_release);
  return table;
}

}  // namespace detail

const char* isa_name(IsaLevel level) {
  switch (level) {
    case IsaLevel::scalar:
      return "scalar";
    case IsaLevel::sse41:
      return "sse41";
    case IsaLevel::avx2:
      return "avx2";
    case IsaLevel::avx512:
      return "avx512";
    case IsaLevel::neon:
      return "neon";
  }
  return "unknown";
}

std::span<const KernelTable* const> compiled_kernel_tables() {
  const auto& t = compiled_tables();
  return {t.data(), t.size()};
}

std::span<const KernelTable* const> supported_kernel_tables() {
  const auto& t = supported_tables();
  return {t.data(), t.size()};
}

IsaLevel kernel_isa_level() { return active_kernels().level; }

const char* kernel_isa_name() { return active_kernels().name; }

bool kernel_isa_forced() {
  active_kernels();  // ensure the startup selection ran
  return g_forced.load(std::memory_order_relaxed);
}

bool force_isa(IsaLevel level) { return force_isa(isa_name(level)); }

bool force_isa(const char* name) {
  if (name == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_select_mutex);
  const KernelTable* table = find_supported(name);
  if (table == nullptr) return false;
  g_forced.store(true, std::memory_order_relaxed);
  detail::g_active.store(table, std::memory_order_release);
  return true;
}

void reset_isa() {
  std::lock_guard<std::mutex> lock(g_select_mutex);
  bool forced = false;
  const KernelTable* table = select_startup_table(&forced);
  g_forced.store(forced, std::memory_order_relaxed);
  detail::g_active.store(table, std::memory_order_release);
}

}  // namespace topick::fx
