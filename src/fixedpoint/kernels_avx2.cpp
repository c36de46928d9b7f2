// AVX2 kernel variants — the PR 5 implementations, moved verbatim out of
// the compile-time `#if defined(__AVX2__)` forks in quant.cpp and
// quantized_kv_cache.{h,cpp} into a per-file-flag TU (-mavx2) so a portable
// binary carries them and selects them at runtime. Element-exact vs the
// scalar references; see each function for the argument.
#if defined(__AVX2__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include "fixedpoint/kernels.h"

namespace topick::fx::detail {
namespace {

std::int64_t row_dot_i64_avx2(const std::int16_t* a, const std::int16_t* b,
                              std::size_t n) {
  // 16 int16 lanes per iteration: madd multiplies int16 pairs and sums
  // adjacent products into 8 exact int32 lanes (the pairwise sum wraps only
  // when both multiplied pairs are exactly (-32768, -32768) — values
  // quantize() can never produce, |q| < 2^14 for total_bits <= 15), which
  // are widened to int64 before accumulating — so the accumulator is
  // full-width everywhere, like the scalar reference.
  __m256i acc = _mm256_setzero_si256();  // 4 x int64
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i pair_sums = _mm256_madd_epi16(va, vb);  // 8 x int32
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(pair_sums)));
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(pair_sums, 1)));
  }
  if (i + 8 <= n) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const __m128i pair_sums = _mm_madd_epi16(va, vb);  // 4 x int32
    acc = _mm256_add_epi64(acc, _mm256_cvtepi32_epi64(pair_sums));
    i += 8;
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::int64_t sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    sum += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return sum;
}

void weighted_value_accum_avx2(float* out, const std::int16_t* v, double p,
                               double v_scale, std::size_t n) {
  // Four lanes of exactly the scalar op sequence: (p * double(v)) * v_scale
  // in double, round to float (cvtpd_ps == static_cast), float add.
  const __m256d vp = _mm256_set1_pd(p);
  const __m256d vs = _mm256_set1_pd(v_scale);
  std::size_t d = 0;
  for (; d + 4 <= n; d += 4) {
    const __m128i vi16 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(v + d));
    const __m256d vd = _mm256_cvtepi32_pd(_mm_cvtepi16_epi32(vi16));
    const __m256d prod = _mm256_mul_pd(_mm256_mul_pd(vp, vd), vs);
    const __m128 add = _mm256_cvtpd_ps(prod);
    _mm_storeu_ps(out + d, _mm_add_ps(_mm_loadu_ps(out + d), add));
  }
  for (; d < n; ++d) {
    out[d] += static_cast<float>(p * static_cast<double>(v[d]) * v_scale);
  }
}

void quantize_row_i16_avx2(const float* xs, std::size_t n,
                           const QuantParams& params, std::int16_t* out) {
  const __m256 scale = _mm256_set1_ps(params.scale);
  const __m256 fmax = _mm256_set1_ps(static_cast<float>(params.qmax()));
  const __m256 fmin = _mm256_set1_ps(static_cast<float>(params.qmin()));
  const __m256i qmax = _mm256_set1_epi32(params.qmax());
  const __m256i qmin = _mm256_set1_epi32(params.qmin());
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 ratio = _mm256_div_ps(_mm256_loadu_ps(xs + i), scale);
    // lround(double(r)) for in-range lanes: d ± 0.5 is exact for a
    // float-promoted d, so truncation yields round-half-away-from-zero —
    // identical to the scalar lround (see the note in quant.h).
    const __m128 lo = _mm256_castps256_ps128(ratio);
    const __m128 hi = _mm256_extractf128_ps(ratio, 1);
    const __m256d dlo = _mm256_cvtps_pd(lo);
    const __m256d dhi = _mm256_cvtps_pd(hi);
    const __m256d half_lo = _mm256_or_pd(half, _mm256_and_pd(dlo, sign_mask));
    const __m256d half_hi = _mm256_or_pd(half, _mm256_and_pd(dhi, sign_mask));
    const __m128i rlo = _mm256_cvttpd_epi32(_mm256_add_pd(dlo, half_lo));
    const __m128i rhi = _mm256_cvttpd_epi32(_mm256_add_pd(dhi, half_hi));
    __m256i q = _mm256_insertf128_si256(_mm256_castsi128_si256(rlo), rhi, 1);
    // Saturation branches, exactly the scalar order: ratio >= qmax wins,
    // then ratio <= qmin. NaN lanes take neither ordered compare (their
    // truncation reads INT32_MIN), so they are blended to 0 explicitly,
    // like the scalar NaN branch.
    const __m256 ge = _mm256_cmp_ps(ratio, fmax, _CMP_GE_OQ);
    const __m256 le = _mm256_cmp_ps(ratio, fmin, _CMP_LE_OQ);
    const __m256 nan = _mm256_cmp_ps(ratio, ratio, _CMP_UNORD_Q);
    q = _mm256_blendv_epi8(q, qmax, _mm256_castps_si256(ge));
    q = _mm256_blendv_epi8(q, qmin, _mm256_castps_si256(le));
    q = _mm256_blendv_epi8(q, _mm256_setzero_si256(),
                           _mm256_castps_si256(nan));
    // Lanes are within int16 range after saturation; pack preserves order
    // within each 128-bit half when both halves come from the same vector.
    const __m128i packed = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                           _mm256_extracti128_si256(q, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), packed);
  }
  if (i < n) quantize_row_i16_scalar(xs + i, n - i, params, out + i);
}

void rescale_row_i16_avx2(const std::int16_t* src, std::size_t n,
                          FixedRatio ratio, std::int32_t qmin,
                          std::int32_t qmax, std::int16_t* out) {
  // The SSE4.1 algorithm at 256-bit width (see kernels_sse41.cpp for the
  // exactness argument — pure integer math, so the lanes ARE the scalar
  // sequence). mul_epu32 / slli_si256 operate per 128-bit lane, which is
  // exactly the even/odd merge pattern this needs; the final pack goes
  // through explicit 128-bit halves to preserve element order.
  const __m256i mant = _mm256_set1_epi64x(ratio.mantissa);
  const __m256i half = _mm256_set1_epi64x(
      ratio.shift > 0 ? (std::int64_t{1} << (ratio.shift - 1)) : 0);
  const __m128i shift = _mm_cvtsi32_si128(ratio.shift);
  const __m256i i32max64 = _mm256_set1_epi64x(0x7fffffff);
  const __m256i vqmax = _mm256_set1_epi32(qmax);
  const __m256i vqmin = _mm256_set1_epi32(qmin);
  const __m256i zero = _mm256_setzero_si256();
  const auto rescale8 = [&](__m256i v32) {
    const __m256i sign = _mm256_srai_epi32(v32, 31);
    const __m256i mag = _mm256_abs_epi32(v32);
    __m256i even = _mm256_mul_epu32(mag, mant);
    __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(mag, 32), mant);
    even = _mm256_srl_epi64(_mm256_add_epi64(even, half), shift);
    odd = _mm256_srl_epi64(_mm256_add_epi64(odd, half), shift);
    even = _mm256_blendv_epi8(
        i32max64, even,
        _mm256_cmpeq_epi64(_mm256_srli_epi64(even, 31), zero));
    odd = _mm256_blendv_epi8(
        i32max64, odd, _mm256_cmpeq_epi64(_mm256_srli_epi64(odd, 31), zero));
    __m256i r = _mm256_or_si256(even, _mm256_slli_si256(odd, 4));
    r = _mm256_sub_epi32(_mm256_xor_si256(r, sign), sign);
    return _mm256_max_epi32(_mm256_min_epi32(r, vqmax), vqmin);
  };
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i v16 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i lo = rescale8(
        _mm256_cvtepi16_epi32(_mm256_castsi256_si128(v16)));
    const __m256i hi = rescale8(
        _mm256_cvtepi16_epi32(_mm256_extracti128_si256(v16, 1)));
    const __m128i packed_lo = _mm_packs_epi32(_mm256_castsi256_si128(lo),
                                              _mm256_extracti128_si256(lo, 1));
    const __m128i packed_hi = _mm_packs_epi32(_mm256_castsi256_si128(hi),
                                              _mm256_extracti128_si256(hi, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), packed_lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 8), packed_hi);
  }
  if (i < n) rescale_row_i16_scalar(src + i, n - i, ratio, qmin, qmax, out + i);
}

// The SSE4.1 nibble spread (see kernels_sse41.cpp) on 8 int32 lanes: the
// zero-extended byte's low nibble becomes the lane's low int16 and its high
// nibble the high int16, both masked by k = mask * 0x10001.
__m256i spread_nibbles(__m256i x, __m256i k) {
  return _mm256_and_si256(_mm256_or_si256(x, _mm256_slli_epi32(x, 12)), k);
}

std::int64_t nibble_dot_i64_avx2(const std::int16_t* q,
                                 const std::uint8_t* nibbles,
                                 std::uint8_t mask, std::size_t n) {
  // 32 elements (16 bytes) per iteration: each 8-byte half zero-extends into
  // 8 int32 lanes, spreads into 16 masked nibbles in element order and
  // madds against 16 q values; the two int32 results (each pair sum below
  // 2^20 in magnitude) are added and widened to int64 every iteration —
  // exact for any int16 q and any n. One 16-element step covers the
  // half-vector remainder.
  const __m256i k =
      _mm256_set1_epi32(static_cast<int>((mask & 0xFu) * 0x10001u));
  __m256i acc = _mm256_setzero_si256();  // 4 x int64
  const auto widen_into = [&acc](__m256i sums) {
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(sums)));
    acc = _mm256_add_epi64(
        acc, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(sums, 1)));
  };
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(nibbles + i / 2));
    const __m256i q0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
    const __m256i q1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i + 16));
    widen_into(_mm256_add_epi32(
        _mm256_madd_epi16(q0, spread_nibbles(_mm256_cvtepu8_epi32(b), k)),
        _mm256_madd_epi16(
            q1,
            spread_nibbles(_mm256_cvtepu8_epi32(_mm_srli_si128(b, 8)), k))));
  }
  if (i + 16 <= n) {
    const __m128i b =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(nibbles + i / 2));
    const __m256i q0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
    widen_into(
        _mm256_madd_epi16(q0, spread_nibbles(_mm256_cvtepu8_epi32(b), k)));
    i += 16;
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::int64_t sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  // i is a multiple of 16 here, so the tail starts on a byte boundary.
  if (i < n) sum += nibble_dot_i64_scalar(q + i, nibbles + i / 2, mask, n - i);
  return sum;
}

float row_amax_avx2(const float* xs, std::size_t n) {
  // max over |x| is order-independent (no rounding), so the vector reduction
  // is exact. Operand order matters for NaN: maxps returns its SECOND
  // operand when either is NaN, so the running max goes second — a NaN
  // element keeps the running max, exactly like the scalar
  // std::max(amax, std::abs(NaN)) fold. (The PR 5 version had the operands
  // the other way around, so one NaN poisoned the rest of the row — pinned
  // by DispatchRegistry.RowAmaxNanAndSignedZeroMatchScalar.)
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 vmax = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vmax = _mm256_max_ps(_mm256_and_ps(_mm256_loadu_ps(xs + i), abs_mask),
                         vmax);
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vmax);
  float amax = 0.0f;
  for (const float lane : lanes) amax = amax < lane ? lane : amax;
  for (; i < n; ++i) {
    const float a = xs[i] < 0.0f ? -xs[i] : xs[i];
    amax = amax < a ? a : amax;
  }
  return amax;
}

}  // namespace

const KernelTable& avx2_kernels() {
  static constexpr KernelTable table = {
      IsaLevel::avx2,        "avx2",
      row_dot_i64_avx2,      weighted_value_accum_avx2,
      quantize_row_i16_avx2, row_amax_avx2,
      rescale_row_i16_avx2,  nibble_dot_i64_avx2,
  };
  return table;
}

}  // namespace topick::fx::detail

#endif  // __AVX2__ && x86
