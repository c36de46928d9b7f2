// AVX-512 kernel variants (F+BW+DQ+VL, the Skylake-SP baseline quartet) —
// 512-bit lanes, element-exact vs the scalar references. Same structure as
// the AVX2 TU at twice the width; every widening/rounding step keeps the
// scalar op sequence per lane, so selecting this table can never change a
// result bit. Compiled with per-file flags (CMakeLists.txt); empty object
// when the flag probe failed.
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include "fixedpoint/kernels.h"

namespace topick::fx::detail {
namespace {

std::int64_t row_dot_i64_avx512(const std::int16_t* a, const std::int16_t* b,
                                std::size_t n) {
  // 32 int16 lanes per iteration: madd pairs into 16 exact int32 lanes
  // (same single unreachable wrap case as the AVX2/SSE variants: both pairs
  // exactly (-32768, -32768)), widened to int64 before accumulating.
  __m512i acc = _mm512_setzero_si512();  // 8 x int64
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    const __m512i pair_sums = _mm512_madd_epi16(va, vb);  // 16 x int32
    acc = _mm512_add_epi64(
        acc, _mm512_cvtepi32_epi64(_mm512_castsi512_si256(pair_sums)));
    acc = _mm512_add_epi64(
        acc, _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(pair_sums, 1)));
  }
  if (i + 16 <= n) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i pair_sums = _mm256_madd_epi16(va, vb);  // 8 x int32
    acc = _mm512_add_epi64(acc, _mm512_cvtepi32_epi64(pair_sums));
    i += 16;
  }
  // Integer adds are associative, so the horizontal reduce is exact.
  std::int64_t sum = _mm512_reduce_add_epi64(acc);
  for (; i < n; ++i) {
    sum += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return sum;
}

void weighted_value_accum_avx512(float* out, const std::int16_t* v, double p,
                                 double v_scale, std::size_t n) {
  // Eight lanes of exactly the scalar op sequence: (p * double(v)) * v_scale
  // in double, round to float (cvtpd_ps == static_cast), float add.
  const __m512d vp = _mm512_set1_pd(p);
  const __m512d vs = _mm512_set1_pd(v_scale);
  std::size_t d = 0;
  for (; d + 8 <= n; d += 8) {
    const __m128i vi16 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + d));
    const __m512d vd = _mm512_cvtepi32_pd(_mm256_cvtepi16_epi32(vi16));
    const __m512d prod = _mm512_mul_pd(_mm512_mul_pd(vp, vd), vs);
    const __m256 add = _mm512_cvtpd_ps(prod);
    _mm256_storeu_ps(out + d, _mm256_add_ps(_mm256_loadu_ps(out + d), add));
  }
  for (; d < n; ++d) {
    out[d] += static_cast<float>(p * static_cast<double>(v[d]) * v_scale);
  }
}

void quantize_row_i16_avx512(const float* xs, std::size_t n,
                             const QuantParams& params, std::int16_t* out) {
  // The AVX2 algorithm at 512-bit width: IEEE lane divide, lround emulated
  // as trunc(d ± 0.5) in double (exact for a float-promoted d), saturation
  // in the scalar branch order via compare masks, order-preserving
  // vpmovsdw narrowing (saturating, but post-clamp lanes already fit int16).
  const __m512 scale = _mm512_set1_ps(params.scale);
  const __m512 fmax = _mm512_set1_ps(static_cast<float>(params.qmax()));
  const __m512 fmin = _mm512_set1_ps(static_cast<float>(params.qmin()));
  const __m512i qmax = _mm512_set1_epi32(params.qmax());
  const __m512i qmin = _mm512_set1_epi32(params.qmin());
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d sign_mask = _mm512_set1_pd(-0.0);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 ratio = _mm512_div_ps(_mm512_loadu_ps(xs + i), scale);
    const __m512d dlo = _mm512_cvtps_pd(_mm512_castps512_ps256(ratio));
    const __m512d dhi = _mm512_cvtps_pd(_mm512_extractf32x8_ps(ratio, 1));
    const __m512d half_lo = _mm512_or_pd(half, _mm512_and_pd(dlo, sign_mask));
    const __m512d half_hi = _mm512_or_pd(half, _mm512_and_pd(dhi, sign_mask));
    const __m256i rlo = _mm512_cvttpd_epi32(_mm512_add_pd(dlo, half_lo));
    const __m256i rhi = _mm512_cvttpd_epi32(_mm512_add_pd(dhi, half_hi));
    __m512i q = _mm512_inserti64x4(_mm512_castsi256_si512(rlo), rhi, 1);
    // NaN lanes take neither ordered compare and truncate to INT32_MIN, so
    // they are blended to 0 explicitly, like the scalar NaN branch.
    const __mmask16 ge = _mm512_cmp_ps_mask(ratio, fmax, _CMP_GE_OQ);
    const __mmask16 le = _mm512_cmp_ps_mask(ratio, fmin, _CMP_LE_OQ);
    const __mmask16 nan = _mm512_cmp_ps_mask(ratio, ratio, _CMP_UNORD_Q);
    q = _mm512_mask_mov_epi32(q, ge, qmax);
    q = _mm512_mask_mov_epi32(q, le, qmin);
    q = _mm512_mask_mov_epi32(q, nan, _mm512_setzero_si512());
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm512_cvtsepi32_epi16(q));
  }
  if (i < n) quantize_row_i16_scalar(xs + i, n - i, params, out + i);
}

void rescale_row_i16_avx512(const std::int16_t* src, std::size_t n,
                            FixedRatio ratio, std::int32_t qmin,
                            std::int32_t qmax, std::int16_t* out) {
  // The SSE4.1 algorithm at 512-bit width (pure integer math, exact by
  // construction; see kernels_sse41.cpp). AVX-512 tidies two corners:
  // min_epu64 replaces the compare-and-blend 64->32 saturation guard, and
  // the order-preserving cvtsepi32_epi16 narrowing replaces the two-step
  // pack (post-clamp lanes already fit int16).
  const __m512i mant = _mm512_set1_epi64(ratio.mantissa);
  const __m512i half = _mm512_set1_epi64(
      ratio.shift > 0 ? (std::int64_t{1} << (ratio.shift - 1)) : 0);
  const __m128i shift = _mm_cvtsi32_si128(ratio.shift);
  const __m512i i32max64 = _mm512_set1_epi64(0x7fffffff);
  const __m512i vqmax = _mm512_set1_epi32(qmax);
  const __m512i vqmin = _mm512_set1_epi32(qmin);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i v32 = _mm512_cvtepi16_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
    const __m512i sign = _mm512_srai_epi32(v32, 31);
    const __m512i mag = _mm512_abs_epi32(v32);
    __m512i even = _mm512_mul_epu32(mag, mant);
    __m512i odd = _mm512_mul_epu32(_mm512_srli_epi64(mag, 32), mant);
    even = _mm512_srl_epi64(_mm512_add_epi64(even, half), shift);
    odd = _mm512_srl_epi64(_mm512_add_epi64(odd, half), shift);
    even = _mm512_min_epu64(even, i32max64);
    odd = _mm512_min_epu64(odd, i32max64);
    // High dwords are zero after the min, so OR-merging the 4-byte-shifted
    // odd lanes (bslli is per 128-bit lane, matching mul_epu32's even/odd
    // split) restores element order.
    __m512i r = _mm512_or_si512(even, _mm512_bslli_epi128(odd, 4));
    r = _mm512_sub_epi32(_mm512_xor_si512(r, sign), sign);
    r = _mm512_max_epi32(_mm512_min_epi32(r, vqmax), vqmin);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm512_cvtsepi32_epi16(r));
  }
  if (i < n) rescale_row_i16_scalar(src + i, n - i, ratio, qmin, qmax, out + i);
}

std::int64_t nibble_dot_i64_avx512(const std::int16_t* q,
                                   const std::uint8_t* nibbles,
                                   std::uint8_t mask, std::size_t n) {
  // 32 elements (16 bytes) per iteration: the bytes zero-extend into 16
  // int32 lanes (vpmovzxbd), and (x | x << 12) & k — one vpternlogd,
  // truth table 0xA8 — lays each byte's two masked nibbles out as the
  // lane's int16 pair in element order (see kernels_sse41.cpp); madd
  // against 32 q values gives pair sums below 2^20 in magnitude, widened to
  // int64 every iteration — exact for any int16 q and any n. A 16-element
  // AVX2 step covers the half-vector remainder.
  const auto k32 = static_cast<int>((mask & 0xFu) * 0x10001u);
  const __m512i k = _mm512_set1_epi32(k32);
  __m512i acc = _mm512_setzero_si512();  // 8 x int64
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512i x = _mm512_cvtepu8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(nibbles + i / 2)));
    const __m512i sums = _mm512_madd_epi16(
        _mm512_loadu_si512(q + i),
        _mm512_ternarylogic_epi32(x, _mm512_slli_epi32(x, 12), k, 0xA8));
    acc = _mm512_add_epi64(
        acc, _mm512_cvtepi32_epi64(_mm512_castsi512_si256(sums)));
    acc = _mm512_add_epi64(
        acc, _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(sums, 1)));
  }
  if (i + 16 <= n) {
    const __m256i x = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(nibbles + i / 2)));
    const __m256i sums = _mm256_madd_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i)),
        _mm256_ternarylogic_epi32(x, _mm256_slli_epi32(x, 12),
                                  _mm256_set1_epi32(k32), 0xA8));
    acc = _mm512_add_epi64(acc, _mm512_cvtepi32_epi64(sums));
    i += 16;
  }
  std::int64_t sum = _mm512_reduce_add_epi64(acc);
  // i is a multiple of 16 here, so the tail starts on a byte boundary.
  if (i < n) sum += nibble_dot_i64_scalar(q + i, nibbles + i / 2, mask, n - i);
  return sum;
}

bool pack_planes_i16_avx512(const std::int16_t* src, std::size_t n,
                            int total_bits, std::uint8_t* const* rows) {
  // 32 elements per step, the scalar bit moves per lane (see the SSE4.1
  // variant): per plane, one madd turns each int16 pair's shifted nibbles
  // into an int32 lane below 256 and vpmovdb narrows the 16 lanes to the
  // plane row's 16 bytes in order. The tail step loads its missing elements
  // as qmin (u = 0, as the scalar odd-row pad) and stores only the bytes it
  // covers.
  const int planes = PlaneLayout::planes_for(total_bits);
  const int half = 1 << (total_bits - 1);
  const __m512i low = _mm512_set1_epi16(static_cast<short>(2 * half - 1));
  const __m512i offset = _mm512_set1_epi16(static_cast<short>(half));
  const __m512i qmax = _mm512_set1_epi16(static_cast<short>(half - 1));
  const __m512i qmin = _mm512_set1_epi16(static_cast<short>(-half));
  const __m512i nibble = _mm512_set1_epi16(0xF);
  const __m512i pair = _mm512_set1_epi32(0x00100001);
  __mmask32 bad = 0;
  const auto step = [&](std::size_t i, __m512i x, __mmask16 bytes) {
    bad |= _mm512_cmpgt_epi16_mask(x, qmax) | _mm512_cmpgt_epi16_mask(qmin, x);
    const __m512i u = _mm512_xor_si512(_mm512_and_si512(x, low), offset);
    for (int j = 0; j < planes; ++j) {
      const __m128i shift = _mm_cvtsi32_si128(4 * (planes - 1 - j));
      const __m512i b = _mm512_madd_epi16(
          _mm512_and_si512(_mm512_srl_epi16(u, shift), nibble), pair);
      _mm_mask_storeu_epi8(rows[j] + i / 2, bytes, _mm512_cvtepi32_epi8(b));
    }
  };
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) step(i, _mm512_loadu_si512(src + i), 0xFFFF);
  if (i < n) {
    const std::size_t rest = n - i;
    step(i,
         _mm512_mask_loadu_epi16(qmin, static_cast<__mmask32>((1u << rest) - 1),
                                 src + i),
         static_cast<__mmask16>((1u << ((rest + 1) / 2)) - 1));
  }
  return bad == 0;
}

void unpack_planes_i16_avx512(const std::uint8_t* const* rows, std::size_t n,
                              int total_bits, std::int16_t* out) {
  // 64 elements (32 bytes per plane) per iteration: the AVX2 byte merge
  // (see kernels_avx2.cpp and kernels_sse41.cpp), each nibble select one
  // vpternlogd — two adjacent planes merge into one byte per element, the
  // two least significant making u's low byte and the two above them its
  // high byte, and the per-lane unpacks are put back in element order by
  // vperm2i128. The remainder runs 32-element masked steps instead: each
  // plane's bytes zero-extend into 16 int32 lanes, and (x | x << 12) &
  // 0x000F000F spreads each byte's nibbles into the lane's int16 pair in
  // element order (as in nibble_dot_i64); the steps load and store only
  // what they cover.
  const int planes = PlaneLayout::planes_for(total_bits);
  const auto half = static_cast<short>(1 << (total_bits - 1));
  const __m256i lo_nibbles = _mm256_set1_epi8(0x0F);
  const __m256i offset = _mm256_set1_epi16(half);
  const auto load = [&](int j, std::size_t i) {
    return j >= 0 ? _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(rows[j] + i / 2))
                  : _mm256_setzero_si256();
  };
  // a ? b : c per bit, a the low-nibble mask (truth table 0xAC).
  const auto merge = [&](__m256i a, __m256i b, __m256i* e0, __m256i* e1) {
    const __m256i even = _mm256_ternarylogic_epi32(
        lo_nibbles, _mm256_slli_epi16(a, 4), b, 0xAC);
    const __m256i odd = _mm256_ternarylogic_epi32(
        lo_nibbles, a, _mm256_srli_epi16(b, 4), 0xAC);
    *e0 = _mm256_unpacklo_epi8(even, odd);
    *e1 = _mm256_unpackhi_epi8(even, odd);
  };
  const auto store = [&](std::int16_t* dst, __m256i words) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                        _mm256_sub_epi16(words, offset));
  };
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    __m256i lo0, lo1, hi0, hi1;
    merge(load(planes - 2, i), load(planes - 1, i), &lo0, &lo1);
    merge(load(planes - 4, i), load(planes - 3, i), &hi0, &hi1);
    const __m256i w0 = _mm256_unpacklo_epi8(lo0, hi0);
    const __m256i w1 = _mm256_unpackhi_epi8(lo0, hi0);
    const __m256i w2 = _mm256_unpacklo_epi8(lo1, hi1);
    const __m256i w3 = _mm256_unpackhi_epi8(lo1, hi1);
    store(out + i, _mm256_permute2x128_si256(w0, w1, 0x20));
    store(out + i + 16, _mm256_permute2x128_si256(w2, w3, 0x20));
    store(out + i + 32, _mm256_permute2x128_si256(w0, w1, 0x31));
    store(out + i + 48, _mm256_permute2x128_si256(w2, w3, 0x31));
  }
  const __m512i k = _mm512_set1_epi32(0x000F000F);
  for (; i < n; i += 32) {
    const std::size_t rest = n - i < 32 ? n - i : 32;
    const auto bytes = static_cast<__mmask16>((1u << ((rest + 1) / 2)) - 1);
    __m512i u = _mm512_setzero_si512();
    for (int j = 0; j < planes; ++j) {
      const __m512i x =
          _mm512_cvtepu8_epi32(_mm_maskz_loadu_epi8(bytes, rows[j] + i / 2));
      u = _mm512_or_si512(
          _mm512_slli_epi16(u, 4),
          _mm512_ternarylogic_epi32(x, _mm512_slli_epi32(x, 12), k, 0xA8));
    }
    _mm512_mask_storeu_epi16(
        out + i, static_cast<__mmask32>((std::uint64_t{1} << rest) - 1),
        _mm512_sub_epi16(u, _mm512_set1_epi16(half)));
  }
}

float row_amax_avx512(const float* xs, std::size_t n) {
  // Exact (max has no rounding); running max second so a NaN element keeps
  // the running max, like the scalar fold — see the AVX2 variant's note.
  const __m512 abs_mask = _mm512_castsi512_ps(_mm512_set1_epi32(0x7fffffff));
  __m512 vmax = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vmax = _mm512_max_ps(_mm512_and_ps(_mm512_loadu_ps(xs + i), abs_mask),
                         vmax);
  }
  alignas(64) float lanes[16];
  _mm512_store_ps(lanes, vmax);
  float amax = 0.0f;
  for (const float lane : lanes) amax = amax < lane ? lane : amax;
  for (; i < n; ++i) {
    const float a = xs[i] < 0.0f ? -xs[i] : xs[i];
    amax = amax < a ? a : amax;
  }
  return amax;
}

}  // namespace

const KernelTable& avx512_kernels() {
  static constexpr KernelTable table = {
      IsaLevel::avx512,        "avx512",
      row_dot_i64_avx512,      weighted_value_accum_avx512,
      quantize_row_i16_avx512, row_amax_avx512,
      rescale_row_i16_avx512,  nibble_dot_i64_avx512,
      pack_planes_i16_avx512,  unpack_planes_i16_avx512,
  };
  return table;
}

}  // namespace topick::fx::detail

#endif  // AVX-512 F+BW+DQ+VL && x86
