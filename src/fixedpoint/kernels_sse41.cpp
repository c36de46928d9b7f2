// SSE4.1 kernel variants — 128-bit lanes, element-exact vs the scalar
// references (see kernels_scalar.cpp for the contract each function mirrors
// per lane). This TU is compiled with -msse4.1 (CMakeLists.txt per-file
// flags); on non-x86 toolchains, or when the flag probe failed, the guard
// below turns it into an empty object and the registry never references it.
#if defined(__SSE4_1__) && (defined(__x86_64__) || defined(__i386__))

#include <smmintrin.h>

#include "fixedpoint/kernels.h"

namespace topick::fx::detail {
namespace {

std::int64_t row_dot_i64_sse41(const std::int16_t* a, const std::int16_t* b,
                               std::size_t n) {
  // 8 int16 lanes per iteration: madd multiplies int16 pairs and sums
  // adjacent products into 4 exact int32 lanes (the pairwise sum wraps only
  // when both multiplied pairs are exactly (-32768, -32768) — values
  // quantize() can never produce, |q| < 2^14 for total_bits <= 15), which
  // are widened to int64 before accumulating — full-width like the scalar
  // reference.
  __m128i acc = _mm_setzero_si128();  // 2 x int64
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const __m128i pair_sums = _mm_madd_epi16(va, vb);  // 4 x int32
    acc = _mm_add_epi64(acc, _mm_cvtepi32_epi64(pair_sums));
    acc = _mm_add_epi64(acc, _mm_cvtepi32_epi64(_mm_srli_si128(pair_sums, 8)));
  }
  alignas(16) std::int64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
  std::int64_t sum = lanes[0] + lanes[1];
  for (; i < n; ++i) {
    sum += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return sum;
}

void weighted_value_accum_sse41(float* out, const std::int16_t* v, double p,
                                double v_scale, std::size_t n) {
  // Four lanes of exactly the scalar op sequence: (p * double(v)) * v_scale
  // in double, round to float (cvtpd_ps == static_cast), float add.
  const __m128d vp = _mm_set1_pd(p);
  const __m128d vs = _mm_set1_pd(v_scale);
  std::size_t d = 0;
  for (; d + 4 <= n; d += 4) {
    const __m128i vi16 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(v + d));
    const __m128i vi32 = _mm_cvtepi16_epi32(vi16);  // 4 x int32
    const __m128d dlo = _mm_cvtepi32_pd(vi32);
    const __m128d dhi = _mm_cvtepi32_pd(_mm_srli_si128(vi32, 8));
    const __m128d prod_lo = _mm_mul_pd(_mm_mul_pd(vp, dlo), vs);
    const __m128d prod_hi = _mm_mul_pd(_mm_mul_pd(vp, dhi), vs);
    const __m128 add =
        _mm_movelh_ps(_mm_cvtpd_ps(prod_lo), _mm_cvtpd_ps(prod_hi));
    _mm_storeu_ps(out + d, _mm_add_ps(_mm_loadu_ps(out + d), add));
  }
  for (; d < n; ++d) {
    out[d] += static_cast<float>(p * static_cast<double>(v[d]) * v_scale);
  }
}

void quantize_row_i16_sse41(const float* xs, std::size_t n,
                            const QuantParams& params, std::int16_t* out) {
  // The AVX2 algorithm at 128-bit width (see kernels_avx2.cpp for the
  // exactness argument): IEEE lane divide, lround emulated as
  // trunc(d ± 0.5) in double (exact for float-promoted d), float-domain
  // saturation in the scalar branch order.
  const __m128 scale = _mm_set1_ps(params.scale);
  const __m128 fmax = _mm_set1_ps(static_cast<float>(params.qmax()));
  const __m128 fmin = _mm_set1_ps(static_cast<float>(params.qmin()));
  const __m128i qmax = _mm_set1_epi32(params.qmax());
  const __m128i qmin = _mm_set1_epi32(params.qmin());
  const __m128d half = _mm_set1_pd(0.5);
  const __m128d sign_mask = _mm_set1_pd(-0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 ratio = _mm_div_ps(_mm_loadu_ps(xs + i), scale);
    const __m128d dlo = _mm_cvtps_pd(ratio);
    const __m128d dhi = _mm_cvtps_pd(_mm_movehl_ps(ratio, ratio));
    const __m128d half_lo = _mm_or_pd(half, _mm_and_pd(dlo, sign_mask));
    const __m128d half_hi = _mm_or_pd(half, _mm_and_pd(dhi, sign_mask));
    const __m128i rlo = _mm_cvttpd_epi32(_mm_add_pd(dlo, half_lo));
    const __m128i rhi = _mm_cvttpd_epi32(_mm_add_pd(dhi, half_hi));
    __m128i q = _mm_unpacklo_epi64(rlo, rhi);  // 4 x int32, in order
    // cmpge/cmple are ordered compares: NaN lanes take neither, and their
    // truncation reads INT32_MIN, so they are blended to 0 explicitly, like
    // the scalar NaN branch.
    const __m128 ge = _mm_cmpge_ps(ratio, fmax);
    const __m128 le = _mm_cmple_ps(ratio, fmin);
    const __m128 nan = _mm_cmpunord_ps(ratio, ratio);
    q = _mm_blendv_epi8(q, qmax, _mm_castps_si128(ge));
    q = _mm_blendv_epi8(q, qmin, _mm_castps_si128(le));
    q = _mm_blendv_epi8(q, _mm_setzero_si128(), _mm_castps_si128(nan));
    const __m128i packed = _mm_packs_epi32(q, q);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), packed);
  }
  if (i < n) quantize_row_i16_scalar(xs + i, n - i, params, out + i);
}

void rescale_row_i16_sse41(const std::int16_t* src, std::size_t n,
                           FixedRatio ratio, std::int32_t qmin,
                           std::int32_t qmax, std::int16_t* out) {
  // Pure integer math — exact by construction, the lanes just replicate the
  // scalar sequence: |q| * mantissa (mul_epu32 on even/odd dword pairs, the
  // 64-bit products are exact), + half, >> shift, 64->32 saturation guard,
  // sign restore, clamp. The only subtlety is the 64-bit stage: a lane whose
  // shifted magnitude still exceeds int32 range is forced to INT32_MAX
  // before narrowing (the final clamp maps it to qmax, exactly where the
  // scalar's int64 compare sends it).
  const __m128i mant = _mm_set1_epi64x(ratio.mantissa);
  const __m128i half = _mm_set1_epi64x(
      ratio.shift > 0 ? (std::int64_t{1} << (ratio.shift - 1)) : 0);
  const __m128i shift = _mm_cvtsi32_si128(ratio.shift);
  const __m128i i32max64 = _mm_set1_epi64x(0x7fffffff);
  const __m128i vqmax = _mm_set1_epi32(qmax);
  const __m128i vqmin = _mm_set1_epi32(qmin);
  const __m128i zero = _mm_setzero_si128();
  const auto rescale4 = [&](__m128i v32) {
    const __m128i sign = _mm_srai_epi32(v32, 31);
    const __m128i mag = _mm_abs_epi32(v32);
    __m128i even = _mm_mul_epu32(mag, mant);                     // lanes 0,2
    __m128i odd = _mm_mul_epu32(_mm_srli_epi64(mag, 32), mant);  // lanes 1,3
    even = _mm_srl_epi64(_mm_add_epi64(even, half), shift);
    odd = _mm_srl_epi64(_mm_add_epi64(odd, half), shift);
    // Lanes still >= 2^31 can't survive the narrowing — pin them to
    // INT32_MAX (>= any qmax precondition allows).
    even = _mm_blendv_epi8(i32max64, even,
                           _mm_cmpeq_epi64(_mm_srli_epi64(even, 31), zero));
    odd = _mm_blendv_epi8(i32max64, odd,
                          _mm_cmpeq_epi64(_mm_srli_epi64(odd, 31), zero));
    // High dwords are zero in both, so OR-merging the shifted odd lanes
    // restores element order: [e0, o1, e2, o3].
    __m128i r = _mm_or_si128(even, _mm_slli_si128(odd, 4));
    r = _mm_sub_epi32(_mm_xor_si128(r, sign), sign);  // restore sign
    return _mm_max_epi32(_mm_min_epi32(r, vqmax), vqmin);
  };
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i v16 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i lo = rescale4(_mm_cvtepi16_epi32(v16));
    const __m128i hi = rescale4(_mm_cvtepi16_epi32(_mm_srli_si128(v16, 8)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_packs_epi32(lo, hi));
  }
  if (i < n) rescale_row_i16_scalar(src + i, n - i, ratio, qmin, qmax, out + i);
}

// Lays out a masked nibble pair per int32 lane: each lane holds one packed
// byte zero-extended, and (x | x << 12) & k puts its low nibble in the
// lane's low int16 and its high nibble in the high int16 — the element
// order madd pairs against q. k is mask * 0x10001.
__m128i spread_nibbles(__m128i x, __m128i k) {
  return _mm_and_si128(_mm_or_si128(x, _mm_slli_epi32(x, 12)), k);
}

std::int64_t nibble_dot_i64_sse41(const std::int16_t* q,
                                  const std::uint8_t* nibbles,
                                  std::uint8_t mask, std::size_t n) {
  // 16 elements (8 bytes) per iteration: two madds of q against spread
  // nibble pairs (each pair sum below 2^20 in magnitude, so their sum fits
  // int32), widened to int64 every iteration — exact for any int16 q and
  // any n.
  const __m128i k = _mm_set1_epi32(static_cast<int>((mask & 0xFu) * 0x10001u));
  __m128i acc = _mm_setzero_si128();  // 2 x int64
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i b =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(nibbles + i / 2));
    const __m128i q0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i));
    const __m128i q1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i + 8));
    const __m128i sums = _mm_add_epi32(
        _mm_madd_epi16(q0, spread_nibbles(_mm_cvtepu8_epi32(b), k)),
        _mm_madd_epi16(
            q1, spread_nibbles(_mm_cvtepu8_epi32(_mm_srli_si128(b, 4)), k)));
    acc = _mm_add_epi64(acc, _mm_cvtepi32_epi64(sums));
    acc = _mm_add_epi64(acc, _mm_cvtepi32_epi64(_mm_srli_si128(sums, 8)));
  }
  alignas(16) std::int64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
  std::int64_t sum = lanes[0] + lanes[1];
  // i is a multiple of 16 here, so the tail starts on a byte boundary.
  if (i < n) sum += nibble_dot_i64_scalar(q + i, nibbles + i / 2, mask, n - i);
  return sum;
}

bool pack_planes_i16_sse41(const std::int16_t* src, std::size_t n,
                           int total_bits, std::uint8_t* const* rows) {
  // 32 elements per iteration, the scalar bit moves per lane: the range
  // check, u = (x & low) ^ offset, then per plane each int16 pair's shifted
  // nibbles (lo + 16 * hi, one madd) as an int32 lane narrowed to a byte by
  // two unsigned-saturating packs (every lane is below 256).
  const int planes = PlaneLayout::planes_for(total_bits);
  const int half = 1 << (total_bits - 1);
  const __m128i low = _mm_set1_epi16(static_cast<short>(2 * half - 1));
  const __m128i offset = _mm_set1_epi16(static_cast<short>(half));
  const __m128i qmax = _mm_set1_epi16(static_cast<short>(half - 1));
  const __m128i qmin = _mm_set1_epi16(static_cast<short>(-half));
  const __m128i nibble = _mm_set1_epi16(0xF);
  const __m128i pair = _mm_set1_epi32(0x00100001);
  __m128i bad = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m128i u[4];
    for (int k = 0; k < 4; ++k) {
      const __m128i x =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 8 * k));
      bad = _mm_or_si128(bad, _mm_or_si128(_mm_cmpgt_epi16(x, qmax),
                                           _mm_cmpgt_epi16(qmin, x)));
      u[k] = _mm_xor_si128(_mm_and_si128(x, low), offset);
    }
    for (int j = 0; j < planes; ++j) {
      const __m128i shift = _mm_cvtsi32_si128(4 * (planes - 1 - j));
      __m128i b[4];
      for (int k = 0; k < 4; ++k) {
        b[k] = _mm_madd_epi16(
            _mm_and_si128(_mm_srl_epi16(u[k], shift), nibble), pair);
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(rows[j] + i / 2),
                       _mm_packus_epi16(_mm_packus_epi32(b[0], b[1]),
                                        _mm_packus_epi32(b[2], b[3])));
    }
  }
  bool in_range = _mm_testz_si128(bad, bad) != 0;
  if (i < n) in_range &= pack_planes_tail(src, i, n, total_bits, rows);
  return in_range;
}

void unpack_planes_i16_sse41(const std::uint8_t* const* rows, std::size_t n,
                             int total_bits, std::int16_t* out) {
  // 32 elements (16 bytes per plane) per iteration. Two adjacent planes
  // (a more significant than b) merge into one byte per element, a's nibble
  // high: even elements take the low nibbles, odd ones the high nibbles,
  // and an 8-bit unpack puts them in element order. The two least
  // significant planes make u's low byte and the two above them its high
  // byte (an absent plane reads as zero); a 16-bit unpack joins them.
  const int planes = PlaneLayout::planes_for(total_bits);
  const __m128i lo_nibbles = _mm_set1_epi8(0x0F);
  const __m128i hi_nibbles = _mm_set1_epi8(static_cast<char>(0xF0));
  const __m128i offset =
      _mm_set1_epi16(static_cast<short>(1 << (total_bits - 1)));
  const auto load = [&](int j, std::size_t i) {
    return j >= 0 ? _mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(rows[j] + i / 2))
                  : _mm_setzero_si128();
  };
  const auto merge = [&](__m128i a, __m128i b, __m128i* e0, __m128i* e1) {
    const __m128i even =
        _mm_or_si128(_mm_and_si128(_mm_slli_epi16(a, 4), hi_nibbles),
                     _mm_and_si128(b, lo_nibbles));
    const __m128i odd =
        _mm_or_si128(_mm_and_si128(a, hi_nibbles),
                     _mm_and_si128(_mm_srli_epi16(b, 4), lo_nibbles));
    *e0 = _mm_unpacklo_epi8(even, odd);
    *e1 = _mm_unpackhi_epi8(even, odd);
  };
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m128i lo0, lo1, hi0, hi1;
    merge(load(planes - 2, i), load(planes - 1, i), &lo0, &lo1);
    merge(load(planes - 4, i), load(planes - 3, i), &hi0, &hi1);
    const __m128i words[4] = {
        _mm_unpacklo_epi8(lo0, hi0), _mm_unpackhi_epi8(lo0, hi0),
        _mm_unpacklo_epi8(lo1, hi1), _mm_unpackhi_epi8(lo1, hi1)};
    for (int k = 0; k < 4; ++k) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 8 * k),
                       _mm_sub_epi16(words[k], offset));
    }
  }
  if (i < n) unpack_planes_tail(rows, i, n, total_bits, out);
}

float row_amax_sse41(const float* xs, std::size_t n) {
  // max over |x| is order-independent (no rounding), so the vector reduction
  // is exact. Operand order matters for NaN: maxps returns its SECOND
  // operand when either is NaN, so the running max goes second — a NaN
  // element keeps the running max, exactly the scalar skip.
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  __m128 vmax = _mm_setzero_ps();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vmax = _mm_max_ps(_mm_and_ps(_mm_loadu_ps(xs + i), abs_mask), vmax);
  }
  alignas(16) float lanes[4];
  _mm_store_ps(lanes, vmax);
  float amax = 0.0f;
  for (const float lane : lanes) amax = amax < lane ? lane : amax;
  for (; i < n; ++i) {
    const float a = xs[i] < 0.0f ? -xs[i] : xs[i];
    amax = amax < a ? a : amax;
  }
  return amax;
}

}  // namespace

const KernelTable& sse41_kernels() {
  static constexpr KernelTable table = {
      IsaLevel::sse41,        "sse41",
      row_dot_i64_sse41,      weighted_value_accum_sse41,
      quantize_row_i16_sse41, row_amax_sse41,
      rescale_row_i16_sse41,  nibble_dot_i64_sse41,
      pack_planes_i16_sse41,  unpack_planes_i16_sse41,
  };
  return table;
}

}  // namespace topick::fx::detail

#endif  // __SSE4_1__ && x86
