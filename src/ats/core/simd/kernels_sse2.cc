// SSE2 kernel table: 2-lane implementations of the same kernels as the
// AVX2 unit, restricted to the x86-64 baseline ISA (blends emulated with
// and/andnot/or, no SSE4.1). Operation order matches fast_log.h and the
// scalar hash pipeline exactly, so results are bit-identical to both the
// scalar and the AVX2 levels.
#include "ats/core/simd/kernels.h"

#if ATS_SIMD_X86

#include <emmintrin.h>

#include <cstddef>
#include <cstdint>

#include "ats/core/simd/fast_log.h"

namespace ats::simd::internal {
namespace {

inline __m128d Blend(__m128d a, __m128d b, __m128d mask) {
  return _mm_or_pd(_mm_and_pd(mask, b), _mm_andnot_pd(mask, a));
}

inline __m128i MulLo64(__m128i a, __m128i b) {
  const __m128i lo = _mm_mul_epu32(a, b);
  const __m128i cross =
      _mm_add_epi64(_mm_mul_epu32(_mm_srli_epi64(a, 32), b),
                    _mm_mul_epu32(a, _mm_srli_epi64(b, 32)));
  return _mm_add_epi64(lo, _mm_slli_epi64(cross, 32));
}

inline __m128i Mix64x2(__m128i x) {
  x = _mm_xor_si128(x, _mm_srli_epi64(x, 33));
  x = MulLo64(x, _mm_set1_epi64x(0xff51afd7ed558ccdULL));
  x = _mm_xor_si128(x, _mm_srli_epi64(x, 33));
  x = MulLo64(x, _mm_set1_epi64x(0xc4ceb9fe1a85ec53ULL));
  return _mm_xor_si128(x, _mm_srli_epi64(x, 33));
}

inline __m128d U64ToDouble(__m128i v) {
  const __m128i magic = _mm_set1_epi64x(0x4330000000000000LL);
  const __m128d magic_d = _mm_set1_pd(0x1.0p52);
  const __m128d hi = _mm_sub_pd(
      _mm_castsi128_pd(_mm_or_si128(_mm_srli_epi64(v, 32), magic)),
      magic_d);
  const __m128d lo = _mm_sub_pd(
      _mm_castsi128_pd(_mm_or_si128(
          _mm_and_si128(v, _mm_set1_epi64x(0xffffffffLL)), magic)),
      magic_d);
  return _mm_add_pd(_mm_mul_pd(hi, _mm_set1_pd(0x1.0p32)), lo);
}

uint64_t Sse2PrefilterMask64(const double* priorities, double bound) {
  const __m128d b = _mm_set1_pd(bound);
  uint64_t mask = 0;
  for (size_t v = 0; v < 32; ++v) {
    const __m128d p = _mm_loadu_pd(priorities + 2 * v);
    const int bits = _mm_movemask_pd(_mm_cmplt_pd(p, b));
    mask |= static_cast<uint64_t>(bits) << (2 * v);
  }
  return mask;
}

uint64_t Sse2HashPriorityMask64(const uint64_t* keys, uint64_t salt,
                                double bound, double* priorities_out) {
  const __m128i salt_add = _mm_set1_epi64x(
      static_cast<int64_t>(0x9e3779b97f4a7c15ULL * (salt + 1)));
  const __m128d b = _mm_set1_pd(bound);
  const __m128d one = _mm_set1_pd(1.0);
  const __m128d scale = _mm_set1_pd(0x1.0p-53);
  uint64_t mask = 0;
  for (size_t v = 0; v < 32; ++v) {
    __m128i h = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(keys + 2 * v));
    h = Mix64x2(_mm_add_epi64(h, salt_add));
    const __m128d p = _mm_mul_pd(
        _mm_add_pd(U64ToDouble(_mm_srli_epi64(h, 11)), one), scale);
    _mm_storeu_pd(priorities_out + 2 * v, p);
    const int bits = _mm_movemask_pd(_mm_cmplt_pd(p, b));
    mask |= static_cast<uint64_t>(bits) << (2 * v);
  }
  return mask;
}

inline __m128d FastLogX2(__m128d x) {
  const __m128d orig = x;
  const __m128d denorm = _mm_cmplt_pd(x, _mm_set1_pd(kMinNormal));
  x = Blend(x, _mm_mul_pd(x, _mm_set1_pd(kTwo54)), denorm);
  const __m128i k_adjust =
      _mm_and_si128(_mm_castpd_si128(denorm), _mm_set1_epi64x(-54));
  __m128i ix = _mm_castpd_si128(x);
  const __m128i hx = _mm_srli_epi64(ix, 32);
  __m128i k = _mm_add_epi64(
      _mm_sub_epi64(_mm_srli_epi64(hx, 20), _mm_set1_epi64x(1023)),
      k_adjust);
  const __m128i mant_hi = _mm_and_si128(hx, _mm_set1_epi64x(0xfffff));
  const __m128i i = _mm_and_si128(
      _mm_add_epi64(mant_hi, _mm_set1_epi64x(0x95f64)),
      _mm_set1_epi64x(0x100000));
  const __m128i new_hi = _mm_or_si128(
      mant_hi, _mm_xor_si128(i, _mm_set1_epi64x(0x3ff00000)));
  ix = _mm_or_si128(_mm_slli_epi64(new_hi, 32),
                    _mm_and_si128(ix, _mm_set1_epi64x(0xffffffffLL)));
  x = _mm_castsi128_pd(ix);
  k = _mm_add_epi64(k, _mm_srli_epi64(i, 20));

  const __m128d one = _mm_set1_pd(1.0);
  const __m128d f = _mm_sub_pd(x, one);
  const __m128d s = _mm_div_pd(f, _mm_add_pd(_mm_set1_pd(2.0), f));
  const __m128d z = _mm_mul_pd(s, s);
  const __m128d w = _mm_mul_pd(z, z);
  const __m128d t1 = _mm_mul_pd(
      w, _mm_add_pd(
             _mm_set1_pd(kLg2),
             _mm_mul_pd(w, _mm_add_pd(_mm_set1_pd(kLg4),
                                      _mm_mul_pd(
                                          w, _mm_set1_pd(kLg6))))));
  const __m128d t2 = _mm_mul_pd(
      z, _mm_add_pd(
             _mm_set1_pd(kLg1),
             _mm_mul_pd(
                 w, _mm_add_pd(
                        _mm_set1_pd(kLg3),
                        _mm_mul_pd(
                            w, _mm_add_pd(
                                   _mm_set1_pd(kLg5),
                                   _mm_mul_pd(
                                       w, _mm_set1_pd(kLg7))))))));
  const __m128d r = _mm_add_pd(t2, t1);
  const __m128d hfsq = _mm_mul_pd(_mm_mul_pd(_mm_set1_pd(0.5), f), f);
  const __m128d dk = _mm_sub_pd(
      _mm_castsi128_pd(
          _mm_or_si128(_mm_add_epi64(k, _mm_set1_epi64x(1075)),
                       _mm_set1_epi64x(0x4330000000000000LL))),
      _mm_set1_pd(0x1.0p52 + 1075.0));
  const __m128d result = _mm_sub_pd(
      _mm_mul_pd(dk, _mm_set1_pd(kLn2Hi)),
      _mm_sub_pd(
          _mm_sub_pd(hfsq,
                     _mm_add_pd(_mm_mul_pd(s, _mm_add_pd(hfsq, r)),
                                _mm_mul_pd(dk, _mm_set1_pd(kLn2Lo)))),
          f));
  const __m128d inf_mask =
      _mm_cmpeq_pd(orig, _mm_set1_pd(__builtin_inf()));
  return Blend(result, orig, inf_mask);
}

void Sse2LogSpan(const double* x, double* out, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(out + i, FastLogX2(_mm_loadu_pd(x + i)));
  }
  for (; i < n; ++i) out[i] = FastLog(x[i]);
}

}  // namespace

const KernelTable& Sse2Kernels() {
  static constexpr KernelTable kTable{
      Sse2PrefilterMask64,
      Sse2HashPriorityMask64,
      Sse2LogSpan,
      Crc32cSliceBy8,  // SSE2 has no CRC instruction
  };
  return kTable;
}

}  // namespace ats::simd::internal

#endif  // ATS_SIMD_X86
