// AVX2 kernel table: 4-lane implementations of the pre-filter mask, the
// fused hash->priority->pre-filter block, and the FastLog span, plus the
// CRC32C trailer on the SSE4.2 crc32 instruction.
//
// This translation unit is compiled with -mavx2 (which implies SSE4.2)
// regardless of the global architecture flags (see CMakeLists.txt);
// simd_dispatch.cc only selects the table after runtime detection
// confirms the CPU executes AVX2 and SSE4.2.
//
// Exactness: the integer pipeline (Mix64 via the 32x32 cross-product
// 64-bit multiply) is exact arithmetic; the uint64 -> double conversion
// splits into hi*2^32 + lo, each half converted through the 2^52 magic
// bias -- every step exact for values < 2^53, so the result is
// bit-identical to the scalar static_cast. The log kernel evaluates the
// FastLog operation sequence with plain vmulpd/vaddpd/vdivpd (no FMA),
// so each lane reproduces the scalar reference bit-for-bit.
#include "ats/core/simd/kernels.h"

#if ATS_SIMD_X86

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "ats/core/simd/fast_log.h"

namespace ats::simd::internal {
namespace {

// 64x64 -> low 64 multiply (AVX2 has no vpmullq): lo product plus the
// two 32-bit cross products shifted up. The high cross term overflows
// out of the low 64 bits and is dropped, exactly like scalar uint64*.
inline __m256i MulLo64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                       _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

// Mix64 (MurmurHash3 fmix64), 4 lanes, bit-exact vs random.h.
inline __m256i Mix64x4(__m256i x) {
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = MulLo64(x, _mm256_set1_epi64x(0xff51afd7ed558ccdULL));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = MulLo64(x, _mm256_set1_epi64x(0xc4ceb9fe1a85ec53ULL));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
}

// Exact uint64 -> double for values < 2^53: hi/lo 32-bit halves through
// the 2^52 bias trick, recombined as hi*2^32 + lo (every step exact).
inline __m256d U64ToDouble(__m256i v) {
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000LL);  // 2^52
  const __m256d magic_d = _mm256_set1_pd(0x1.0p52);
  const __m256d hi = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(_mm256_srli_epi64(v, 32), magic)),
      magic_d);
  const __m256d lo = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_and_si256(v, _mm256_set1_epi64x(0xffffffffLL)), magic)),
      magic_d);
  return _mm256_add_pd(_mm256_mul_pd(hi, _mm256_set1_pd(0x1.0p32)), lo);
}

uint64_t Avx2PrefilterMask64(const double* priorities, double bound) {
  const __m256d b = _mm256_set1_pd(bound);
  uint64_t mask = 0;
  for (size_t v = 0; v < 16; ++v) {
    const __m256d p = _mm256_loadu_pd(priorities + 4 * v);
    const int bits =
        _mm256_movemask_pd(_mm256_cmp_pd(p, b, _CMP_LT_OQ));
    mask |= static_cast<uint64_t>(bits) << (4 * v);
  }
  return mask;
}

uint64_t Avx2HashPriorityMask64(const uint64_t* keys, uint64_t salt,
                                double bound, double* priorities_out) {
  // HashKey(key, salt) = Mix64(key + 0x9e3779b97f4a7c15 * (salt + 1)).
  const __m256i salt_add =
      _mm256_set1_epi64x(static_cast<int64_t>(
          0x9e3779b97f4a7c15ULL * (salt + 1)));
  const __m256d b = _mm256_set1_pd(bound);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d scale = _mm256_set1_pd(0x1.0p-53);
  uint64_t mask = 0;
  for (size_t v = 0; v < 16; ++v) {
    __m256i h = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + 4 * v));
    h = Mix64x4(_mm256_add_epi64(h, salt_add));
    // HashToUnit: ((double)(h >> 11) + 1.0) * 2^-53, exact conversion.
    const __m256d p = _mm256_mul_pd(
        _mm256_add_pd(U64ToDouble(_mm256_srli_epi64(h, 11)), one), scale);
    _mm256_storeu_pd(priorities_out + 4 * v, p);
    const int bits =
        _mm256_movemask_pd(_mm256_cmp_pd(p, b, _CMP_LT_OQ));
    mask |= static_cast<uint64_t>(bits) << (4 * v);
  }
  return mask;
}

// FastLog (fast_log.h), 4 lanes, identical operation order. Branches
// become compare + blend; per element the computed value is the same.
inline __m256d FastLogX4(__m256d x) {
  const __m256d orig = x;
  // Denormal pre-scale.
  const __m256d denorm =
      _mm256_cmp_pd(x, _mm256_set1_pd(kMinNormal), _CMP_LT_OQ);
  x = _mm256_blendv_pd(x, _mm256_mul_pd(x, _mm256_set1_pd(kTwo54)),
                       denorm);
  const __m256i k_adjust = _mm256_and_si256(
      _mm256_castpd_si256(denorm), _mm256_set1_epi64x(-54));
  __m256i ix = _mm256_castpd_si256(x);
  const __m256i hx = _mm256_srli_epi64(ix, 32);
  __m256i k = _mm256_add_epi64(
      _mm256_sub_epi64(_mm256_srli_epi64(hx, 20),
                       _mm256_set1_epi64x(1023)),
      k_adjust);
  const __m256i mant_hi =
      _mm256_and_si256(hx, _mm256_set1_epi64x(0xfffff));
  const __m256i i = _mm256_and_si256(
      _mm256_add_epi64(mant_hi, _mm256_set1_epi64x(0x95f64)),
      _mm256_set1_epi64x(0x100000));
  const __m256i new_hi = _mm256_or_si256(
      mant_hi, _mm256_xor_si256(i, _mm256_set1_epi64x(0x3ff00000)));
  ix = _mm256_or_si256(
      _mm256_slli_epi64(new_hi, 32),
      _mm256_and_si256(ix, _mm256_set1_epi64x(0xffffffffLL)));
  x = _mm256_castsi256_pd(ix);
  k = _mm256_add_epi64(k, _mm256_srli_epi64(i, 20));

  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d f = _mm256_sub_pd(x, one);
  const __m256d s =
      _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d t1 = _mm256_mul_pd(
      w, _mm256_add_pd(
             _mm256_set1_pd(kLg2),
             _mm256_mul_pd(
                 w, _mm256_add_pd(_mm256_set1_pd(kLg4),
                                  _mm256_mul_pd(
                                      w, _mm256_set1_pd(kLg6))))));
  const __m256d t2 = _mm256_mul_pd(
      z,
      _mm256_add_pd(
          _mm256_set1_pd(kLg1),
          _mm256_mul_pd(
              w, _mm256_add_pd(
                     _mm256_set1_pd(kLg3),
                     _mm256_mul_pd(
                         w, _mm256_add_pd(
                                _mm256_set1_pd(kLg5),
                                _mm256_mul_pd(
                                    w, _mm256_set1_pd(kLg7))))))));
  const __m256d r = _mm256_add_pd(t2, t1);
  const __m256d hfsq =
      _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), f), f);
  // dk = (double)k, exact via the 2^52 bias trick; k + 1075 >= 1 always.
  const __m256d dk = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_add_epi64(k, _mm256_set1_epi64x(1075)),
          _mm256_set1_epi64x(0x4330000000000000LL))),
      _mm256_set1_pd(0x1.0p52 + 1075.0));
  const __m256d result = _mm256_sub_pd(
      _mm256_mul_pd(dk, _mm256_set1_pd(kLn2Hi)),
      _mm256_sub_pd(
          _mm256_sub_pd(
              hfsq,
              _mm256_add_pd(
                  _mm256_mul_pd(s, _mm256_add_pd(hfsq, r)),
                  _mm256_mul_pd(dk, _mm256_set1_pd(kLn2Lo)))),
          f));
  // +inf passthrough.
  const __m256d inf_mask = _mm256_cmp_pd(
      orig, _mm256_set1_pd(__builtin_inf()), _CMP_EQ_OQ);
  return _mm256_blendv_pd(result, orig, inf_mask);
}

void Avx2LogSpan(const double* x, double* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, FastLogX4(_mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) out[i] = FastLog(x[i]);
}

// CRC32C on the crc32 instruction. The instruction has a 3-cycle latency
// and issues once per cycle, so long buffers run three independent
// streams over adjacent lanes of a stripe and fold them together: for
// raw (un-inverted) CRC states, crc(s, A ++ B) = Z_|B|(crc(s, A)) xor
// crc(0, B), where Z_n -- advancing a state over n zero bytes -- is
// linear over GF(2) and so a 4-lookup table per fixed n.
constexpr size_t kCrcLane = 1024;  // bytes per stream per stripe

inline uint64_t LoadU64(const unsigned char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// Raw CRC state advanced over n bytes, one stream.
inline uint32_t Crc32cRaw(uint32_t state, const unsigned char* p, size_t n) {
  uint64_t c = state;
  for (; n >= 8; n -= 8, p += 8) c = _mm_crc32_u64(c, LoadU64(p));
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; --n, ++p) c32 = _mm_crc32_u8(c32, *p);
  return c32;
}

// Z_n as a table: byte j of the state indexes t[j]. Built from the 32
// basis images, each advanced over the zero bytes by the instruction
// itself -- only ever constructed after dispatch selected this table.
struct ZeroShift {
  uint32_t t[4][256];

  explicit ZeroShift(size_t zero_bytes) {
    uint32_t basis[32];
    for (int b = 0; b < 32; ++b) {
      uint64_t c = uint64_t{1} << b;
      for (size_t i = 0; i < zero_bytes; i += 8) c = _mm_crc32_u64(c, 0);
      basis[b] = static_cast<uint32_t>(c);
    }
    for (int j = 0; j < 4; ++j) {
      for (uint32_t v = 0; v < 256; ++v) {
        uint32_t x = 0;
        for (int b = 0; b < 8; ++b) {
          if ((v >> b) & 1u) x ^= basis[8 * j + b];
        }
        t[j][v] = x;
      }
    }
  }

  uint32_t operator()(uint32_t x) const {
    return t[0][x & 0xff] ^ t[1][(x >> 8) & 0xff] ^ t[2][(x >> 16) & 0xff] ^
           t[3][x >> 24];
  }
};

uint32_t Avx2Crc32c(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = ~crc;
  if (n >= 3 * kCrcLane) {
    static const ZeroShift by_one_lane(kCrcLane);
    static const ZeroShift by_two_lanes(2 * kCrcLane);
    for (; n >= 3 * kCrcLane; n -= 3 * kCrcLane, p += 3 * kCrcLane) {
      uint64_t a = c, b = 0, d = 0;
      for (size_t i = 0; i < kCrcLane; i += 8) {
        a = _mm_crc32_u64(a, LoadU64(p + i));
        b = _mm_crc32_u64(b, LoadU64(p + kCrcLane + i));
        d = _mm_crc32_u64(d, LoadU64(p + 2 * kCrcLane + i));
      }
      c = by_two_lanes(static_cast<uint32_t>(a)) ^
          by_one_lane(static_cast<uint32_t>(b)) ^ static_cast<uint32_t>(d);
    }
  }
  return ~Crc32cRaw(c, p, n);
}

}  // namespace

const KernelTable& Avx2Kernels() {
  static constexpr KernelTable kTable{
      Avx2PrefilterMask64,
      Avx2HashPriorityMask64,
      Avx2LogSpan,
      Avx2Crc32c,
  };
  return kTable;
}

}  // namespace ats::simd::internal

#endif  // ATS_SIMD_X86
