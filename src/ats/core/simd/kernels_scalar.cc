// Scalar reference kernels: the semantics every SIMD level is pinned to.
// This translation unit is compiled WITHOUT auto-vectorization (see the
// per-file flags in CMakeLists.txt) so the forced-scalar dispatch level
// measures a genuine scalar loop, not whatever the optimizer invents --
// that is the baseline the bench tier's speedup claims are made against.
#include "ats/core/simd/kernels.h"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "ats/core/random.h"
#include "ats/core/simd/fast_log.h"

namespace ats::simd::internal {
namespace {

uint64_t ScalarPrefilterMask64(const double* priorities, double bound) {
  uint64_t mask = 0;
  for (size_t j = 0; j < 64; ++j) {
    mask |= static_cast<uint64_t>(priorities[j] < bound) << j;
  }
  return mask;
}

uint64_t ScalarHashPriorityMask64(const uint64_t* keys, uint64_t salt,
                                  double bound, double* priorities_out) {
  uint64_t mask = 0;
  for (size_t j = 0; j < 64; ++j) {
    const double p = HashToUnit(HashKey(keys[j], salt));
    priorities_out[j] = p;
    mask |= static_cast<uint64_t>(p < bound) << j;
  }
  return mask;
}

void ScalarLogSpan(const double* x, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = FastLog(x[i]);
}

// Slicing-by-8 tables: kCrc32c[0] is the bytewise table of the reflected
// Castagnoli polynomial; kCrc32c[s][v] advances kCrc32c[0][v] by s more
// zero bytes, so one 8-byte word folds in with eight lookups.
struct Crc32cTables {
  uint32_t t[8][256];
};

constexpr Crc32cTables MakeCrc32cTables() {
  constexpr uint32_t kPolynomial = 0x82F63B78u;
  Crc32cTables tables{};
  for (uint32_t v = 0; v < 256; ++v) {
    uint32_t c = v;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (kPolynomial & (0u - (c & 1u)));
    }
    tables.t[0][v] = c;
  }
  for (int s = 1; s < 8; ++s) {
    for (uint32_t v = 0; v < 256; ++v) {
      const uint32_t prev = tables.t[s - 1][v];
      tables.t[s][v] = (prev >> 8) ^ tables.t[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Crc32cTables kCrc32c = MakeCrc32cTables();

}  // namespace

uint32_t Crc32cSliceBy8(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t = kCrc32c.t;
  uint32_t c = ~crc;
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; n -= 8, p += 8) {
      uint64_t w;
      std::memcpy(&w, p, sizeof(w));
      w ^= c;
      c = t[7][w & 0xff] ^ t[6][(w >> 8) & 0xff] ^ t[5][(w >> 16) & 0xff] ^
          t[4][(w >> 24) & 0xff] ^ t[3][(w >> 32) & 0xff] ^
          t[2][(w >> 40) & 0xff] ^ t[1][(w >> 48) & 0xff] ^ t[0][w >> 56];
    }
  }
  for (; n > 0; --n, ++p) c = (c >> 8) ^ t[0][(c ^ *p) & 0xff];
  return ~c;
}

const KernelTable& ScalarKernels() {
  static constexpr KernelTable kTable{
      ScalarPrefilterMask64,
      ScalarHashPriorityMask64,
      ScalarLogSpan,
      Crc32cSliceBy8,
  };
  return kTable;
}

}  // namespace ats::simd::internal
