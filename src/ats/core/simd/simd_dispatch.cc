// Runtime dispatch: detect the best level once, honor ATS_SIMD_LEVEL,
// and publish the active kernel table through one atomic pointer.
#include "ats/core/simd/simd_dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "ats/core/simd/kernels.h"

namespace ats::simd {
namespace {

SimdLevel DetectLevel() {
#if ATS_SIMD_X86
#if defined(__GNUC__) || defined(__clang__)
  __builtin_cpu_init();
  // The AVX2 table's crc32c kernel uses the SSE4.2 crc32 instruction.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("sse4.2")) {
    return SimdLevel::kAvx2;
  }
  // SSE2 is part of the x86-64 baseline; no need to probe for it.
  return SimdLevel::kSse2;
#else
  return SimdLevel::kSse2;
#endif
#else
  return SimdLevel::kScalar;
#endif
}

const KernelTable& TableFor(SimdLevel level) {
  switch (level) {
#if ATS_SIMD_X86
    case SimdLevel::kAvx2:
      return internal::Avx2Kernels();
    case SimdLevel::kSse2:
      return internal::Sse2Kernels();
#endif
    default:
      return internal::ScalarKernels();
  }
}

// Parses ATS_SIMD_LEVEL; anything unset/empty/unrecognized means
// "detected best" so a typo degrades to normal operation, not scalar.
SimdLevel InitialLevel() {
  const SimdLevel best = DetectedSimdLevel();
  const char* env = std::getenv("ATS_SIMD_LEVEL");
  if (env == nullptr || env[0] == '\0') return best;
  SimdLevel requested = best;
  if (std::strcmp(env, "scalar") == 0) {
    requested = SimdLevel::kScalar;
  } else if (std::strcmp(env, "sse2") == 0) {
    requested = SimdLevel::kSse2;
  } else if (std::strcmp(env, "avx2") == 0) {
    requested = SimdLevel::kAvx2;
  }
  return requested <= best ? requested : best;
}

struct DispatchState {
  std::atomic<const KernelTable*> table;
  std::atomic<int> level;

  DispatchState() {
    const SimdLevel initial = InitialLevel();
    table.store(&TableFor(initial), std::memory_order_release);
    level.store(static_cast<int>(initial), std::memory_order_release);
  }
};

DispatchState& State() {
  static DispatchState state;
  return state;
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kSse2:
      return "sse2";
    default:
      return "scalar";
  }
}

SimdLevel DetectedSimdLevel() {
  static const SimdLevel detected = DetectLevel();
  return detected;
}

SimdLevel ActiveSimdLevel() {
  return static_cast<SimdLevel>(
      State().level.load(std::memory_order_acquire));
}

bool SetSimdLevel(SimdLevel level) {
  const SimdLevel best = DetectedSimdLevel();
  const bool honored = level <= best;
  const SimdLevel effective = honored ? level : best;
  DispatchState& state = State();
  state.table.store(&TableFor(effective), std::memory_order_release);
  state.level.store(static_cast<int>(effective),
                    std::memory_order_release);
  return honored;
}

const KernelTable& ActiveKernels() {
  return *State().table.load(std::memory_order_acquire);
}

}  // namespace ats::simd
