// The golden wire corpus: one frame per frame magic, one CKP1 file and
// one ENV1 envelope, each built from fixed seeds through the public
// writers. tools/make_golden_corpus.cc writes these bytes to disk;
// tests/golden_corpus_test.cc compares them with the committed files
// under tests/golden/v<N>/.
//
// The builders use only exact arithmetic and the library's own
// bit-exact kernels (no libm transcendentals), so the bytes do not
// depend on the platform's math library or on the SIMD dispatch level.
#ifndef ATS_TESTS_GOLDEN_GOLDEN_CASES_H_
#define ATS_TESTS_GOLDEN_GOLDEN_CASES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ats/cluster/envelope.h"
#include "ats/core/bottom_k.h"
#include "ats/core/random.h"
#include "ats/persist/checkpoint.h"
#include "ats/samplers/budget_sampler.h"
#include "ats/samplers/multi_objective.h"
#include "ats/samplers/multi_stratified.h"
#include "ats/samplers/sliding_window.h"
#include "ats/samplers/time_decay.h"
#include "ats/samplers/variance_sized.h"
#include "ats/sketch/group_distinct.h"
#include "ats/sketch/kmv.h"
#include "ats/sketch/lcs_merge.h"
#include "ats/sketch/theta.h"

namespace ats::golden {

// Items per built sketch: enough to saturate every family's capacity,
// few enough to keep each file a few KB at most.
inline constexpr size_t kItems = 64;
inline constexpr uint64_t kSalt = 0x5eed;

// Fields of the CKP1 and ENV1 fixtures.
inline constexpr uint64_t kCheckpointEpoch = 1234;
inline constexpr uint64_t kEnvelopeSender = 7;
inline constexpr uint64_t kEnvelopeIncarnation = 2;
inline constexpr uint64_t kEnvelopeSeq = 42;
inline constexpr uint64_t kEnvelopeEpoch = 99;

inline uint64_t Key(size_t i) {
  return 1'000'000 + static_cast<uint64_t>(i);
}

// A positive weight in [0.25, 4.25): exact arithmetic on the generator.
inline double Weight(Xoshiro256& rng) {
  return 0.25 + 4.0 * rng.NextDoubleOpenZero();
}

inline std::string BuildBottomK() {
  BottomK<uint64_t> s(12);
  Xoshiro256 rng(1);
  for (size_t i = 0; i < kItems; ++i) {
    s.Offer(rng.NextDoubleOpenZero(), Key(i));
  }
  return s.SerializeToString();
}

inline std::string BuildPriority() {
  PrioritySampler s(12, /*seed=*/2, /*coordinated=*/false);
  Xoshiro256 rng(2);
  for (size_t i = 0; i < kItems; ++i) s.Add(Key(i), Weight(rng));
  return s.SerializeToString();
}

inline KmvSketch MakeKmv(uint64_t first_key) {
  KmvSketch s(12, /*initial_threshold=*/1.0, kSalt);
  for (size_t i = 0; i < kItems; ++i) s.AddKey(first_key + i);
  return s;
}

inline std::string BuildKmv() { return MakeKmv(Key(0)).SerializeToString(); }

inline std::string BuildTheta() {
  ThetaSketch s(12, kSalt);
  for (size_t i = 0; i < kItems; ++i) s.AddKey(Key(i));
  return s.SerializeToString();
}

inline std::string BuildGroupDistinct() {
  GroupDistinctSketch s(/*m=*/8, /*k=*/8, kSalt);
  Xoshiro256 rng(3);
  for (size_t i = 0; i < kItems; ++i) s.Add(rng.NextBelow(8), Key(i));
  return s.SerializeToString();
}

inline std::string BuildLcs() {
  LcsSketch s = LcsSketch::FromKmv(MakeKmv(Key(0)));
  s.Merge(LcsSketch::FromKmv(MakeKmv(Key(kItems / 2))));
  return s.SerializeToString();
}

inline std::string BuildSlidingWindow() {
  SlidingWindowSampler s(/*k=*/12, /*window=*/0.25, /*seed=*/4);
  for (size_t i = 0; i < kItems; ++i) {
    s.Arrive(/*time=*/0.0078125 * static_cast<double>(i), Key(i));
  }
  return s.SerializeToString();
}

inline std::string BuildTimeDecay() {
  TimeDecaySampler s(/*k=*/12, /*seed=*/5);
  Xoshiro256 rng(5);
  for (size_t i = 0; i < kItems; ++i) {
    const double weight = Weight(rng);
    s.Add(Key(i), weight, /*value=*/2.0 * weight,
          /*time=*/0.0078125 * static_cast<double>(i));
  }
  return s.SerializeToString();
}

inline std::string BuildMultiStratified() {
  MultiStratifiedSampler s(/*num_dimensions=*/2, /*k=*/5, /*seed=*/6);
  for (size_t i = 0; i < kItems; ++i) {
    const uint64_t key = Key(i);
    s.Add(key, {key % 3, key % 4},
          /*value=*/1.0 + 0.5 * static_cast<double>(i));
  }
  return s.SerializeToString();
}

inline std::string BuildVarianceSized() {
  VarianceSizedSampler s(/*delta_squared=*/0.5, /*seed=*/7);
  Xoshiro256 rng(7);
  for (size_t i = 0; i < kItems; ++i) {
    const double weight = Weight(rng);
    s.Add(Key(i), /*value=*/weight, weight);
  }
  return s.SerializeToString();
}

inline std::string BuildMultiObjective() {
  MultiObjectiveSampler s(/*num_objectives=*/3, /*k=*/8, /*seed=*/8);
  Xoshiro256 rng(8);
  std::vector<double> weights(3);
  for (size_t i = 0; i < kItems; ++i) {
    for (double& w : weights) w = Weight(rng);
    s.Add(Key(i), weights, /*value=*/1.0 + 0.25 * static_cast<double>(i));
  }
  return s.SerializeToString();
}

inline std::string BuildBudget() {
  BudgetSampler s(/*budget=*/20.0, /*seed=*/9);
  Xoshiro256 rng(9);
  for (size_t i = 0; i < kItems; ++i) {
    const double size = 0.5 + rng.NextDoubleOpenZero();
    const double weight = Weight(rng);
    s.Add(Key(i), size, /*value=*/size * weight, weight);
  }
  return s.SerializeToString();
}

// A CKP1 file wrapping the PSM2 fixture frame.
inline std::string BuildCheckpoint() {
  return persist::EncodeCheckpoint(persist::SchemeKind::kPriority,
                                   kCheckpointEpoch, BuildPriority());
}

// An ENV1 data envelope carrying the KMV2 fixture frame.
inline std::string BuildEnvelope() {
  return cluster::EncodeEnvelope(cluster::EnvelopeKind::kData,
                                 kEnvelopeSender, kEnvelopeIncarnation,
                                 kEnvelopeSeq, kEnvelopeEpoch, BuildKmv());
}

// Whole-buffer Deserialize followed by SerializeToString: the family's
// canonical re-encoding of `frame`, or nullopt when it does not parse.
template <typename Sketch>
std::optional<std::string> Reserialize(std::string_view frame) {
  const std::optional<Sketch> sketch = Sketch::Deserialize(frame);
  if (!sketch.has_value()) return std::nullopt;
  return sketch->SerializeToString();
}

struct FrameCase {
  const char* magic;  // the file name: tests/golden/v<N>/<magic>.bin
  std::string (*build)();
  std::optional<std::string> (*reserialize)(std::string_view);
};

// One case per frame magic, in the order of docs/WIRE_FORMAT.md.
inline const std::vector<FrameCase>& FrameCases() {
  static const std::vector<FrameCase> cases = {
      {"KMV2", BuildKmv, Reserialize<KmvSketch>},
      {"BTK2", BuildBottomK, Reserialize<BottomK<uint64_t>>},
      {"PSM2", BuildPriority, Reserialize<PrioritySampler>},
      {"THT2", BuildTheta, Reserialize<ThetaSketch>},
      {"LCS2", BuildLcs, Reserialize<LcsSketch>},
      {"GDS2", BuildGroupDistinct, Reserialize<GroupDistinctSketch>},
      {"SWN1", BuildSlidingWindow, Reserialize<SlidingWindowSampler>},
      {"TDK1", BuildTimeDecay, Reserialize<TimeDecaySampler>},
      {"MSS1", BuildMultiStratified, Reserialize<MultiStratifiedSampler>},
      {"VSZ1", BuildVarianceSized, Reserialize<VarianceSizedSampler>},
      {"MOB1", BuildMultiObjective, Reserialize<MultiObjectiveSampler>},
      {"BGT1", BuildBudget, Reserialize<BudgetSampler>},
  };
  return cases;
}

// Every file of one corpus version: the frames, then CKP1 and ENV1.
struct CorpusFile {
  std::string name;
  std::string bytes;
};

inline std::vector<CorpusFile> BuildCorpus() {
  std::vector<CorpusFile> files;
  for (const FrameCase& c : FrameCases()) {
    files.push_back({std::string(c.magic) + ".bin", c.build()});
  }
  files.push_back({"CKP1.bin", BuildCheckpoint()});
  files.push_back({"ENV1.bin", BuildEnvelope()});
  return files;
}

}  // namespace ats::golden

#endif  // ATS_TESTS_GOLDEN_GOLDEN_CASES_H_
