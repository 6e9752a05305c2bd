// The golden wire corpus: one frame per frame magic, one CKP1 file per
// checkpoint scheme kind, and one ENV1 envelope per envelope kind, each
// built from fixed seeds through the public writers.
// tools/make_golden_corpus.cc writes these bytes to disk;
// tests/golden_corpus_test.cc compares them with the committed files
// under tests/golden/v<N>/.
//
// The builders use only exact arithmetic and the library's own
// bit-exact kernels (no libm transcendentals), so the bytes do not
// depend on the platform's math library or on the SIMD dispatch level.
#ifndef ATS_TESTS_GOLDEN_GOLDEN_CASES_H_
#define ATS_TESTS_GOLDEN_GOLDEN_CASES_H_

#include <cstdint>
#include <cstdlib>
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
// The aggregator that acknowledges the data envelope above.
inline constexpr uint64_t kAckSender = 1;

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

inline const FrameCase& FindFrameCase(std::string_view magic) {
  for (const FrameCase& c : FrameCases()) {
    if (magic == c.magic) return c;
  }
  std::abort();  // a CheckpointCase names a frame with no fixture
}

// One CKP1 file per scheme kind, wrapping that family's frame fixture
// at kCheckpointEpoch, in the order of the CKP1 kind table.
struct CheckpointCase {
  persist::SchemeKind kind;
  const char* frame;  // magic of the wrapped FrameCase
  const char* file;   // the file name under tests/golden/v<N>/
};

// CKP1.bin (kind 9) came first; every other kind is CKP1-<frame>.bin.
inline const std::vector<CheckpointCase>& CheckpointCases() {
  using persist::SchemeKind;
  static const std::vector<CheckpointCase> cases = {
      {SchemeKind::kKmv, "KMV2", "CKP1-KMV2.bin"},
      {SchemeKind::kBottomK, "BTK2", "CKP1-BTK2.bin"},
      {SchemeKind::kSlidingWindow, "SWN1", "CKP1-SWN1.bin"},
      {SchemeKind::kTimeDecay, "TDK1", "CKP1-TDK1.bin"},
      {SchemeKind::kMultiStratified, "MSS1", "CKP1-MSS1.bin"},
      {SchemeKind::kVarianceSized, "VSZ1", "CKP1-VSZ1.bin"},
      {SchemeKind::kMultiObjective, "MOB1", "CKP1-MOB1.bin"},
      {SchemeKind::kBudget, "BGT1", "CKP1-BGT1.bin"},
      {SchemeKind::kPriority, "PSM2", "CKP1.bin"},
      {SchemeKind::kTheta, "THT2", "CKP1-THT2.bin"},
      {SchemeKind::kGroupDistinct, "GDS2", "CKP1-GDS2.bin"},
  };
  return cases;
}

inline std::string BuildCheckpoint(const CheckpointCase& c) {
  return persist::EncodeCheckpoint(c.kind, kCheckpointEpoch,
                                   FindFrameCase(c.frame).build());
}

// One ENV1 file per envelope kind, all naming the same (incarnation,
// seq, epoch): a data envelope from the node carrying the KMV2 fixture,
// and the aggregator's ack for it, which carries nothing.
struct EnvelopeCase {
  cluster::EnvelopeKind kind;
  uint64_t sender;
  const char* payload;  // magic of the carried FrameCase; null for none
  const char* file;
};

inline const std::vector<EnvelopeCase>& EnvelopeCases() {
  static const std::vector<EnvelopeCase> cases = {
      {cluster::EnvelopeKind::kData, kEnvelopeSender, "KMV2", "ENV1.bin"},
      {cluster::EnvelopeKind::kAck, kAckSender, nullptr, "ENV1-ack.bin"},
  };
  return cases;
}

inline std::string BuildEnvelope(const EnvelopeCase& c) {
  return cluster::EncodeEnvelope(
      c.kind, c.sender, kEnvelopeIncarnation, kEnvelopeSeq, kEnvelopeEpoch,
      c.payload == nullptr ? std::string() : FindFrameCase(c.payload).build());
}

// Every file of one corpus version: the frames, the CKP1 files, then
// the ENV1 envelopes.
struct CorpusFile {
  std::string name;
  std::string bytes;
};

inline std::vector<CorpusFile> BuildCorpus() {
  std::vector<CorpusFile> files;
  for (const FrameCase& c : FrameCases()) {
    files.push_back({std::string(c.magic) + ".bin", c.build()});
  }
  for (const CheckpointCase& c : CheckpointCases()) {
    files.push_back({c.file, BuildCheckpoint(c)});
  }
  for (const EnvelopeCase& c : EnvelopeCases()) {
    files.push_back({c.file, BuildEnvelope(c)});
  }
  return files;
}

}  // namespace ats::golden

#endif  // ATS_TESTS_GOLDEN_GOLDEN_CASES_H_
