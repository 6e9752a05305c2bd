// Hostile-input tests for the zero-copy frame views (BottomK::
// DeserializeView, KmvSketch::DeserializeView, MultiStratifiedSampler's
// entry-stride bound) and the MergeManyFrames
// aggregation built on them: truncated frames, corrupted bytes,
// oversized/overlapping entry regions, huge declared capacities, and
// invalid entries must all fail cleanly -- nullopt / false with the
// target sketch observably unchanged -- and hostile capacity claims must
// never translate into allocations (the kMaxEagerReserve contract).
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/bottom_k.h"
#include "ats/core/random.h"
#include "ats/samplers/multi_stratified.h"
#include "ats/sketch/kmv.h"

namespace ats {
namespace {

std::string SampleBottomKFrame(size_t k, size_t items, uint64_t seed = 5) {
  BottomK<uint64_t> sketch(k);
  Xoshiro256 rng(seed);
  for (uint64_t i = 0; i < items; ++i) {
    sketch.Offer(rng.NextDoubleOpenZero(), i);
  }
  return sketch.SerializeToString();
}

std::string SampleKmvFrame(size_t k, size_t keys, uint64_t salt = 3) {
  KmvSketch sketch(k, 1.0, salt);
  for (uint64_t i = 0; i < keys; ++i) sketch.AddKey(i);
  return sketch.SerializeToString();
}

// Patches `count` bytes at `offset` in a copy of `frame` and repairs the
// trailing checksum so only the targeted field validation can reject it.
std::string PatchAndRechecksum(std::string frame, size_t offset,
                               const void* bytes, size_t count) {
  std::memcpy(frame.data() + offset, bytes, count);
  const uint32_t checksum =
      FrameChecksum(std::string_view(frame).substr(0, frame.size() - 4));
  std::memcpy(frame.data() + frame.size() - 4, &checksum, sizeof(checksum));
  return frame;
}

// Byte offsets inside a BottomK frame body.
constexpr size_t kBkKOffset = 8;          // after magic + version
constexpr size_t kBkThresholdOffset = 16;  // after k
constexpr size_t kBkCountOffset = 24;      // after threshold
constexpr size_t kBkEntriesOffset = 32;

TEST(BottomKDeserializeView, RoundTripMatchesDeserialize) {
  const std::string frame = SampleBottomKFrame(16, 300);
  const auto view = BottomK<uint64_t>::DeserializeView(frame);
  ASSERT_TRUE(view.has_value());
  const auto sketch = BottomK<uint64_t>::Deserialize(std::string_view(frame));
  ASSERT_TRUE(sketch.has_value());
  EXPECT_EQ(view->k(), sketch->k());
  EXPECT_EQ(view->size(), sketch->size());
  EXPECT_DOUBLE_EQ(view->threshold(), sketch->Threshold());
  // Entries in the view are the store's serialization order; every
  // (priority, payload) pair must round-trip through the sketch.
  auto entries = sketch->SortedEntries();
  std::vector<std::pair<double, uint64_t>> from_view;
  for (size_t i = 0; i < view->size(); ++i) {
    from_view.emplace_back(view->priority(i), view->payload(i));
  }
  std::sort(from_view.begin(), from_view.end());
  ASSERT_EQ(from_view.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_DOUBLE_EQ(from_view[i].first, entries[i].priority);
    EXPECT_EQ(from_view[i].second, entries[i].payload);
  }
}

TEST(BottomKDeserializeView, EveryTruncationFailsCleanly) {
  const std::string frame = SampleBottomKFrame(8, 100);
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(
        BottomK<uint64_t>::DeserializeView(std::string_view(frame).substr(0, len))
            .has_value())
        << "prefix length " << len;
  }
  EXPECT_TRUE(BottomK<uint64_t>::DeserializeView(frame).has_value());
}

TEST(BottomKDeserializeView, FlippedByteFailsChecksum) {
  const std::string frame = SampleBottomKFrame(8, 100);
  for (size_t pos : {size_t{0}, size_t{12}, frame.size() / 2,
                     frame.size() - 5}) {
    std::string bad = frame;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    EXPECT_FALSE(BottomK<uint64_t>::DeserializeView(bad).has_value())
        << "flipped byte " << pos;
  }
}

TEST(BottomKDeserializeView, TrailingJunkIsAFramingError) {
  std::string frame = SampleBottomKFrame(8, 100);
  frame.append("junk");
  EXPECT_FALSE(BottomK<uint64_t>::DeserializeView(frame).has_value());
}

TEST(BottomKDeserializeView, OversizedCountIsRejected) {
  // count > k, and count claiming more entries than the region holds --
  // both must fail even with a valid checksum.
  const std::string frame = SampleBottomKFrame(8, 100);
  const uint64_t huge = 1u << 20;
  EXPECT_FALSE(BottomK<uint64_t>::DeserializeView(
                   PatchAndRechecksum(frame, kBkCountOffset, &huge, 8))
                   .has_value());
  const uint64_t nine = 9;  // > k with only 8 entries present
  EXPECT_FALSE(BottomK<uint64_t>::DeserializeView(
                   PatchAndRechecksum(frame, kBkCountOffset, &nine, 8))
                   .has_value());
}

TEST(BottomKDeserializeView, ZeroKAndNaNThresholdAreRejected) {
  const std::string frame = SampleBottomKFrame(8, 100);
  const uint64_t zero = 0;
  EXPECT_FALSE(BottomK<uint64_t>::DeserializeView(
                   PatchAndRechecksum(frame, kBkKOffset, &zero, 8))
                   .has_value());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(BottomK<uint64_t>::DeserializeView(
                   PatchAndRechecksum(frame, kBkThresholdOffset, &nan, 8))
                   .has_value());
}

TEST(BottomKDeserializeView, EntryAtOrAboveThresholdIsRejected) {
  const std::string frame = SampleBottomKFrame(8, 100);
  const auto view = BottomK<uint64_t>::DeserializeView(frame);
  ASSERT_TRUE(view.has_value());
  // Overwrite the first entry's priority with the threshold itself
  // (boundary: retention is strict-below) and with NaN.
  for (double bad_priority :
       {view->threshold(), std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_FALSE(BottomK<uint64_t>::DeserializeView(
                     PatchAndRechecksum(frame, kBkEntriesOffset,
                                        &bad_priority, 8))
                     .has_value());
  }
}

TEST(BottomKDeserializeView, HugeDeclaredKIsViewableWithoutAllocation) {
  // A frame may declare astronomically large capacity; the view must
  // accept it (count is consistent) while allocating nothing, and the
  // eager Deserialize path must stay bounded by kMaxEagerReserve --
  // capacity is a logical limit, not a storage promise.
  std::string frame = SampleBottomKFrame(8, 100);
  const uint64_t huge_k = uint64_t{1} << 60;
  frame = PatchAndRechecksum(frame, kBkKOffset, &huge_k, 8);
  const auto view = BottomK<uint64_t>::DeserializeView(frame);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->k(), size_t{1} << 60);
  EXPECT_EQ(view->size(), 8u);

  // Aggregating such a frame into a small sketch works and allocates on
  // the ACCUMULATOR's scale only.
  BottomK<uint64_t> acc(4);
  const std::vector<std::string_view> frames{frame};
  ASSERT_TRUE(acc.MergeManyFrames(frames));
  EXPECT_LE(acc.size(), 4u);

  // The eager path also survives (its reserve is capped).
  EXPECT_TRUE(BottomK<uint64_t>::Deserialize(std::string_view(frame))
                  .has_value());
}

TEST(BottomKDeserializeView, WeightedPayloadValidationStillRuns) {
  // BottomK<Item> frames: PayloadCodec<Item> rejects non-positive
  // weights, and the view must apply the same per-entry validation.
  BottomK<PrioritySampler::Item> sketch(4);
  sketch.Offer(0.25, {11, 2.5});
  sketch.Offer(0.5, {12, 1.5});
  const std::string frame = sketch.SerializeToString();
  ASSERT_TRUE(
      BottomK<PrioritySampler::Item>::DeserializeView(frame).has_value());
  // First entry's weight lives after: prefix(32) + priority(8) + key(8).
  const double bad_weight = -1.0;
  EXPECT_FALSE(BottomK<PrioritySampler::Item>::DeserializeView(
                   PatchAndRechecksum(frame, 48, &bad_weight, 8))
                   .has_value());
}

TEST(BottomKMergeManyFrames, AnyInvalidFrameLeavesSketchUnchanged) {
  BottomK<uint64_t> acc(8);
  for (uint64_t i = 0; i < 50; ++i) acc.Offer(0.01 * double(i + 1), i);
  const double threshold_before = acc.Threshold();
  const size_t size_before = acc.size();

  const std::string good = SampleBottomKFrame(8, 200, /*seed=*/9);
  std::string bad = good;
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x01);
  const std::vector<std::string_view> frames{good, bad};
  EXPECT_FALSE(acc.MergeManyFrames(frames));
  EXPECT_DOUBLE_EQ(acc.Threshold(), threshold_before);
  EXPECT_EQ(acc.size(), size_before);
}

// --- KMV frame views ---------------------------------------------------

// Byte offsets inside a KMV frame body.
constexpr size_t kKmvKOffset = 8;
constexpr size_t kKmvSaltOffset = 16;
constexpr size_t kKmvThresholdOffset = 32;  // after initial_threshold
constexpr size_t kKmvCountOffset = 40;
constexpr size_t kKmvEntriesOffset = 48;

TEST(KmvDeserializeView, RoundTripMatchesSketch) {
  const std::string frame = SampleKmvFrame(32, 1000);
  const auto view = KmvSketch::DeserializeView(frame);
  ASSERT_TRUE(view.has_value());
  const auto sketch = KmvSketch::Deserialize(std::string_view(frame));
  ASSERT_TRUE(sketch.has_value());
  EXPECT_EQ(view->k(), sketch->k());
  EXPECT_EQ(view->hash_salt(), sketch->hash_salt());
  EXPECT_EQ(view->size(), sketch->size());
  EXPECT_DOUBLE_EQ(view->threshold(), sketch->Threshold());
  const auto members = sketch->members();
  for (size_t i = 0; i < view->size(); ++i) {
    EXPECT_DOUBLE_EQ(view->priority(i), members[i].first);
    EXPECT_EQ(view->payload(i), members[i].second);
  }
}

TEST(KmvDeserializeView, EveryTruncationFailsCleanly) {
  const std::string frame = SampleKmvFrame(8, 300);
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(
        KmvSketch::DeserializeView(std::string_view(frame).substr(0, len))
            .has_value())
        << "prefix length " << len;
  }
  EXPECT_TRUE(KmvSketch::DeserializeView(frame).has_value());
}

TEST(KmvDeserializeView, NonAscendingEntriesAreRejected) {
  // Every KMV2 reader accepts only the canonical (ascending) encoding --
  // this is also what rejects duplicate priorities without a hash set.
  const std::string frame = SampleKmvFrame(8, 300);
  const auto view = KmvSketch::DeserializeView(frame);
  ASSERT_TRUE(view.has_value());
  ASSERT_GE(view->size(), 2u);
  const auto expect_rejected_everywhere = [](const std::string& bad) {
    EXPECT_FALSE(KmvSketch::DeserializeView(bad).has_value());
    EXPECT_FALSE(KmvSketch::Deserialize(std::string_view(bad)).has_value());
    EXPECT_EQ(KmvSketch::DiagnoseFrame(bad), FrameFault::kCorruptBody);
  };
  // Swap the first two priorities: still below threshold, now descending.
  const double p0 = view->priority(0);
  const double p1 = view->priority(1);
  std::string swapped = PatchAndRechecksum(frame, kKmvEntriesOffset, &p1, 8);
  swapped = PatchAndRechecksum(swapped, kKmvEntriesOffset + 16, &p0, 8);
  expect_rejected_everywhere(swapped);
  // Duplicate: copy the first priority over the second.
  expect_rejected_everywhere(
      PatchAndRechecksum(frame, kKmvEntriesOffset + 16, &p0, 8));
}

TEST(KmvDeserializeView, FieldRangeViolationsAreRejected) {
  const std::string frame = SampleKmvFrame(8, 300);
  const uint64_t zero = 0;
  EXPECT_FALSE(KmvSketch::DeserializeView(
                   PatchAndRechecksum(frame, kKmvKOffset, &zero, 8))
                   .has_value());
  const double above_one = 1.5;  // theta must stay inside (0, initial]
  EXPECT_FALSE(KmvSketch::DeserializeView(PatchAndRechecksum(
                                              frame, kKmvThresholdOffset,
                                              &above_one, 8))
                   .has_value());
  const uint64_t huge_count = 1u << 20;
  EXPECT_FALSE(KmvSketch::DeserializeView(PatchAndRechecksum(
                                              frame, kKmvCountOffset,
                                              &huge_count, 8))
                   .has_value());
}

TEST(KmvDeserializeView, HugeDeclaredKIsViewable) {
  std::string frame = SampleKmvFrame(8, 300);
  const uint64_t huge_k = uint64_t{1} << 59;
  frame = PatchAndRechecksum(frame, kKmvKOffset, &huge_k, 8);
  const auto view = KmvSketch::DeserializeView(frame);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->k(), size_t{1} << 59);
  KmvSketch acc(4, 1.0, /*hash_salt=*/3);
  const std::vector<std::string_view> frames{frame};
  ASSERT_TRUE(acc.MergeManyFrames(frames));
  EXPECT_LE(acc.size(), 4u);
}

TEST(KmvMergeManyFrames, SaltMismatchFailsWithoutMutation) {
  KmvSketch acc(8, 1.0, /*hash_salt=*/3);
  for (uint64_t i = 0; i < 100; ++i) acc.AddKey(i);
  const double threshold_before = acc.Threshold();
  const size_t size_before = acc.size();
  const std::string foreign = SampleKmvFrame(8, 300, /*salt=*/4);
  const std::vector<std::string_view> frames{foreign};
  EXPECT_FALSE(acc.MergeManyFrames(frames));
  EXPECT_DOUBLE_EQ(acc.Threshold(), threshold_before);
  EXPECT_EQ(acc.size(), size_before);
}

TEST(KmvMergeManyFrames, CorruptLaterFrameLeavesSketchUnchanged) {
  KmvSketch acc(8, 1.0, /*hash_salt=*/3);
  for (uint64_t i = 0; i < 100; ++i) acc.AddKey(i);
  const double threshold_before = acc.Threshold();
  const auto members_before = acc.members();
  const std::string good = SampleKmvFrame(8, 300);
  std::string truncated = good.substr(0, good.size() - 7);
  const std::vector<std::string_view> frames{good, truncated};
  EXPECT_FALSE(acc.MergeManyFrames(frames));
  EXPECT_DOUBLE_EQ(acc.Threshold(), threshold_before);
  EXPECT_EQ(acc.members(), members_before);
}

TEST(KmvMergeManyFrames, EmptyFrameListIsANoOpSuccess) {
  KmvSketch acc(8, 1.0, /*hash_salt=*/3);
  for (uint64_t i = 0; i < 100; ++i) acc.AddKey(i);
  const auto members_before = acc.members();
  EXPECT_TRUE(acc.MergeManyFrames({}));
  EXPECT_EQ(acc.members(), members_before);
}

TEST(MultiStratifiedDeserializeView, WrappingDimensionCountIsRejected) {
  // An item entry holds 1 + num_dimensions stratum keys. A count of
  // 2^64 - 1 wraps that stride to two words, and reading a stratum key
  // would then run past the item region -- and past the frame.
  ByteWriter w;
  WriteSketchHeader(w, MultiStratifiedSampler::kWireMagic,
                    MultiStratifiedSampler::kWireVersion);
  w.WriteU64(std::numeric_limits<uint64_t>::max());  // num_dimensions
  w.WriteU64(4);                                      // k
  WriteRngState(w, {1, 2, 3, 4});
  w.WriteU64(0);       // num_strata
  w.WriteU64(1);       // num_items
  w.WriteU64(1);       // key
  w.WriteDouble(1.0);  // value; nothing follows
  w.WriteU32(FrameChecksum(w.bytes()));
  // An exactly sized copy, so a sanitizer sees any read past the end.
  const std::vector<char> frame(w.bytes().begin(), w.bytes().end());
  const std::string_view bytes(frame.data(), frame.size());
  EXPECT_FALSE(MultiStratifiedSampler::DeserializeView(bytes).has_value());
  EXPECT_FALSE(MultiStratifiedSampler::Deserialize(bytes).has_value());
  EXPECT_EQ(MultiStratifiedSampler::DiagnoseFrame(bytes),
            FrameFault::kCorruptBody);
}

}  // namespace
}  // namespace ats
