// The golden wire corpus: committed bytes every writer and reader is
// held to, so a change that moves any encoding fails here even when
// every round trip still agrees with itself.
//
// tests/golden/v2/ holds one frame per frame magic, one CKP1 file per
// checkpoint scheme kind and one ENV1 envelope per envelope kind, built
// from fixed seeds (golden/golden_cases.h).
// tests/golden/v1/ holds the same set as the version-1 writers produced
// it: identical bodies under version-1 headers with FNV-1a trailers.
//   * Today's writers reproduce every v2 file byte for byte, and every
//     v2 file re-serializes to itself.
//   * Every v1 file still opens, to the observable state of its v2 twin:
//     its canonical re-encoding is the v2 file.
//   * A version selects its trailer and nothing else does: a v1 file
//     with a damaged byte, or with its version patched to 2, is rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "ats/cluster/envelope.h"
#include "ats/core/bottom_k.h"
#include "ats/estimators/subset_sum.h"
#include "ats/persist/checkpoint.h"
#include "ats/util/serialize.h"
#include "tests/golden/golden_cases.h"

namespace ats {
namespace {

std::string ReadGolden(int version, const std::string& name) {
  const std::string path = std::string(ATS_GOLDEN_DIR) + "/v" +
                           std::to_string(version) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

uint32_t U32At(std::string_view bytes, size_t offset) {
  uint32_t v = 0;
  if (offset + sizeof(v) <= bytes.size()) {
    std::memcpy(&v, bytes.data() + offset, sizeof(v));
  }
  return v;
}

// The bytes a trailer covers: everything but the last four.
std::string_view Covered(std::string_view bytes) {
  return bytes.substr(0, bytes.size() - sizeof(uint32_t));
}

std::string FlipByte(std::string bytes, size_t pos) {
  bytes[pos] = static_cast<char>(bytes[pos] ^ 0x10);
  return bytes;
}

std::string WithVersion(std::string bytes, uint32_t version) {
  std::memcpy(bytes.data() + sizeof(uint32_t), &version, sizeof(version));
  return bytes;
}

TEST(GoldenCorpus, TodaysWritersReproduceEveryV2File) {
  for (const golden::CorpusFile& file : golden::BuildCorpus()) {
    SCOPED_TRACE(file.name);
    EXPECT_EQ(file.bytes, ReadGolden(2, file.name));
  }
}

TEST(GoldenCorpus, EveryV2FileIsVersion2WithACrc32cTrailer) {
  for (const golden::CorpusFile& file : golden::BuildCorpus()) {
    SCOPED_TRACE(file.name);
    const std::string bytes = ReadGolden(2, file.name);
    ASSERT_GE(bytes.size(), 12u);
    EXPECT_EQ(U32At(bytes, 4), 2u);
    EXPECT_EQ(U32At(bytes, bytes.size() - 4), Crc32c(Covered(bytes)));
  }
}

// v1 and v2 frame twins have the same length and differ, before the
// trailer, only in the version byte of a sketch header: the outer one
// and those of nested sketches (e.g. the BTK2 sample inside PSM2).
TEST(GoldenCorpus, V1FrameTwinsDifferOnlyInHeaderVersions) {
  std::vector<uint32_t> magics;
  for (const golden::FrameCase& c : golden::FrameCases()) {
    magics.push_back(
        U32At(ReadGolden(2, std::string(c.magic) + ".bin"), 0));
  }
  for (const golden::FrameCase& c : golden::FrameCases()) {
    SCOPED_TRACE(c.magic);
    const std::string name = std::string(c.magic) + ".bin";
    const std::string v1 = ReadGolden(1, name);
    const std::string v2 = ReadGolden(2, name);
    ASSERT_EQ(v1.size(), v2.size());
    ASSERT_GE(v1.size(), 12u);
    EXPECT_EQ(U32At(v1, 4), 1u);
    EXPECT_EQ(U32At(v1, v1.size() - 4), LegacyFnv1a32(Covered(v1)));
    for (size_t i = 0; i + 4 < v1.size(); ++i) {
      if (v1[i] == v2[i]) continue;
      SCOPED_TRACE(i);
      ASSERT_GE(i, 4u);
      EXPECT_NE(std::find(magics.begin(), magics.end(), U32At(v2, i - 4)),
                magics.end());
      EXPECT_EQ(U32At(v1, i), 1u);
      EXPECT_EQ(U32At(v2, i), 2u);
    }
  }
}

// CKP1 and ENV1 twins wrap the frame fixtures of their own version (an
// ack wraps nothing) behind otherwise identical headers.
TEST(GoldenCorpus, V1WrapperTwinsWrapTheV1Frames) {
  struct Wrapper {
    std::string name;
    size_t header_size;
    const char* payload;  // magic of the wrapped fixture; null for none
  };
  std::vector<Wrapper> wrappers;
  for (const golden::CheckpointCase& c : golden::CheckpointCases()) {
    wrappers.push_back({c.file, persist::kCheckpointHeaderSize, c.frame});
  }
  for (const golden::EnvelopeCase& c : golden::EnvelopeCases()) {
    wrappers.push_back({c.file, cluster::kEnvelopeHeaderSize, c.payload});
  }
  for (const Wrapper& w : wrappers) {
    SCOPED_TRACE(w.name);
    for (const int version : {1, 2}) {
      const std::string bytes = ReadGolden(version, w.name);
      const std::string payload =
          w.payload == nullptr
              ? std::string()
              : ReadGolden(version, std::string(w.payload) + ".bin");
      ASSERT_EQ(bytes.size(), w.header_size + payload.size() + 4);
      EXPECT_EQ(U32At(bytes, 4), static_cast<uint32_t>(version));
      EXPECT_EQ(bytes.substr(w.header_size, payload.size()), payload);
    }
    const std::string v1 = ReadGolden(1, w.name);
    const std::string v2 = ReadGolden(2, w.name);
    EXPECT_EQ(v1.substr(0, 4), v2.substr(0, 4));
    EXPECT_EQ(v1.substr(8, w.header_size - 8),
              v2.substr(8, w.header_size - 8));
    EXPECT_EQ(U32At(v1, v1.size() - 4), LegacyFnv1a32(Covered(v1)));
  }
}

TEST(GoldenCorpus, V2FramesReserializeByteForByte) {
  for (const golden::FrameCase& c : golden::FrameCases()) {
    SCOPED_TRACE(c.magic);
    const std::string v2 = ReadGolden(2, std::string(c.magic) + ".bin");
    const auto again = c.reserialize(v2);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, v2);
  }
}

TEST(GoldenCorpus, V1FramesOpenToTheStateOfTheirV2Twin) {
  for (const golden::FrameCase& c : golden::FrameCases()) {
    SCOPED_TRACE(c.magic);
    const std::string name = std::string(c.magic) + ".bin";
    const std::string v1 = ReadGolden(1, name);
    const auto reencoded = c.reserialize(v1);
    ASSERT_TRUE(reencoded.has_value());
    EXPECT_EQ(*reencoded, ReadGolden(2, name));
  }
}

TEST(GoldenCorpus, V1FramesVerifyTheirLegacyTrailer) {
  for (const golden::FrameCase& c : golden::FrameCases()) {
    SCOPED_TRACE(c.magic);
    const std::string v1 = ReadGolden(1, std::string(c.magic) + ".bin");
    // A damaged body fails the FNV-1a check, and an FNV-1a trailer
    // under a version-2 header fails the CRC32C check.
    EXPECT_FALSE(c.reserialize(FlipByte(v1, v1.size() / 2)).has_value());
    EXPECT_FALSE(c.reserialize(WithVersion(v1, 2)).has_value());
  }
}

TEST(GoldenCorpus, V1FramesFeedTheZeroCopyViews) {
  const std::string kmv_v1 = ReadGolden(1, "KMV2.bin");
  const std::string kmv_v2 = ReadGolden(2, "KMV2.bin");
  KmvSketch from_v1(12, 1.0, golden::kSalt);
  KmvSketch from_v2(12, 1.0, golden::kSalt);
  const std::string_view v1_frames[] = {kmv_v1};
  const std::string_view v2_frames[] = {kmv_v2};
  ASSERT_TRUE(from_v1.MergeManyFrames(v1_frames));
  ASSERT_TRUE(from_v2.MergeManyFrames(v2_frames));
  EXPECT_EQ(from_v1.SerializeToString(), from_v2.SerializeToString());

  const std::string psm_v1 = ReadGolden(1, "PSM2.bin");
  const std::string psm_v2 = ReadGolden(2, "PSM2.bin");
  PrioritySampler root_v1(12), root_v2(12);
  const std::string_view psm_v1_frames[] = {psm_v1};
  const std::string_view psm_v2_frames[] = {psm_v2};
  ASSERT_TRUE(root_v1.MergeManyFrames(psm_v1_frames));
  ASSERT_TRUE(root_v2.MergeManyFrames(psm_v2_frames));
  EXPECT_EQ(root_v1.sketch().SerializeToString(),
            root_v2.sketch().SerializeToString());

  const std::string btk_v1 = ReadGolden(1, "BTK2.bin");
  const auto view = BottomK<uint64_t>::DeserializeView(btk_v1);
  ASSERT_TRUE(view.has_value());
  const auto eager = BottomK<uint64_t>::Deserialize(btk_v1);
  ASSERT_TRUE(eager.has_value());
  EXPECT_EQ(view->size(), eager->size());
  EXPECT_EQ(view->threshold(), eager->Threshold());
}

// Every kind's v1 file opens, through both open paths, to its v2 twin's
// kind, epoch and payload state, and the decoded v2 fields re-encode to
// the v2 file byte for byte.
TEST(GoldenCorpus, V1CheckpointOpensToItsV2Twin) {
  const std::string path = ::testing::TempDir() + "ats_golden_v1.ckp";
  for (const golden::CheckpointCase& c : golden::CheckpointCases()) {
    SCOPED_TRACE(c.file);
    const auto& frame = golden::FindFrameCase(c.frame);
    const std::string v1 = ReadGolden(1, c.file);
    const std::string v2 = ReadGolden(2, c.file);
    persist::CheckpointInfo old_info, new_info;
    ASSERT_EQ(persist::DecodeCheckpoint(v1, &old_info),
              persist::CheckpointFault::kNone);
    ASSERT_EQ(persist::DecodeCheckpoint(v2, &new_info),
              persist::CheckpointFault::kNone);
    EXPECT_EQ(old_info.kind, c.kind);
    EXPECT_EQ(old_info.kind, new_info.kind);
    EXPECT_EQ(old_info.epoch, golden::kCheckpointEpoch);
    EXPECT_EQ(old_info.epoch, new_info.epoch);
    EXPECT_EQ(frame.reserialize(old_info.payload),
              std::string(new_info.payload));
    EXPECT_EQ(persist::EncodeCheckpoint(new_info.kind, new_info.epoch,
                                        new_info.payload),
              v2);

    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(v1.data(), static_cast<std::streamsize>(v1.size()));
    }
    for (const persist::OpenMode mode :
         {persist::OpenMode::kPreferMmap, persist::OpenMode::kBuffered}) {
      persist::CheckpointReader reader;
      ASSERT_EQ(persist::CheckpointReader::Open(path, &reader, mode),
                persist::CheckpointFault::kNone);
      EXPECT_EQ(reader.kind(), c.kind);
      EXPECT_EQ(reader.epoch(), golden::kCheckpointEpoch);
      EXPECT_EQ(frame.reserialize(reader.payload()),
                std::string(new_info.payload));
    }

    EXPECT_EQ(
        persist::DecodeCheckpoint(FlipByte(v1, v1.size() / 2), nullptr),
        persist::CheckpointFault::kCorruptBody);
    EXPECT_EQ(persist::DecodeCheckpoint(WithVersion(v1, 2), nullptr),
              persist::CheckpointFault::kCorruptBody);
  }

  // The typed restore of the kind-9 file, through both open paths,
  // yields the v2 file's sampler and estimates.
  const std::string v1 = ReadGolden(1, "CKP1.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(v1.data(), static_cast<std::streamsize>(v1.size()));
  }
  persist::CheckpointInfo new_info;
  const std::string v2 = ReadGolden(2, "CKP1.bin");
  ASSERT_EQ(persist::DecodeCheckpoint(v2, &new_info),
            persist::CheckpointFault::kNone);
  const auto expected = PrioritySampler::Deserialize(new_info.payload);
  ASSERT_TRUE(expected.has_value());
  for (const persist::OpenMode mode :
       {persist::OpenMode::kPreferMmap, persist::OpenMode::kBuffered}) {
    PrioritySampler restored(1);
    uint64_t epoch = 0;
    ASSERT_EQ(persist::RestoreFromCheckpoint(path,
                                             persist::SchemeKind::kPriority,
                                             &restored, &epoch, mode),
              persist::CheckpointFault::kNone);
    EXPECT_EQ(epoch, golden::kCheckpointEpoch);
    EXPECT_EQ(restored.SerializeToString(), expected->SerializeToString());
    EXPECT_EQ(EstimateTotal(restored.Sample()).estimate,
              EstimateTotal(expected->Sample()).estimate);
  }
  std::remove(path.c_str());
}

// Every envelope kind's v1 file decodes to its v2 twin's header and
// payload state, and the decoded v2 fields re-encode to the v2 file.
TEST(GoldenCorpus, V1EnvelopeOpensToItsV2Twin) {
  for (const golden::EnvelopeCase& c : golden::EnvelopeCases()) {
    SCOPED_TRACE(c.file);
    const std::string v1 = ReadGolden(1, c.file);
    const std::string v2 = ReadGolden(2, c.file);
    cluster::EnvelopeView old_view, new_view;
    ASSERT_EQ(cluster::DecodeEnvelope(v1, &old_view), FrameFault::kNone);
    ASSERT_EQ(cluster::DecodeEnvelope(v2, &new_view), FrameFault::kNone);
    EXPECT_EQ(old_view.kind, c.kind);
    EXPECT_EQ(old_view.sender, c.sender);
    EXPECT_EQ(old_view.incarnation, golden::kEnvelopeIncarnation);
    EXPECT_EQ(old_view.seq, golden::kEnvelopeSeq);
    EXPECT_EQ(old_view.epoch, golden::kEnvelopeEpoch);
    EXPECT_EQ(old_view.kind, new_view.kind);
    EXPECT_EQ(old_view.sender, new_view.sender);
    EXPECT_EQ(old_view.incarnation, new_view.incarnation);
    EXPECT_EQ(old_view.seq, new_view.seq);
    EXPECT_EQ(old_view.epoch, new_view.epoch);
    if (c.payload == nullptr) {
      EXPECT_TRUE(old_view.payload.empty());
      EXPECT_TRUE(new_view.payload.empty());
    } else {
      EXPECT_EQ(golden::FindFrameCase(c.payload).reserialize(
                    old_view.payload),
                std::string(new_view.payload));
    }
    EXPECT_EQ(cluster::EncodeEnvelope(new_view.kind, new_view.sender,
                                      new_view.incarnation, new_view.seq,
                                      new_view.epoch, new_view.payload),
              v2);

    cluster::EnvelopeView unused;
    EXPECT_EQ(cluster::DecodeEnvelope(FlipByte(v1, v1.size() / 2), &unused),
              FrameFault::kCorruptBody);
    EXPECT_EQ(cluster::DecodeEnvelope(WithVersion(v1, 2), &unused),
              FrameFault::kCorruptBody);
  }
}

}  // namespace
}  // namespace ats
