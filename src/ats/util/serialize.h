// Byte-buffer serialization and the common mergeable-sketch interface.
//
// Every sketch that ships between nodes (KMV / Theta / LCS / grouped /
// priority samples) speaks the same tiny wire protocol: fixed-width
// little-endian fields behind a versioned magic header, written through
// ByteWriter and validated field-by-field through ByteReader (every
// accessor returns nullopt on truncation so corrupt inputs fail cleanly
// instead of crashing).
//
// The MergeableSketch concept pins down the contract those sketches share:
//   * SerializeTo(ByteWriter&)       -- append wire bytes (embeddable)
//   * static Deserialize(ByteReader&) -- parse + validate, nullopt on junk
//   * Merge(const T&)                -- union with another instance
// Sketches satisfying the concept compose: a container sketch can embed a
// member sketch's bytes verbatim. WholeFrame adds whole-buffer
// (checksummed, exact-length) framing, and FrameCodec derives every
// framing verb of a family with a zero-copy frame view from its one
// parser (see below).
#ifndef ATS_UTIL_SERIALIZE_H_
#define ATS_UTIL_SERIALIZE_H_

#include <array>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ats/core/simd/simd_dispatch.h"

namespace ats {

// Appends POD values to a byte string.
class ByteWriter {
 public:
  void WriteU32(uint32_t v) { Append(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { Append(&v, sizeof(v)); }
  void WriteDouble(double v) { Append(&v, sizeof(v)); }
  // Raw byte append, for container formats embedding a length-prefixed
  // nested body serialized into a scratch writer.
  void WriteBytes(std::string_view bytes) {
    Append(bytes.data(), bytes.size());
  }

  // Makes room for `n` more bytes without reallocating on the way. A
  // writer that knows its encoded size reserves once instead of letting
  // the buffer double (and copy) its way there.
  void Reserve(size_t n) { bytes_.reserve(bytes_.size() + n); }

  // Appends `n` bytes the caller must overwrite in full through the
  // returned pointer, valid until the next write. Fixed-stride regions
  // encode straight into it.
  char* Grow(size_t n) {
    const size_t at = bytes_.size();
    bytes_.resize(at + n);
    return bytes_.data() + at;
  }

  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  void Append(const void* p, size_t n) {
    bytes_.append(static_cast<const char*>(p), n);
  }
  std::string bytes_;
};

// Reads POD values back; every accessor returns nullopt on truncation so
// corrupt inputs fail cleanly instead of crashing.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::optional<uint32_t> ReadU32() { return Read<uint32_t>(); }
  std::optional<uint64_t> ReadU64() { return Read<uint64_t>(); }
  std::optional<double> ReadDouble() { return Read<double>(); }

  bool AtEnd() const { return pos_ == bytes_.size(); }

  // Advances past `n` bytes without reading them; false (position
  // unchanged) when fewer than `n` remain. Container formats use this to
  // step over a length-prefixed nested body after handing the segment to
  // the nested parser.
  bool Skip(size_t n) {
    if (pos_ + n > bytes_.size()) return false;
    pos_ += n;
    return true;
  }

  // The unconsumed tail. Zero-copy frame views use this to take the
  // fixed-stride entry region after reading the prefix fields, without
  // hand-deriving byte offsets that must track the field list.
  std::string_view Rest() const { return bytes_.substr(pos_); }

 private:
  template <typename T>
  std::optional<T> Read() {
    if (pos_ + sizeof(T) > bytes_.size()) return std::nullopt;
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

// --- Versioned magic header -------------------------------------------

// Every sketch wire format starts with an 8-byte header: a 4-byte magic
// tag identifying the sketch family, then a 4-byte format version.
inline void WriteSketchHeader(ByteWriter& w, uint32_t magic,
                              uint32_t version) {
  w.WriteU32(magic);
  w.WriteU32(version);
}

// Consumes and validates a header. Returns the version on success;
// nullopt on truncation, foreign magic, version 0, or a version newer
// than `max_version` (a reader never parses formats from the future).
inline std::optional<uint32_t> ReadSketchHeader(ByteReader& r,
                                                uint32_t magic,
                                                uint32_t max_version) {
  const auto m = r.ReadU32();
  if (!m || *m != magic) return std::nullopt;
  const auto v = r.ReadU32();
  if (!v || *v == 0 || *v > max_version) return std::nullopt;
  return v;
}

// --- PRNG state fields ------------------------------------------------

// Samplers whose priority stream must continue deterministically after a
// round trip (PrioritySampler, TimeDecaySampler, SlidingWindowSampler)
// carry their 4x64-bit Xoshiro256 state on the wire. One writer/reader
// pair keeps the field layout and the validation in a single place.
inline void WriteRngState(ByteWriter& w,
                          const std::array<uint64_t, 4>& state) {
  for (uint64_t word : state) w.WriteU64(word);
}

// Reads the 4-word state; nullopt on truncation or the all-zero state
// (Xoshiro256's invalid fixed point -- the stream degenerates to constant
// zeros, so no genuine serializer emits it).
inline std::optional<std::array<uint64_t, 4>> ReadRngState(ByteReader& r) {
  std::array<uint64_t, 4> state;
  uint64_t state_or = 0;
  for (uint64_t& word : state) {
    const auto v = r.ReadU64();
    if (!v) return std::nullopt;
    word = *v;
    state_or |= word;
  }
  if (state_or == 0) return std::nullopt;
  return state;
}

// --- The common mergeable-sketch interface ----------------------------

template <typename T>
concept MergeableSketch =
    requires(T t, const T& other, ByteWriter& w, ByteReader& r) {
      { std::as_const(t).SerializeTo(w) } -> std::same_as<void>;
      { T::Deserialize(r) } -> std::same_as<std::optional<T>>;
      { t.Merge(other) } -> std::same_as<void>;
    };

// --- Typed frame-rejection reasons ------------------------------------

// Why a wire frame failed validation. The transport tier uses this to
// separate retry-able damage from poison: a kTruncated frame is a short
// read (the sender's retransmission of the intact bytes will parse), a
// kCorruptBody frame is garbage that no retry fixes, and kBadMagic /
// kBadVersion are protocol mismatches worth alarming on rather than
// retrying. Rejection counters keyed by this enum make the difference
// observable per cause instead of collapsing to one opaque `false`.
enum class FrameFault : uint8_t {
  kNone = 0,     // frame is valid
  kTruncated,    // fewer bytes than the format requires (short read)
  kBadMagic,     // frame is not from this family
  kBadVersion,   // version 0 or from the future
  kCorruptBody,  // structurally framed but checksum/field/entry invalid
};

constexpr const char* FrameFaultName(FrameFault fault) {
  switch (fault) {
    case FrameFault::kNone: return "none";
    case FrameFault::kTruncated: return "truncated";
    case FrameFault::kBadMagic: return "bad_magic";
    case FrameFault::kBadVersion: return "bad_version";
    case FrameFault::kCorruptBody: return "corrupt_body";
  }
  return "unknown";
}

// --- The trailing checksum ---------------------------------------------

// Every framing in the library -- whole-buffer sketch frames, CKP1
// checkpoint files (persist/checkpoint.h) and ENV1 envelopes
// (cluster/envelope.h) -- starts with a u32 magic and a u32 version and
// ends with a u32 checksum over every preceding byte, so any flipped
// byte is caught, not only the ones field validation can see. The
// framing's own version selects the checksum: version 1 carries FNV-1a
// (the legacy trailer, verified on input and never written), every
// later version CRC32C. There is no other switch.
inline constexpr uint32_t kLegacyTrailerVersion = 1;

// CRC32C (Castagnoli; reflected polynomial 0x82F63B78, init and xorout
// 0xFFFFFFFF; "123456789" -> 0xE3069283) through the dispatched kernel.
inline uint32_t Crc32c(std::string_view bytes) {
  return simd::ActiveKernels().crc32c(0, bytes.data(), bytes.size());
}

// FNV-1a-32, the version-1 trailer. Byte-serial (about 4 cycles per
// byte); kept only to verify frames and files written before version 2.
inline uint32_t LegacyFnv1a32(std::string_view bytes) {
  uint32_t h = 2166136261u;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 16777619u;
  }
  return h;
}

// The trailer over `covered` -- the bytes of a framing before its
// checksum -- selected by the version field at byte offset 4 of
// `covered` itself. Bytes too short to hold a header get CRC32C; no
// valid framing is that short.
inline uint32_t FrameChecksum(std::string_view covered) {
  uint32_t version = 0;
  if (covered.size() >= 2 * sizeof(uint32_t)) {
    std::memcpy(&version, covered.data() + sizeof(uint32_t),
                sizeof(version));
  }
  return version == kLegacyTrailerVersion ? LegacyFnv1a32(covered)
                                          : Crc32c(covered);
}

// Verifies and strips the trailing frame checksum -- FNV-1a or CRC32C,
// as the body's header version selects -- returning the body bytes
// (nullopt on truncation or mismatch).
inline std::optional<std::string_view> CheckedFrameBody(
    std::string_view frame) {
  if (frame.size() < sizeof(uint32_t)) return std::nullopt;
  const std::string_view body = frame.substr(0, frame.size() - 4);
  uint32_t stored;
  std::memcpy(&stored, frame.data() + body.size(), sizeof(stored));
  if (stored != FrameChecksum(body)) return std::nullopt;
  return body;
}

// Structural triage of a whole-buffer frame against a family's magic and
// version ceiling, in header order: too short to even hold the 8-byte
// header plus the trailing checksum -> kTruncated; foreign magic ->
// kBadMagic; version 0 or above `max_version` -> kBadVersion; checksum
// mismatch (against the trailer that version selects) -> kCorruptBody.
// A bare sketch frame carries no declared length, so a mid-body short
// read is indistinguishable from flipped bytes here and reports
// kCorruptBody; the transport envelope (cluster/envelope.h) declares its
// payload length and is where short reads classify as kTruncated.
// Returns kNone when the structural layers pass -- body-level field
// validation may still reject the frame (FrameCodec::DiagnoseFrame).
inline FrameFault ClassifyFrameBytes(std::string_view frame, uint32_t magic,
                                     uint32_t max_version) {
  constexpr size_t kHeaderAndChecksum = 3 * sizeof(uint32_t);
  if (frame.size() < kHeaderAndChecksum) return FrameFault::kTruncated;
  ByteReader r(frame);
  const auto m = r.ReadU32();
  if (*m != magic) return FrameFault::kBadMagic;
  const auto v = r.ReadU32();
  if (*v == 0 || *v > max_version) return FrameFault::kBadVersion;
  if (!CheckedFrameBody(frame)) return FrameFault::kCorruptBody;
  return FrameFault::kNone;
}

// --- Whole-buffer framing ---------------------------------------------

// The string pair every family inherits (CRTP): a whole-buffer frame is
// the family's SerializeTo bytes plus a trailing checksum over them
// (nested sketches embedded via SerializeTo are covered by the outer
// frame), and parsing one must consume the body exactly -- trailing junk
// is a framing error, not a valid message. A family that declares its
// own Deserialize(ByteReader&) re-exposes the string form with
// `using WholeFrame<Family>::Deserialize;`.
template <typename Family>
class WholeFrame {
 public:
  std::string SerializeToString() const {
    ByteWriter w;
    static_cast<const Family&>(*this).SerializeTo(w);
    w.WriteU32(FrameChecksum(w.bytes()));
    return w.Take();
  }

  static std::optional<Family> Deserialize(std::string_view frame) {
    const auto body = CheckedFrameBody(frame);
    if (!body) return std::nullopt;
    ByteReader r(*body);
    auto sketch = Family::Deserialize(r);
    if (!sketch.has_value() || !r.AtEnd()) return std::nullopt;
    return sketch;
  }
};

// --- The frame codec ----------------------------------------------------

// An adaptive-threshold sample can be treated as a fixed-threshold sample,
// so every viewable family's frame has one shape: a header, the
// thresholds, and the entries below them. FrameCodec<Family> (CRTP)
// derives every framing verb from what the family writes:
//   * kWireMagic / kWireVersion -- the header the frame must carry;
//   * void SerializeTo(ByteWriter&) const;
//   * static std::optional<FrameView> ReadView(ByteReader&) -- the ONLY
//     parser: reads and validates one body, header to last entry (a
//     nested BottomK or length-prefixed body through the inner family's
//     ReadView), and consumes exactly its bytes. Allocation-free unless
//     the frame's shape needs a small index (MSS1, MOB1);
//   * static Family FromView(const FrameView&) -- materializes a view
//     ReadView accepted (it cannot fail);
//   * bool MergeCompatible(const FrameView&) const -- whether a valid
//     frame may merge into this instance (hash salt, window, budget,
//     delta^2, objective or dimension counts);
//   * void MergeValidatedViews(std::span<const FrameView>) -- applies a
//     non-empty span of compatible views, observationally the pairwise
//     Deserialize + Merge chain in span order.
// The eager Deserialize is ReadView followed by FromView, so the eager
// and the zero-copy parsers accept the same frames by construction.
template <typename Family>
class FrameCodec : public WholeFrame<Family> {
 public:
  using WholeFrame<Family>::Deserialize;

  static std::optional<Family> Deserialize(ByteReader& r) {
    const auto view = Family::ReadView(r);
    if (!view) return std::nullopt;
    return Family::FromView(*view);
  }

  // Zero-copy view over a whole frame (SerializeToString layout): the
  // checksum, then everything ReadView validates, then no trailing
  // bytes. The view borrows the frame's storage and must not outlive
  // it. Returns std::optional<Family::FrameView>.
  static auto DeserializeView(std::string_view frame) {
    const auto body = CheckedFrameBody(frame);
    ByteReader r(body.value_or(std::string_view()));
    auto view = Family::ReadView(r);  // an empty body has no header
    if (!body || !r.AtEnd()) view.reset();
    return view;
  }

  // Typed rejection reason: the structural cause first (kTruncated /
  // kBadMagic / kBadVersion / checksum -> kCorruptBody), kCorruptBody for
  // a field or entry the view rejects, kNone iff the frame parses.
  // Transports count rejections per cause with it.
  static FrameFault DiagnoseFrame(std::string_view frame) {
    const FrameFault f =
        ClassifyFrameBytes(frame, Family::kWireMagic, Family::kWireVersion);
    if (f != FrameFault::kNone) return f;
    return DeserializeView(frame) ? FrameFault::kNone
                                  : FrameFault::kCorruptBody;
  }

  // K-way merge straight off the wire: observationally identical to
  // deserializing every frame and merging the results with Merge() in
  // span order, without materializing a sketch per frame. Returns false
  // -- this instance observably unchanged -- if ANY frame fails
  // validation or is not MergeCompatible; every frame is vetted before
  // the first is applied (a mismatch the Merge path would ATS_CHECK-abort
  // on is a validation failure here). An empty span is a strict no-op.
  bool MergeManyFrames(std::span<const std::string_view> frames) {
    Family& self = static_cast<Family&>(*this);
    std::vector<typename Family::FrameView> views;
    views.reserve(frames.size());
    for (std::string_view f : frames) {
      auto view = DeserializeView(f);
      if (!view || !self.MergeCompatible(*view)) return false;
      views.push_back(std::move(*view));
    }
    if (views.empty()) return true;
    self.MergeValidatedViews(
        std::span<const typename Family::FrameView>(views));
    return true;
  }
};

}  // namespace ats

#endif  // ATS_UTIL_SERIALIZE_H_
