// Bottom-k sketch: the canonical substitutable adaptive threshold
// (Section 2.5.1).
//
// The sketch retains the k items with smallest priorities seen so far; the
// adaptive threshold is the (k+1)-th smallest priority. Recalibrating any
// sampled item's priority to -infinity leaves the threshold unchanged, so
// the threshold is fully substitutable (Theorem 6) and the plain HT
// estimator with pi_i = F_i(T) is unbiased (Corollary 3). With
// WeightedUniform priorities this is exactly priority sampling [12]; with
// hashed Uniform priorities it is the KMV distinct-counting sketch.
//
// Retention (compaction buffer + threshold bookkeeping) lives in the
// shared SampleStore; this header is the entry-oriented facade plus the
// weighted PrioritySampler built on it.
#ifndef ATS_CORE_BOTTOM_K_H_
#define ATS_CORE_BOTTOM_K_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "ats/core/priority.h"
#include "ats/core/sample_store.h"
#include "ats/core/threshold.h"
#include "ats/util/check.h"
#include "ats/util/serialize.h"

namespace ats {

// Encodes a bottom-k payload on the wire. Specialize for payload types
// that need to cross serialization boundaries:
//   * kWireSize -- the fixed encoded size in bytes; the entry region is
//     then fixed-stride, so one size comparison bounds-checks all of it;
//   * Encode(out, v) -- writes exactly kWireSize bytes at `out`;
//   * Decode(in) -- reads them back (every byte pattern decodes);
//   * Valid(v) -- the value check a decoded payload must pass (positive
//     weights, finite fields); a frame holding an invalid one is corrupt.
template <typename Payload>
struct PayloadCodec;

template <>
struct PayloadCodec<uint64_t> {
  static constexpr size_t kWireSize = sizeof(uint64_t);
  static void Encode(char* out, uint64_t v) {
    std::memcpy(out, &v, sizeof(v));
  }
  static uint64_t Decode(const char* in) {
    uint64_t v;
    std::memcpy(&v, in, sizeof(v));
    return v;
  }
  static bool Valid(uint64_t) { return true; }
};

// The entry region of a bottom-k frame (BTK2, KMV2): fixed-stride
// (priority, payload) pairs over the frame's bytes, decoded lazily per
// access -- the shape SampleStore::MergeGather reads. Frame views derive
// from it; it borrows the frame's storage.
template <typename Payload>
class FrameEntries {
 public:
  static constexpr size_t kStride =
      sizeof(double) + PayloadCodec<Payload>::kWireSize;

  size_t size() const { return bytes_.size() / kStride; }

  double priority(size_t i) const {
    ATS_DCHECK(i < size());
    double p;
    std::memcpy(&p, bytes_.data() + i * kStride, sizeof(p));
    return p;
  }

  Payload payload(size_t i) const {
    ATS_DCHECK(i < size());
    return PayloadCodec<Payload>::Decode(bytes_.data() + i * kStride +
                                         sizeof(double));
  }

 protected:
  // Takes the next `count` entries from `r`. One size comparison
  // bounds-checks all of them; the division keeps it overflow-free for
  // hostile counts.
  bool Take(ByteReader& r, uint64_t count) {
    const std::string_view rest = r.Rest();
    if (count > rest.size() / kStride) return false;
    bytes_ = rest.substr(0, count * kStride);
    r.Skip(bytes_.size());
    return true;
  }

 private:
  std::string_view bytes_;
};

// Generic bottom-k container over (priority, payload) pairs, backed by the
// shared SampleStore.
//
// Offer() is amortized O(1) (append into the store's compaction buffer);
// Threshold() canonicalizes first and equals the (k+1)-th smallest
// priority ever offered once k+1 distinct offers have been seen
// (+infinity before that).
template <typename Payload>
class BottomK : public FrameCodec<BottomK<Payload>> {
 public:
  struct Entry {
    double priority;
    Payload payload;
    friend bool operator<(const Entry& a, const Entry& b) {
      return a.priority < b.priority;
    }
  };

  explicit BottomK(size_t k) : store_(k) {}

  // Offers an item. Returns true iff the item is accepted below the
  // store's current (chunked) acceptance bound and enters the candidate
  // buffer; the next compaction may still drop it if k smaller priorities
  // exist. The canonical retained set and threshold are unaffected by
  // the chunking (see sample_store.h).
  bool Offer(double priority, Payload payload) {
    return store_.Offer(priority, std::move(payload));
  }

  // Batched offers: equivalent to a scalar Offer loop (same state, same
  // acceptance count) but pre-filtered against the acceptance bound in
  // the store's column scan. Returns the number of accepted items.
  size_t OfferBatch(std::span<const double> priorities,
                    std::span<const Payload> payloads) {
    return store_.OfferBatch(priorities, payloads);
  }

  // The adaptive threshold: (k+1)-th smallest priority seen, or +infinity
  // while fewer than k+1 items have been offered.
  double Threshold() const { return store_.Threshold(); }

  // Largest retained priority (the k-th smallest seen). Only valid when
  // size() > 0.
  double MaxRetainedPriority() const { return store_.MaxRetainedPriority(); }

  size_t size() const { return store_.size(); }
  size_t k() const { return store_.k(); }
  bool saturated() const { return store_.saturated(); }

  // Live heap bytes of the sample state (util/memory.h convention):
  // exactly the store's SoA columns. O(1), non-canonicalizing.
  size_t MemoryFootprint() const { return store_.MemoryFootprint(); }

  // Retained entries in unspecified order, materialized from the store's
  // canonical columns.
  std::vector<Entry> entries() const {
    const std::vector<double>& priorities = store_.priorities();
    const std::vector<Payload>& payloads = store_.payloads();
    std::vector<Entry> out;
    out.reserve(priorities.size());
    for (size_t i = 0; i < priorities.size(); ++i) {
      out.push_back(Entry{priorities[i], payloads[i]});
    }
    return out;
  }

  // Retained entries sorted by ascending priority.
  std::vector<Entry> SortedEntries() const {
    const std::vector<size_t> order = store_.SortedOrder();
    const std::vector<double>& priorities = store_.priorities();
    const std::vector<Payload>& payloads = store_.payloads();
    std::vector<Entry> out;
    out.reserve(order.size());
    for (size_t i : order) out.push_back(Entry{priorities[i], payloads[i]});
    return out;
  }

  // Merges another bottom-k sketch over a disjoint stream: the result is
  // the bottom-k sketch of the concatenated streams. The threshold is the
  // min of both thresholds and of any priority evicted while merging.
  // Merging a sketch with itself is a no-op (aliasing-safe). This is
  // MergeMany of the one input (SampleStore::Merge).
  void Merge(const BottomK& other) { store_.Merge(other.store_); }

  // Threshold-pruned k-way union through the store's one merge gather
  // (SampleStore::MergeGather): equal to merging the inputs with Merge()
  // in span order, but the global acceptance bound (min of all input
  // thresholds) is taken first and each input is block-prefiltered
  // against it, finishing in a single selection instead of S sequential
  // merge+compaction rounds. Inputs aliasing `this` are skipped.
  void MergeMany(std::span<const BottomK* const> others) {
    store_.MergeMany(others, &BottomK::store_);
  }

  // MergeMany over inputs that `sketch` projects onto a BottomK (a
  // sampler onto its sample), without building a pointer vector.
  template <typename Input, typename Sketch>
  void MergeMany(std::span<const Input> inputs, Sketch sketch) {
    store_.MergeMany(
        inputs, [&sketch](const Input& in) -> const SampleStore<Payload>& {
          return std::invoke(sketch, in).store_;
        });
  }

  // Removes retained entries with priority >= Threshold(). Needed after
  // merges or external threshold reductions.
  void PurgeAboveThreshold() { store_.PurgeAboveThreshold(); }

  // Externally lowers the threshold (used by threshold composition); purges
  // entries that fall outside.
  void LowerThreshold(double t) { store_.LowerThreshold(t); }

  SampleStore<Payload>& store() { return store_; }
  const SampleStore<Payload>& store() const { return store_; }

  // Wire format (requires a PayloadCodec<Payload> specialization):
  // header, k, threshold, count, then `count` fixed-stride (priority,
  // payload) entries. Only entries strictly below the threshold travel:
  // after a duplicate-priority warm-up (and before any purge) the
  // canonical retained set may hold entries tied AT the threshold, which
  // are not members of the threshold sample at that bound -- and which
  // the strict `priority < threshold` wire validation would rightly
  // reject, making the frame unparseable.
  //
  // One pass over the canonical columns counts the survivors; the entry
  // region is then encoded in place into a buffer reserved once for the
  // whole frame (trailing checksum included).
  void SerializeTo(ByteWriter& w) const {
    const std::vector<double>& priorities = store_.priorities();
    const std::vector<Payload>& payloads = store_.payloads();
    const double t = store_.Threshold();
    size_t count = 0;
    for (const double p : priorities) count += p < t ? 1 : 0;
    w.Reserve(kPrefixSize + count * kEntryStride + sizeof(uint32_t));
    WriteSketchHeader(w, kWireMagic, kWireVersion);
    w.WriteU64(store_.k());
    w.WriteDouble(t);
    w.WriteU64(count);
    char* out = w.Grow(count * kEntryStride);
    for (size_t i = 0; i < priorities.size(); ++i) {
      if (!(priorities[i] < t)) continue;
      std::memcpy(out, &priorities[i], sizeof(double));
      PayloadCodec<Payload>::Encode(out + sizeof(double), payloads[i]);
      out += kEntryStride;
    }
  }

  // Zero-copy read-only view over one frame body: the entry region stays
  // a bounds-checked span over the caller's bytes, decoded lazily per
  // access. This is what lets MergeManyFrames aggregate a large fan-in
  // of wire sketches without ever building the per-frame vectors a
  // Deserialize+Merge chain would (each frame's bytes are copied at most
  // once: accepted survivors into the accumulator). Container frames
  // embed it for their sample regions (PSM2 and TDK1 views derive from
  // it, MOB1 holds one per objective).
  //
  // The view borrows the frame's storage; it must not outlive the bytes.
  class FrameView : public FrameEntries<Payload> {
   public:
    size_t k() const { return static_cast<size_t>(k_); }
    double threshold() const { return threshold_; }

   private:
    friend class BottomK;
    uint64_t k_ = 0;
    double threshold_ = kInfiniteThreshold;
  };

  // Reads one body -- header, fields, then the entry region -- into a
  // view and validates all of it: k >= 1, a non-NaN threshold, count <= k,
  // every entry strictly below the threshold, every payload valid. A
  // frame declaring a huge k is fine as long as its entry count is
  // consistent -- the view allocates nothing, so hostile capacity claims
  // cannot reserve memory here (kMaxEagerReserve caps FromView's store).
  static std::optional<FrameView> ReadView(ByteReader& r) {
    if (!ReadSketchHeader(r, kWireMagic, kWireVersion)) return std::nullopt;
    const auto k = r.ReadU64();
    const auto threshold = r.ReadDouble();
    const auto count = r.ReadU64();
    if (!k || !threshold || !count) return std::nullopt;
    // Priorities live on the whole real line (e.g. log-space keys in the
    // time-decay sampler), so only NaN thresholds are invalid here.
    if (*k < 1 || std::isnan(*threshold) || *count > *k) return std::nullopt;
    FrameView view;
    view.k_ = *k;
    view.threshold_ = *threshold;
    if (!view.Take(r, *count)) return std::nullopt;
    // One tight pass: every priority strictly below the threshold (NaN
    // fails) and every payload valid.
    for (size_t i = 0; i < view.size(); ++i) {
      if (!(view.priority(i) < *threshold) ||
          !PayloadCodec<Payload>::Valid(view.payload(i))) {
        return std::nullopt;
      }
    }
    return view;
  }

  // A frame is a sample: materializing it is merging it into an empty
  // sketch (count <= k entries below the threshold, all kept).
  static BottomK FromView(const FrameView& view) {
    BottomK sketch(view.k());
    sketch.MergeValidatedViews(std::span(&view, 1));
    return sketch;
  }

  bool MergeCompatible(const FrameView&) const { return true; }

  // Applies validated views through the store's merge gather. MOB1 passes
  // its own views with a projection `sample` onto one objective's view.
  template <typename View, typename Sample = std::identity>
  void MergeValidatedViews(std::span<const View> views, Sample sample = {}) {
    store_.MergeGather(views, sample, [this](double p, Payload payload) {
      store_.Offer(p, std::move(payload));
    });
  }

  static constexpr uint32_t kWireMagic = 0x42544b32;  // "BTK2"
  static constexpr uint32_t kWireVersion = 2;

 private:
  // Header, k, threshold, count.
  static constexpr size_t kPrefixSize =
      2 * sizeof(uint32_t) + 3 * sizeof(uint64_t);
  static constexpr size_t kEntryStride = FrameEntries<Payload>::kStride;

  SampleStore<Payload> store_;
};

static_assert(MergeableSketch<BottomK<uint64_t>>);

// One weighted item retained by PrioritySampler. Namespace-scope (not
// nested) so its wire codec below is complete before the sampler's frame
// view embeds a BottomK view over it.
struct WeightedStored {
  uint64_t key;
  double weight;
};

// Wire codec for weighted items, so PrioritySampler's sample nests inside
// the generic BottomK frame (one copy of the entry validation logic).
template <>
struct PayloadCodec<WeightedStored> {
  static constexpr size_t kWireSize = sizeof(uint64_t) + sizeof(double);
  static void Encode(char* out, const WeightedStored& item) {
    std::memcpy(out, &item.key, sizeof(item.key));
    std::memcpy(out + 8, &item.weight, sizeof(item.weight));
  }
  static WeightedStored Decode(const char* in) {
    WeightedStored item;
    std::memcpy(&item.key, in, sizeof(item.key));
    std::memcpy(&item.weight, in + 8, sizeof(item.weight));
    return item;
  }
  static bool Valid(const WeightedStored& item) { return item.weight > 0.0; }
};

// Priority sampling (weighted bottom-k) over keyed, weighted items.
//
// Each item draws priority R = U/w (coordinated via its key hash when
// `coordinated` is true, independent otherwise). The sample supports
// unbiased subset-sum estimation through estimators/subset_sum.h.
class PrioritySampler : public FrameCodec<PrioritySampler> {
 public:
  using Item = WeightedStored;

  // `seed` drives independent priorities; ignored when coordinated.
  PrioritySampler(size_t k, uint64_t seed = 1, bool coordinated = false);

  // Feeds one weighted item.
  void Add(uint64_t key, double weight);

  // Feeds a batch of weighted items: equivalent to calling Add() on each
  // item in order (bit-identical state, including the RNG stream in
  // independent mode), but priorities are computed into a dense column and
  // offered through the store's pre-filtered batch path. Returns the
  // number of retained items.
  size_t AddBatch(std::span<const Item> items);

  // Current adaptive threshold tau.
  double Threshold() const { return sketch_.Threshold(); }

  size_t size() const { return sketch_.size(); }

  // Live heap bytes of the sample state (util/memory.h convention);
  // excludes the reusable AddBatch scratch column.
  size_t MemoryFootprint() const { return sketch_.MemoryFootprint(); }

  // Sample entries (with per-item inclusion probabilities) for estimators.
  std::vector<SampleEntry> Sample() const;

  const BottomK<Item>& sketch() const { return sketch_; }

  // Merges a sampler over a disjoint stream (same k recommended); the
  // merged sample is the bottom-k of the concatenated streams. Safe for
  // self-merge (no-op).
  void Merge(const PrioritySampler& other) { sketch_.Merge(other.sketch_); }

  // Threshold-pruned k-way union through the store's one merge gather
  // (SampleStore::MergeGather): equal to folding `others` with Merge() in
  // span order (RNG state and coordination flags do not participate in a
  // merge). Inputs aliasing `this` are skipped.
  void MergeMany(std::span<const PrioritySampler* const> others) {
    sketch_.MergeMany(others, &PrioritySampler::sketch_);
  }

  // Wire format (magic "PSM2"): header, coordination flag, the RNG state
  // (a restored independent sampler continues the exact same priority
  // stream), then the embedded bottom-k sample region.
  void SerializeTo(ByteWriter& w) const;

  // Zero-copy read-only view over one frame body: the embedded sample
  // region's bottom-k frame view, plus the sampler's own fields. Borrows
  // the frame's storage; must not outlive it.
  class FrameView : public BottomK<Item>::FrameView {
   public:
    bool coordinated() const { return coordinated_; }

   private:
    friend class PrioritySampler;
    bool coordinated_ = false;
    std::array<uint64_t, 4> rng_state_ = {};
  };

  // The frame hooks (util/serialize.h): RNG state and coordination flags
  // do not participate in a merge, so every valid frame is compatible.
  static std::optional<FrameView> ReadView(ByteReader& r);
  static PrioritySampler FromView(const FrameView& view);
  bool MergeCompatible(const FrameView&) const { return true; }
  void MergeValidatedViews(std::span<const FrameView> views) {
    sketch_.MergeValidatedViews(views);
  }

  static constexpr uint32_t kWireMagic = 0x50534d32;  // "PSM2"
  static constexpr uint32_t kWireVersion = 2;

 private:
  // Adopts a materialized sample (FromView), so no default-sized store
  // is allocated only to be replaced.
  PrioritySampler(BottomK<Item> sketch, bool coordinated)
      : sketch_(std::move(sketch)), rng_(1), coordinated_(coordinated) {}

  BottomK<Item> sketch_;
  Xoshiro256 rng_;
  bool coordinated_;
  // Scratch column for AddBatch (reused across calls to avoid allocation).
  std::vector<double> batch_priorities_;
};

static_assert(MergeableSketch<PrioritySampler>);

// Estimator-ready entries (with inclusion probabilities at the store's
// threshold) from a weighted-item store. Shared by PrioritySampler and
// the sharded front-end.
std::vector<SampleEntry> MakeWeightedSample(
    const SampleStore<PrioritySampler::Item>& store);

}  // namespace ats

#endif  // ATS_CORE_BOTTOM_K_H_
