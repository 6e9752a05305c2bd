// Sliding-window sampling in bounded space (Section 3.2, Figures 1-2).
//
// Implements the Gemulla & Lehner (G&L) [14] bounded-space scheme,
// re-expressed as the paper's two-stage adaptive thresholding procedure,
// and BOTH final thresholds over the *identical* stored state:
//
//  * Storage stage. The sampler keeps "current" examples C(t) from the
//    window (t - window, t] and "expired" examples X(t) from
//    (t - 2*window, t - window]. A new item x_n gets the initial threshold
//    T_n = 1 if |C| < k, else the k-th smallest of C's priorities and R_n.
//    Items with R_n >= T_n are discarded. When an insertion pushes |C|
//    above k, every current threshold is lowered to min(T_i, T_n), which
//    evicts the largest-priority item. Items that leave the window move to
//    X with their priority and final per-item threshold; X is trimmed at
//    two window lengths.
//
//  * Final threshold, G&L: T_GL = k-th smallest priority among C u X.
//    Correct but conservative - it discards roughly half the usable points.
//
//  * Final threshold, improved (this paper): T_imp = min_{i in C(t)} T_i.
//    The storage stage is a sequential 1-substitutable rule and min
//    composition preserves 1-substitutability (Theorem 9); the min is
//    constant across the window so Theorem 6 upgrades it to full
//    substitutability. Same sketch, roughly twice the usable sample.
//
// Storage layout: the current set C(t) is four parallel columns --
// priority R_i, id, arrival time, and per-item threshold T_i -- always in
// arrival (== time) order, so window expiry is a prefix and the eviction
// min-update is one pass over a contiguous double column. The window does
// not use SampleStore: its retention is by time and by the largest
// priority, not by a bottom-k compaction.
//
// Per-arrival cost at a full sample: the initial threshold needs the two
// largest live priorities. An exact cache of the kTopCache largest live
// priorities (a descending multiset prefix) is maintained on every
// insert, eviction and expiry, so a rejected arrival is O(1) and an
// accepted one is one contiguous pass per column (min-update, evictee
// lookup, erase). A merge or deserialize leaves the cache empty; one scan
// refills it whenever fewer than two entries remain.
//
// Merging (distributed windows): samplers over DISJOINT key partitions of
// one stream, sharing the time axis, merge by min threshold composition
// (Theorem 9): the union of the current sets under the common bound
// t = min of both sides' improved thresholds at the merge instant,
// re-capped at k by the usual bottom-k rule when the union overflows
// (every per-item threshold is min-updated with the final bound, which
// leaves the improved threshold -- already the min over all items --
// unchanged); expired sets are unioned in time order and trimmed at two
// windows, so the G&L threshold of the merged sampler is computed over
// the full union. Unlike the sketches' threshold-pruned one-shot engine,
// the windowed rule is clock-SENSITIVE -- improved thresholds recover as
// old constraints expire -- so there is no clock-free global bound to
// hoist: MergeMany/MergeManyFrames are DEFINED as the pairwise chain in
// span order (one shared snapshot/selection core per input, frames all
// validated before the first is applied) and differential-tested
// bit-identical to the explicit Merge chain (window_mergeable_test.cc).
#ifndef ATS_SAMPLERS_SLIDING_WINDOW_H_
#define ATS_SAMPLERS_SLIDING_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ats/core/random.h"
#include "ats/core/threshold.h"
#include "ats/util/check.h"
#include "ats/util/memory.h"
#include "ats/util/serialize.h"

namespace ats {

class SlidingWindowSampler {
 public:
  struct StoredItem {
    uint64_t id = 0;
    double time = 0.0;
    double priority = 0.0;
    double threshold = 1.0;  // per-item threshold T_i(t), min-updated
  };

  /// k: target sample size / space bound per window; window: Delta.
  SlidingWindowSampler(size_t k, double window, uint64_t seed);

  /// Feeds an arrival (times must be non-decreasing). Returns true iff the
  /// item was stored. The priority is drawn internally from Uniform(0,1).
  /// Thread-safety: mutating call -- external synchronization required.
  //
  /// Defined inline: at the rate == k operating point the whole per-
  /// arrival path is a handful of compares and four column push_backs,
  /// and the call overhead itself is measurable against the deque
  /// baseline it is benchmarked against (BM_WindowArriveBoundary).
  bool Arrive(double time, uint64_t id) {
    ExpireUntil(time);
    const double priority = rng_.NextDoubleOpenZero();
    const size_t live = priority_.size() - dead_prefix_;
    if (live >= k_) return ArriveAtFullSample(time, priority, id);
    // Underfull: initial threshold 1, so R_n < 1 is the whole test.
    if (!(priority < 1.0)) return false;
    TopInsert(priority, live);
    Append(priority, id, time, 1.0);
    ++epoch_;
    return true;
  }

  // --- Queries (all advance expiry to `now`) ---
  //
  // Queries mutate the representation (items move current -> expired and
  // expired items age out), so like ingest they must not run concurrently
  // with each other or with Arrive on the same sampler. `now` must be
  // non-decreasing across calls.

  /// G&L final threshold: k-th smallest priority among current u expired.
  double GlThreshold(double now);

  /// Improved final threshold: min over current items' per-item thresholds.
  double ImprovedThreshold(double now);

  /// Uniform samples from the window (t - window, now] under each final
  /// threshold. Entries carry Uniform priorities and the final threshold.
  std::vector<SampleEntry> GlSample(double now);
  std::vector<SampleEntry> ImprovedSample(double now);

  /// Number of stored (current + expired) items: the space actually used.
  size_t StoredCount(double now);

  /// Live heap bytes of the windowed state (util/memory.h convention):
  /// the four current-set columns plus the expired column, including
  /// the not-yet-extracted dead prefix and the not-yet-erased dropped
  /// head (they occupy real bytes until the deferred cleanup runs).
  /// O(1), non-canonicalizing -- never advances expiry.
  size_t MemoryFootprint() const {
    return VectorFootprint(priority_) + VectorFootprint(id_) +
           VectorFootprint(time_) + VectorFootprint(threshold_) +
           VectorFootprint(expired_);
  }

  /// Current items (after expiry at `now`), for the Figure 1 threshold
  /// trace. Sorted by arrival time.
  std::vector<StoredItem> CurrentItems(double now);

  size_t k() const { return k_; }
  double window() const { return window_; }

  /// Latest time observed (arrivals, queries, merges). Serialization and
  /// merging canonicalize expiry at this instant.
  double last_time() const { return last_time_; }

  /// Monotone counter covering every observable mutation (accepted
  /// arrivals, evictions, expiry movement, merges). Query-side caches
  /// (ShardedWindowSampler) snapshot it to skip re-merging clean shards.
  uint64_t mutation_epoch() const { return epoch_; }

  /// Merges a sampler over a disjoint key partition of the same timeline
  /// (windows must match; ATS_CHECK enforced). Equivalent to
  /// MergeMany({&other}); self-merge is a no-op.
  void Merge(const SlidingWindowSampler& other);

  /// K-way merge: bit-identical to merging the inputs one by one with
  /// Merge() in span order (differential-tested) -- the windowed rule is
  /// clock-sensitive, so the chain IS the definition (see the file
  /// comment). Inputs aliasing `this` are skipped; with no real inputs
  /// this is a strict no-op.
  void MergeMany(std::span<const SlidingWindowSampler* const> inputs);

  // --- Versioned wire format (magic "SWN1") ---
  //
  // The frame carries k, window, last_time, the RNG state (a restored
  // sampler continues the exact priority stream), and the current +
  // expired entry regions in time order. Per-item validation admits
  // priority == threshold ties: storage keeps the item whose priority
  // became the eviction bound even though it is outside the strict
  // threshold sample (see docs/WIRE_FORMAT.md).

  /// Appends the wire frame. Canonicalizes nothing: entries are written
  /// as stored; Deserialize re-runs expiry at last_time.
  void SerializeTo(ByteWriter& w) const;
  static std::optional<SlidingWindowSampler> Deserialize(ByteReader& r);
  std::string SerializeToString() const { return SerializeSketch(*this); }
  static std::optional<SlidingWindowSampler> Deserialize(
      std::string_view bytes) {
    return DeserializeSketch<SlidingWindowSampler>(bytes);
  }

  /// Typed rejection reason for a frame Deserialize would refuse:
  /// structural cause first (kTruncated / kBadMagic / kBadVersion /
  /// checksum -> kCorruptBody), kCorruptBody for field- or entry-level
  /// violations, kNone iff the frame parses.
  static FrameFault DiagnoseFrame(std::string_view frame);

  /// Zero-copy read-only view over a whole serialized frame (checksum
  /// included). Parsing validates everything Deserialize validates but
  /// materializes nothing; the view borrows the frame's storage and must
  /// not outlive it.
  class FrameView {
   public:
    size_t k() const { return static_cast<size_t>(k_); }
    double window() const { return window_; }
    double last_time() const { return last_time_; }
    size_t current_count() const { return current_count_; }
    size_t expired_count() const { return expired_count_; }

    /// Entry i in [0, current_count + expired_count): current region
    /// first, then expired, each in time order.
    StoredItem entry(size_t i) const;

   private:
    friend class SlidingWindowSampler;
    static constexpr size_t kStride = sizeof(uint64_t) + 3 * sizeof(double);

    uint64_t k_ = 0;
    double window_ = 0.0;
    double last_time_ = 0.0;
    size_t current_count_ = 0;
    size_t expired_count_ = 0;
    std::string_view entries_;
  };

  /// Parses a SerializeToString buffer into a FrameView; nullopt on
  /// exactly the inputs Deserialize rejects. Allocation-free: hostile
  /// capacity claims cannot reserve memory here.
  static std::optional<FrameView> DeserializeView(std::string_view frame);

  /// Threshold-pruned k-way merge straight off the wire: observationally
  /// identical to deserializing every frame and merging the results with
  /// Merge() in span order. Returns false -- leaving the sampler
  /// observably unchanged -- if ANY frame fails validation or carries a
  /// mismatched window; all frames are vetted before the first one is
  /// applied.
  bool MergeManyFrames(std::span<const std::string_view> frames);

 private:
  // One input of the shared merge core: a filtered view of a sampler or
  // frame at the global merge instant `now` (current: time in
  // (now - w, now]; expired: time in (now - 2w, now - w]).
  struct WindowSnapshot {
    std::vector<StoredItem> current;
    std::vector<StoredItem> expired;
  };

  // Size of the top-priority cache. Large enough that a refill scan is
  // amortized over several accepted arrivals, small enough that the
  // sampler fits the 280 bytes a concurrent shard slot leaves it.
  static constexpr size_t kTopCache = 7;

  // The expiry hot path: pure MARKING. Entries leaving the window only
  // advance dead_prefix_ (no copy, no pop -- they stay parked in the
  // column prefix); entries of expired_ aging past two windows only
  // advance expired_head_. The physical work (copying the dead prefix
  // into expired_, erasing both prefixes) is batched into
  // CleanupDeadPrefix / EraseDroppedExpired at every k-th marking, so one
  // arrival at the rate == k boundary costs two compares, two
  // increments and a top-cache check here -- the regime where the
  // classic deque design's O(1) pop_front used to win
  // (BM_WindowArriveBoundary).
  void ExpireUntil(double now) {
    if (now > last_time_) last_time_ = now;
    const double cutoff = last_time_ - window_;
    if (dead_prefix_ < time_.size() && time_[dead_prefix_] <= cutoff) {
      ++epoch_;
      do {
        TopErase(priority_[dead_prefix_]);
        ++dead_prefix_;
      } while (dead_prefix_ < time_.size() && time_[dead_prefix_] <= cutoff);
      if (dead_prefix_ >= k_) CleanupDeadPrefix();
    }
    DropExpired();
  }

  // Marks expired_ entries older than two windows dropped (head advance)
  // and reclaims the dropped prefix once it reaches k.
  void DropExpired() {
    const double drop = last_time_ - 2.0 * window_;
    if (expired_head_ < expired_.size() &&
        expired_[expired_head_].time <= drop) {
      ++epoch_;
      do {
        ++expired_head_;
      } while (expired_head_ < expired_.size() &&
               expired_[expired_head_].time <= drop);
      if (expired_head_ >= k_) EraseDroppedExpired();
    }
  }
  // Physically erases the dropped expired_ prefix. Out of line, like the
  // cache updates below, so Arrive stays small enough to be inlined.
  void EraseDroppedExpired();

  // The live (not yet dropped) expired items X(t), oldest first.
  std::span<const StoredItem> ExpiredItems() const {
    return std::span<const StoredItem>(expired_.data() + expired_head_,
                                       expired_.size() - expired_head_);
  }

  // --- Top-priority cache ---
  //
  // Invariant: top_[0, top_count_) holds the top_count_ largest live
  // priorities (columns past the dead prefix) as a multiset, in
  // descending order. An empty cache is always valid, which is how a
  // merge or deserialize invalidates it.

  // Inserts p into the descending prefix top[0, count) holding at most
  // kTopCache entries; a full prefix drops its smallest entry for a
  // larger p and ignores a p that is not larger.
  static void InsertBounded(double* top, size_t& count, double p);

  // Records that live priority p was added to a live set of `live`
  // entries. The cache covers the whole set when top_count_ == live;
  // otherwise p joins only if it is not below the cached prefix. Only
  // the tests are inline: the arrival path rarely changes the cache.
  void TopInsert(double p, size_t live) {
    const size_t n = top_count_;
    if (n == kTopCache ? p > top_[n - 1]
                       : n == live || (n != 0 && !(p < top_[n - 1]))) {
      InsertBounded(top_, top_count_, p);
    }
  }

  // Records that live priority q left the live set. A value at or above
  // the cached minimum is (a copy of) a cached entry, so one copy goes.
  void TopErase(double q) {
    if (top_count_ != 0 && !(q < top_[top_count_ - 1])) EraseCached(q);
  }
  void EraseCached(double q);

  // One scan over the live priorities refills the cache.
  void RefillTopCache();

  // Appends one entry to the four current-set columns.
  void Append(double priority, uint64_t id, double time, double threshold) {
    priority_.push_back(priority);
    id_.push_back(id);
    time_.push_back(time);
    threshold_.push_back(threshold);
  }

  // The saturated-sample arrival path: O(1) threshold from the top
  // cache, then, if accepted, the min-update and eviction. Out of line
  // -- only the underfull path above is latency-critical per arrival,
  // and keeping Arrive small keeps it inlined into callers' loops.
  bool ArriveAtFullSample(double time, double priority, uint64_t id);
  // Expiry advance for QUERY paths: ExpireUntil plus the physical
  // extraction, plus a re-drop -- items that aged past two windows while
  // parked in the dead prefix surface in expired_ only at extraction
  // time, so one more head scan makes the exposed expired set exact.
  void FlushExpiry(double now);
  // Stored item i reassembled from the parallel columns.
  StoredItem ItemAt(size_t i) const {
    return StoredItem{id_[i], time_[i], priority_[i], threshold_[i]};
  }
  // Physically extracts the dead (logically expired) column prefix:
  // bulk-copies it into expired_, then erases it from the columns.
  // Amortized O(1) per expired item: runs when the prefix reaches k, or
  // piggybacks on paths that are O(k) anyway (queries, evictions,
  // merges, never the accept path of the boundary regime).
  void CleanupDeadPrefix();
  std::vector<SampleEntry> SampleWithThreshold(double threshold) const;
  // Improved threshold over the columns as-is (no expiry advance).
  double CurrentMinThreshold() const;
  // Snapshot of a (possibly lazily expired) sampler at global time `now`.
  WindowSnapshot SnapshotAt(double now) const;
  static WindowSnapshot SnapshotOfView(const FrameView& view, double now);
  // The pairwise merge core shared by Merge, MergeMany, and
  // MergeManyFrames: folds one input snapshot (already filtered at
  // `now`) into `this`.
  void MergeOneSnapshot(WindowSnapshot snap, double now);

  size_t k_;
  double window_;
  Xoshiro256 rng_;
  // Current items C(t): four parallel columns, always in arrival
  // (== time) order.
  std::vector<double> priority_;
  std::vector<uint64_t> id_;
  std::vector<double> time_;
  std::vector<double> threshold_;
  // Leading column entries that have logically expired but are not yet
  // copied into expired_ or physically extracted; every column reader
  // starts past this index. See ExpireUntil / CleanupDeadPrefix.
  size_t dead_prefix_ = 0;
  // Expired items X(t), ordered by time; the live range starts at
  // expired_head_ (dropped entries are marked, then batch-erased -- same
  // deferral as the dead prefix, and a vector + head index beats a deque
  // here: no per-16-item block allocator traffic on the hot path).
  std::vector<StoredItem> expired_;
  size_t expired_head_ = 0;
  double last_time_;
  // Observable-mutation counter; see mutation_epoch().
  uint64_t epoch_ = 0;
  // The top-priority cache; see TopInsert.
  double top_[kTopCache] = {};
  size_t top_count_ = 0;
};

static_assert(MergeableSketch<SlidingWindowSampler>);

}  // namespace ats

#endif  // ATS_SAMPLERS_SLIDING_WINDOW_H_
