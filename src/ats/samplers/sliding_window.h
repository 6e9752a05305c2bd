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
// arrival (== time) order, so window expiry is a prefix. The window does
// not use SampleStore: its retention is by time and by the largest
// priority, not by a bottom-k compaction.
//
// Per-arrival cost at a full sample: the initial threshold needs the two
// largest live priorities. An exact cache of the kTopCache largest live
// priorities (a descending multiset prefix) is maintained on every
// insert, eviction and expiry, so a rejected arrival is O(1). An accepted
// one moves no column data: the cache names the evictee's position (a
// tie at the maximum takes a SIMD scan), the evictee's priority becomes
// a tombstone, the newcomer is appended, and the min-update of every
// live threshold is recorded lazily in one scalar (see "Lazy
// thresholds" below). Every accept that evicts a cached entry shrinks
// the cache, and one scan refills it whenever fewer than two entries
// remain (a merge or deserialize leaves it empty). Expired entries stay
// parked in a dead column prefix. Once dead entries and tombstones
// together reach k, one filtered pass copies the dead prefix into the
// expired set, compacts the tombstones out and applies the pending
// threshold updates, so the columns never hold more than 2k entries.
// Every query path reclaims first and sees clean columns.
//
// Merging (distributed windows): samplers over DISJOINT key partitions of
// one stream, sharing the time axis, merge by min threshold composition
// (Theorem 9). One pairwise step at clock `now` takes the union of both
// current sets under the common bound t = min of both sides' improved
// thresholds at `now`, re-capped at k by the usual bottom-k rule when the
// union overflows (every per-item threshold is min-updated with the final
// bound, which leaves the improved threshold -- already the min over all
// items -- unchanged); expired sets are unioned in time order and trimmed
// at two windows, so the G&L threshold of the merged sampler is computed
// over the full union. Merge, MergeMany and MergeManyFrames are DEFINED as
// the chain of these steps in span order, step i at the ratcheting clock
// now_i = max(now_{i-1}, input i's last_time). Unlike the sketches'
// merge, the windowed rule is clock-SENSITIVE: improved thresholds
// recover as old constraints expire, and entries the receiver took in at
// an earlier step move to its expired set, with the thresholds they had
// then, when a later input advances the clock. So a one-shot merge at the
// final clock is not the chain. One merge engine runs the chain's steps
// exactly, without its per-step costs: the receiver is flushed once and
// its current set kept in one scratch buffer, each input (sampler columns
// or a validated FrameView) is read once at its step's clock, no step
// allocates, the columns are written once, and the expired runs -- the
// receiver's, then each input's in span order, which is the chain's tie
// order -- are merged once at the end (sliding_window.cc). Frames are all
// validated before the first is applied. Differential tests pin all three
// entry points to the explicit Merge chain and to an independent chain
// reference, bit for bit (window_mergeable_test.cc).
#ifndef ATS_SAMPLERS_SLIDING_WINDOW_H_
#define ATS_SAMPLERS_SLIDING_WINDOW_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
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

class SlidingWindowSampler : public FrameCodec<SlidingWindowSampler> {
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
  /// Always inlined: at the rate == k operating point the whole per-
  /// arrival path is a handful of compares and four column push_backs,
  /// and the call overhead itself is measurable against the deque
  /// baseline it is benchmarked against (BM_WindowArriveBoundary); the
  /// compiler's size heuristic alone stops inlining it.
  [[gnu::always_inline]] bool Arrive(double time, uint64_t id) {
    ExpireUntil(time);
    const double priority = rng_.NextDoubleOpenZero();
    // A clean range has no tombstones, so this is the live count there.
    const size_t live = priority_.size() - dead_prefix_;
    if (live >= k_ || pending_ < 1.0) {
      return ArriveOutOfLine(time, priority, id);
    }
    // Underfull and clean: initial threshold 1, so R_n < 1 is the whole
    // test.
    if (!(priority < 1.0)) return false;
    TopInsert(priority_.size(), priority, live);
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
  /// the not-yet-extracted dead prefix, the not-yet-compacted
  /// tombstones and the not-yet-erased dropped head (they occupy real
  /// bytes until the deferred reclaim runs; each is below k entries).
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
  /// arrivals, evictions, expiry movement, merges). The sharded
  /// front-end (concurrent_sampler.h) publishes it to skip re-merging
  /// clean shards.
  uint64_t mutation_epoch() const { return epoch_; }

  /// Merges a sampler over a disjoint key partition of the same timeline
  /// (windows must match; ATS_CHECK enforced). Equivalent to
  /// MergeMany({&other}); self-merge is a no-op.
  void Merge(const SlidingWindowSampler& other);

  /// K-way merge: bit-identical to merging the inputs one by one with
  /// Merge() in span order (differential-tested) -- the windowed rule is
  /// clock-sensitive, so the chain IS the definition, and the merge
  /// engine runs its steps in one pass (see the file comment). Inputs
  /// aliasing `this` are skipped; with no real inputs this is a strict
  /// no-op.
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
  /// as stored.
  void SerializeTo(ByteWriter& w) const;

  /// Zero-copy read-only view over one frame body: every field and entry
  /// validated, nothing materialized; the view borrows the frame's
  /// storage and must not outlive it.
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
    std::array<uint64_t, 4> rng_state_ = {};
    size_t current_count_ = 0;
    size_t expired_count_ = 0;
    std::string_view entries_;
  };

  /// The frame hooks (util/serialize.h). ReadView allocates nothing, so
  /// hostile capacity claims cannot reserve memory there. A frame is
  /// merge-compatible iff its window matches (merging different window
  /// lengths has no defined semantics); MergeValidatedViews runs the
  /// views through the merge engine in span order.
  static std::optional<FrameView> ReadView(ByteReader& r);
  static SlidingWindowSampler FromView(const FrameView& view);
  bool MergeCompatible(const FrameView& view) const {
    return view.window() == window_;
  }
  void MergeValidatedViews(std::span<const FrameView> views);

  static constexpr uint32_t kWireMagic = 0x53574e31;  // "SWN1"
  static constexpr uint32_t kWireVersion = 2;

 private:
  // The merge engine behind Merge, MergeMany and MergeManyFrames (see
  // the file comment); defined in sliding_window.cc.
  class MergeEngine;

  // Size of the top-priority cache. Large enough that a refill scan is
  // amortized over several accepted arrivals (an accept that evicts a
  // cached entry shrinks it by one unless the newcomer joins), small
  // enough that the sampler fits the 280 bytes a concurrent shard slot
  // leaves it.
  static constexpr size_t kTopCache = 6;

  // Priority of an evicted entry still parked in the columns. Live
  // priorities are open-unit-interval draws, so no live entry equals it,
  // and it is below every cached priority and every eviction bound:
  // the evictee lookup (first entry >= m1) and the top cache skip it
  // without a test of their own.
  static constexpr double kTombstone = 0.0;

  // Entries in the live column range that are not tombstones: |C(t)|.
  size_t LiveCount() const {
    return priority_.size() - dead_prefix_ - tombstones_;
  }

  // True once the dead prefix and the tombstones together reach k (the
  // Reclaim trigger), or the 32-bit tombstone count is about to wrap --
  // which a k below 2^32 never reaches first.
  bool SlackFull() const {
    return dead_prefix_ + tombstones_ >= k_ ||
           tombstones_ == std::numeric_limits<uint32_t>::max();
  }

  // The expiry hot path: pure MARKING. Entries leaving the window only
  // advance dead_prefix_ (no copy, no pop -- they stay parked in the
  // column prefix; a tombstone leaves the live tombstone count);
  // entries of expired_ aging past two windows only advance
  // expired_head_. The physical work (copying the dead prefix into
  // expired_, compacting the columns, erasing the dropped head) is
  // batched into Reclaim / EraseDroppedExpired once k entries are
  // waiting, so one arrival at the rate == k boundary costs the clean
  // test, two compares, two increments and a top-cache check here -- the
  // regime where the classic deque design's O(1) pop_front used to win
  // (BM_WindowArriveBoundary).
  void ExpireUntil(double now) {
    if (now > last_time_) last_time_ = now;
    const double cutoff = last_time_ - window_;
    if (dead_prefix_ < time_.size() && time_[dead_prefix_] <= cutoff) {
      ++epoch_;
      if (pending_ < 1.0) {
        ExpireDirtyUntil(cutoff);
      } else {
        do {
          TopErase(dead_prefix_, priority_[dead_prefix_]);
          ++dead_prefix_;
        } while (dead_prefix_ < time_.size() &&
                 time_[dead_prefix_] <= cutoff);
        if (dead_prefix_ >= k_) Reclaim();  // no tombstones when clean
      }
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
  // Invariant: the priorities at the column positions top_[0, top_count_)
  // are the top_count_ largest live priorities (columns past the dead
  // prefix, tombstones excluded) as a multiset, in descending order, and
  // equal priorities sit in ascending position order. So when the two
  // largest differ, top_[0] is the evictee. An empty cache is always
  // valid, which is how a merge or deserialize invalidates it.

  double TopPriority(size_t j) const { return priority_[top_[j]]; }

  // Inserts column position `pos`, of priority p, into the descending
  // prefix top[0, count) holding at most kTopCache positions; a full
  // prefix drops its smallest entry for a larger priority and ignores
  // one that is not larger. Scanning positions in ascending order keeps
  // ties in ascending order.
  static void InsertBounded(const double* priorities, size_t* top,
                            uint32_t& count, size_t pos, double p);

  // Records that the entry about to be appended at `pos`, of priority
  // p, joins a live set of `live` entries. The cache covers the whole
  // set when top_count_ == live; otherwise the entry joins only if its
  // priority is not below the cached prefix. Only the tests are inline:
  // the arrival path rarely changes the cache.
  void TopInsert(size_t pos, double p, size_t live) {
    const size_t n = top_count_;
    if (n == kTopCache ? p > TopPriority(n - 1)
                       : n == live || (n != 0 && !(p < TopPriority(n - 1)))) {
      InsertBounded(priority_.data(), top_, top_count_, pos, p);
    }
  }

  // Records that the entry at `pos`, of priority q, left the live set.
  // Only a priority at or above the cached minimum can be cached.
  void TopErase(size_t pos, double q) {
    if (top_count_ != 0 && !(q < TopPriority(top_count_ - 1))) {
      EraseCached(pos);
    }
  }
  // Drops `pos` from the cache if it is there (an entry tied with the
  // cached minimum need not be).
  void EraseCached(size_t pos);

  // Collects into top[] the positions of the (at most kTopCache)
  // largest live priorities at or above `bound`, ties in ascending
  // position; returns how many.
  uint32_t CollectTop(double bound, size_t* top) const;
  // Refills the cache from the live priorities: a guessed narrow pass
  // when the maximum is known, else (or if that falls short) a full one.
  void RefillTopCache();

  // --- Lazy thresholds ---
  //
  // An accept at a full sample lowers every live threshold to
  // min(T_i, T_n). Instead of a pass over the column, the update is
  // recorded in O(1), using two facts: T_i is the min of i's initial
  // threshold and those of the full-sample accepts after it, and the
  // live range splits into a settled prefix and a lazy suffix:
  //  * a settled entry stores +T and its threshold is min(T, P), where
  //    P = |pending_| is the min of the updates since the last settle;
  //  * a lazy entry (appended when P would have lowered it) stores
  //    -T_init and its threshold is the min of the initial thresholds
  //    from it to the end of the columns (tombstones included: an
  //    evicted entry's update stays applied).
  // pending_ is negative while a lazy suffix exists, and 1.0 -- its
  // largest value, so `pending_ < 1.0` is the dirty test -- only when
  // the live range is CLEAN: all settled, nothing pending, no tombstone
  // (only Reclaim, which compacts, makes it so). Clean is the underfull
  // regime's steady state, so its appends and expiries run inline as
  // plain column pushes and index advances; everything else runs out of
  // line. An expiring entry's threshold is frozen as it leaves the live
  // range (dead entries store their final threshold), and when the
  // front reaches the lazy suffix the range is reclaimed, which settles
  // it. Readers of live thresholds either flush first or use
  // LiveThresholds().

  // Appends one entry to the four current-set columns; `threshold` is
  // its stored threshold (equal to the initial one in a clean range).
  void Append(double priority, uint64_t id, double time, double threshold) {
    priority_.push_back(priority);
    id_.push_back(id);
    time_.push_back(time);
    threshold_.push_back(threshold);
  }
  // The stored form of a new entry's initial threshold. It joins the
  // settled prefix when P would not lower it (the pending updates all
  // came before it) and no lazy suffix exists (pending_ < 0 then);
  // otherwise it begins or extends the lazy suffix.
  double StoredThreshold(double threshold) {
    if (pending_ >= threshold) return threshold;
    pending_ = -std::abs(pending_);
    return -threshold;
  }

  // ExpireUntil's loop for a range that is not clean: freezes each
  // expiring threshold and counts tombstones out of the live range. A
  // front in the lazy suffix means the settled prefix is all dead: it
  // reclaims, which settles the range and moves the front.
  void ExpireDirtyUntil(double cutoff);

  // Rewrites t[0, n), a settled prefix then a lazy suffix, as the
  // thresholds they stand for under pending P.
  static void SettleRange(double* t, size_t n, double pending);
  // The thresholds of the live range [dead_prefix_, end), in order,
  // without settling it.
  std::vector<double> LiveThresholds() const;

  // The arrival path for a full sample -- O(1) threshold from the top
  // cache, then, if accepted, the tombstoning eviction and the lazily
  // recorded min-update -- and for an underfull one whose newcomer must
  // be stored lazily. Out of line: only the clean underfull path above
  // is latency-critical per arrival (the rate == k boundary).
  bool ArriveOutOfLine(double time, double priority, uint64_t id);
  // Expiry advance for QUERY paths: ExpireUntil plus the physical
  // reclaim, plus a re-drop -- items that aged past two windows while
  // parked in the dead prefix surface in expired_ only at extraction
  // time, so one more head scan makes the exposed expired set exact.
  // Afterwards the columns hold exactly C(t), with no dead prefix and
  // no tombstones.
  void FlushExpiry(double now);
  // Stored item i reassembled from the parallel columns. Its threshold
  // is the stored one: final for a dead entry, and for a live one only
  // once the range is settled.
  StoredItem ItemAt(size_t i) const {
    return StoredItem{id_[i], time_[i], priority_[i], threshold_[i]};
  }
  // One filtered pass over the columns: copies the dead (logically
  // expired) prefix into expired_ and compacts the live range, both
  // skipping tombstones; pending threshold updates are settled first,
  // and cached positions move with their entries. Amortized O(1) per
  // expiry or eviction: runs when the dead prefix and the tombstones
  // together reach k, or on paths that are O(k) anyway (queries,
  // merges).
  void Reclaim();
  std::vector<SampleEntry> SampleWithThreshold(double threshold) const;
  // Improved threshold over the columns as-is (no expiry advance); they
  // must be reclaimed first (no dead prefix, tombstones or pending
  // updates).
  double CurrentMinThreshold() const;

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
  // starts past this index. See ExpireUntil / Reclaim.
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
  // Signed min of the full-sample updates not yet applied to the
  // settled prefix; 1.0 iff the live range is clean. See "Lazy
  // thresholds".
  double pending_ = 1.0;
  // The top-priority cache (column positions); see TopInsert.
  size_t top_[kTopCache] = {};
  uint32_t top_count_ = 0;
  // Tombstoned (evicted) entries in the live range [dead_prefix_, end);
  // a tombstone that expires counts in dead_prefix_ instead. 32 bits so
  // it shares a word with top_count_ (see SlackFull for the cap).
  uint32_t tombstones_ = 0;
};

static_assert(MergeableSketch<SlidingWindowSampler>);

}  // namespace ats

#endif  // ATS_SAMPLERS_SLIDING_WINDOW_H_
