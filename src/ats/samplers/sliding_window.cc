#include "ats/samplers/sliding_window.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>

#include "ats/core/sample_store.h"
#include "ats/core/simd/simd_dispatch.h"
#include "ats/util/check.h"

namespace {

constexpr uint32_t kWindowMagic = 0x53574e31;  // "SWN1"
constexpr uint32_t kWindowVersion = 2;

// Field offsets inside one 32-byte wire entry (id, time, priority,
// threshold; see docs/WIRE_FORMAT.md).
constexpr size_t kEntryTimeOffset = 8;
constexpr size_t kEntryPriorityOffset = 16;
constexpr size_t kEntryThresholdOffset = 24;

double ReadEntryDouble(std::string_view entries, size_t offset) {
  double v;
  std::memcpy(&v, entries.data() + offset, sizeof(v));
  return v;
}

}  // namespace

namespace ats {

SlidingWindowSampler::SlidingWindowSampler(size_t k, double window,
                                           uint64_t seed)
    : k_(k),
      window_(window),
      rng_(seed),
      last_time_(-std::numeric_limits<double>::infinity()) {
  ATS_CHECK(k >= 1);
  ATS_CHECK(window > 0.0);
  // The columns hold at most 2k entries: k live plus fewer than k dead
  // or tombstoned ones (see Reclaim). Capacity k is a logical limit from
  // the wire, so the eager reservation is bounded.
  const size_t reserve = std::min(2 * k, internal::kMaxEagerReserve);
  priority_.reserve(reserve);
  id_.reserve(reserve);
  time_.reserve(reserve);
  threshold_.reserve(reserve);
}

void SlidingWindowSampler::SettleRange(double* t, size_t n,
                                       double pending) {
  double suffix_min = 1.0;
  while (n > 0 && !(t[n - 1] > 0.0)) {
    --n;
    suffix_min = std::min(suffix_min, -t[n]);
    t[n] = suffix_min;
  }
  const double p = std::abs(pending);
  if (p < 1.0) {
    for (size_t i = 0; i < n; ++i) t[i] = std::min(t[i], p);
  }
}

std::vector<double> SlidingWindowSampler::LiveThresholds() const {
  std::vector<double> out(
      threshold_.begin() + static_cast<std::ptrdiff_t>(dead_prefix_),
      threshold_.end());
  SettleRange(out.data(), out.size(), pending_);
  return out;
}

void SlidingWindowSampler::ExpireDirtyUntil(double cutoff) {
  while (dead_prefix_ < time_.size() && time_[dead_prefix_] <= cutoff) {
    double& t = threshold_[dead_prefix_];
    if (!(t > 0.0)) {
      Reclaim();  // every live threshold is positive afterwards
      continue;
    }
    t = std::min(t, std::abs(pending_));
    tombstones_ -= priority_[dead_prefix_] == kTombstone;
    TopErase(dead_prefix_, priority_[dead_prefix_]);  // no-op for a tombstone
    ++dead_prefix_;
  }
  if (dead_prefix_ + tombstones_ >= k_) Reclaim();
}

void SlidingWindowSampler::Reclaim() {
  // Settled first: the compaction below drops tombstones, whose initial
  // thresholds a lazy suffix still needs. Afterwards the range is clean.
  if (pending_ < 1.0) {
    SettleRange(threshold_.data() + dead_prefix_,
                threshold_.size() - dead_prefix_, pending_);
    pending_ = 1.0;
  }
  if (dead_prefix_ == 0 && tombstones_ == 0) return;
  // The dead entries are a physical prefix, in time order, and OLDER
  // than everything already in expired_ was when it was copied -- so the
  // bulk copy appends in time order. Batching the copy here (instead of
  // copying item-by-item as each expires) is what keeps the rate == k
  // boundary at parity with a deque front-pop design (bench_window.cc,
  // BM_WindowArriveBoundary).
  expired_.reserve(expired_.size() + dead_prefix_);
  for (size_t i = 0; i < dead_prefix_; ++i) {
    if (priority_[i] != kTombstone) expired_.push_back(ItemAt(i));
  }
  if (tombstones_ == 0) {
    // Only the dead prefix goes: one ranged erase (a memmove) per column.
    const auto n = static_cast<std::ptrdiff_t>(dead_prefix_);
    priority_.erase(priority_.begin(), priority_.begin() + n);
    id_.erase(id_.begin(), id_.begin() + n);
    time_.erase(time_.begin(), time_.begin() + n);
    threshold_.erase(threshold_.begin(), threshold_.begin() + n);
    for (uint32_t j = 0; j < top_count_; ++j) top_[j] -= dead_prefix_;
  } else {
    // Compact the live range to the front, dropping tombstones: every
    // entry is copied and the write cursor advances past live ones
    // only. A cached entry is live, so the cursor is its new position;
    // the pass meets the cached positions in ascending order.
    uint32_t by_pos[kTopCache];
    for (uint32_t j = 0; j < top_count_; ++j) {
      uint32_t m = j;
      for (; m > 0 && top_[by_pos[m - 1]] > top_[j]; --m) {
        by_pos[m] = by_pos[m - 1];
      }
      by_pos[m] = j;
    }
    uint32_t next = 0;
    size_t out = 0;
    for (size_t i = dead_prefix_; i < priority_.size(); ++i) {
      const double p = priority_[i];
      priority_[out] = p;
      id_[out] = id_[i];
      time_[out] = time_[i];
      threshold_[out] = threshold_[i];
      if (next < top_count_ && top_[by_pos[next]] == i) {
        top_[by_pos[next++]] = out;
      }
      out += p != kTombstone;
    }
    priority_.resize(out);
    id_.resize(out);
    time_.resize(out);
    threshold_.resize(out);
  }
  dead_prefix_ = 0;
  tombstones_ = 0;
  ++epoch_;
}

void SlidingWindowSampler::EraseDroppedExpired() {
  expired_.erase(expired_.begin(),
                 expired_.begin() + static_cast<std::ptrdiff_t>(expired_head_));
  expired_head_ = 0;
}

void SlidingWindowSampler::FlushExpiry(double now) {
  ExpireUntil(now);
  Reclaim();
  // Entries that aged past two windows while parked in the dead prefix
  // reached expired_ only in the extraction above; one more drop scan
  // makes the exposed expired set exact.
  DropExpired();
}

void SlidingWindowSampler::InsertBounded(const double* priorities,
                                         size_t* top, uint32_t& count,
                                         size_t pos, double p) {
  uint32_t n = count;
  if (n == kTopCache) {
    if (!(p > priorities[top[n - 1]])) return;
    --n;  // the smallest cached entry falls out of the prefix
  }
  const uint32_t grown = n + 1;
  while (n > 0 && priorities[top[n - 1]] < p) {
    top[n] = top[n - 1];
    --n;
  }
  top[n] = pos;
  count = grown;
}

void SlidingWindowSampler::EraseCached(size_t pos) {
  uint32_t j = 0;
  while (j < top_count_ && top_[j] != pos) ++j;
  if (j == top_count_) return;
  for (; j + 1 < top_count_; ++j) top_[j] = top_[j + 1];
  --top_count_;
}

uint32_t SlidingWindowSampler::CollectTop(double bound, size_t* top) const {
  uint32_t count = 0;
  const double* const p = priority_.data();
  const size_t end = priority_.size();
  const auto prefilter = simd::ActiveKernels().prefilter_mask64;
  size_t i = dead_prefix_;
  for (; i + internal::kIngestBlock <= end; i += internal::kIngestBlock) {
    // Once the prefix is full, nothing below its minimum can enter.
    const double b =
        count == kTopCache ? std::max(bound, p[top[count - 1]]) : bound;
    for (uint64_t take = ~prefilter(p + i, b); take != 0; take &= take - 1) {
      const size_t pos = i + static_cast<size_t>(std::countr_zero(take));
      InsertBounded(p, top, count, pos, p[pos]);
    }
  }
  for (; i < end; ++i) {
    if (!(p[i] < bound)) InsertBounded(p, top, count, i, p[i]);
  }
  return count;
}

void SlidingWindowSampler::RefillTopCache() {
  size_t top[kTopCache];
  uint32_t count = 0;
  // While the largest live priority is still cached, the others spread
  // below it, so a first pass admits only entries at or above a guess
  // 16 average gaps under it (the kTopCache largest are there unless
  // the spread is very uneven). The guess only sets the cost: if fewer
  // than kTopCache entries clear it, the full pass runs.
  if (top_count_ == 1) {
    const double guess =
        TopPriority(0) * (1.0 - 16.0 / static_cast<double>(LiveCount()));
    if (guess > 0.0) count = CollectTop(guess, top);
  }
  // The full pass: every live priority clears the smallest positive
  // double, and no tombstone does.
  if (count < kTopCache) {
    count = CollectTop(std::numeric_limits<double>::denorm_min(), top);
  }
  std::copy(top, top + count, top_);
  top_count_ = count;
}

namespace {

// Index of the first entry at or after `from` that is >= `value`, which
// must exist. Full 64-entry blocks go through the dispatched
// `priority < bound` compare kernel: the first clear bit is the answer.
size_t FindFirstAtLeast(const std::vector<double>& column, size_t from,
                        double value) {
  const double* p = column.data();
  size_t i = from;
  for (; i + internal::kIngestBlock <= column.size();
       i += internal::kIngestBlock) {
    const uint64_t below = simd::ActiveKernels().prefilter_mask64(p + i, value);
    if (below != ~uint64_t{0}) {
      return i + static_cast<size_t>(std::countr_one(below));
    }
  }
  while (p[i] < value) ++i;
  return i;
}

}  // namespace

bool SlidingWindowSampler::ArriveOutOfLine(double time, double priority,
                                           uint64_t id) {
  const size_t live = LiveCount();
  if (live < k_) {
    // Underfull with updates pending: the newcomer is stored lazily.
    if (!(priority < 1.0)) return false;
    TopInsert(priority_.size(), priority, live);
    Append(priority, id, time, StoredThreshold(1.0));
    ++epoch_;
    return true;
  }
  // Initial threshold at a full sample: the k-th smallest of the k
  // current priorities together with the new one. With m1 the largest
  // and m2 the second largest current priority, that is m1 if the
  // newcomer is above m1, otherwise max(m2, priority). Both come from
  // the top cache, refilled by one scan when it runs low.
  if (top_count_ < 2 && top_count_ < live) RefillTopCache();
  const double m1 = TopPriority(0);
  const double m2 = top_count_ >= 2 ? TopPriority(1) : 0.0;
  const double initial_threshold =
      priority >= m1 ? m1 : std::max(m2, priority);
  if (priority >= initial_threshold) return false;

  // The insertion will push |C| above k: lower every current threshold
  // to min(T_i, T_n) -- recorded in pending_ once the newcomer is in (see
  // "Lazy thresholds"; the dead prefix keeps the thresholds frozen at
  // expiry) -- and evict the first largest-priority item (m1; its
  // priority is >= the new threshold).
  //
  // The evictee is the first live entry with priority m1. A unique
  // maximum is cached at top_[0]; a tie at the maximum (which may leave
  // a copy uncached) takes the scan: m1 is the live maximum, so the first
  // live entry >= m1 is the first one equal to it, and tombstones are
  // below m1 and never match.
  const size_t evict =
      m1 != m2 ? top_[0] : FindFirstAtLeast(priority_, dead_prefix_, m1);
  ATS_DCHECK(evict < priority_.size());
  EraseCached(evict);
  priority_[evict] = kTombstone;
  ++tombstones_;
  if (SlackFull()) Reclaim();
  Append(priority, id, time, StoredThreshold(initial_threshold));
  // The update applies to the settled prefix (its sign is the lazy
  // suffix's); the newcomer carries it as its initial threshold. Below
  // 1.0 it also marks the tombstone just made.
  pending_ = std::copysign(std::min(std::abs(pending_), initial_threshold),
                           pending_);
  TopInsert(priority_.size() - 1, priority, live - 1);
  ++epoch_;
  return true;
}

double SlidingWindowSampler::GlThreshold(double now) {
  FlushExpiry(now);
  const auto expired = ExpiredItems();
  std::vector<double> priorities;
  priorities.reserve(priority_.size() + expired.size());
  priorities.assign(priority_.begin(), priority_.end());
  for (const StoredItem& it : expired) priorities.push_back(it.priority);
  if (priorities.size() < k_) return 1.0;
  std::nth_element(priorities.begin(),
                   priorities.begin() + static_cast<std::ptrdiff_t>(k_ - 1),
                   priorities.end());
  return priorities[k_ - 1];
}

double SlidingWindowSampler::CurrentMinThreshold() const {
  double t = 1.0;
  for (size_t i = dead_prefix_; i < threshold_.size(); ++i) {
    t = std::min(t, threshold_[i]);
  }
  return t;
}

double SlidingWindowSampler::ImprovedThreshold(double now) {
  FlushExpiry(now);
  return CurrentMinThreshold();
}

std::vector<SampleEntry> SlidingWindowSampler::SampleWithThreshold(
    double threshold) const {
  std::vector<SampleEntry> out;
  for (size_t i = 0; i < priority_.size(); ++i) {
    if (priority_[i] < threshold) {
      out.push_back(MakeUniformEntry(id_[i], 1.0, priority_[i], threshold));
    }
  }
  return out;
}

std::vector<SampleEntry> SlidingWindowSampler::GlSample(double now) {
  return SampleWithThreshold(GlThreshold(now));
}

std::vector<SampleEntry> SlidingWindowSampler::ImprovedSample(double now) {
  return SampleWithThreshold(ImprovedThreshold(now));
}

size_t SlidingWindowSampler::StoredCount(double now) {
  FlushExpiry(now);
  return priority_.size() + ExpiredItems().size();
}

std::vector<SlidingWindowSampler::StoredItem>
SlidingWindowSampler::CurrentItems(double now) {
  FlushExpiry(now);
  std::vector<StoredItem> out;
  out.reserve(priority_.size());
  for (size_t i = 0; i < priority_.size(); ++i) out.push_back(ItemAt(i));
  return out;
}

// --- Merging ----------------------------------------------------------

SlidingWindowSampler::WindowSnapshot SlidingWindowSampler::SnapshotAt(
    double now) const {
  WindowSnapshot snap;
  const double cut_window = now - window_;
  const double cut_drop = now - 2.0 * window_;
  // Expired items are older than any dead-prefix or lazily-expiring
  // current item, so the append order expired_, dead prefix, current
  // spill-over keeps time order.
  for (const StoredItem& it : ExpiredItems()) {
    if (it.time > cut_drop && it.time <= cut_window) {
      snap.expired.push_back(it);
    }
  }
  // Dead-prefix entries are logically expired items not yet copied into
  // expired_ (see ExpireUntil); they belong to the expired region.
  // Tombstones (evicted entries) belong to neither region.
  for (size_t i = 0; i < dead_prefix_; ++i) {
    const StoredItem it = ItemAt(i);
    if (it.priority != kTombstone && it.time > cut_drop &&
        it.time <= cut_window) {
      snap.expired.push_back(it);
    }
  }
  const std::vector<double> thresholds = LiveThresholds();
  for (size_t i = dead_prefix_; i < priority_.size(); ++i) {
    StoredItem it = ItemAt(i);
    if (it.priority == kTombstone || it.time <= cut_drop) continue;
    it.threshold = thresholds[i - dead_prefix_];
    (it.time <= cut_window ? snap.expired : snap.current).push_back(it);
  }
  return snap;
}

SlidingWindowSampler::WindowSnapshot SlidingWindowSampler::SnapshotOfView(
    const FrameView& view, double now) {
  WindowSnapshot snap;
  const double cut_window = now - view.window();
  const double cut_drop = now - 2.0 * view.window();
  for (size_t i = view.current_count();
       i < view.current_count() + view.expired_count(); ++i) {
    const StoredItem it = view.entry(i);
    if (it.time > cut_drop && it.time <= cut_window) {
      snap.expired.push_back(it);
    }
  }
  for (size_t i = 0; i < view.current_count(); ++i) {
    const StoredItem it = view.entry(i);
    if (it.time <= cut_drop) continue;
    (it.time <= cut_window ? snap.expired : snap.current).push_back(it);
  }
  return snap;
}

void SlidingWindowSampler::MergeOneSnapshot(WindowSnapshot snap,
                                            double now) {
  FlushExpiry(now);
  ++epoch_;
  // Min threshold composition (Theorem 9): the common bound is the min
  // of both sides' improved thresholds at the merge instant.
  double bound = CurrentMinThreshold();
  for (const StoredItem& it : snap.current) {
    bound = std::min(bound, it.threshold);
  }
  // Candidates: the time-sorted union of the current sets, self first
  // for equal times, matching the accumulation order of every earlier
  // merge so priority ties resolve deterministically. Both sides are
  // already time-ordered runs, so one linear std::merge (which takes
  // from the first range on ties) equals the stable sort of self ++
  // other; dropping entries at or above the bound before merging keeps
  // both runs ordered.
  const auto by_time = [](const StoredItem& a, const StoredItem& b) {
    return a.time < b.time;
  };
  ATS_DCHECK(std::is_sorted(time_.begin(), time_.end()));
  ATS_DCHECK(std::is_sorted(snap.current.begin(), snap.current.end(),
                            by_time));
  std::vector<StoredItem> own;
  own.reserve(priority_.size());
  for (size_t i = 0; i < priority_.size(); ++i) {
    if (priority_[i] < bound) own.push_back(ItemAt(i));
  }
  std::erase_if(snap.current, [bound](const StoredItem& it) {
    return it.priority >= bound;
  });
  std::vector<StoredItem> candidates(own.size() + snap.current.size());
  std::merge(own.begin(), own.end(), snap.current.begin(),
             snap.current.end(), candidates.begin(), by_time);
  // Re-cap at k with the usual bottom-k selection (ties at the pivot
  // kept first-arrived-first, mirroring the store's compaction).
  double t_final = bound;
  if (candidates.size() > k_) {
    std::vector<double> scratch;
    scratch.reserve(candidates.size());
    for (const StoredItem& it : candidates) scratch.push_back(it.priority);
    const auto nth = scratch.begin() + static_cast<std::ptrdiff_t>(k_);
    std::nth_element(scratch.begin(), nth, scratch.end());
    const double pivot = *nth;
    t_final = std::min(bound, pivot);
    size_t below = 0;
    for (const StoredItem& it : candidates) below += it.priority < pivot;
    size_t ties_needed = k_ - below;
    std::vector<StoredItem> kept;
    kept.reserve(k_);
    for (const StoredItem& it : candidates) {
      if (it.priority < pivot) {
        kept.push_back(it);
      } else if (it.priority == pivot && ties_needed > 0) {
        --ties_needed;
        kept.push_back(it);
      }
    }
    candidates = std::move(kept);
  }
  // Rebuild the columns (time order preserved by construction),
  // min-composing the per-item thresholds with the final bound. The
  // improved threshold (min over items) already equals t_final, so this
  // changes no query result; it keeps per-item state consistent with
  // what a single sampler's eviction chain records.
  priority_.clear();
  id_.clear();
  time_.clear();
  threshold_.clear();
  for (const StoredItem& it : candidates) {
    Append(it.priority, it.id, it.time, std::min(it.threshold, t_final));
  }
  top_count_ = 0;
  // Union the expired sets in time order; they feed the G&L threshold of
  // the merged sampler. Self expiry at `now` already trimmed both sides
  // (the snapshot was filtered at `now`). Again two time-ordered runs,
  // self first on ties.
  const auto expired_live = ExpiredItems();
  ATS_DCHECK(std::is_sorted(snap.expired.begin(), snap.expired.end(),
                            by_time));
  std::vector<StoredItem> merged_expired(expired_live.size() +
                                         snap.expired.size());
  std::merge(expired_live.begin(), expired_live.end(), snap.expired.begin(),
             snap.expired.end(), merged_expired.begin(), by_time);
  expired_ = std::move(merged_expired);
  expired_head_ = 0;
}

void SlidingWindowSampler::MergeMany(
    std::span<const SlidingWindowSampler* const> inputs) {
  // The windowed merge is inherently clock-sensitive: improved
  // thresholds RECOVER as old constraints expire, so there is no
  // clock-free global bound to hoist the way SampleStore::MergeMany
  // does. K-way aggregation is therefore DEFINED as the pairwise chain
  // in span order -- one shared snapshot/selection core per input, each
  // step at the ratcheting clock max -- and the differential test pins
  // MergeMany to the explicit Merge chain bit-for-bit. Inputs aliasing
  // `this` are skipped; with no real inputs this is a strict no-op
  // (expiry must not advance, ties at thresholds must survive).
  for (const SlidingWindowSampler* in : inputs) {
    if (in == this) continue;
    ATS_CHECK(in->window_ == window_);
    const double now = std::max(last_time_, in->last_time_);
    MergeOneSnapshot(in->SnapshotAt(now), now);
  }
}

void SlidingWindowSampler::Merge(const SlidingWindowSampler& other) {
  const SlidingWindowSampler* input = &other;
  MergeMany(std::span<const SlidingWindowSampler* const>(&input, 1));
}

// --- Wire format ------------------------------------------------------

void SlidingWindowSampler::SerializeTo(ByteWriter& w) const {
  WriteSketchHeader(w, kWindowMagic, kWindowVersion);
  w.WriteU64(k_);
  w.WriteDouble(window_);
  w.WriteDouble(last_time_);
  WriteRngState(w, rng_.State());
  // The live current region starts past the dead prefix (those entries
  // travel in the expired region below). Serialization is const -- it
  // cannot flush the lazily-marked state -- so the expired region is the
  // live expired_ range plus the uncopied dead prefix, each filtered at
  // the two-window drop cutoff (entries can age past it while parked;
  // the reader's per-entry range validation rejects them otherwise).
  // Tombstones are skipped in both column regions.
  const double drop_cut = last_time_ - 2.0 * window_;
  const auto expired_live = ExpiredItems();
  size_t skip_expired = 0;
  while (skip_expired < expired_live.size() &&
         expired_live[skip_expired].time <= drop_cut) {
    ++skip_expired;
  }
  size_t skip_dead = 0;
  while (skip_dead < dead_prefix_ && time_[skip_dead] <= drop_cut) {
    ++skip_dead;
  }
  const size_t dead_tombstones = static_cast<size_t>(
      std::count(priority_.begin() + static_cast<std::ptrdiff_t>(skip_dead),
                 priority_.begin() + static_cast<std::ptrdiff_t>(dead_prefix_),
                 kTombstone));
  w.WriteU64(LiveCount());
  w.WriteU64((expired_live.size() - skip_expired) +
             (dead_prefix_ - skip_dead - dead_tombstones));
  const auto write_entry = [&w](const StoredItem& it) {
    w.WriteU64(it.id);
    w.WriteDouble(it.time);
    w.WriteDouble(it.priority);
    w.WriteDouble(it.threshold);
  };
  const std::vector<double> thresholds = LiveThresholds();
  for (size_t i = dead_prefix_; i < priority_.size(); ++i) {
    if (priority_[i] == kTombstone) continue;
    StoredItem it = ItemAt(i);
    it.threshold = thresholds[i - dead_prefix_];
    write_entry(it);
  }
  // Expired region in time order: expired_ entries predate everything
  // still parked in the dead prefix.
  for (size_t i = skip_expired; i < expired_live.size(); ++i) {
    write_entry(expired_live[i]);
  }
  for (size_t i = skip_dead; i < dead_prefix_; ++i) {
    if (priority_[i] != kTombstone) write_entry(ItemAt(i));
  }
}

namespace {

// Shared per-entry validation for Deserialize and DeserializeView. The
// sampler's invariants are tight enough to check field-by-field:
// priorities are open-unit-interval draws below a threshold in (0, 1];
// priority == threshold ties are legal storage (the item whose priority
// became an eviction bound stays stored; see docs/WIRE_FORMAT.md).
// Entries must sit inside their region's time range and arrive in
// non-decreasing time order. NaNs fail the comparisons by construction.
bool ValidWindowEntry(const SlidingWindowSampler::StoredItem& it,
                      double region_min, double region_max,
                      double prev_time) {
  if (!(it.priority > 0.0) || !(it.priority < 1.0)) return false;
  if (!(it.threshold > 0.0) || !(it.threshold <= 1.0)) return false;
  if (!(it.priority <= it.threshold)) return false;
  if (!(it.time > region_min) || !(it.time <= region_max)) return false;
  if (!(it.time >= prev_time)) return false;
  return true;
}

}  // namespace

std::optional<SlidingWindowSampler> SlidingWindowSampler::Deserialize(
    ByteReader& r) {
  if (!ReadSketchHeader(r, kWindowMagic, kWindowVersion)) {
    return std::nullopt;
  }
  const auto k = r.ReadU64();
  const auto window = r.ReadDouble();
  const auto last_time = r.ReadDouble();
  if (!k || !window || !last_time) return std::nullopt;
  if (*k < 1 || !(*window > 0.0) || !std::isfinite(*window)) {
    return std::nullopt;
  }
  // last_time may be -infinity (a sampler that never saw an arrival),
  // never NaN or +infinity.
  if (std::isnan(*last_time) ||
      *last_time == std::numeric_limits<double>::infinity()) {
    return std::nullopt;
  }
  const auto rng_state = ReadRngState(r);
  if (!rng_state) return std::nullopt;
  const auto current_count = r.ReadU64();
  const auto expired_count = r.ReadU64();
  if (!current_count || !expired_count) return std::nullopt;
  if (*current_count > *k) return std::nullopt;

  SlidingWindowSampler out(static_cast<size_t>(*k), *window, /*seed=*/1);
  out.rng_.SetState(*rng_state);
  out.last_time_ = *last_time;
  const auto read_entry = [&r]() -> std::optional<StoredItem> {
    const auto id = r.ReadU64();
    const auto time = r.ReadDouble();
    const auto priority = r.ReadDouble();
    const auto threshold = r.ReadDouble();
    if (!id.has_value() || !time || !priority || !threshold) {
      return std::nullopt;
    }
    return StoredItem{*id, *time, *priority, *threshold};
  };
  double prev = -std::numeric_limits<double>::infinity();
  for (uint64_t i = 0; i < *current_count; ++i) {
    const auto it = read_entry();
    if (!it ||
        !ValidWindowEntry(*it, *last_time - *window, *last_time, prev)) {
      return std::nullopt;
    }
    prev = it->time;
    out.Append(it->priority, it->id, it->time, it->threshold);
  }
  prev = -std::numeric_limits<double>::infinity();
  for (uint64_t i = 0; i < *expired_count; ++i) {
    const auto it = read_entry();
    if (!it || !ValidWindowEntry(*it, *last_time - 2.0 * *window,
                                 *last_time - *window, prev)) {
      return std::nullopt;
    }
    prev = it->time;
    out.expired_.push_back(*it);
  }
  return out;
}

SlidingWindowSampler::StoredItem SlidingWindowSampler::FrameView::entry(
    size_t i) const {
  ATS_DCHECK(i < current_count_ + expired_count_);
  const std::string_view e = entries_.substr(i * kStride, kStride);
  StoredItem it;
  uint64_t id;
  std::memcpy(&id, e.data(), sizeof(id));
  it.id = id;
  it.time = ReadEntryDouble(e, kEntryTimeOffset);
  it.priority = ReadEntryDouble(e, kEntryPriorityOffset);
  it.threshold = ReadEntryDouble(e, kEntryThresholdOffset);
  return it;
}

FrameFault SlidingWindowSampler::DiagnoseFrame(std::string_view frame) {
  const FrameFault f =
      ClassifyFrameBytes(frame, kWindowMagic, kWindowVersion);
  if (f != FrameFault::kNone) return f;
  return Deserialize(frame).has_value() ? FrameFault::kNone
                                        : FrameFault::kCorruptBody;
}

std::optional<SlidingWindowSampler::FrameView>
SlidingWindowSampler::DeserializeView(std::string_view frame) {
  auto r = OpenCheckedFrame(frame, kWindowMagic, kWindowVersion);
  if (!r) return std::nullopt;
  const auto k = r->ReadU64();
  const auto window = r->ReadDouble();
  const auto last_time = r->ReadDouble();
  if (!k || !window || !last_time) return std::nullopt;
  if (*k < 1 || !(*window > 0.0) || !std::isfinite(*window)) {
    return std::nullopt;
  }
  if (std::isnan(*last_time) ||
      *last_time == std::numeric_limits<double>::infinity()) {
    return std::nullopt;
  }
  if (!ReadRngState(*r)) return std::nullopt;
  const auto current_count = r->ReadU64();
  const auto expired_count = r->ReadU64();
  if (!current_count || !expired_count) return std::nullopt;
  if (*current_count > *k) return std::nullopt;
  // Fixed-stride entry region: one size comparison bounds-checks every
  // entry; the division-first clauses keep the arithmetic overflow-free.
  const std::string_view entries = r->Rest();
  const size_t max_entries = entries.size() / FrameView::kStride;
  if (*current_count > max_entries || *expired_count > max_entries ||
      *current_count + *expired_count > max_entries ||
      entries.size() != (*current_count + *expired_count) *
                            FrameView::kStride) {
    return std::nullopt;
  }
  FrameView view;
  view.k_ = *k;
  view.window_ = *window;
  view.last_time_ = *last_time;
  view.current_count_ = static_cast<size_t>(*current_count);
  view.expired_count_ = static_cast<size_t>(*expired_count);
  view.entries_ = entries;
  double prev = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < view.current_count_; ++i) {
    const StoredItem it = view.entry(i);
    if (!ValidWindowEntry(it, *last_time - *window, *last_time, prev)) {
      return std::nullopt;
    }
    prev = it.time;
  }
  prev = -std::numeric_limits<double>::infinity();
  for (size_t i = view.current_count_;
       i < view.current_count_ + view.expired_count_; ++i) {
    const StoredItem it = view.entry(i);
    if (!ValidWindowEntry(it, *last_time - 2.0 * *window,
                          *last_time - *window, prev)) {
      return std::nullopt;
    }
    prev = it.time;
  }
  return view;
}

bool SlidingWindowSampler::MergeManyFrames(
    std::span<const std::string_view> frames) {
  // Validate every frame before the first one is applied; a window
  // mismatch is as fatal as a parse failure (merging different window
  // lengths has no defined semantics).
  std::vector<FrameView> views;
  views.reserve(frames.size());
  for (std::string_view f : frames) {
    auto view = DeserializeView(f);
    if (!view || view->window() != window_) return false;
    views.push_back(*view);
  }
  // Fold the validated views through the pairwise core in span order --
  // observationally identical to Deserialize + Merge per frame, without
  // materializing a sampler per frame. An empty list is a strict no-op.
  for (const FrameView& v : views) {
    const double now = std::max(last_time_, v.last_time());
    MergeOneSnapshot(SnapshotOfView(v, now), now);
  }
  return true;
}

}  // namespace ats
