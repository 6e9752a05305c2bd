#include "ats/samplers/sliding_window.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "ats/core/sample_store.h"
#include "ats/core/select_rank.h"
#include "ats/core/simd/simd_dispatch.h"
#include "ats/util/check.h"

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
  return internal::SelectRank(priorities, k_ - 1, 0.0, 1.0, priorities.data())
      .value;
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

namespace {

using StoredItem = SlidingWindowSampler::StoredItem;
using ItemRun = std::span<const StoredItem>;

bool EarlierTime(const StoredItem& a, const StoredItem& b) {
  return a.time < b.time;
}

// Merges non-empty time-ordered runs holding `total` entries into `out`:
// the stable sort by time of the runs concatenated in order, so on
// equal times the lower-indexed run goes first. Two runs take one
// linear merge. More would pay a heap's or tournament's unpredictable
// compare per tree level for every entry; instead the entries are
// distributed into about total / 2 time buckets (a monotone map, so
// equal times share a bucket and bucket order is time order) and copied
// once into place in run order. Each bucket is then sorted stably in
// place, which moves a few entries unless the times cluster.
void MergeRunsByTime(std::span<const ItemRun> runs, size_t total,
                     StoredItem* out) {
  if (runs.size() <= 2) {
    if (runs.size() == 1) std::copy(runs[0].begin(), runs[0].end(), out);
    if (runs.size() == 2) {
      std::merge(runs[0].begin(), runs[0].end(), runs[1].begin(),
                 runs[1].end(), out, EarlierTime);
    }
    return;
  }
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const ItemRun& run : runs) {
    lo = std::min(lo, run.front().time);
    hi = std::max(hi, run.back().time);
  }
  ATS_DCHECK(total < std::numeric_limits<uint32_t>::max());
  const size_t buckets = std::bit_ceil(total / 2 + 1);
  const double last = static_cast<double>(buckets - 1);
  const double scale = hi > lo ? static_cast<double>(buckets) / (hi - lo)
                               : 0.0;
  const auto bucket = [=](const StoredItem& it) {
    const double x = (it.time - lo) * scale;
    return static_cast<uint32_t>(x < last ? x : last);
  };
  const auto for_each_entry = [runs](const auto& visit) {
    for (const ItemRun& run : runs) {
      for (const StoredItem& it : run) visit(it);
    }
  };
  std::vector<uint32_t> start(buckets + 1, 0);
  for_each_entry([&](const StoredItem& it) { ++start[bucket(it) + 1]; });
  uint32_t largest = 0;
  for (size_t b = 0; b < buckets; ++b) {
    largest = std::max(largest, start[b + 1]);
    start[b + 1] += start[b];
  }
  std::vector<uint32_t> fill(start.begin(), start.end() - 1);
  for_each_entry([&](const StoredItem& it) { out[fill[bucket(it)]++] = it; });
  // Clustered times: a bucket of more than 32 entries is stable-sorted.
  if (largest > 32) {
    for (size_t b = 0; b < buckets; ++b) {
      if (start[b + 1] - start[b] > 32) {
        std::stable_sort(out + start[b], out + start[b + 1], EarlierTime);
      }
    }
  }
  // Then one stable insertion pass over the whole output: no entry is
  // out of order across buckets, so no move leaves its bucket.
  for (StoredItem* it = out + 1; it < out + total; ++it) {
    if (!(it->time < it[-1].time)) continue;
    const StoredItem moving = *it;
    StoredItem* to = it;
    do {
      *to = to[-1];
      --to;
    } while (to != out && moving.time < to[-1].time);
    *to = moving;
  }
}

// The entries of a sorted expired run newer than `drop`: a suffix.
ItemRun NewerThan(ItemRun run, double drop) {
  const auto first = std::partition_point(
      run.begin(), run.end(),
      [drop](const StoredItem& it) { return !(it.time > drop); });
  return run.subspan(static_cast<size_t>(first - run.begin()));
}

// The entries of a frame's current region at or below `cut`: a prefix.
size_t CurrentUpTo(const SlidingWindowSampler::FrameView& view,
                   double cut) {
  const auto indices = std::views::iota(size_t{0}, view.current_count());
  return static_cast<size_t>(
      std::ranges::partition_point(indices, [&view, cut](size_t i) {
        return view.entry(i).time <= cut;
      }) -
      indices.begin());
}

// The entries of a sorted time column at or below `cut`: a prefix.
size_t ColumnUpTo(const std::vector<double>& time, double cut) {
  return static_cast<size_t>(
      std::upper_bound(time.begin(), time.end(), cut) - time.begin());
}

}  // namespace

// Runs the pairwise chain's steps (see the file comment of
// sliding_window.h) without rebuilding the receiver between them. Each
// step keeps the chain's rules on cur_; between steps the clock
// ratchets, moving cur_'s entries at or below now_i - w to the
// receiver's expired run as the chain's FlushExpiry at now_i would.
// The expired runs are merged once, in Finish: input i's run ends at or
// below now_i - w, and the ratcheted entries are later than everything
// the receiver held before, so the chain's tie order is the run order
// (the receiver's, then the inputs' in span order), and the chain's
// drops at each clock add up to one trim at the final clock's cutoff.
class SlidingWindowSampler::MergeEngine {
 public:
  // Runs the chain over the inputs `for_each` visits (samplers or frame
  // views), in order. Every buffer is sized before the first step, so
  // no step allocates.
  template <class ForEach>
  static void Run(SlidingWindowSampler& self, const ForEach& for_each) {
    double last_time = self.last_time_;
    for_each([&](const auto& in) {
      last_time = std::max(last_time, in.last_time());
    });
    MergeEngine engine(self, last_time);
    for_each([&](const auto& in) { engine.Measure(in); });
    engine.Reserve();
    for_each([&](const auto& in) { engine.Add(in); });
    engine.Finish();
  }

 private:
  MergeEngine(SlidingWindowSampler& self, double last_time)
      : self_(self),
        final_cut_(last_time - self.window_),
        drop_(last_time - 2.0 * self.window_),
        now_(self.last_time_),
        ratchet_bound_(ColumnUpTo(self.time_, final_cut_)) {}

  // Sizing. Only entries at or below the final clock's window cutoff can
  // ever be copied into an expired run or ratcheted out of cur_.
  void Measure(const SlidingWindowSampler& in) {
    const size_t expiring = ColumnUpTo(in.time_, final_cut_);
    copies_bound_ += in.ExpiredItems().size() + expiring;  // see Add
    ratchet_bound_ += expiring - std::min(expiring, in.dead_prefix_);
    CountLive(in.priority_.size() - in.dead_prefix_);
  }
  void Measure(const FrameView& in) {
    const size_t expiring = CurrentUpTo(in, final_cut_);
    copies_bound_ += in.expired_count() + expiring;
    ratchet_bound_ += expiring;
    CountLive(in.current_count());
  }
  void CountLive(size_t live) {
    ++inputs_;
    max_live_ = std::max(max_live_, live);
    total_live_ += live;
  }
  void Reserve() {
    // Every entry that can reach cur_ is a receiver column entry or an
    // input's live entry; cur_ holds at most k of them after a step. The
    // step buffers are sized, not reserved: passes write them by index,
    // past the entries they keep.
    const size_t pool = self_.priority_.size() + total_live_;
    const size_t candidates = std::min(self_.k_, pool) + max_live_;
    cur_.resize(candidates);
    cand_.resize(candidates);
    priorities_.resize(candidates);
    in_.resize(max_live_);
    settled_.reserve(max_live_);
    ratcheted_.reserve(ratchet_bound_);
    copies_.reserve(copies_bound_);
    input_runs_.reserve(inputs_);
  }

  // The sampler-columns adapter. Current entries come from the live
  // range, tombstones skipped, thresholds settled into settled_ when
  // updates are pending. The expired run is expired_, read in place,
  // then copies of the dead prefix and of the live entries that expired
  // at now_i.
  void Add(const SlidingWindowSampler& in) {
    const double cut = BeginStep(in.last_time_) - self_.window_;
    const size_t dead = in.dead_prefix_;
    const size_t end = in.priority_.size();
    const double* thresholds = in.threshold_.data() + dead;
    if (in.pending_ < 1.0) {
      settled_.assign(
          in.threshold_.begin() + static_cast<std::ptrdiff_t>(dead),
          in.threshold_.end());
      SettleRange(settled_.data(), settled_.size(), in.pending_);
      thresholds = settled_.data();
    }
    const size_t current = std::max(dead, ColumnUpTo(in.time_, cut));
    const size_t first = copies_.size();
    for (size_t i = 0; i < current; ++i) {
      if (in.priority_[i] == kTombstone || !(in.time_[i] > drop_)) continue;
      StoredItem it = in.ItemAt(i);
      if (i >= dead) it.threshold = thresholds[i - dead];
      copies_.push_back(it);
    }
    ItemRun head = NewerThan(in.ExpiredItems(), drop_);
    if (inputs_ == 1 && copies_.size() != first) {
      // A lone input's run is made one piece, so that Finish merges two
      // pieces, the receiver's and this one, in one linear pass.
      copies_.insert(copies_.begin() + static_cast<std::ptrdiff_t>(first),
                     head.begin(), head.end());
      head = {};
    }
    input_runs_.push_back({head, copies_.size()});
    // One pass takes the input's improved threshold and keeps the
    // entries below the receiver's, a superset of those below the bound.
    double in_min = 1.0;
    size_t n = 0;
    for (size_t i = current; i < end; ++i) {
      const double p = in.priority_[i];
      const double t = thresholds[i - dead];
      const bool live = p != kTombstone;
      in_min = std::min(in_min, live ? t : 1.0);
      if (live && p < own_min_) in_[n++] = {in.id_[i], in.time_[i], p, t};
    }
    in_size_ = n;
    Fold(std::min(own_min_, in_min));
  }

  // The FrameView adapter: the expired run is a copy of the expired
  // region, then of the current region's entries that expired at now_i.
  void Add(const FrameView& in) {
    const double cut = BeginStep(in.last_time()) - self_.window_;
    const size_t count = in.current_count();
    const size_t current = CurrentUpTo(in, cut);
    for (size_t i = count; i < count + in.expired_count(); ++i) {
      const StoredItem it = in.entry(i);
      if (it.time > drop_) copies_.push_back(it);
    }
    for (size_t i = 0; i < current; ++i) {
      const StoredItem it = in.entry(i);
      if (it.time > drop_) copies_.push_back(it);
    }
    input_runs_.push_back({ItemRun(), copies_.size()});
    double in_min = 1.0;
    size_t n = 0;
    for (size_t i = current; i < count; ++i) {
      in_[n] = in.entry(i);
      in_min = std::min(in_min, in_[n].threshold);
      n += in_[n].priority < own_min_;
    }
    in_size_ = n;
    Fold(std::min(own_min_, in_min));
  }

  // Advances the clock to this step's now_i and returns it. The first
  // step flushes the receiver; later ones ratchet cur_.
  double BeginStep(double input_time) {
    const double now = std::max(now_, input_time);
    size_t from = 0;
    if (input_runs_.empty()) {  // the first step
      self_.FlushExpiry(now);
      cur_size_ = self_.priority_.size();
      for (size_t i = 0; i < cur_size_; ++i) cur_[i] = self_.ItemAt(i);
    } else {
      const double cut = now - self_.window_;
      for (; from < cur_size_ && cur_[from].time <= cut; ++from) {
        if (cur_[from].time > drop_) ratcheted_.push_back(cur_[from]);
      }
    }
    own_begin_ = from;
    own_min_ = 1.0;
    for (size_t i = from; i < cur_size_; ++i) {
      own_min_ = std::min(own_min_, cur_[i].threshold);
    }
    now_ = now;
    return now;
  }

  // One chain step on the current sets: the entries of cur_[own_begin_,
  // end) and of in_ below `bound` merge by time, receiver first on equal
  // times; the union is re-capped at k and its thresholds min-composed.
  void Fold(double bound) {
    // The re-cap's pivot first: selection needs only the priorities.
    const StoredItem* const a_begin = cur_.data() + own_begin_;
    const StoredItem* const a_end = cur_.data() + cur_size_;
    const StoredItem* const b_end = in_.data() + in_size_;
    size_t n = 0;
    for (const StoredItem* it = a_begin; it != a_end; ++it) {
      priorities_[n] = it->priority;
      n += it->priority < bound;
    }
    for (const StoredItem* it = in_.data(); it != b_end; ++it) {
      priorities_[n] = it->priority;
      n += it->priority < bound;
    }
    // Re-cap at k with the usual bottom-k selection (ties at the pivot
    // kept first-arrived-first, mirroring the store's compaction), and
    // min-compose the per-item thresholds with the final bound. The
    // improved threshold (min over items) already equals t_final; this
    // keeps per-item state what a single sampler's eviction chain
    // records.
    const size_t k = self_.k_;
    double limit = bound;  // keeps everything below it, and `ties` at it
    double t_final = bound;
    size_t ties = 0;
    if (n > k) {
      // Every candidate is in [0, bound), so the range costs no pass,
      // and the scratch column is selected in place.
      const auto [pivot, below] = internal::SelectRank(
          std::span(priorities_).first(n), k, 0.0, bound, priorities_.data());
      limit = pivot;  // below the bound: it is a candidate's priority
      t_final = pivot;
      ties = k - below;
    }
    // One pass merges, re-caps and min-composes: each entry is written
    // to the output, which advances past the kept ones only.
    StoredItem* const out = cand_.data();
    size_t kept = 0;
    const auto take = [&](const StoredItem& it) {
      const bool tie = it.priority == limit && ties != 0;
      ties -= tie;
      out[kept] = it;
      out[kept].threshold = std::min(it.threshold, t_final);
      kept += it.priority < limit || tie;
    };
    const StoredItem* a = a_begin;
    const StoredItem* b = in_.data();
    while (a != a_end && b != b_end) {
      if (b->time < a->time) {
        take(*b++);
      } else {
        take(*a++);
      }
    }
    for (; a != a_end; ++a) take(*a);
    for (; b != b_end; ++b) take(*b);
    cur_.swap(cand_);
    cur_size_ = kept;
    own_begin_ = 0;
  }

  // Writes the columns and the merged expired set.
  void Finish() {
    SlidingWindowSampler& s = self_;
    s.priority_.clear();
    s.id_.clear();
    s.time_.clear();
    s.threshold_.clear();
    for (const StoredItem& it : std::span(cur_).first(cur_size_)) {
      s.Append(it.priority, it.id, it.time, it.threshold);
    }
    s.top_count_ = 0;
    // The expired runs in tie order: the receiver's, in two time-ordered
    // pieces (its expired_ and the ratcheted entries), then each input's,
    // in place or copied. Merging the pieces in this order is merging
    // the runs.
    std::vector<ItemRun> pieces{NewerThan(s.ExpiredItems(), drop_),
                                ItemRun(ratcheted_)};
    pieces.reserve(2 + 2 * input_runs_.size());
    size_t begin = 0;
    for (const auto& [head, end] : input_runs_) {
      pieces.push_back(head);
      pieces.push_back(ItemRun(copies_).subspan(begin, end - begin));
      begin = end;
    }
    std::erase_if(pieces, [](ItemRun piece) { return piece.empty(); });
    size_t total = 0;
    for (ItemRun piece : pieces) total += piece.size();
    std::vector<StoredItem> merged(total);
    MergeRunsByTime(pieces, total, merged.data());
    s.expired_ = std::move(merged);
    s.expired_head_ = 0;
    s.last_time_ = now_;
    ++s.epoch_;
  }

  SlidingWindowSampler& self_;
  const double final_cut_;  // the final clock's window cutoff
  const double drop_;       // the final clock's two-window cutoff
  double now_;              // the chain's clock
  size_t inputs_ = 0;
  size_t max_live_ = 0;      // live-range entries of the largest input
  size_t total_live_ = 0;    // live-range entries over all inputs
  size_t ratchet_bound_;     // entries that can be ratcheted out of cur_
  size_t copies_bound_ = 0;  // input entries that can be in an expired run
  size_t own_begin_ = 0;     // cur_'s entries before it have expired
  double own_min_ = 1.0;     // improved threshold of cur_[own_begin_, end)
  size_t cur_size_ = 0;
  size_t in_size_ = 0;
  std::vector<StoredItem> cur_;        // the receiver's current set
  std::vector<StoredItem> cand_;       // the next step's current set
  std::vector<double> priorities_;     // cand_'s priorities
  std::vector<StoredItem> in_;         // an input's entries below own_min_
  std::vector<double> settled_;        // an input's settled thresholds
  std::vector<StoredItem> ratcheted_;  // receiver entries a ratchet expired
  std::vector<StoredItem> copies_;     // the inputs' copied expired entries
  // Each input's expired run: read in place, or where it ends in
  // copies_.
  std::vector<std::pair<ItemRun, size_t>> input_runs_;
};

void SlidingWindowSampler::MergeMany(
    std::span<const SlidingWindowSampler* const> inputs) {
  // Inputs aliasing `this` are skipped; with no real inputs this is a
  // strict no-op (expiry must not advance, ties at thresholds must
  // survive).
  bool any = false;
  for (const SlidingWindowSampler* in : inputs) {
    if (in == this) continue;
    ATS_CHECK(in->window_ == window_);
    any = true;
  }
  if (!any) return;
  MergeEngine::Run(*this, [&](const auto& visit) {
    for (const SlidingWindowSampler* in : inputs) {
      if (in != this) visit(*in);
    }
  });
}

void SlidingWindowSampler::Merge(const SlidingWindowSampler& other) {
  const SlidingWindowSampler* input = &other;
  MergeMany(std::span<const SlidingWindowSampler* const>(&input, 1));
}

// --- Wire format ------------------------------------------------------

void SlidingWindowSampler::SerializeTo(ByteWriter& w) const {
  WriteSketchHeader(w, kWireMagic, kWireVersion);
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

// Per-entry validation for ReadView. The sampler's invariants are tight
// enough to check field-by-field: priorities are open-unit-interval
// draws below a threshold in (0, 1]; priority == threshold ties are
// legal storage (the item whose priority became an eviction bound stays
// stored; see docs/WIRE_FORMAT.md).
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

SlidingWindowSampler::StoredItem SlidingWindowSampler::FrameView::entry(
    size_t i) const {
  // A 32-byte wire entry is id, time, priority, threshold (see
  // docs/WIRE_FORMAT.md): StoredItem's layout.
  static_assert(sizeof(StoredItem) == kStride &&
                offsetof(StoredItem, time) == 8 &&
                offsetof(StoredItem, priority) == 16 &&
                offsetof(StoredItem, threshold) == 24);
  ATS_DCHECK(i < current_count_ + expired_count_);
  StoredItem it;
  std::memcpy(static_cast<void*>(&it), entries_.data() + i * kStride, kStride);
  return it;
}

std::optional<SlidingWindowSampler::FrameView>
SlidingWindowSampler::ReadView(ByteReader& r) {
  if (!ReadSketchHeader(r, kWireMagic, kWireVersion)) return std::nullopt;
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
  // Fixed-stride entry region: one size comparison bounds-checks every
  // entry; the division-first clauses keep the arithmetic overflow-free.
  const std::string_view rest = r.Rest();
  const size_t max_entries = rest.size() / FrameView::kStride;
  if (*current_count > max_entries || *expired_count > max_entries ||
      *current_count + *expired_count > max_entries) {
    return std::nullopt;
  }
  FrameView view;
  view.k_ = *k;
  view.window_ = *window;
  view.last_time_ = *last_time;
  view.rng_state_ = *rng_state;
  view.current_count_ = static_cast<size_t>(*current_count);
  view.expired_count_ = static_cast<size_t>(*expired_count);
  view.entries_ = rest.substr(
      0, (view.current_count_ + view.expired_count_) * FrameView::kStride);
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
  r.Skip(view.entries_.size());
  return view;
}

SlidingWindowSampler SlidingWindowSampler::FromView(const FrameView& view) {
  SlidingWindowSampler out(view.k(), view.window(), /*seed=*/1);
  out.rng_.SetState(view.rng_state_);
  out.last_time_ = view.last_time();
  const size_t current = view.current_count();
  for (size_t i = 0; i < current; ++i) {
    const StoredItem it = view.entry(i);
    out.Append(it.priority, it.id, it.time, it.threshold);
  }
  out.expired_.reserve(view.expired_count());
  for (size_t i = current; i < current + view.expired_count(); ++i) {
    out.expired_.push_back(view.entry(i));
  }
  return out;
}

void SlidingWindowSampler::MergeValidatedViews(
    std::span<const FrameView> views) {
  // Observationally identical to Deserialize + Merge per frame, without
  // materializing a sampler per frame.
  MergeEngine::Run(*this, [&](const auto& visit) {
    for (const FrameView& v : views) visit(v);
  });
}

}  // namespace ats
