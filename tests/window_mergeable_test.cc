// The time-axis samplers on the SampleStore core: differential tests
// against the scalar deque reference (observational equality of the
// retained multiset, thresholds, ties, and expiry order), wire-format
// round trips with RNG continuation, hostile-input sweeps over the
// zero-copy frame views, and the windowed/decayed MergeMany vs the
// sequential pairwise-Merge chain (including empty windows, all-expired
// stores, and k = 1; the window also vs an independent chain
// reference) -- mirroring merge_many_test.cc for the sketches.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/concurrent_sampler.h"
#include "ats/core/random.h"
#include "ats/core/shard_routing.h"
#include "ats/samplers/sharded_time_axis.h"
#include "ats/samplers/sliding_window.h"
#include "ats/samplers/time_decay.h"
#include "ats/util/check.h"
#include "ats/util/serialize.h"
#include "ats/workload/arrivals.h"

namespace ats {
namespace {

// ----------------------------------------------------------------------
// The pre-port scalar reference: the G&L storage stage on explicit
// deques, exactly as the sampler was implemented before retention moved
// onto SampleStore. The port must be observationally indistinguishable.
class ReferenceWindowSampler {
 public:
  using StoredItem = SlidingWindowSampler::StoredItem;

  ReferenceWindowSampler(size_t k, double window, uint64_t seed)
      : k_(k), window_(window), rng_(seed) {}

  bool Arrive(double time, uint64_t id) {
    ExpireUntil(time);
    const double priority = rng_.NextDoubleOpenZero();
    double initial_threshold = 1.0;
    if (current_.size() >= k_) {
      double m1 = 0.0, m2 = 0.0;
      for (const StoredItem& it : current_) {
        if (it.priority > m1) {
          m2 = m1;
          m1 = it.priority;
        } else if (it.priority > m2) {
          m2 = it.priority;
        }
      }
      initial_threshold = priority >= m1 ? m1 : std::max(m2, priority);
    }
    if (priority >= initial_threshold) return false;
    current_.push_back(StoredItem{id, time, priority, initial_threshold});
    if (current_.size() > k_) {
      size_t evict = 0;
      for (size_t i = 0; i < current_.size(); ++i) {
        current_[i].threshold =
            std::min(current_[i].threshold, initial_threshold);
        if (current_[i].priority > current_[evict].priority) evict = i;
      }
      current_.erase(current_.begin() +
                     static_cast<std::ptrdiff_t>(evict));
    }
    return true;
  }

  double GlThreshold(double now) {
    ExpireUntil(now);
    std::vector<double> priorities;
    priorities.reserve(current_.size() + expired_.size());
    for (const StoredItem& it : current_) priorities.push_back(it.priority);
    for (const StoredItem& it : expired_) priorities.push_back(it.priority);
    if (priorities.size() < k_) return 1.0;
    std::nth_element(
        priorities.begin(),
        priorities.begin() + static_cast<std::ptrdiff_t>(k_ - 1),
        priorities.end());
    return priorities[k_ - 1];
  }

  double ImprovedThreshold(double now) {
    ExpireUntil(now);
    double t = 1.0;
    for (const StoredItem& it : current_) t = std::min(t, it.threshold);
    return t;
  }

  size_t StoredCount(double now) {
    ExpireUntil(now);
    return current_.size() + expired_.size();
  }

  std::vector<StoredItem> CurrentItems(double now) {
    ExpireUntil(now);
    return {current_.begin(), current_.end()};
  }

  // The expired items X(now), oldest first, with the thresholds they
  // had when they left the window.
  std::vector<StoredItem> ExpiredItems(double now) {
    ExpireUntil(now);
    return {expired_.begin(), expired_.end()};
  }

 private:
  void ExpireUntil(double now) {
    while (!current_.empty() && current_.front().time <= now - window_) {
      expired_.push_back(current_.front());
      current_.pop_front();
    }
    while (!expired_.empty() &&
           expired_.front().time <= now - 2.0 * window_) {
      expired_.pop_front();
    }
  }

  size_t k_;
  double window_;
  Xoshiro256 rng_;
  std::deque<StoredItem> current_;
  std::deque<StoredItem> expired_;
};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Field-by-field, bit for bit.
void ExpectSameItems(const std::vector<SlidingWindowSampler::StoredItem>& a,
                     const std::vector<SlidingWindowSampler::StoredItem>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << i;
    EXPECT_EQ(Bits(a[i].time), Bits(b[i].time)) << i;
    EXPECT_EQ(Bits(a[i].priority), Bits(b[i].priority)) << i;
    EXPECT_EQ(Bits(a[i].threshold), Bits(b[i].threshold)) << i;
  }
}

// The current and expired regions of a sampler's SWN1 frame. Serializing
// is const, so this reads the sampler's state as it stands, without the
// reclaim every query path runs first.
struct FrameRegions {
  std::vector<SlidingWindowSampler::StoredItem> current;
  std::vector<SlidingWindowSampler::StoredItem> expired;
};

FrameRegions RegionsOf(const SlidingWindowSampler& sampler) {
  const std::string frame = sampler.SerializeToString();
  const auto view = SlidingWindowSampler::DeserializeView(frame);
  EXPECT_TRUE(view.has_value());
  FrameRegions out;
  if (!view) return out;
  for (size_t i = 0; i < view->current_count(); ++i) {
    out.current.push_back(view->entry(i));
  }
  for (size_t i = 0; i < view->expired_count(); ++i) {
    out.expired.push_back(view->entry(view->current_count() + i));
  }
  return out;
}

struct OracleParam {
  size_t k;
  double rate;
  uint64_t seed;
  // Rate multiplier over [3, 3.5); 1 is a constant-rate stream. After a
  // spike, the burst's samples expire together and drain the sampler's
  // cached largest priorities.
  double spike = 1.0;
};

class WindowOracleSweep : public ::testing::TestWithParam<OracleParam> {};

// The exactness contract of the window: every arrival decision, and
// every 64 arrivals both regions -- items, priorities and thresholds
// (the expired ones as frozen when they left the window) -- bit for bit.
// `ported` is queried every 64 arrivals, which reclaims its columns;
// `unqueried` sees the same stream but is only ever serialized, so its
// deferred state (dead prefix, tombstones, pending threshold updates)
// builds up as it does in production ingest.
TEST_P(WindowOracleSweep, PortMatchesDequeReferenceObservationally) {
  const auto [k, rate, seed, spike] = GetParam();
  const double window = 1.0;
  SlidingWindowSampler ported(k, window, seed);
  SlidingWindowSampler unqueried(k, window, seed);
  ReferenceWindowSampler reference(k, window, seed);
  ArrivalProcess arrivals(
      spike == 1.0 ? RateProfile::Constant(rate)
                   : RateProfile::WithSpike(rate, 3.0, 3.5, spike),
      rate * spike * 1.1, seed + 77);
  size_t checked = 0;
  for (const Arrival& a : arrivals.Until(6.0)) {
    const bool stored = reference.Arrive(a.time, a.id);
    ASSERT_EQ(ported.Arrive(a.time, a.id), stored) << "id " << a.id;
    ASSERT_EQ(unqueried.Arrive(a.time, a.id), stored) << "id " << a.id;
    if (++checked % 64 != 0) continue;
    const auto current = reference.CurrentItems(a.time);
    const auto expired = reference.ExpiredItems(a.time);
    for (const SlidingWindowSampler* s : {&ported, &unqueried}) {
      const FrameRegions regions = RegionsOf(*s);
      ExpectSameItems(regions.current, current);
      ExpectSameItems(regions.expired, expired);
    }
    ASSERT_EQ(Bits(ported.ImprovedThreshold(a.time)),
              Bits(reference.ImprovedThreshold(a.time)));
    ASSERT_EQ(Bits(ported.GlThreshold(a.time)),
              Bits(reference.GlThreshold(a.time)));
    ASSERT_EQ(ported.StoredCount(a.time), reference.StoredCount(a.time));
    ExpectSameItems(ported.CurrentItems(a.time), current);
    if (::testing::Test::HasFailure()) return;
  }
  const auto final_items = reference.CurrentItems(6.0);
  const double final_gl = reference.GlThreshold(6.0);
  const size_t later_count = reference.StoredCount(6.5);
  for (SlidingWindowSampler* s : {&ported, &unqueried}) {
    ExpectSameItems(s->CurrentItems(6.0), final_items);
    EXPECT_EQ(Bits(s->GlThreshold(6.0)), Bits(final_gl));
    EXPECT_EQ(s->StoredCount(6.5), later_count);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WindowOracleSweep,
    ::testing::Values(OracleParam{1, 200.0, 1}, OracleParam{10, 500.0, 2},
                      OracleParam{25, 800.0, 3}, OracleParam{50, 2000.0, 4},
                      OracleParam{100, 300.0, 5}, OracleParam{2, 300.0, 6},
                      // rate == k: the window hovers at a full sample.
                      OracleParam{128, 128.0, 7},
                      OracleParam{128, 1500.0, 8},
                      OracleParam{2, 200.0, 9, 6.0},
                      OracleParam{25, 300.0, 10, 6.0},
                      OracleParam{128, 400.0, 11, 6.0},
                      // One window-dashboard shard: 2500/s over 8 shards.
                      OracleParam{128, 312.5, 12, 6.0}));

// ----------------------------------------------------------------------
// Wire round trips.

SlidingWindowSampler MakeWindowSampler(size_t k, double window, double rate,
                                       double horizon, uint64_t seed) {
  SlidingWindowSampler sampler(k, window, seed);
  ArrivalProcess arrivals(RateProfile::Constant(rate), rate * 1.1,
                          seed + 1);
  for (const Arrival& a : arrivals.Until(horizon)) {
    sampler.Arrive(a.time, a.id);
  }
  return sampler;
}

TEST(WindowWire, RoundTripPreservesObservablesAndRngStream) {
  SlidingWindowSampler original = MakeWindowSampler(40, 1.0, 900.0, 4.0, 9);
  const std::string frame = original.SerializeToString();
  auto restored = SlidingWindowSampler::Deserialize(std::string_view(frame));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->k(), original.k());
  EXPECT_DOUBLE_EQ(restored->window(), original.window());
  EXPECT_DOUBLE_EQ(restored->last_time(), original.last_time());
  ExpectSameItems(restored->CurrentItems(4.0), original.CurrentItems(4.0));
  EXPECT_DOUBLE_EQ(restored->GlThreshold(4.0), original.GlThreshold(4.0));
  EXPECT_EQ(restored->StoredCount(4.0), original.StoredCount(4.0));
  // The RNG state travels: both continue the identical priority stream.
  ArrivalProcess more(RateProfile::Constant(900.0), 1000.0, 1234);
  for (const Arrival& a : more.Until(1.5)) {
    ASSERT_EQ(restored->Arrive(4.0 + a.time, 1000000 + a.id),
              original.Arrive(4.0 + a.time, 1000000 + a.id));
  }
  ExpectSameItems(restored->CurrentItems(5.5), original.CurrentItems(5.5));
}

TEST(WindowWire, EmptySamplerRoundTrips) {
  SlidingWindowSampler empty(8, 2.0, 3);
  const std::string frame = empty.SerializeToString();
  auto restored = SlidingWindowSampler::Deserialize(std::string_view(frame));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->StoredCount(0.0), 0u);
  EXPECT_DOUBLE_EQ(restored->ImprovedThreshold(0.0), 1.0);
}

TEST(DecayWire, RoundTripPreservesSampleAndRngStream) {
  TimeDecaySampler original(25, 11);
  Xoshiro256 data(5);
  for (uint64_t i = 0; i < 800; ++i) {
    original.Add(i, 0.5 + data.NextDouble(), 1.0 + data.NextDouble(),
                 0.01 * static_cast<double>(i));
  }
  const std::string frame = original.SerializeToString();
  auto restored = TimeDecaySampler::Deserialize(std::string_view(frame));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->size(), original.size());
  EXPECT_DOUBLE_EQ(restored->LogKeyThreshold(), original.LogKeyThreshold());
  EXPECT_DOUBLE_EQ(restored->EstimateDecayedTotal(10.0),
                   original.EstimateDecayedTotal(10.0));
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_EQ(restored->Add(5000 + i, 1.0, 1.0, 8.0 + 0.01 * double(i)),
              original.Add(5000 + i, 1.0, 1.0, 8.0 + 0.01 * double(i)));
  }
  EXPECT_DOUBLE_EQ(restored->EstimateDecayedTotal(12.0),
                   original.EstimateDecayedTotal(12.0));
}

TEST(DecayBatch, AddBatchMatchesScalarLoopExactly) {
  TimeDecaySampler scalar(30, 21), batched(30, 21);
  Xoshiro256 data(6);
  std::vector<TimeDecaySampler::TimedItem> items;
  for (uint64_t i = 0; i < 3000; ++i) {
    items.push_back({i, 0.25 + data.NextDouble(), data.NextDouble(),
                     0.002 * static_cast<double>(i)});
  }
  size_t scalar_accepted = 0;
  for (const auto& it : items) {
    scalar_accepted +=
        scalar.Add(it.key, it.weight, it.value, it.time) ? 1 : 0;
  }
  // Split the batch unevenly so block boundaries and tails are exercised.
  const size_t cut = 1234;
  size_t batch_accepted =
      batched.AddBatch(std::span(items).subspan(0, cut));
  batch_accepted += batched.AddBatch(std::span(items).subspan(cut));
  EXPECT_EQ(batch_accepted, scalar_accepted);
  EXPECT_EQ(batched.size(), scalar.size());
  EXPECT_DOUBLE_EQ(batched.LogKeyThreshold(), scalar.LogKeyThreshold());
  EXPECT_EQ(batched.SerializeToString(), scalar.SerializeToString());
}

// ----------------------------------------------------------------------
// MergeMany vs the sequential pairwise chain.

// The pairwise chain as sliding_window.h defines it, written out on
// decoded frame regions: an oracle that shares no code with the merge
// engine, which Merge, MergeMany and MergeManyFrames all run.
struct ChainState {
  size_t k = 0;
  double window = 0.0;
  double last_time = 0.0;
  std::vector<SlidingWindowSampler::StoredItem> current;
  std::vector<SlidingWindowSampler::StoredItem> expired;
};

ChainState ChainStateOf(const SlidingWindowSampler& sampler) {
  FrameRegions regions = RegionsOf(sampler);
  return {sampler.k(), sampler.window(), sampler.last_time(),
          std::move(regions.current), std::move(regions.expired)};
}

void StableSortByTime(std::vector<SlidingWindowSampler::StoredItem>& items) {
  std::stable_sort(items.begin(), items.end(),
                   [](const auto& a, const auto& b) {
                     return a.time < b.time;
                   });
}

// One chain step: both sides at the clock max(acc, input); the bound is
// the min of both improved thresholds; the time-ordered union (the
// accumulator first on equal times) is re-capped at k, first-arrived
// ties kept; thresholds are min-composed; expired sets are unioned the
// same way.
void ReferenceMergeStep(ChainState& acc, const ChainState& in) {
  const double now = std::max(acc.last_time, in.last_time);
  const double cut = now - acc.window;
  const double drop = now - 2.0 * acc.window;
  acc.last_time = now;
  std::vector<SlidingWindowSampler::StoredItem> acc_current;
  for (const auto& it : acc.current) {
    (it.time <= cut ? acc.expired : acc_current).push_back(it);
  }
  std::erase_if(acc.expired,
                [drop](const auto& it) { return it.time <= drop; });
  std::vector<SlidingWindowSampler::StoredItem> in_current;
  std::vector<SlidingWindowSampler::StoredItem> in_expired;
  for (const auto& it : in.expired) {
    if (it.time > drop) in_expired.push_back(it);
  }
  for (const auto& it : in.current) {
    if (it.time <= drop) continue;
    (it.time <= cut ? in_expired : in_current).push_back(it);
  }
  double bound = 1.0;
  for (const auto& it : acc_current) bound = std::min(bound, it.threshold);
  for (const auto& it : in_current) bound = std::min(bound, it.threshold);
  std::vector<SlidingWindowSampler::StoredItem> candidates;
  for (const auto* side : {&acc_current, &in_current}) {
    for (const auto& it : *side) {
      if (it.priority < bound) candidates.push_back(it);
    }
  }
  StableSortByTime(candidates);
  double t_final = bound;
  if (candidates.size() > acc.k) {
    std::vector<double> priorities;
    for (const auto& it : candidates) priorities.push_back(it.priority);
    std::sort(priorities.begin(), priorities.end());
    const double pivot = priorities[acc.k];
    t_final = std::min(bound, pivot);
    size_t ties = static_cast<size_t>(
        std::count(priorities.begin(), priorities.begin() + acc.k, pivot));
    std::erase_if(candidates, [&](const auto& it) {
      if (it.priority < pivot) return false;
      if (it.priority == pivot && ties > 0) {
        --ties;
        return false;
      }
      return true;
    });
  }
  for (auto& it : candidates) it.threshold = std::min(it.threshold, t_final);
  acc.current = std::move(candidates);
  acc.expired.insert(acc.expired.end(), in_expired.begin(), in_expired.end());
  StableSortByTime(acc.expired);
}

void ExpectSameState(const ChainState& merged, const ChainState& reference) {
  EXPECT_EQ(Bits(merged.last_time), Bits(reference.last_time));
  ExpectSameItems(merged.current, reference.current);
  ExpectSameItems(merged.expired, reference.expired);
}

class TimeAxisMergeSweep : public ::testing::TestWithParam<uint64_t> {};

// Builds `num_inputs` window samplers -- a mix of empty samplers,
// all-expired histories (arrivals ending long before everyone else's
// clock) and live windows, each with its own k -- and a k-sampler
// accumulator, warm half the time; merges them with MergeMany and with
// the explicit Merge chain, and checks both against the reference chain.
void ExpectWindowMergeManyMatchesChain(Xoshiro256& rng, size_t k,
                                       size_t num_inputs, uint64_t seed) {
  const double window = 1.0;
  std::vector<SlidingWindowSampler> inputs;
  uint64_t id = 1000;
  for (size_t s = 0; s < num_inputs; ++s) {
    SlidingWindowSampler in(1 + rng.NextBelow(2 * k + 1), window,
                            seed * 100 + s);
    const uint64_t kind = rng.NextBelow(4);
    if (kind != 0) {
      const double start = kind == 1 ? 0.0 : 4.0;  // kind 1: expires out
      const double span = kind == 3 ? 0.4 : 1.6;
      const size_t n = 1 + rng.NextBelow(200);
      for (size_t i = 0; i < n; ++i) {
        in.Arrive(start + span * static_cast<double>(i) /
                              static_cast<double>(n),
                  id++);
      }
    }
    inputs.push_back(std::move(in));
  }
  SlidingWindowSampler seq(k, window, seed + 31);
  SlidingWindowSampler many(k, window, seed + 31);
  if (rng.NextBelow(2) == 0) {
    const size_t n = 1 + rng.NextBelow(120);
    for (size_t i = 0; i < n; ++i) {
      const double t =
          4.0 + 1.2 * static_cast<double>(i) / static_cast<double>(n);
      seq.Arrive(t, id);
      many.Arrive(t, id);
      ++id;
    }
  }
  ChainState reference = ChainStateOf(many);
  std::vector<const SlidingWindowSampler*> ptrs;
  for (const auto& in : inputs) {
    ptrs.push_back(&in);
    ReferenceMergeStep(reference, ChainStateOf(in));
  }

  for (const auto* in : ptrs) seq.Merge(*in);
  many.MergeMany(ptrs);

  // Byte-level equality covers every observable at once: current and
  // expired regions (ids, times, priorities, per-item thresholds, in
  // order), last_time, and the untouched RNG stream.
  ASSERT_EQ(many.SerializeToString(), seq.SerializeToString())
      << "k=" << k << " inputs=" << num_inputs;
  ExpectSameState(ChainStateOf(many), reference);
  ASSERT_DOUBLE_EQ(many.ImprovedThreshold(many.last_time()),
                   seq.ImprovedThreshold(seq.last_time()));
  ASSERT_DOUBLE_EQ(many.GlThreshold(many.last_time()),
                   seq.GlThreshold(seq.last_time()));
}

TEST_P(TimeAxisMergeSweep, WindowMergeManyEqualsSequentialPairwise) {
  Xoshiro256 rng(GetParam() * 271 + 5);
  for (size_t k : {1u, 4u, 24u}) {
    const size_t num_inputs = 1 + rng.NextBelow(6);
    ExpectWindowMergeManyMatchesChain(rng, k, num_inputs, GetParam());
  }
  // Wide fan-ins, odd and even: the expired union of many runs.
  for (size_t num_inputs : {8u, 9u, 32u, 33u}) {
    ExpectWindowMergeManyMatchesChain(rng, 4 + rng.NextBelow(40), num_inputs,
                                      GetParam());
  }
}

// Serialized windows over disjoint id ranges, merged by MergeManyFrames
// and by the Deserialize + Merge chain, and checked against the
// reference chain.
void ExpectWindowMergeManyFramesMatchesChain(Xoshiro256& rng, size_t k,
                                             size_t num_inputs,
                                             uint64_t seed) {
  const double window = 1.0;
  std::vector<std::string> frames;
  for (size_t s = 0; s < num_inputs; ++s) {
    const double rate = 50.0 + double(rng.NextBelow(400));
    const double horizon = rng.NextBelow(3) == 0 ? 0.3 : 3.0;
    frames.push_back(MakeWindowSampler(1 + rng.NextBelow(20), window, rate,
                                       horizon, seed * 50 + s)
                         .SerializeToString());
  }
  SlidingWindowSampler seq(k, window, 7), many(k, window, 7);
  ChainState reference = ChainStateOf(many);
  for (const std::string& f : frames) {
    auto in = SlidingWindowSampler::Deserialize(std::string_view(f));
    ASSERT_TRUE(in.has_value());
    seq.Merge(*in);
    ReferenceMergeStep(reference, ChainStateOf(*in));
  }
  std::vector<std::string_view> views(frames.begin(), frames.end());
  ASSERT_TRUE(many.MergeManyFrames(views));
  ASSERT_EQ(many.SerializeToString(), seq.SerializeToString())
      << "k=" << k << " inputs=" << num_inputs;
  ExpectSameState(ChainStateOf(many), reference);
}

TEST_P(TimeAxisMergeSweep, WindowMergeManyFramesEqualsDeserializeChain) {
  Xoshiro256 rng(GetParam() * 613 + 17);
  const size_t k = 1 + rng.NextBelow(16);
  ExpectWindowMergeManyFramesMatchesChain(rng, k, 1 + rng.NextBelow(5),
                                          GetParam());
  for (size_t num_inputs : {8u, 9u, 32u, 33u}) {
    ExpectWindowMergeManyFramesMatchesChain(rng, 1 + rng.NextBelow(40),
                                            num_inputs, GetParam());
  }
}

TEST_P(TimeAxisMergeSweep, DecayMergeManyEqualsSequentialPairwise) {
  Xoshiro256 rng(GetParam() * 431 + 3);
  for (size_t k : {1u, 5u, 32u}) {
    const size_t num_inputs = 1 + rng.NextBelow(7);
    std::vector<TimeDecaySampler> inputs;
    uint64_t id = 0;
    for (size_t s = 0; s < num_inputs; ++s) {
      TimeDecaySampler in(1 + rng.NextBelow(2 * k + 1),
                          GetParam() * 90 + s);
      const size_t n = rng.NextBelow(4) == 0 ? 0 : rng.NextBelow(500);
      for (size_t i = 0; i < n; ++i) {
        in.Add(id++, 0.5 + rng.NextDouble(), rng.NextDouble(),
               0.01 * static_cast<double>(i));
      }
      inputs.push_back(std::move(in));
    }
    TimeDecaySampler seq(k, 77), many(k, 77);
    const size_t warm = rng.NextBelow(3 * k + 1);
    for (size_t i = 0; i < warm; ++i) {
      const double w = 0.5 + rng.NextDouble();
      const double t = 0.02 * static_cast<double>(i);
      seq.Add(id, w, 1.0, t);
      many.Add(id, w, 1.0, t);
      ++id;
    }
    std::vector<const TimeDecaySampler*> ptrs;
    for (const auto& in : inputs) ptrs.push_back(&in);
    for (const auto* in : ptrs) seq.Merge(*in);
    many.MergeMany(ptrs);

    ASSERT_DOUBLE_EQ(many.LogKeyThreshold(), seq.LogKeyThreshold())
        << "k=" << k;
    ASSERT_EQ(many.SerializeToString(), seq.SerializeToString());
    ASSERT_DOUBLE_EQ(many.EstimateDecayedTotal(6.0),
                     seq.EstimateDecayedTotal(6.0));
  }
}

TEST_P(TimeAxisMergeSweep, DecayMergeManyFramesEqualsDeserializeChain) {
  Xoshiro256 rng(GetParam() * 149 + 23);
  const size_t k = 1 + rng.NextBelow(24);
  const size_t num_inputs = 1 + rng.NextBelow(6);
  std::vector<std::string> frames;
  uint64_t id = 0;
  for (size_t s = 0; s < num_inputs; ++s) {
    TimeDecaySampler in(1 + rng.NextBelow(30), GetParam() * 70 + s);
    const size_t n = rng.NextBelow(3) == 0 ? 0 : rng.NextBelow(400);
    for (size_t i = 0; i < n; ++i) {
      in.Add(id++, 0.5 + rng.NextDouble(), 1.0,
             0.005 * static_cast<double>(i));
    }
    frames.push_back(in.SerializeToString());
  }
  TimeDecaySampler seq(k, 5), many(k, 5);
  for (const std::string& f : frames) {
    auto in = TimeDecaySampler::Deserialize(std::string_view(f));
    ASSERT_TRUE(in.has_value());
    seq.Merge(*in);
  }
  std::vector<std::string_view> views(frames.begin(), frames.end());
  ASSERT_TRUE(many.MergeManyFrames(views));
  ASSERT_EQ(many.SerializeToString(), seq.SerializeToString());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimeAxisMergeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(TimeAxisMerge, NoRealInputsIsAStrictNoOp) {
  SlidingWindowSampler sampler = MakeWindowSampler(8, 1.0, 300.0, 2.0, 4);
  const std::string before = sampler.SerializeToString();
  sampler.MergeMany({});
  std::vector<const SlidingWindowSampler*> self{&sampler, &sampler};
  sampler.MergeMany(self);
  EXPECT_TRUE(sampler.MergeManyFrames({}));
  EXPECT_EQ(sampler.SerializeToString(), before);

  TimeDecaySampler decay(8, 4);
  for (uint64_t i = 0; i < 100; ++i) decay.Add(i, 1.0, 1.0, 0.01 * i);
  const std::string dbefore = decay.SerializeToString();
  decay.MergeMany({});
  std::vector<const TimeDecaySampler*> dself{&decay, &decay};
  decay.MergeMany(dself);
  EXPECT_TRUE(decay.MergeManyFrames({}));
  EXPECT_EQ(decay.SerializeToString(), dbefore);
}

// ----------------------------------------------------------------------
// Handcrafted frames: duplicate priorities (ties at and below the
// per-item thresholds) must merge identically on either path; ties at
// the selection pivot keep first-arrived entries.

std::string HandcraftedWindowFrame(
    size_t k, double window, double last_time,
    const std::vector<SlidingWindowSampler::StoredItem>& current,
    const std::vector<SlidingWindowSampler::StoredItem>& expired) {
  ByteWriter w;
  w.WriteU32(0x53574e31);  // "SWN1"
  w.WriteU32(1);
  w.WriteU64(k);
  w.WriteDouble(window);
  w.WriteDouble(last_time);
  WriteRngState(w, {1, 2, 3, 4});
  w.WriteU64(current.size());
  w.WriteU64(expired.size());
  const auto write_entry = [&w](const SlidingWindowSampler::StoredItem& it) {
    w.WriteU64(it.id);
    w.WriteDouble(it.time);
    w.WriteDouble(it.priority);
    w.WriteDouble(it.threshold);
  };
  for (const auto& it : current) write_entry(it);
  for (const auto& it : expired) write_entry(it);
  std::string bytes = w.Take();
  const uint32_t checksum = FrameChecksum(bytes);
  bytes.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return bytes;
}

TEST(TimeAxisMerge, TiedPrioritiesMergeIdenticallyOnBothPaths) {
  // Two shards whose current entries tie in priority (0.25 everywhere)
  // and tie at their thresholds; the k = 3 accumulator must pick the
  // first-arrived ties whichever path runs.
  const std::string frame_a = HandcraftedWindowFrame(
      4, 1.0, 10.0,
      {{1, 9.2, 0.25, 0.5}, {2, 9.5, 0.25, 0.5}, {3, 9.9, 0.5, 0.5}}, {});
  const std::string frame_b = HandcraftedWindowFrame(
      4, 1.0, 10.0,
      {{4, 9.3, 0.25, 0.6}, {5, 9.8, 0.25, 0.6}},
      {{6, 8.7, 0.25, 0.6}});
  ASSERT_TRUE(SlidingWindowSampler::DeserializeView(frame_a).has_value());
  ASSERT_TRUE(SlidingWindowSampler::DeserializeView(frame_b).has_value());

  SlidingWindowSampler seq(3, 1.0, 1), many(3, 1.0, 1);
  for (const std::string& f : {frame_a, frame_b}) {
    auto in = SlidingWindowSampler::Deserialize(std::string_view(f));
    ASSERT_TRUE(in.has_value());
    seq.Merge(*in);
  }
  std::vector<std::string_view> frames{frame_a, frame_b};
  ASSERT_TRUE(many.MergeManyFrames(frames));
  ASSERT_EQ(many.SerializeToString(), seq.SerializeToString());

  // Three candidates below the merge bound 0.5: ids 1, 4, 2 in time
  // order, all at priority 0.25 -- they fill k exactly; id 3 sits at the
  // bound and drops.
  auto items = many.CurrentItems(10.0);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].id, 1u);
  EXPECT_EQ(items[1].id, 4u);
  EXPECT_EQ(items[2].id, 2u);
}

TEST(TimeAxisMerge, EqualTimesKeepTheAccumulatorFirst) {
  // Both regions of both frames share their times; the merged order at
  // each time is the accumulator's entry, then the input's.
  const std::string frame_a = HandcraftedWindowFrame(
      4, 1.0, 10.0, {{1, 9.5, 0.1, 0.5}, {2, 9.7, 0.2, 0.5}},
      {{3, 8.6, 0.3, 0.5}});
  const std::string frame_b = HandcraftedWindowFrame(
      4, 1.0, 10.0, {{4, 9.5, 0.15, 0.6}, {5, 9.7, 0.25, 0.6}},
      {{6, 8.6, 0.35, 0.6}});
  const auto ids_of = [](const SlidingWindowSampler& s) {
    const std::string frame = s.SerializeToString();
    const auto view = SlidingWindowSampler::DeserializeView(frame);
    ATS_CHECK(view.has_value());
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < view->current_count() + view->expired_count();
         ++i) {
      ids.push_back(view->entry(i).id);
    }
    return ids;
  };
  auto ab = SlidingWindowSampler::Deserialize(std::string_view(frame_a));
  auto b = SlidingWindowSampler::Deserialize(std::string_view(frame_b));
  ASSERT_TRUE(ab.has_value() && b.has_value());
  ab->Merge(*b);
  EXPECT_EQ(ids_of(*ab), (std::vector<uint64_t>{1, 4, 2, 5, 3, 6}));

  auto ba = SlidingWindowSampler::Deserialize(std::string_view(frame_b));
  const std::vector<std::string_view> frames{frame_a};
  ASSERT_TRUE(ba->MergeManyFrames(frames));
  EXPECT_EQ(ids_of(*ba), (std::vector<uint64_t>{4, 1, 5, 2, 6, 3}));
}

TEST(TimeAxisMerge, ExpiredTiesAcrossManyInputsKeepSpanOrder) {
  // Six frames and the accumulator all hold expired entries at the same
  // two times, so the expired union is one run of ties per time: the
  // accumulator's entry first, then the inputs' in span order.
  const auto frame_of = [](uint64_t id, double priority) {
    return HandcraftedWindowFrame(
        4, 1.0, 10.0, {{id, 9.5, priority / 2.0, 0.6}},
        {{id + 1, 8.5, priority, 0.6}, {id + 2, 8.8, priority, 0.6}});
  };
  const std::string accumulator = frame_of(10, 0.3);
  std::vector<std::string> frames;
  for (uint64_t s = 0; s < 6; ++s) {
    frames.push_back(frame_of(100 * (s + 1), 0.1 + 0.05 * double(s)));
  }
  std::vector<uint64_t> expected{11};
  for (uint64_t s = 0; s < 6; ++s) expected.push_back(100 * (s + 1) + 1);
  expected.push_back(12);
  for (uint64_t s = 0; s < 6; ++s) expected.push_back(100 * (s + 1) + 2);

  auto by_frames = SlidingWindowSampler::Deserialize(accumulator);
  auto by_samplers = SlidingWindowSampler::Deserialize(accumulator);
  auto by_chain = SlidingWindowSampler::Deserialize(accumulator);
  ASSERT_TRUE(by_frames && by_samplers && by_chain);
  std::vector<SlidingWindowSampler> inputs;
  for (const std::string& f : frames) {
    auto in = SlidingWindowSampler::Deserialize(std::string_view(f));
    ASSERT_TRUE(in.has_value());
    by_chain->Merge(*in);
    inputs.push_back(*std::move(in));
  }
  std::vector<const SlidingWindowSampler*> ptrs;
  for (const auto& in : inputs) ptrs.push_back(&in);
  by_samplers->MergeMany(ptrs);
  const std::vector<std::string_view> views(frames.begin(), frames.end());
  ASSERT_TRUE(by_frames->MergeManyFrames(views));

  for (const SlidingWindowSampler* merged :
       {&*by_frames, &*by_samplers, &*by_chain}) {
    std::vector<uint64_t> ids;
    for (const auto& it : RegionsOf(*merged).expired) ids.push_back(it.id);
    EXPECT_EQ(ids, expected);
  }
  EXPECT_EQ(by_frames->SerializeToString(), by_chain->SerializeToString());
  EXPECT_EQ(by_samplers->SerializeToString(), by_chain->SerializeToString());
}

TEST(TimeAxisMerge, RatchetingClockReclassifiesAccumulatedItems) {
  // Frame A stops at t = 10, frame B at 10.5. The chain merges A at 10,
  // where A's entry at 9.2 is current: it joins the k = 2 re-cap and
  // leaves it with threshold min(0.5, 0.3). Merging B advances the clock
  // to 10.5, and the entry moves to the expired set with that
  // threshold. A receiver already at 10.5 meets the entry expired, with
  // A's own threshold 0.5, and never caps it.
  const std::string frame_a = HandcraftedWindowFrame(
      3, 1.0, 10.0,
      {{1, 9.2, 0.1, 0.5}, {2, 9.6, 0.2, 0.5}, {3, 9.8, 0.3, 0.5}}, {});
  const std::string frame_b = HandcraftedWindowFrame(
      3, 1.0, 10.5, {{4, 10.1, 0.05, 0.4}, {5, 10.4, 0.15, 0.4}}, {});
  const std::vector<std::string_view> frames{frame_a, frame_b};

  SlidingWindowSampler by_frames(2, 1.0, 1);
  ASSERT_TRUE(by_frames.MergeManyFrames(frames));
  SlidingWindowSampler by_chain(2, 1.0, 1);
  SlidingWindowSampler by_samplers(2, 1.0, 1);
  std::vector<SlidingWindowSampler> inputs;
  for (std::string_view f : frames) {
    auto in = SlidingWindowSampler::Deserialize(f);
    ASSERT_TRUE(in.has_value());
    by_chain.Merge(*in);
    inputs.push_back(*std::move(in));
  }
  const std::vector<const SlidingWindowSampler*> ptrs{&inputs[0], &inputs[1]};
  by_samplers.MergeMany(ptrs);
  EXPECT_EQ(by_frames.SerializeToString(), by_chain.SerializeToString());
  EXPECT_EQ(by_samplers.SerializeToString(), by_chain.SerializeToString());

  const FrameRegions regions = RegionsOf(by_frames);
  ASSERT_EQ(regions.expired.size(), 1u);
  EXPECT_EQ(regions.expired[0].id, 1u);
  EXPECT_EQ(regions.expired[0].threshold, 0.3);
  ASSERT_EQ(regions.current.size(), 2u);
  EXPECT_EQ(regions.current[0].id, 4u);
  EXPECT_EQ(regions.current[1].id, 5u);
  EXPECT_EQ(regions.current[0].threshold, 0.2);

  SlidingWindowSampler advanced(2, 1.0, 1);
  advanced.StoredCount(10.5);  // the clock at B's last_time first
  ASSERT_TRUE(advanced.MergeManyFrames(frames));
  const FrameRegions at_max = RegionsOf(advanced);
  ASSERT_EQ(at_max.expired.size(), 1u);
  EXPECT_EQ(at_max.expired[0].id, 1u);
  EXPECT_EQ(at_max.expired[0].threshold, 0.5);
  EXPECT_NE(advanced.SerializeToString(), by_chain.SerializeToString());
}

// ----------------------------------------------------------------------
// The top-priority cache. A restore or a merge leaves it empty, so a
// sampler that went through either must keep arriving exactly like a
// sampler rebuilt from its own frame (or, for Deserialize, like the
// original whose cache is warm). The continuation stream spikes, so the
// burst's expiry drains the cache again.

void ExpectSameContinuation(SlidingWindowSampler& a, SlidingWindowSampler& b,
                            uint64_t seed) {
  ASSERT_EQ(a.SerializeToString(), b.SerializeToString());
  const double from = a.last_time();
  ArrivalProcess more(RateProfile::WithSpike(600.0, 0.5, 0.8, 5.0), 3300.0,
                      seed);
  size_t n = 0;
  for (const Arrival& arrival : more.Until(2.5)) {
    const double t = from + arrival.time;
    const uint64_t id = 5000000 + arrival.id;
    ASSERT_EQ(a.Arrive(t, id), b.Arrive(t, id)) << "id " << id;
    if (++n % 97 == 0) ExpectSameItems(a.CurrentItems(t), b.CurrentItems(t));
  }
  EXPECT_EQ(a.SerializeToString(), b.SerializeToString());
}

// A constant-rate stream over ids [id_base, id_base + n).
SlidingWindowSampler MakeKeyedWindow(size_t k, double rate, double horizon,
                                     uint64_t seed, uint64_t id_base) {
  SlidingWindowSampler sampler(k, 1.0, seed);
  ArrivalProcess arrivals(RateProfile::Constant(rate), rate * 1.1, seed + 1);
  for (const Arrival& a : arrivals.Until(horizon)) {
    sampler.Arrive(a.time, id_base + a.id);
  }
  return sampler;
}

SlidingWindowSampler Rebuilt(const SlidingWindowSampler& sampler) {
  auto restored =
      SlidingWindowSampler::Deserialize(sampler.SerializeToString());
  ATS_CHECK(restored.has_value());
  return *std::move(restored);
}

TEST(WindowTopCache, DeserializedSamplerContinuesLikeTheOriginal) {
  for (size_t k : {2u, 32u, 128u}) {
    SCOPED_TRACE(k);
    SlidingWindowSampler original = MakeKeyedWindow(k, 900.0, 3.0, k, 0);
    SlidingWindowSampler restored = Rebuilt(original);
    ExpectSameContinuation(original, restored, 40 + k);
  }
}

TEST(WindowTopCache, MergedSamplerContinuesLikeItsOwnFrame) {
  for (size_t k : {2u, 32u, 128u}) {
    SCOPED_TRACE(k);
    SlidingWindowSampler merged = MakeKeyedWindow(k, 900.0, 3.0, 3, 0);
    merged.Merge(MakeKeyedWindow(k, 700.0, 3.2, 4, 1000000));
    SlidingWindowSampler rebuilt = Rebuilt(merged);
    ExpectSameContinuation(merged, rebuilt, 50 + k);
  }
}

TEST(WindowTopCache, FrameMergedSamplerContinuesLikeItsOwnFrame) {
  for (size_t k : {2u, 32u, 128u}) {
    SCOPED_TRACE(k);
    SlidingWindowSampler merged = MakeKeyedWindow(k, 900.0, 3.0, 5, 0);
    const std::string frame_b =
        MakeKeyedWindow(k, 500.0, 3.1, 6, 1000000).SerializeToString();
    const std::string frame_c =
        MakeKeyedWindow(k, 1200.0, 2.9, 7, 2000000).SerializeToString();
    const std::vector<std::string_view> frames{frame_b, frame_c};
    ASSERT_TRUE(merged.MergeManyFrames(frames));
    SlidingWindowSampler rebuilt = Rebuilt(merged);
    ExpectSameContinuation(merged, rebuilt, 60 + k);
  }
}

TEST(WindowTopCache, TiedMaximumEvictsTheEarlierEntry) {
  // HandcraftedWindowFrame stores RNG state {1, 2, 3, 4}; p is the
  // priority the next arrival draws.
  Xoshiro256 probe;
  probe.SetState({1, 2, 3, 4});
  const double p = probe.NextDoubleOpenZero();
  ASSERT_LT(p, 1.0);
  const double tie = (1.0 + p) / 2.0;
  const std::string frame = HandcraftedWindowFrame(
      3, 1.0, 9.5,
      {{1, 9.1, tie, 1.0}, {2, 9.2, p / 2.0, 1.0}, {3, 9.3, tie, 1.0}}, {});
  auto sampler = SlidingWindowSampler::Deserialize(std::string_view(frame));
  ASSERT_TRUE(sampler.has_value());
  // m1 == m2 == tie > p: the newcomer is accepted at threshold tie and
  // the first of the two tied maxima (id 1) is evicted.
  ASSERT_TRUE(sampler->Arrive(9.6, 4));
  const auto items = sampler->CurrentItems(9.6);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].id, 2u);
  EXPECT_EQ(items[1].id, 3u);
  EXPECT_EQ(items[2].id, 4u);
  EXPECT_EQ(items[2].priority, p);
  for (const auto& it : items) EXPECT_EQ(it.threshold, tie);
}

// ----------------------------------------------------------------------
// Hostile inputs against the frame views.

std::string PatchAndRechecksum(std::string frame, size_t offset,
                               const void* bytes, size_t count) {
  std::memcpy(frame.data() + offset, bytes, count);
  const uint32_t checksum =
      FrameChecksum(std::string_view(frame).substr(0, frame.size() - 4));
  std::memcpy(frame.data() + frame.size() - 4, &checksum,
              sizeof(checksum));
  return frame;
}

// Byte offsets inside a window frame body.
constexpr size_t kWinKOffset = 8;
constexpr size_t kWinCurrentCountOffset = 64;  // header+k+window+time+rng

TEST(WindowViewHostile, EveryTruncationFailsCleanly) {
  const std::string frame =
      MakeWindowSampler(8, 1.0, 400.0, 3.0, 6).SerializeToString();
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(SlidingWindowSampler::DeserializeView(
                     std::string_view(frame).substr(0, len))
                     .has_value())
        << "prefix length " << len;
  }
  EXPECT_TRUE(SlidingWindowSampler::DeserializeView(frame).has_value());
}

TEST(WindowViewHostile, FlippedByteFailsChecksum) {
  const std::string frame =
      MakeWindowSampler(8, 1.0, 400.0, 3.0, 6).SerializeToString();
  for (size_t pos : {size_t{0}, size_t{20}, frame.size() / 2,
                     frame.size() - 5}) {
    std::string bad = frame;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x20);
    EXPECT_FALSE(SlidingWindowSampler::DeserializeView(bad).has_value())
        << "flipped byte " << pos;
  }
}

TEST(WindowViewHostile, HostileFieldPatchesAreRejected) {
  const std::string frame =
      MakeWindowSampler(8, 1.0, 400.0, 3.0, 6).SerializeToString();
  const auto view = SlidingWindowSampler::DeserializeView(frame);
  ASSERT_TRUE(view.has_value());
  // current_count > k.
  const uint64_t huge = uint64_t{1} << 40;
  EXPECT_FALSE(SlidingWindowSampler::DeserializeView(
                   PatchAndRechecksum(frame, kWinCurrentCountOffset, &huge,
                                      8))
                   .has_value());
  // k = 0.
  const uint64_t zero = 0;
  EXPECT_FALSE(SlidingWindowSampler::DeserializeView(
                   PatchAndRechecksum(frame, kWinKOffset, &zero, 8))
                   .has_value());
  // A huge k with an inconsistent entry region is a framing error; a
  // huge k alone allocates nothing in the view.
  EXPECT_TRUE(SlidingWindowSampler::DeserializeView(
                  PatchAndRechecksum(frame, kWinKOffset, &huge, 8))
                  .has_value());
  // Trailing junk.
  std::string trailing = frame;
  trailing.append("x");
  EXPECT_FALSE(SlidingWindowSampler::DeserializeView(trailing).has_value());
}

TEST(WindowViewHostile, BadFrameLeavesMergeTargetUnchanged) {
  SlidingWindowSampler target = MakeWindowSampler(8, 1.0, 300.0, 3.0, 2);
  const std::string before = target.SerializeToString();
  const std::string good =
      MakeWindowSampler(8, 1.0, 300.0, 3.0, 5).SerializeToString();
  std::string bad = good;
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x01);
  std::vector<std::string_view> frames{good, bad};
  EXPECT_FALSE(target.MergeManyFrames(frames));
  EXPECT_EQ(target.SerializeToString(), before);
  // A window mismatch is equally fatal.
  const std::string other_window =
      MakeWindowSampler(8, 2.0, 300.0, 3.0, 5).SerializeToString();
  std::vector<std::string_view> mismatched{other_window};
  EXPECT_FALSE(target.MergeManyFrames(mismatched));
  EXPECT_EQ(target.SerializeToString(), before);
}

TEST(DecayViewHostile, TruncationFlipsAndJunkFailCleanly) {
  TimeDecaySampler sampler(8, 3);
  for (uint64_t i = 0; i < 300; ++i) sampler.Add(i, 1.0, 1.0, 0.01 * i);
  const std::string frame = sampler.SerializeToString();
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(TimeDecaySampler::DeserializeView(
                     std::string_view(frame).substr(0, len))
                     .has_value())
        << "prefix length " << len;
  }
  const auto view = TimeDecaySampler::DeserializeView(frame);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->size(), sampler.size());
  for (size_t pos : {size_t{0}, size_t{45}, frame.size() / 2,
                     frame.size() - 3}) {
    std::string bad = frame;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    EXPECT_FALSE(TimeDecaySampler::DeserializeView(bad).has_value())
        << "flipped byte " << pos;
  }
  std::string trailing = frame;
  trailing.append("zz");
  EXPECT_FALSE(TimeDecaySampler::DeserializeView(trailing).has_value());

  TimeDecaySampler target(8, 9);
  for (uint64_t i = 0; i < 50; ++i) target.Add(i, 1.0, 1.0, 0.02 * i);
  const std::string before = target.SerializeToString();
  std::string bad = frame;
  bad[bad.size() / 3] = static_cast<char>(bad[bad.size() / 3] ^ 0x02);
  std::vector<std::string_view> frames{frame, bad};
  EXPECT_FALSE(target.MergeManyFrames(frames));
  EXPECT_EQ(target.SerializeToString(), before);
}

// ----------------------------------------------------------------------
// The sharded time-axis front-ends against hand-routed shard references,
// and their epoch-validated snapshot cache.

TEST(ShardedTimeAxis, WindowQueriesMatchManualMergeAndAreCached) {
  const size_t k = 32;
  ConcurrentWindowSampler conc(4, k, 1.0, /*seed=*/3);
  ShardedWindowSampler ref(4, k, 1.0, /*seed=*/3);
  ArrivalProcess arrivals(RateProfile::Constant(1500.0), 1700.0, 8);
  double now = 0.0;
  for (const Arrival& a : arrivals.Until(3.0)) {
    conc.Add({a.time, a.id});
    ref.Arrive(a.time, a.id);
    now = a.time;
  }
  // Manual reference: MergeMany over the hand-routed shards.
  const auto manual_merge = [&] {
    SlidingWindowSampler manual(k, 1.0, /*seed=*/1);
    std::vector<const SlidingWindowSampler*> shards;
    for (size_t s = 0; s < ref.num_shards(); ++s) {
      shards.push_back(&ref.shard(s));
    }
    manual.MergeMany(shards);
    return manual;
  };
  SlidingWindowSampler manual = manual_merge();

  const double t1 = conc.ImprovedThreshold(now);
  EXPECT_DOUBLE_EQ(t1, manual.ImprovedThreshold(now));
  EXPECT_DOUBLE_EQ(conc.GlThreshold(now), manual.GlThreshold(now));
  EXPECT_EQ(conc.ImprovedSample(now).size(),
            manual.ImprovedSample(now).size());
  // Cached: repeated queries read the same snapshot and agree.
  const auto snapshot = conc.Snapshot();
  EXPECT_DOUBLE_EQ(conc.ImprovedThreshold(now), t1);
  EXPECT_EQ(conc.Snapshot().get(), snapshot.get());
  // New ingest is visible through the cache.
  conc.Add({now + 0.01, 999999});
  ref.Arrive(now + 0.01, 999999);
  SlidingWindowSampler manual2 = manual_merge();
  EXPECT_DOUBLE_EQ(conc.ImprovedThreshold(now + 0.01),
                   manual2.ImprovedThreshold(now + 0.01));
}

TEST(ShardedTimeAxis, DecayBatchedIngestAndCachedQueriesStayExact) {
  // Hand-routed reference: shard s holds the keys whose salted hash maps
  // to s, in a TimeDecaySampler seeded seed + s * kShardSeedStride, fed
  // item by item; queries merge the shards into a (k, seed 1) sampler.
  const size_t num_shards = 6, k = 48;
  const uint64_t seed = 11;
  ConcurrentDecaySampler batched(num_shards, k, seed);
  ConcurrentDecaySampler scalar_fed(num_shards, k, seed);
  std::vector<TimeDecaySampler> shards;
  for (size_t s = 0; s < num_shards; ++s) {
    shards.emplace_back(k, seed + internal::kShardSeedStride * s);
  }
  Xoshiro256 data(13);
  std::vector<TimeDecaySampler::TimedItem> batch;
  uint64_t key = 0;
  for (int round = 0; round < 4; ++round) {
    batch.clear();
    const size_t n = 1 + data.NextBelow(3000);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back({key++, 0.5 + data.NextDouble(), 1.0,
                       0.2 * round + 0.0001 * static_cast<double>(i)});
    }
    batched.AddBatch(batch);
    for (const auto& it : batch) {
      scalar_fed.Add(it);
      const uint64_t h = HashKey(it.key, internal::kTimeAxisRouteSalt);
      shards[h % num_shards].Add(it.key, it.weight, it.value, it.time);
    }
    // Batched partitioned ingest is bit-identical to scalar routing.
    ASSERT_EQ(batched.TotalRetained(), scalar_fed.TotalRetained());
    ASSERT_DOUBLE_EQ(batched.LogKeyThreshold(),
                     scalar_fed.LogKeyThreshold());
    // Both equal the hand-routed reference, and repeated queries read
    // one cached snapshot.
    TimeDecaySampler manual(k, /*seed=*/1);
    std::vector<const TimeDecaySampler*> inputs;
    size_t retained = 0;
    for (const TimeDecaySampler& shard : shards) {
      inputs.push_back(&shard);
      retained += shard.size();
    }
    manual.MergeMany(inputs);
    ASSERT_EQ(batched.TotalRetained(), retained);
    ASSERT_DOUBLE_EQ(batched.LogKeyThreshold(), manual.LogKeyThreshold());
    const double now = 0.2 * round + 1.0;
    const auto snapshot = batched.Snapshot();
    ASSERT_DOUBLE_EQ(batched.EstimateDecayedTotal(now),
                     manual.EstimateDecayedTotal(now));
    ASSERT_DOUBLE_EQ(batched.EstimateDecayedTotal(now),
                     batched.EstimateDecayedTotal(now));
    ASSERT_EQ(batched.Snapshot().get(), snapshot.get());
  }
}

}  // namespace
}  // namespace ats
