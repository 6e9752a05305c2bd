// Tests for ats/samplers/sliding_window.h (Section 3.2): space bounds,
// threshold dominance of the improved rule, uniformity of both samples,
// and the ~2x usable-sample improvement.
#include "ats/samplers/sliding_window.h"

#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "ats/util/stats.h"
#include "ats/workload/arrivals.h"

namespace ats {
namespace {

// Feeds a constant-rate stream and returns the sampler at time `horizon`.
SlidingWindowSampler MakeSteadySampler(size_t k, double window, double rate,
                                       double horizon, uint64_t seed) {
  SlidingWindowSampler sampler(k, window, seed);
  ArrivalProcess arrivals(RateProfile::Constant(rate), rate * 1.1, seed + 1);
  for (const Arrival& a : arrivals.Until(horizon)) {
    sampler.Arrive(a.time, a.id);
  }
  return sampler;
}

TEST(SlidingWindow, CurrentNeverExceedsK) {
  SlidingWindowSampler sampler(20, 1.0, 5);
  ArrivalProcess arrivals(RateProfile::Constant(500.0), 600.0, 6);
  for (const Arrival& a : arrivals.Until(5.0)) {
    sampler.Arrive(a.time, a.id);
    ASSERT_LE(sampler.CurrentItems(a.time).size(), 20u);
  }
}

TEST(SlidingWindow, StoredSpaceIsBounded) {
  // Current <= k and expired holds at most one window's worth of former
  // current items, so total storage stays within a small multiple of k.
  auto sampler = MakeSteadySampler(50, 1.0, 2000.0, 10.0, 7);
  EXPECT_LE(sampler.StoredCount(10.0), 3 * 50u);
}

TEST(SlidingWindow, ImprovedThresholdDominatesGl) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    auto sampler = MakeSteadySampler(100, 1.0, 3000.0, 8.0, seed);
    const double t_gl = sampler.GlThreshold(8.0);
    const double t_imp = sampler.ImprovedThreshold(8.0);
    EXPECT_GE(t_imp, t_gl) << "seed=" << seed;
  }
}

TEST(SlidingWindow, ImprovedRoughlyDoublesUsableSample) {
  // Steady state: T_GL is computed over ~2 windows of points, so it is
  // about half the per-item threshold; the improved sample has ~2x points.
  RunningStat ratio;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto sampler = MakeSteadySampler(100, 1.0, 3000.0, 8.0, seed);
    const double gl = static_cast<double>(sampler.GlSample(8.0).size());
    const double imp =
        static_cast<double>(sampler.ImprovedSample(8.0).size());
    ASSERT_GT(gl, 0.0);
    ratio.Add(imp / gl);
  }
  EXPECT_GT(ratio.mean(), 1.5);
  EXPECT_LT(ratio.mean(), 2.8);
}

TEST(SlidingWindow, SamplesContainOnlyWindowItems) {
  auto sampler = MakeSteadySampler(50, 1.0, 1000.0, 6.0, 11);
  for (const auto& e : sampler.ImprovedSample(6.0)) {
    // Ids are dense in arrival order at rate ~1000/s: items in the window
    // (5, 6] have ids roughly in (5000, 6000]. Allow Poisson slack.
    EXPECT_GT(e.key, 4500u);
  }
}

struct UniformityParam {
  size_t k;
  uint64_t seed;
};

class SlidingWindowUniformityTest
    : public ::testing::TestWithParam<UniformityParam> {};

TEST_P(SlidingWindowUniformityTest, SamplesAreUniformOverWindow) {
  // Every item in the window should appear in the final sample equally
  // often. Replay many independent streams with identical arrival times
  // and count inclusion per arrival-slot; chi-square against uniform.
  const auto [k, seed] = GetParam();
  const double window = 1.0, rate = 300.0, horizon = 3.0;
  ArrivalProcess arrivals(RateProfile::Constant(rate), rate * 1.1, 999);
  const auto times = arrivals.Until(horizon);

  // Arrival ids inside the final window:
  std::vector<uint64_t> window_ids;
  for (const Arrival& a : times) {
    if (a.time > horizon - window) window_ids.push_back(a.id);
  }
  std::map<uint64_t, int64_t> gl_counts, imp_counts;
  for (uint64_t id : window_ids) {
    gl_counts[id] = 0;
    imp_counts[id] = 0;
  }

  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    SlidingWindowSampler sampler(k, window,
                                 seed + static_cast<uint64_t>(t) * 101);
    for (const Arrival& a : times) sampler.Arrive(a.time, a.id);
    for (const auto& e : sampler.GlSample(horizon)) ++gl_counts[e.key];
    for (const auto& e : sampler.ImprovedSample(horizon)) {
      ++imp_counts[e.key];
    }
  }
  auto check_uniform = [&](const std::map<uint64_t, int64_t>& counts,
                           const char* name) {
    std::vector<int64_t> c;
    for (const auto& [id, n] : counts) c.push_back(n);
    EXPECT_LT(ChiSquareUniform(c),
              ChiSquareCritical999(static_cast<int>(c.size()) - 1))
        << name;
  };
  check_uniform(gl_counts, "G&L");
  check_uniform(imp_counts, "improved");
}

INSTANTIATE_TEST_SUITE_P(Sweep, SlidingWindowUniformityTest,
                         ::testing::Values(UniformityParam{10, 1},
                                           UniformityParam{25, 2},
                                           UniformityParam{50, 3}));

TEST(SlidingWindow, RecoverySpikeDoesNotBreakBounds) {
  SlidingWindowSampler sampler(50, 1.0, 21);
  ArrivalProcess arrivals(RateProfile::WithSpike(1000.0, 3.0, 3.5, 5.0),
                          5500.0, 22);
  for (const Arrival& a : arrivals.Until(8.0)) {
    sampler.Arrive(a.time, a.id);
    ASSERT_LE(sampler.CurrentItems(a.time).size(), 50u);
  }
  EXPECT_GT(sampler.ImprovedSample(8.0).size(), 0u);
}

TEST(SlidingWindow, UnderfullWindowKeepsEverything) {
  SlidingWindowSampler sampler(100, 10.0, 31);
  for (uint64_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(sampler.Arrive(0.1 * static_cast<double>(i), i));
  }
  EXPECT_EQ(sampler.ImprovedSample(2.0).size(), 20u);
  EXPECT_EQ(sampler.ImprovedThreshold(2.0), 1.0);
}

TEST(SlidingWindow, FitsItsConcurrentShardSlot) {
  // A concurrent shard slot is a 64-byte-aligned {mutex, sampler} pair;
  // with the 40-byte mutex, a sampler of at most 280 bytes keeps the slot
  // at 320 bytes, so the sharded state does not grow.
  EXPECT_LE(sizeof(SlidingWindowSampler), 280u);
}

}  // namespace
}  // namespace ats
