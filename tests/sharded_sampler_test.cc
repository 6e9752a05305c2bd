// Sharding properties of the priority-sampling front-end
// (ConcurrentPrioritySampler, core/concurrent_sampler.h), checked against
// hand-routed per-shard PrioritySamplers and single stores. The
// load-bearing property (Section 2.5) -- with coordinated priorities the
// sharded-then-merged sample equals single-store ingestion to the last
// bit -- is CoordinatedConcurrentIngestMatchesSingleStoreExactly in
// concurrent_sampler_test.cc; with independent priorities the estimates
// stay unbiased.
#include <algorithm>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/concurrent_sampler.h"
#include "ats/core/ht_estimator.h"
#include "ats/core/random.h"
#include "ats/core/shard_routing.h"
#include "ats/util/stats.h"
#include "ats/workload/synthetic.h"

namespace ats {
namespace {

using Item = ConcurrentPrioritySampler::Item;

std::vector<Item> MakeStream(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Item> out(n);
  uint64_t key = 0;
  for (auto& item : out) {
    item.key = key++;
    item.weight = std::exp(0.5 * rng.NextGaussian());
  }
  return out;
}

std::vector<std::pair<double, uint64_t>> SortedSample(
    const std::vector<SampleEntry>& sample) {
  std::vector<std::pair<double, uint64_t>> out;
  out.reserve(sample.size());
  for (const auto& e : sample) out.emplace_back(e.priority, e.key);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ShardedIngest, ScalarAndBatchedIngestAgree) {
  const auto stream = MakeStream(5000, 13);
  ConcurrentPrioritySampler scalar(4, 64), batched(4, 64);
  for (const auto& item : stream) scalar.Add(item);
  batched.AddBatch(stream);
  EXPECT_DOUBLE_EQ(batched.MergedThreshold(), scalar.MergedThreshold());
  EXPECT_EQ(SortedSample(batched.Sample()), SortedSample(scalar.Sample()));
}

TEST(ShardedIngest, ShardsPartitionTheKeySpace) {
  // Hand-routed reference: shard s holds the keys whose salted hash maps
  // to s, in a PrioritySampler seeded seed + s * kShardSeedStride.
  const size_t num_shards = 8, k = 32;
  const uint64_t seed = 1;
  ConcurrentPrioritySampler conc(num_shards, k);
  std::vector<PrioritySampler> shards;
  for (size_t s = 0; s < num_shards; ++s) {
    shards.emplace_back(k, seed + internal::kShardSeedStride * s,
                        /*coordinated=*/true);
  }
  const auto stream = MakeStream(4000, 17);
  conc.AddBatch(stream);
  for (const Item& item : stream) {
    const size_t s = static_cast<size_t>(
        HashKey(item.key, internal::kShardRouteSalt) % num_shards);
    ASSERT_EQ(conc.ShardOf(item.key), s);
    shards[s].Add(item.key, item.weight);
  }
  // Each retained key lives in exactly one shard, and the front-end
  // retains exactly what the hand-routed shards do.
  std::set<uint64_t> seen;
  size_t retained = 0;
  for (const PrioritySampler& shard : shards) {
    retained += shard.size();
    for (const auto& e : shard.Sample()) {
      EXPECT_TRUE(seen.insert(e.key).second) << "key in two shards";
    }
  }
  EXPECT_EQ(conc.TotalRetained(), retained);
  EXPECT_EQ(seen.size(), retained);
  for (const auto& e : conc.Sample()) EXPECT_EQ(seen.count(e.key), 1u);
}

TEST(ShardedIngest, MergedSampleSizeIsK) {
  const size_t k = 50;
  ConcurrentPrioritySampler conc(4, k);
  const auto stream = MakeStream(10000, 19);
  conc.AddBatch(stream);
  EXPECT_EQ(conc.Sample().size(), k);
  // Per-shard stores hold up to k each; the merge re-caps at k.
  EXPECT_GE(conc.TotalRetained(), k);
}

TEST(ShardedIngest, IndependentModeHtTotalIsUnbiased) {
  const auto population = MakeWeightedPopulation(600, 23, true);
  double truth = 0.0;
  std::vector<Item> stream;
  for (const auto& it : population) {
    truth += it.weight;
    stream.push_back({it.key, it.weight});
  }

  RunningStat estimates;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    ConcurrentPrioritySampler conc(4, 40, /*coordinated=*/false,
                                   /*seed=*/1000 + static_cast<uint64_t>(t));
    conc.AddBatch(stream);
    estimates.Add(HtTotal(conc.Sample()));
  }
  const double se = estimates.StdDev() / std::sqrt(double(trials));
  EXPECT_NEAR(estimates.mean(), truth, 4.0 * se + 1e-9);
}

TEST(ShardedIngest, ParallelShardIngestMatchesSequential) {
  // Pre-partition the stream and feed each shard from its own thread via
  // AddShardBatch; the result must equal sequential AddBatch ingestion.
  const auto stream = MakeStream(8000, 27);
  const size_t num_shards = 4;
  ConcurrentPrioritySampler sequential(num_shards, 64),
      parallel(num_shards, 64);
  sequential.AddBatch(stream);

  std::vector<std::vector<Item>> parts(num_shards);
  for (const auto& item : stream) {
    parts[parallel.ShardOf(item.key)].push_back(item);
  }
  std::vector<std::thread> workers;
  for (size_t s = 0; s < num_shards; ++s) {
    workers.emplace_back(
        [&parallel, &parts, s] { parallel.AddShardBatch(s, parts[s]); });
  }
  for (auto& worker : workers) worker.join();

  EXPECT_DOUBLE_EQ(parallel.MergedThreshold(),
                   sequential.MergedThreshold());
  EXPECT_EQ(SortedSample(parallel.Sample()),
            SortedSample(sequential.Sample()));
}

}  // namespace
}  // namespace ats
