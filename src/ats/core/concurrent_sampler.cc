#include "ats/core/concurrent_sampler.h"

namespace ats {
namespace internal {

// Every MergeShards runs the shard type's k-way MergeMany into a fresh
// k-capacity accumulator (seed 1 for the merged time-axis samplers,
// which never draw a priority), then canonicalizes the result so every
// const accessor on the published snapshot is a pure read -- that is
// what lets any number of reader threads share one snapshot.

PriorityScenario::SnapshotType PriorityScenario::MergeShards(
    const Config& config, std::span<const Shard* const> shards) {
  BottomK<Item> merged(config.k);
  merged.MergeMany(shards, &PrioritySampler::sketch);
  merged.store().Canonicalize();
  return merged;
}

KmvScenario::SnapshotType KmvScenario::MergeShards(
    const Config& config, std::span<const Shard* const> shards) {
  KmvSketch merged(config.k, /*initial_threshold=*/1.0, config.hash_salt);
  merged.MergeMany(shards);
  merged.store().Canonicalize();
  return merged;
}

WindowScenario::SnapshotType WindowScenario::MergeShards(
    const Config& config, std::span<const Shard* const> shards) {
  SlidingWindowSampler merged(config.k, config.window, /*seed=*/1);
  merged.MergeMany(shards);
  return merged;
}

DecayScenario::SnapshotType DecayScenario::MergeShards(
    const Config& config, std::span<const Shard* const> shards) {
  TimeDecaySampler merged(config.k, /*seed=*/1);
  merged.MergeMany(shards);
  // Canonicalize through the threshold accessor: TimeDecaySampler does
  // not expose its store mutably, and the threshold read compacts it.
  merged.LogKeyThreshold();
  return merged;
}

}  // namespace internal

template class ConcurrentSampler<internal::PriorityScenario>;
template class ConcurrentSampler<internal::KmvScenario>;
template class ConcurrentSampler<internal::WindowScenario>;
template class ConcurrentSampler<internal::DecayScenario>;

}  // namespace ats
