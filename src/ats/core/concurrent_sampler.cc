#include "ats/core/concurrent_sampler.h"

namespace ats {
namespace internal {

// Every MergeShards mirrors its sequential front-end's merge exactly
// (same accumulator construction, same k-way engine, same seed for the
// merged time-axis samplers), then canonicalizes the result so every
// const accessor on the published snapshot is a pure read -- that is
// what lets any number of reader threads share one snapshot.

PriorityScenario::Merged PriorityScenario::MergeShards(
    const Config& config, std::span<const Shard* const> shards) {
  BottomK<Item> merged(config.k);
  std::vector<const BottomK<Item>*> inputs;
  inputs.reserve(shards.size());
  for (const Shard* shard : shards) inputs.push_back(&shard->sketch());
  merged.MergeMany(inputs);
  merged.store().Canonicalize();
  return merged;
}

KmvScenario::Merged KmvScenario::MergeShards(
    const Config& config, std::span<const Shard* const> shards) {
  KmvSketch merged(config.k, /*initial_threshold=*/1.0, config.hash_salt);
  std::vector<const KmvSketch*> inputs;
  inputs.reserve(shards.size());
  for (const Shard* shard : shards) inputs.push_back(shard);
  merged.MergeMany(inputs);
  merged.store().Canonicalize();
  return merged;
}

WindowScenario::Merged WindowScenario::MergeShards(
    const Config& config, std::span<const Shard* const> shards) {
  // Seed 1, matching ShardedWindowSampler::MergedWindow: the merged
  // sampler never draws priorities, but identical construction keeps
  // the concurrent and sequential front-ends bit-equivalent.
  SlidingWindowSampler merged(config.k, config.window, /*seed=*/1);
  std::vector<const SlidingWindowSampler*> inputs;
  inputs.reserve(shards.size());
  for (const Shard* shard : shards) inputs.push_back(shard);
  merged.MergeMany(inputs);
  return merged;
}

DecayScenario::Merged DecayScenario::MergeShards(
    const Config& config, std::span<const Shard* const> shards) {
  TimeDecaySampler merged(config.k, /*seed=*/1);
  std::vector<const TimeDecaySampler*> inputs;
  inputs.reserve(shards.size());
  for (const Shard* shard : shards) inputs.push_back(shard);
  merged.MergeMany(inputs);
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

// --- ConcurrentPrioritySampler -----------------------------------------

ConcurrentPrioritySampler::ConcurrentPrioritySampler(size_t num_shards,
                                                     size_t k,
                                                     bool coordinated,
                                                     uint64_t seed)
    : core_(num_shards, {k, coordinated, seed}) {
  ATS_CHECK(k >= 1);
}

size_t ConcurrentPrioritySampler::ShardOf(uint64_t key) const {
  return core_.ShardOf(key);
}

void ConcurrentPrioritySampler::Add(uint64_t key, double weight) {
  core_.Add(Item{key, weight});
}

size_t ConcurrentPrioritySampler::AddBatch(std::span<const Item> items) {
  return core_.AddBatch(items);
}

size_t ConcurrentPrioritySampler::AddShardBatch(
    size_t shard, std::span<const Item> items) {
  return core_.AddShardBatch(shard, items);
}

ConcurrentPrioritySampler::MergedSample ConcurrentPrioritySampler::Merged()
    const {
  const auto snapshot = core_.Snapshot();
  return {MakeWeightedSample(snapshot->store()), snapshot->Threshold()};
}

std::vector<SampleEntry> ConcurrentPrioritySampler::Sample() const {
  return MakeWeightedSample(core_.Snapshot()->store());
}

double ConcurrentPrioritySampler::MergedThreshold() const {
  return core_.Snapshot()->Threshold();
}

std::shared_ptr<const BottomK<ConcurrentPrioritySampler::Item>>
ConcurrentPrioritySampler::Snapshot() const {
  return core_.Snapshot();
}

size_t ConcurrentPrioritySampler::TotalRetained() const {
  return core_.TotalRetained();
}

// --- ConcurrentKmvSketch -----------------------------------------------

ConcurrentKmvSketch::ConcurrentKmvSketch(size_t num_shards, size_t k,
                                         uint64_t hash_salt)
    : core_(num_shards, {k, hash_salt}) {
  ATS_CHECK(k >= 1);
}

size_t ConcurrentKmvSketch::ShardOf(uint64_t key) const {
  return core_.ShardOf(key);
}

void ConcurrentKmvSketch::AddKey(uint64_t key) { core_.Add(key); }

size_t ConcurrentKmvSketch::AddKeys(std::span<const uint64_t> keys) {
  return core_.AddBatch(keys);
}

size_t ConcurrentKmvSketch::AddShardKeys(size_t shard,
                                         std::span<const uint64_t> keys) {
  return core_.AddShardBatch(shard, keys);
}

double ConcurrentKmvSketch::Estimate() const {
  return core_.Snapshot()->Estimate();
}

double ConcurrentKmvSketch::Threshold() const {
  return core_.Snapshot()->Threshold();
}

size_t ConcurrentKmvSketch::MergedSize() const {
  return core_.Snapshot()->size();
}

std::shared_ptr<const KmvSketch> ConcurrentKmvSketch::Snapshot() const {
  return core_.Snapshot();
}

size_t ConcurrentKmvSketch::TotalRetained() const {
  return core_.TotalRetained();
}

// --- ConcurrentWindowSampler -------------------------------------------

ConcurrentWindowSampler::ConcurrentWindowSampler(size_t num_shards,
                                                 size_t k, double window,
                                                 uint64_t seed)
    : core_(num_shards, {k, window, seed}) {
  ATS_CHECK(k >= 1);
  ATS_CHECK(window > 0.0);
}

size_t ConcurrentWindowSampler::ShardOf(uint64_t id) const {
  return core_.ShardOf(id);
}

bool ConcurrentWindowSampler::Arrive(double time, uint64_t id) {
  return core_.Add(Arrival{time, id}) > 0;
}

size_t ConcurrentWindowSampler::AddBatch(
    std::span<const Arrival> arrivals) {
  return core_.AddBatch(arrivals);
}

size_t ConcurrentWindowSampler::AddShardBatch(
    size_t shard, std::span<const Arrival> arrivals) {
  return core_.AddShardBatch(shard, arrivals);
}

double ConcurrentWindowSampler::ImprovedThreshold(double now) const {
  SlidingWindowSampler merged = *core_.Snapshot();
  return merged.ImprovedThreshold(now);
}

double ConcurrentWindowSampler::GlThreshold(double now) const {
  SlidingWindowSampler merged = *core_.Snapshot();
  return merged.GlThreshold(now);
}

std::vector<SampleEntry> ConcurrentWindowSampler::ImprovedSample(
    double now) const {
  SlidingWindowSampler merged = *core_.Snapshot();
  return merged.ImprovedSample(now);
}

std::vector<SampleEntry> ConcurrentWindowSampler::GlSample(
    double now) const {
  SlidingWindowSampler merged = *core_.Snapshot();
  return merged.GlSample(now);
}

size_t ConcurrentWindowSampler::MergedStoredCount(double now) const {
  SlidingWindowSampler merged = *core_.Snapshot();
  return merged.StoredCount(now);
}

std::shared_ptr<const SlidingWindowSampler>
ConcurrentWindowSampler::Snapshot() const {
  return core_.Snapshot();
}

// --- ConcurrentDecaySampler --------------------------------------------

ConcurrentDecaySampler::ConcurrentDecaySampler(size_t num_shards, size_t k,
                                               uint64_t seed)
    : core_(num_shards, {k, seed}) {
  ATS_CHECK(k >= 1);
}

size_t ConcurrentDecaySampler::ShardOf(uint64_t key) const {
  return core_.ShardOf(key);
}

bool ConcurrentDecaySampler::Add(uint64_t key, double weight, double value,
                                 double time) {
  return core_.Add(TimedItem{key, weight, value, time}) > 0;
}

size_t ConcurrentDecaySampler::AddBatch(std::span<const TimedItem> items) {
  return core_.AddBatch(items);
}

size_t ConcurrentDecaySampler::AddShardBatch(
    size_t shard, std::span<const TimedItem> items) {
  return core_.AddShardBatch(shard, items);
}

double ConcurrentDecaySampler::LogKeyThreshold() const {
  return core_.Snapshot()->LogKeyThreshold();
}

std::vector<TimeDecaySampler::DecayedEntry> ConcurrentDecaySampler::SampleAt(
    double now) const {
  return core_.Snapshot()->SampleAt(now);
}

double ConcurrentDecaySampler::EstimateDecayedTotal(double now) const {
  return core_.Snapshot()->EstimateDecayedTotal(now);
}

std::shared_ptr<const TimeDecaySampler> ConcurrentDecaySampler::Snapshot()
    const {
  return core_.Snapshot();
}

size_t ConcurrentDecaySampler::TotalRetained() const {
  return core_.TotalRetained();
}

}  // namespace ats
