// A sequential, hand-routed sharded sliding window: the reference that
// the tests and the window-dashboard benchmark compare
// ConcurrentWindowSampler (core/concurrent_sampler.h) against.
//
// It routes each arrival to one of S SlidingWindowSampler shards with
// the front-end's salt and seeds shard s with seed + s * kShardSeedStride,
// but shares none of the front-end's code: no locks, no snapshot, no
// epoch cache. Every query merges the shards afresh with MergeMany into
// a (k, window, seed 1) sampler. Single-threaded; arrival times must be
// non-decreasing.
#ifndef ATS_SAMPLERS_SHARDED_TIME_AXIS_H_
#define ATS_SAMPLERS_SHARDED_TIME_AXIS_H_

#include <cstdint>
#include <vector>

#include "ats/core/random.h"
#include "ats/core/shard_routing.h"
#include "ats/core/threshold.h"
#include "ats/samplers/sliding_window.h"

namespace ats {

class ShardedWindowSampler {
 public:
  ShardedWindowSampler(size_t num_shards, size_t k, double window,
                       uint64_t seed = 1)
      : k_(k), window_(window) {
    for (size_t s = 0; s < num_shards; ++s) {
      shards_.emplace_back(k, window, seed + internal::kShardSeedStride * s);
    }
  }

  bool Arrive(double time, uint64_t id) {
    const uint64_t h = HashKey(id, internal::kTimeAxisRouteSalt);
    return shards_[h % shards_.size()].Arrive(time, id);
  }

  double ImprovedThreshold(double now) const {
    return Merged().ImprovedThreshold(now);
  }
  double GlThreshold(double now) const { return Merged().GlThreshold(now); }
  std::vector<SampleEntry> ImprovedSample(double now) const {
    return Merged().ImprovedSample(now);
  }
  std::vector<SampleEntry> GlSample(double now) const {
    return Merged().GlSample(now);
  }
  size_t MergedStoredCount(double now) const {
    return Merged().StoredCount(now);
  }

  size_t num_shards() const { return shards_.size(); }
  const SlidingWindowSampler& shard(size_t i) const { return shards_[i]; }

 private:
  SlidingWindowSampler Merged() const {
    SlidingWindowSampler merged(k_, window_, /*seed=*/1);
    std::vector<const SlidingWindowSampler*> inputs;
    for (const SlidingWindowSampler& shard : shards_) inputs.push_back(&shard);
    merged.MergeMany(inputs);
    return merged;
  }

  size_t k_;
  double window_;
  std::vector<SlidingWindowSampler> shards_;
};

}  // namespace ats

#endif  // ATS_SAMPLERS_SHARDED_TIME_AXIS_H_
