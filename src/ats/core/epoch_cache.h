// The atomic epoch protocol of the sharded front-end
// (concurrent_sampler.h). A reader polling a shard's mutation_epoch()
// while a writer ingests would be a data race, so writers publish each
// shard's epoch into PublishedEpochs -- an array of per-shard atomics
// updated with release stores after every locked mutation -- and
// readers poll it with acquire loads to validate a cached snapshot
// without touching any shard lock: a snapshot is clean while every
// published epoch still matches the vector recorded at build time.
#ifndef ATS_CORE_EPOCH_CACHE_H_
#define ATS_CORE_EPOCH_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ats {

/// One shard's published epoch, padded to its own cache line so adjacent
/// shards' publications never false-share: each writer thread touches
/// only its shard's line on the ingest hot path.
struct alignas(64) PublishedEpochSlot {
  std::atomic<uint64_t> value{0};
};

/// Per-shard epochs published across threads. Writers call Publish with
/// the shard's mutation epoch (read under the shard's lock) after every
/// mutating batch -- a release store, so a reader that observes the new
/// epoch also observes the writes it covers. Readers validate a cached
/// snapshot with Matches (acquire loads): if every published epoch still
/// equals the snapshot's epoch vector, no shard has observably changed
/// since the snapshot was built and the cache may be returned without
/// taking any lock -- this is what keeps clean-cache reads from ever
/// blocking writers.
class PublishedEpochs {
 public:
  explicit PublishedEpochs(size_t num_shards)
      : slots_(std::make_unique<PublishedEpochSlot[]>(num_shards)),
        size_(num_shards) {}

  /// Release-stores shard `i`'s epoch. Call after the mutation, while
  /// still holding (or having just released) the shard's lock.
  void Publish(size_t i, uint64_t epoch) {
    slots_[i].value.store(epoch, std::memory_order_release);
  }

  /// Acquire-loads shard `i`'s last published epoch.
  uint64_t Load(size_t i) const {
    return slots_[i].value.load(std::memory_order_acquire);
  }

  /// True iff every published epoch equals its snapshot entry (the
  /// lock-free cache validation; false on size mismatch).
  bool Matches(const std::vector<uint64_t>& snapshot) const {
    if (snapshot.size() != size_) return false;
    for (size_t i = 0; i < size_; ++i) {
      if (Load(i) != snapshot[i]) return false;
    }
    return true;
  }

  size_t size() const { return size_; }

 private:
  std::unique_ptr<PublishedEpochSlot[]> slots_;
  size_t size_;
};

}  // namespace ats

#endif  // ATS_CORE_EPOCH_CACHE_H_
