// The sharded ingestion front-end (Section 2.5): internally thread-safe
// streaming samplers with striped shard locks and epoch-snapshot queries.
//
// ConcurrentSampler<Scenario> owns S shards -- each an ordinary
// full-capacity sampler over a disjoint hash partition of the key space
// -- and offers one write path plus one read protocol. It is the
// library's only sharded front-end; the four public names at the bottom
// (ConcurrentPrioritySampler, ConcurrentKmvSketch,
// ConcurrentWindowSampler, ConcurrentDecaySampler) are aliases of it.
//
// Why sharding is exact. With coordinated (hash-derived) priorities the
// per-shard streams are disjoint, so every one of the global bottom-k
// priorities is among its own shard's bottom-k, and the merge threshold
// (min of the shard thresholds and the merge evictions) recovers the
// global (k+1)-th smallest priority: the merged sample and threshold are
// EXACTLY those of one k-capacity store fed the whole stream, and
// substitutability (Theorem 6) lets the plain HT estimators use the
// merged threshold unchanged. With independent priorities the merged
// sample is a valid bottom-k sample (unbiased HT estimates), just not
// bit-identical to a particular single-store run.
//
// Write path (Add / AddBatch / AddShardBatch). An ingest call
// partitions its batch into per-shard runs, takes each touched shard's
// stripe lock, feeds the run through the shard's batched ingest path
// (the fused hash->priority->pre-filter pipeline of sample_store.h),
// and release-publishes the shard's mutation epoch into a per-shard
// atomic slot (PublishedEpochs). Distinct shards never contend; two
// writers hitting the same shard serialize only for that run. Shard
// state is always current, so TotalRetained and footprint reads need no
// reconciliation.
//
// Reader protocol. A query loads the current snapshot pointer -- a raw
// std::atomic<const SnapshotState*>, genuinely lock-free (statically
// asserted; std::atomic<std::shared_ptr> is NOT: libstdc++ implements
// it with a per-object lock, and its atomic free functions with a
// shared mutex pool) -- and validates it against the published shard
// epochs with acquire loads. On a clean cache the whole read is the
// pointer load, a refcount upgrade through enable_shared_from_this, and
// O(S) atomic compares: no lock is ever acquired (the lock-counting
// probe and the TSan suite pin this), so clean reads never block
// writers and writers never block reads. When an epoch moved, ONE
// reader rebuilds (a rebuild mutex serializes rebuilders only): it
// copies each shard under that shard's lock -- a writer waits at most
// the O(k) copy of its own shard, never the merge -- runs the
// scenario's k-way merge over the copies, canonicalizes, and
// publishes the new snapshot. Retired snapshots park in a graveyard
// that is reclaimed only when a seq_cst reader-in-flight counter reads
// zero, so a reader that already loaded the raw pointer can always
// finish its refcount upgrade safely.
//
// Snapshot semantics. Because the per-shard streams are disjoint key
// partitions, any snapshot is a valid merged sample of a stream the
// system actually ingested -- "epoch consistency". With coordinated
// (hash-derived) priorities the snapshot taken after writers quiesce is
// EXACTLY the single-store sample of the concatenated stream (the
// argument above), which the concurrent-equivalence differential tests
// pin down.
//
// Time-axis scenarios (window, decay) need non-decreasing arrival times
// per shard, so several writers feeding ONE such sampler must own
// disjoint shards (AddShardBatch, each in its own time order). For
// writers whose streams overlap in key space, give each writer its own
// sequential SlidingWindowSampler / TimeDecaySampler and combine them
// with MergeMany at query time -- the same mergeable-sample algebra the
// cluster tier relies on.
//
// Scenarios. The template is instantiated for every sampling scenario
// in the library through small trait structs (routing key, per-shard
// ingest, epoch accessor, k-way merge). Each trait also carries a CRTP
// query block -- the scenario's one-line queries over Snapshot(), such
// as the priority scenario's Merged() -- that the template inherits.
#ifndef ATS_CORE_CONCURRENT_SAMPLER_H_
#define ATS_CORE_CONCURRENT_SAMPLER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "ats/core/epoch_cache.h"
#include "ats/core/random.h"
#include "ats/core/shard_routing.h"
#include "ats/core/bottom_k.h"
#include "ats/core/threshold.h"
#include "ats/samplers/sliding_window.h"
#include "ats/samplers/time_decay.h"
#include "ats/sketch/kmv.h"
#include "ats/util/check.h"

namespace ats {

namespace internal {

/// lock_guard that counts the acquisition. Every mutex acquisition in
/// the sharded front-end goes through this, so the clean-read probe test
/// can assert that a clean Snapshot() acquires NOTHING.
class CountedLockGuard {
 public:
  CountedLockGuard(std::mutex& mu, std::atomic<uint64_t>& counter)
      : lock_(mu) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::lock_guard<std::mutex> lock_;
};

}  // namespace internal

/// Generic internally thread-safe sharded front-end. `Scenario` is a
/// trait struct binding the template to one sampling scheme:
///
///   struct Scenario {
///     using Shard = ...;         // per-shard sampler (copyable)
///     using Item = ...;          // one ingest record
///     using SnapshotType = ...;  // merged snapshot type
///     struct Config {...};       // k first, later fields defaulted
///     template <typename Derived> class Queries;  // CRTP query block
///     static constexpr uint64_t kRouteSalt;           // shard routing
///     static Shard MakeShard(const Config&, size_t shard);
///     static uint64_t RouteKey(const Item&);
///     static size_t Ingest(Shard&, std::span<const Item>);
///     static uint64_t Epoch(const Shard&);  // O(1), non-canonicalizing
///     static SnapshotType MergeShards(const Config&,
///                                     std::span<const Shard* const>);
///     static size_t Retained(const Shard&);  // optional
///   };
///
/// Thread-safety contract (every public method, the inherited queries
/// included, unless noted): safe to call from any number of threads
/// concurrently with any other method.
template <typename Scenario>
class ConcurrentSampler
    : public Scenario::template Queries<ConcurrentSampler<Scenario>> {
 public:
  using Config = typename Scenario::Config;
  using Item = typename Scenario::Item;
  using Shard = typename Scenario::Shard;
  using SnapshotType = typename Scenario::SnapshotType;

  /// Builds `num_shards` independent shard samplers from the `Config`
  /// fields (`k` first; the rest default). The shard constructors check
  /// the fields (k >= 1; window > 0 for the window). Construction itself
  /// is single-threaded (the object may be shared across threads once
  /// the constructor returns).
  template <typename... Fields>
  explicit ConcurrentSampler(size_t num_shards, Fields&&... fields)
      : config_(std::forward<Fields>(fields)...), published_(num_shards) {
    ATS_CHECK(num_shards >= 1);
    shards_.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      shards_.push_back(
          std::make_unique<ShardSlot>(Scenario::MakeShard(config_, s)));
      published_.Publish(s, Scenario::Epoch(shards_.back()->sampler));
    }
  }

  /// Shard index for a routing key. Pure function of immutable state --
  /// safe from any thread, never blocks.
  size_t ShardOf(uint64_t key) const {
    return static_cast<size_t>(HashKey(key, Scenario::kRouteSalt) %
                               shards_.size());
  }

  /// Routes one item to its shard and ingests it under that shard's
  /// lock. Returns the number of accepted items (0 or 1).
  size_t Add(const Item& item) {
    return AddShardBatch(ShardOf(Scenario::RouteKey(item)),
                         std::span<const Item>(&item, 1));
  }

  /// Routed batched ingest: partitions the batch into per-shard runs
  /// (order-preserving), then ingests each run under its shard's lock.
  /// Writers touching disjoint shards proceed in parallel; two writers
  /// hitting the same shard serialize per run. The partition scratch is
  /// thread-local and reused across calls -- steady state performs no
  /// allocation. Returns the number of accepted items.
  size_t AddBatch(std::span<const Item> items) {
    if (shards_.size() == 1) return AddShardBatch(0, items);
    // Per-thread routing scratch, grown to the largest shard count this
    // thread has routed for and retained until thread exit. `touched`
    // lists exactly the runs left non-empty by the previous call, so
    // clearing is O(touched), not O(S).
    static thread_local std::vector<std::vector<Item>> runs;
    static thread_local std::vector<uint32_t> touched;
    if (runs.size() < shards_.size()) runs.resize(shards_.size());
    for (const uint32_t s : touched) runs[s].clear();
    touched.clear();
    for (const Item& item : items) {
      const size_t s = ShardOf(Scenario::RouteKey(item));
      if (runs[s].empty()) touched.push_back(static_cast<uint32_t>(s));
      runs[s].push_back(item);
    }
    size_t accepted = 0;
    for (const uint32_t s : touched) {
      accepted += AddShardBatch(s, runs[s]);
    }
    return accepted;
  }

  /// Feeds a pre-partitioned run straight into one shard under its lock
  /// (the per-thread shard-ownership entry point: S writer threads that
  /// partition upstream never contend at all). Every item must route to
  /// `shard` (checked in debug builds). Returns the accepted count.
  size_t AddShardBatch(size_t shard, std::span<const Item> items) {
    ATS_CHECK(shard < shards_.size());
#ifndef NDEBUG
    for (const Item& item : items) {
      ATS_DCHECK(ShardOf(Scenario::RouteKey(item)) == shard);
    }
#endif
    ShardSlot& slot = *shards_[shard];
    internal::CountedLockGuard lock(slot.mu, lock_acquisitions_);
    const size_t accepted = Scenario::Ingest(slot.sampler, items);
    published_.Publish(shard, Scenario::Epoch(slot.sampler));
    return accepted;
  }

  /// The merged snapshot. Clean cache (no shard epoch moved since the
  /// cached snapshot was built): a lock-free raw atomic pointer load, a
  /// refcount upgrade, and O(S) atomic epoch compares -- NO lock
  /// acquisition (asserted by the lock-counting probe test), so clean
  /// reads never block writers. Dirty cache: one reader rebuilds (copy
  /// each shard under its lock, merge the copies lock-free, publish)
  /// while other readers wait on the rebuild mutex only. The returned
  /// snapshot is immutable and canonicalized: every const accessor on
  /// it is a pure read, so any number of threads may query one snapshot
  /// concurrently. It stays valid (and internally consistent) for as
  /// long as the pointer is held, no matter how much ingest happens
  /// after.
  std::shared_ptr<const SnapshotType> Snapshot() const {
    auto state = AcquireSnapshot();
    if (state == nullptr || !published_.Matches(state->epochs)) {
      state = RebuildSnapshot();
    }
    // Aliasing pointer: shares ownership of the whole snapshot state,
    // points at the merged sampler inside it.
    return std::shared_ptr<const SnapshotType>(state, &state->merged);
  }

  /// Total items currently retained across the shards (>= the merged
  /// sample size; the merge re-caps at k). Takes each shard's lock in
  /// turn, so the total is a sum of per-shard instants, not one global
  /// instant.
  size_t TotalRetained() const
    requires requires(const Shard& s) { Scenario::Retained(s); }
  {
    size_t total = 0;
    for (const auto& slot : shards_) {
      internal::CountedLockGuard lock(slot->mu, lock_acquisitions_);
      total += Scenario::Retained(slot->sampler);
    }
    return total;
  }

  size_t num_shards() const { return shards_.size(); }
  const Config& config() const { return config_; }

  /// Live heap bytes across the shard slots plus the currently
  /// published snapshot (util/memory.h convention). Takes each shard's
  /// lock in turn -- like TotalRetained, the total is a sum of
  /// per-shard instants, not one global instant. Thread-safe like every
  /// other public method.
  size_t MemoryFootprint() const {
    size_t total = shards_.size() * sizeof(ShardSlot);
    for (const auto& slot : shards_) {
      internal::CountedLockGuard lock(slot->mu, lock_acquisitions_);
      total += slot->sampler.MemoryFootprint();
    }
    const auto state = AcquireSnapshot();
    if (state != nullptr) {
      total += state->merged.MemoryFootprint() +
               state->epochs.size() * sizeof(uint64_t);
    }
    return total;
  }

  // --- Introspection probes (tests) ------------------------------------

  /// Total mutex acquisitions ever performed by this sampler, across
  /// every path (shard stripes, rebuild). The clean-read probe
  /// test asserts this does not move across clean Snapshot() calls.
  uint64_t LockAcquisitionsForTest() const {
    return lock_acquisitions_.load(std::memory_order_relaxed);
  }

  /// Runtime confirmation that the snapshot publication pointer is
  /// lock-free on this platform (the static_assert below pins the
  /// platforms we compile for; this is the belt to that suspender).
  bool SnapshotPublicationIsLockFree() const {
    return current_.is_lock_free() && readers_in_flight_.is_lock_free();
  }

 private:
  /// One shard behind its stripe lock. Heap-allocated (stable address,
  /// std::mutex is immovable) and cache-line aligned so two shards'
  /// lock words never share a line.
  struct alignas(64) ShardSlot {
    explicit ShardSlot(Shard s) : sampler(std::move(s)) {}
    mutable std::mutex mu;
    Shard sampler;
  };

  /// An immutable published snapshot: the merged sampler plus the
  /// shard-epoch vector it was built at (the validation token).
  /// enable_shared_from_this is what lets a reader upgrade the raw
  /// published pointer back to shared ownership without any
  /// atomic<shared_ptr> machinery.
  struct SnapshotState : std::enable_shared_from_this<SnapshotState> {
    SnapshotState(SnapshotType m, std::vector<uint64_t> e)
        : merged(std::move(m)), epochs(std::move(e)) {}
    SnapshotType merged;
    std::vector<uint64_t> epochs;
  };

  // The publication scheme exists to fix the non-lock-free
  // atomic<shared_ptr>; it had better be lock-free itself.
  static_assert(std::atomic<const SnapshotState*>::is_always_lock_free,
                "snapshot publication must be lock-free");
  static_assert(std::atomic<uint64_t>::is_always_lock_free,
                "epoch publication must be lock-free");

  /// Lock-free snapshot acquisition: announce the read (seq_cst), load
  /// the raw pointer (seq_cst), upgrade to shared ownership, retract.
  /// The seq_cst store-load pairing with PublishCurrent/TryReclaim is
  /// what makes the upgrade safe: a reclaimer that observed zero
  /// readers in flight is guaranteed (in the single total order) that
  /// any later reader's pointer load sees the CURRENT snapshot, never
  /// a graveyard entry -- so no reader ever upgrades a pointer whose
  /// control block could be mid-destruction.
  std::shared_ptr<const SnapshotState> AcquireSnapshot() const {
    readers_in_flight_.fetch_add(1, std::memory_order_seq_cst);
    const SnapshotState* raw = current_.load(std::memory_order_seq_cst);
    std::shared_ptr<const SnapshotState> state;
    if (raw != nullptr) state = raw->weak_from_this().lock();
    readers_in_flight_.fetch_sub(1, std::memory_order_release);
    return state;
  }

  std::shared_ptr<const SnapshotState> RebuildSnapshot() const {
    internal::CountedLockGuard rebuild(rebuild_mu_, lock_acquisitions_);
    // Double-check under the rebuild lock: another reader may have
    // published a fresh snapshot while this one waited.
    if (current_owner_ != nullptr &&
        published_.Matches(current_owner_->epochs)) {
      return current_owner_;
    }
    TryReclaimRetired();
    std::vector<Shard> copies;
    copies.reserve(shards_.size());
    std::vector<uint64_t> epochs;
    epochs.reserve(shards_.size());
    // Copy each shard under its own lock -- a writer is blocked at most
    // for the O(k) copy of its shard, never for the merge -- recording
    // the epoch the copy is consistent with.
    for (const auto& slot : shards_) {
      internal::CountedLockGuard lock(slot->mu, lock_acquisitions_);
      epochs.push_back(Scenario::Epoch(slot->sampler));
      copies.push_back(slot->sampler);
    }
    // Merge the copies lock-free through the scenario's MergeMany (the
    // threshold-pruned k-way engine for the keyed and decayed scenarios,
    // the windowed chain's merge engine for the window), then publish.
    std::vector<const Shard*> inputs;
    inputs.reserve(copies.size());
    for (const Shard& copy : copies) inputs.push_back(&copy);
    auto next = std::make_shared<SnapshotState>(
        Scenario::MergeShards(config_, inputs), std::move(epochs));
    PublishCurrent(next);
    return next;
  }

  /// Publishes `next` as the current snapshot. Requires rebuild_mu_.
  /// The displaced snapshot parks in the graveyard until no reader is
  /// mid-acquisition (see AcquireSnapshot for the seq_cst argument).
  void PublishCurrent(std::shared_ptr<const SnapshotState> next) const {
    if (current_owner_ != nullptr) {
      graveyard_.push_back(std::move(current_owner_));
    }
    current_owner_ = std::move(next);
    current_.store(current_owner_.get(), std::memory_order_seq_cst);
    TryReclaimRetired();
  }

  /// Drops graveyard references when no reader is between its
  /// in-flight announcement and its pointer upgrade. Requires
  /// rebuild_mu_ (graveyard entries are non-current by construction,
  /// so a reader observed NOT in flight can only ever load the current
  /// snapshot). The graveyard grows only while readers are
  /// continuously mid-acquisition across rebuilds, which bounds it by
  /// the rebuild rate, not the read rate.
  void TryReclaimRetired() const {
    if (!graveyard_.empty() &&
        readers_in_flight_.load(std::memory_order_seq_cst) == 0) {
      graveyard_.clear();
    }
  }

  Config config_;
  std::vector<std::unique_ptr<ShardSlot>> shards_;
  /// Per-shard atomic epochs (the lock-free cache validation); see
  /// epoch_cache.h.
  PublishedEpochs published_;
  /// Serializes snapshot rebuilds (readers only; writers never take it).
  mutable std::mutex rebuild_mu_;
  /// The lock-free publication pair: the raw current-snapshot pointer
  /// and the reader-in-flight counter (see AcquireSnapshot).
  mutable std::atomic<const SnapshotState*> current_{nullptr};
  mutable std::atomic<uint64_t> readers_in_flight_{0};
  /// Owning reference to the current snapshot and the retired ones a
  /// mid-acquisition reader might still upgrade. Guarded by rebuild_mu_.
  mutable std::shared_ptr<const SnapshotState> current_owner_;
  mutable std::vector<std::shared_ptr<const SnapshotState>> graveyard_;
  /// Every mutex acquisition anywhere in this sampler (probe).
  mutable std::atomic<uint64_t> lock_acquisitions_{0};
};

namespace internal {

/// The current snapshot of the front-end whose query block is `block`
/// (the scenarios' CRTP query blocks read through this).
template <typename Derived, typename Block>
auto SnapshotOf(const Block* block) {
  return static_cast<const Derived*>(block)->Snapshot();
}

/// Scenario: weighted bottom-k priority sampling. With coordinated
/// priorities (the default) the merged snapshot after writers quiesce is
/// EXACTLY the single-store sample of the concatenated stream; `seed`
/// drives the per-shard RNGs in independent mode.
struct PriorityScenario {
  struct Config {
    size_t k;
    bool coordinated = true;
    uint64_t seed = 1;
  };
  using Shard = PrioritySampler;
  using Item = PrioritySampler::Item;
  using SnapshotType = BottomK<Item>;
  static constexpr uint64_t kRouteSalt = kShardRouteSalt;
  static Shard MakeShard(const Config& config, size_t shard) {
    return PrioritySampler(config.k,
                           config.seed + kShardSeedStride * shard,
                           config.coordinated);
  }
  static uint64_t RouteKey(const Item& item) { return item.key; }
  static size_t Ingest(Shard& shard, std::span<const Item> items) {
    return shard.AddBatch(items);
  }
  static uint64_t Epoch(const Shard& shard) {
    return shard.sketch().store().mutation_epoch();
  }
  static size_t Retained(const Shard& shard) { return shard.size(); }
  static SnapshotType MergeShards(const Config& config,
                                  std::span<const Shard* const> shards);

  /// Queries, each on one snapshot.
  template <typename Derived>
  class Queries {
   public:
    /// Sample and threshold together (one snapshot for both).
    struct MergedSample {
      std::vector<SampleEntry> entries;
      double threshold;
    };
    MergedSample Merged() const {
      const auto snapshot = SnapshotOf<Derived>(this);
      return {MakeWeightedSample(snapshot->store()), snapshot->Threshold()};
    }
    /// Merged sample with inclusion probabilities at the merged threshold.
    std::vector<SampleEntry> Sample() const {
      return MakeWeightedSample(SnapshotOf<Derived>(this)->store());
    }
    /// The merged adaptive threshold (the global (k+1)-th smallest
    /// priority in coordinated mode).
    double MergedThreshold() const {
      return SnapshotOf<Derived>(this)->Threshold();
    }
  };
};

/// Scenario: KMV/Theta distinct counting. Every shard hashes with the
/// SAME salt (coordinated by construction), so the merged union is
/// exactly the single-sketch union of the concatenated key stream.
struct KmvScenario {
  struct Config {
    size_t k;
    uint64_t hash_salt = 0;
  };
  using Shard = KmvSketch;
  using Item = uint64_t;
  using SnapshotType = KmvSketch;
  static constexpr uint64_t kRouteSalt = kShardRouteSalt;
  static Shard MakeShard(const Config& config, size_t /*shard*/) {
    return KmvSketch(config.k, /*initial_threshold=*/1.0,
                     config.hash_salt);
  }
  static uint64_t RouteKey(uint64_t key) { return key; }
  static size_t Ingest(Shard& shard, std::span<const uint64_t> keys) {
    return shard.AddKeys(keys);
  }
  static uint64_t Epoch(const Shard& shard) {
    return shard.store().mutation_epoch();
  }
  static size_t Retained(const Shard& shard) { return shard.size(); }
  static SnapshotType MergeShards(const Config& config,
                                  std::span<const Shard* const> shards);

  /// Queries, each on one snapshot.
  template <typename Derived>
  class Queries {
   public:
    /// Unbiased distinct-count estimate.
    double Estimate() const { return SnapshotOf<Derived>(this)->Estimate(); }
    /// Merged threshold theta.
    double Threshold() const {
      return SnapshotOf<Derived>(this)->Threshold();
    }
    /// Retained distinct priorities in the merged sketch.
    size_t MergedSize() const { return SnapshotOf<Derived>(this)->size(); }
  };
};

/// Scenario: sliding-window sampling. Per shard, arrival times must be
/// non-decreasing. That means: one routing writer, or several writers
/// owning disjoint shards (AddShardBatch) each in time order -- two
/// routed writers interleave whole runs per shard and can hand a shard
/// out-of-order times (tolerated silently; the sample would be quietly
/// biased). Writers whose streams share shards each keep their own
/// sequential sampler instead, merged with MergeMany at query time (see
/// the file header).
struct WindowScenario {
  struct Config {
    size_t k;
    double window;
    uint64_t seed = 1;
  };
  struct Arrival {
    double time;
    uint64_t id;
  };
  using Shard = SlidingWindowSampler;
  using Item = Arrival;
  using SnapshotType = SlidingWindowSampler;
  static constexpr uint64_t kRouteSalt = kTimeAxisRouteSalt;
  static Shard MakeShard(const Config& config, size_t shard) {
    return SlidingWindowSampler(config.k, config.window,
                                config.seed + kShardSeedStride * shard);
  }
  static uint64_t RouteKey(const Arrival& arrival) { return arrival.id; }
  static size_t Ingest(Shard& shard, std::span<const Arrival> items) {
    size_t stored = 0;
    for (const Arrival& a : items) {
      stored += shard.Arrive(a.time, a.id) ? 1 : 0;
    }
    return stored;
  }
  static uint64_t Epoch(const Shard& shard) {
    return shard.mutation_epoch();
  }
  static SnapshotType MergeShards(const Config& config,
                                  std::span<const Shard* const> shards);

  /// Queries of the merged windowed sample at `now` (>= the times
  /// already ingested). Window queries advance expiry, so each runs on a
  /// private O(k) copy of one snapshot; the shared snapshot is never
  /// mutated.
  template <typename Derived>
  class Queries {
   public:
    using Arrival = WindowScenario::Arrival;
    double ImprovedThreshold(double now) const {
      return Copy().ImprovedThreshold(now);
    }
    double GlThreshold(double now) const { return Copy().GlThreshold(now); }
    std::vector<SampleEntry> ImprovedSample(double now) const {
      return Copy().ImprovedSample(now);
    }
    std::vector<SampleEntry> GlSample(double now) const {
      return Copy().GlSample(now);
    }
    /// Stored items (current + expired) in the merged sampler.
    size_t MergedStoredCount(double now) const {
      return Copy().StoredCount(now);
    }

   private:
    SlidingWindowSampler Copy() const { return *SnapshotOf<Derived>(this); }
  };
};

/// Scenario: time-decayed sampling. Per shard, item times must be
/// non-decreasing -- the same ingest-pattern contract as WindowScenario,
/// with the same two recipes: one routing writer or disjoint shard
/// ownership, or one sequential sampler per writer merged with
/// MergeMany. (The keyed scenarios have no such constraint: any number
/// of routed writers is always valid for bottom-k and KMV.)
struct DecayScenario {
  struct Config {
    size_t k;
    uint64_t seed = 1;
  };
  using Shard = TimeDecaySampler;
  using Item = TimeDecaySampler::TimedItem;
  using SnapshotType = TimeDecaySampler;
  static constexpr uint64_t kRouteSalt = kTimeAxisRouteSalt;
  static Shard MakeShard(const Config& config, size_t shard) {
    return TimeDecaySampler(config.k,
                            config.seed + kShardSeedStride * shard);
  }
  static uint64_t RouteKey(const Item& item) { return item.key; }
  static size_t Ingest(Shard& shard, std::span<const Item> items) {
    return shard.AddBatch(items);
  }
  static uint64_t Epoch(const Shard& shard) {
    return shard.mutation_epoch();
  }
  static size_t Retained(const Shard& shard) { return shard.size(); }
  static SnapshotType MergeShards(const Config& config,
                                  std::span<const Shard* const> shards);

  /// Queries, each on one snapshot; `now` must be >= every ingested
  /// time.
  template <typename Derived>
  class Queries {
   public:
    /// Merged adaptive threshold on the log-key scale.
    double LogKeyThreshold() const {
      return SnapshotOf<Derived>(this)->LogKeyThreshold();
    }
    /// Merged decayed sample evaluated at `now`.
    std::vector<TimeDecaySampler::DecayedEntry> SampleAt(double now) const {
      return SnapshotOf<Derived>(this)->SampleAt(now);
    }
    /// HT estimate of the decayed total at `now`.
    double EstimateDecayedTotal(double now) const {
      return SnapshotOf<Derived>(this)->EstimateDecayedTotal(now);
    }
  };
};

}  // namespace internal

// Instantiated once in concurrent_sampler.cc.
extern template class ConcurrentSampler<internal::PriorityScenario>;
extern template class ConcurrentSampler<internal::KmvScenario>;
extern template class ConcurrentSampler<internal::WindowScenario>;
extern template class ConcurrentSampler<internal::DecayScenario>;

/// Weighted bottom-k (priority sampling): (num_shards, k,
/// coordinated = true, seed = 1).
using ConcurrentPrioritySampler =
    ConcurrentSampler<internal::PriorityScenario>;
/// KMV distinct counting (and, through KMV's theta duality, Theta-style
/// distinct unions): (num_shards, k, hash_salt = 0).
using ConcurrentKmvSketch = ConcurrentSampler<internal::KmvScenario>;
/// Sliding window: (num_shards, k, window, seed = 1).
using ConcurrentWindowSampler = ConcurrentSampler<internal::WindowScenario>;
/// Time decay: (num_shards, k, seed = 1).
using ConcurrentDecaySampler = ConcurrentSampler<internal::DecayScenario>;

}  // namespace ats

#endif  // ATS_CORE_CONCURRENT_SAMPLER_H_
