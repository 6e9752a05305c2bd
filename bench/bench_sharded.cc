// Ingest-scaling benchmarks for the unified SampleStore core (google-
// benchmark): scalar Offer vs. the pre-filtered OfferBatch hot path, and
// the single-store sampler vs. the sharded front-end.
//
//   ./build/bench/bench_sharded
//   ./build/bench/bench_sharded --json=BENCH_sharded.json
//
// The headline comparisons:
//   * BM_StoreOffer vs BM_StoreOfferBatch  -- same stream, same final
//     state; the batch path block-filters rejects against the acceptance
//     bound without touching the compaction buffer or payload column.
//   * BM_SamplerAdd vs BM_SamplerAddBatch vs BM_ShardedAddBatch/S --
//     the sharded front-end (ConcurrentPrioritySampler) partitions work
//     across S independent stores, each behind its own lock (the
//     single-process proxy for S ingest threads/nodes).
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_json_main.h"

#include "ats/core/bottom_k.h"
#include "ats/core/concurrent_sampler.h"
#include "ats/core/random.h"
#include "ats/core/sample_store.h"

namespace ats {
namespace {

constexpr size_t kStreamLen = 1 << 17;

std::vector<double> MakePriorities(uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> out(kStreamLen);
  for (double& p : out) p = rng.NextDoubleOpenZero();
  return out;
}

std::vector<uint64_t> MakeIds() {
  std::vector<uint64_t> out(kStreamLen);
  for (size_t i = 0; i < out.size(); ++i) out[i] = i;
  return out;
}

std::vector<ConcurrentPrioritySampler::Item> MakeItems(uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<ConcurrentPrioritySampler::Item> out(kStreamLen);
  uint64_t key = 0;
  for (auto& item : out) {
    item.key = key++;
    item.weight = 1.0 + rng.NextDouble();
  }
  return out;
}

// --- SampleStore: scalar vs batched offers ---------------------------

void BM_StoreOffer(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const auto priorities = MakePriorities(1);
  const auto ids = MakeIds();
  for (auto _ : state) {
    SampleStore<uint64_t> store(k);
    size_t accepted = 0;
    for (size_t i = 0; i < kStreamLen; ++i) {
      accepted += store.Offer(priorities[i], ids[i]) ? 1 : 0;
    }
    benchmark::DoNotOptimize(accepted);
  }
  state.SetItemsProcessed(state.iterations() * kStreamLen);
}
BENCHMARK(BM_StoreOffer)->Arg(64)->Arg(1024)->Arg(16384);

void BM_StoreOfferBatch(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const auto priorities = MakePriorities(1);
  const auto ids = MakeIds();
  for (auto _ : state) {
    SampleStore<uint64_t> store(k);
    const size_t accepted = store.OfferBatch(priorities, ids);
    benchmark::DoNotOptimize(accepted);
  }
  state.SetItemsProcessed(state.iterations() * kStreamLen);
}
BENCHMARK(BM_StoreOfferBatch)->Arg(64)->Arg(1024)->Arg(16384);

// Fused keyed front-end: hash -> unit-interval priority -> block
// pre-filter -> append, all inside the store. The comparison against
// BM_StoreOfferBatch isolates the fused hashing pipeline (the priority
// column never materializes outside a 64-entry block).
void BM_StoreHashedBatchOffer(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const auto keys = MakeIds();
  for (auto _ : state) {
    SampleStore<uint64_t> store(k, /*initial_threshold=*/1.0);
    benchmark::DoNotOptimize(store.HashedBatchOffer(keys, /*hash_salt=*/1));
  }
  state.SetItemsProcessed(state.iterations() * kStreamLen);
}
BENCHMARK(BM_StoreHashedBatchOffer)->Arg(64)->Arg(1024)->Arg(16384);

// --- Weighted sampler: single store, scalar vs batched ----------------

void BM_SamplerAdd(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const auto items = MakeItems(2);
  for (auto _ : state) {
    PrioritySampler sampler(k, /*seed=*/3, /*coordinated=*/true);
    for (const auto& item : items) sampler.Add(item.key, item.weight);
    benchmark::DoNotOptimize(sampler.Threshold());
  }
  state.SetItemsProcessed(state.iterations() * kStreamLen);
}
BENCHMARK(BM_SamplerAdd)->Arg(1024);

void BM_SamplerAddBatch(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const auto items = MakeItems(2);
  for (auto _ : state) {
    PrioritySampler sampler(k, /*seed=*/3, /*coordinated=*/true);
    const size_t retained = sampler.AddBatch(items);
    benchmark::DoNotOptimize(retained);
  }
  state.SetItemsProcessed(state.iterations() * kStreamLen);
}
BENCHMARK(BM_SamplerAddBatch)->Arg(1024);

// --- Sharded front-end: ingest scaling vs the single-store path -------

void BM_ShardedAddBatch(benchmark::State& state) {
  const size_t num_shards = static_cast<size_t>(state.range(0));
  const size_t k = 1024;
  const auto items = MakeItems(2);
  for (auto _ : state) {
    ConcurrentPrioritySampler sharded(num_shards, k);
    const size_t retained = sharded.AddBatch(items);
    benchmark::DoNotOptimize(retained);
  }
  state.SetItemsProcessed(state.iterations() * kStreamLen);
}
BENCHMARK(BM_ShardedAddBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// True parallel ingestion: the stream is pre-partitioned by shard (the
// routing cost is what BM_ShardedAddBatch measures) and S threads feed
// their shards concurrently through AddShardBatch -- each shard owns an
// independent store and lock, so no two writers contend. On a
// multi-core host the wall-clock time drops with S; on a single-core CI
// box this degenerates to the sequential cost plus thread overhead.
void BM_ShardedParallelIngest(benchmark::State& state) {
  const size_t num_shards = static_cast<size_t>(state.range(0));
  const size_t k = 1024;
  const auto items = MakeItems(2);
  ConcurrentPrioritySampler router(num_shards, k);
  std::vector<std::vector<ConcurrentPrioritySampler::Item>> parts(num_shards);
  for (const auto& item : items) {
    parts[router.ShardOf(item.key)].push_back(item);
  }
  for (auto _ : state) {
    ConcurrentPrioritySampler sharded(num_shards, k);
    std::vector<std::thread> workers;
    workers.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      workers.emplace_back(
          [&sharded, &parts, s] { sharded.AddShardBatch(s, parts[s]); });
    }
    for (auto& worker : workers) worker.join();
    benchmark::DoNotOptimize(sharded.TotalRetained());
  }
  state.SetItemsProcessed(state.iterations() * kStreamLen);
}
BENCHMARK(BM_ShardedParallelIngest)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Cost of producing the merged sample/threshold on demand.
void BM_ShardedMergedSample(benchmark::State& state) {
  const size_t num_shards = static_cast<size_t>(state.range(0));
  ConcurrentPrioritySampler sharded(num_shards, 1024);
  const auto items = MakeItems(2);
  sharded.AddBatch(items);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sharded.Sample().size());
  }
}
BENCHMARK(BM_ShardedMergedSample)->Arg(4)->Arg(8);

}  // namespace
}  // namespace ats

ATS_BENCHMARK_JSON_MAIN("BENCH_sharded.json")
