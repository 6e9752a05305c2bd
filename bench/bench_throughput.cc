// Engineering microbenchmarks: update throughput of every sampler and
// sketch in the library (google-benchmark).
#include <cmath>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_json_main.h"

#include "ats/baselines/frequent_items.h"
#include "ats/baselines/reservoir.h"
#include "ats/baselines/varopt.h"
#include "ats/baselines/space_saving.h"
#include "ats/core/bottom_k.h"
#include "ats/core/sample_store.h"
#include "ats/samplers/budget_sampler.h"
#include "ats/samplers/sliding_window.h"
#include "ats/samplers/time_decay.h"
#include "ats/samplers/topk_sampler.h"
#include "ats/sketch/group_distinct.h"
#include "ats/sketch/kmv.h"
#include "ats/workload/zipf.h"

namespace ats {
namespace {

void BM_PrioritySamplerAdd(benchmark::State& state) {
  PrioritySampler sampler(static_cast<size_t>(state.range(0)), 1);
  Xoshiro256 rng(2);
  uint64_t key = 0;
  for (auto _ : state) {
    sampler.Add(key++, 1.0 + rng.NextDouble());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrioritySamplerAdd)->Arg(64)->Arg(1024);

void BM_BottomKOffer(benchmark::State& state) {
  BottomK<uint64_t> sketch(static_cast<size_t>(state.range(0)));
  Xoshiro256 rng(3);
  uint64_t key = 0;
  for (auto _ : state) {
    sketch.Offer(rng.NextDoubleOpenZero(), key++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BottomKOffer)->Arg(64)->Arg(4096);

void BM_KmvAddKey(benchmark::State& state) {
  KmvSketch sketch(static_cast<size_t>(state.range(0)));
  uint64_t key = 0;
  for (auto _ : state) {
    sketch.AddKey(key++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KmvAddKey)->Arg(256)->Arg(4096);

// --- Saturating-stream ingest (fresh store per iteration) -------------
//
// The long-running BM_*Add benchmarks above converge to the reject path
// (accept rate ~ k/n); these replay a fixed stream from empty through
// saturation into steady state each iteration, so the accept-path cost
// (heap sifts in the old design, buffer appends + periodic rank-select
// compaction in the compaction design) stays in the measurement. These
// are the headline ingest numbers tracked across PRs at k in {256, 4096}.

constexpr size_t kIngestStreamLen = 1 << 15;

void BM_BottomKOfferStream(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Xoshiro256 rng(31);
  std::vector<double> priorities(kIngestStreamLen);
  std::vector<uint64_t> ids(kIngestStreamLen);
  for (size_t i = 0; i < kIngestStreamLen; ++i) {
    priorities[i] = rng.NextDoubleOpenZero();
    ids[i] = i;
  }
  for (auto _ : state) {
    BottomK<uint64_t> sketch(k);
    size_t accepted = 0;
    for (size_t i = 0; i < kIngestStreamLen; ++i) {
      accepted += sketch.Offer(priorities[i], ids[i]) ? 1 : 0;
    }
    benchmark::DoNotOptimize(accepted);
  }
  state.SetItemsProcessed(state.iterations() * kIngestStreamLen);
}
BENCHMARK(BM_BottomKOfferStream)->Arg(256)->Arg(4096);

void BM_BottomKOfferBatchStream(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Xoshiro256 rng(31);
  std::vector<double> priorities(kIngestStreamLen);
  std::vector<uint64_t> ids(kIngestStreamLen);
  for (size_t i = 0; i < kIngestStreamLen; ++i) {
    priorities[i] = rng.NextDoubleOpenZero();
    ids[i] = i;
  }
  for (auto _ : state) {
    BottomK<uint64_t> sketch(k);
    benchmark::DoNotOptimize(sketch.OfferBatch(priorities, ids));
  }
  state.SetItemsProcessed(state.iterations() * kIngestStreamLen);
}
BENCHMARK(BM_BottomKOfferBatchStream)->Arg(256)->Arg(4096);

void BM_KmvAddKeysStream(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> keys(kIngestStreamLen);
  for (size_t i = 0; i < kIngestStreamLen; ++i) keys[i] = i;
  for (auto _ : state) {
    KmvSketch sketch(k);
    benchmark::DoNotOptimize(sketch.AddKeys(keys));
  }
  state.SetItemsProcessed(state.iterations() * kIngestStreamLen);
}
BENCHMARK(BM_KmvAddKeysStream)->Arg(256)->Arg(4096);

void BM_PrioritySamplerAddStream(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Xoshiro256 rng(33);
  std::vector<PrioritySampler::Item> items(kIngestStreamLen);
  for (size_t i = 0; i < kIngestStreamLen; ++i) {
    items[i] = {i, 1.0 + rng.NextDouble()};
  }
  for (auto _ : state) {
    PrioritySampler sampler(k, /*seed=*/5, /*coordinated=*/true);
    for (const auto& item : items) sampler.Add(item.key, item.weight);
    benchmark::DoNotOptimize(sampler.Threshold());
  }
  state.SetItemsProcessed(state.iterations() * kIngestStreamLen);
}
BENCHMARK(BM_PrioritySamplerAddStream)->Arg(256)->Arg(4096);

void BM_PrioritySamplerAddBatchStream(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Xoshiro256 rng(33);
  std::vector<PrioritySampler::Item> items(kIngestStreamLen);
  for (size_t i = 0; i < kIngestStreamLen; ++i) {
    items[i] = {i, 1.0 + rng.NextDouble()};
  }
  for (auto _ : state) {
    PrioritySampler sampler(k, /*seed=*/5, /*coordinated=*/true);
    benchmark::DoNotOptimize(sampler.AddBatch(items));
  }
  state.SetItemsProcessed(state.iterations() * kIngestStreamLen);
}
BENCHMARK(BM_PrioritySamplerAddBatchStream)->Arg(256)->Arg(4096);

// --- One compaction -----------------------------------------------------
//
// Canonicalizes a saturated store that buffers k + delta entries below
// its bound: one rank-select compaction down to k. The buffer holds at
// most 2k - 1 entries (the 2k-th accept compacts by itself), so
// delta = k - 1 is a full buffer and delta = k / 8 a canonicalizing read
// soon after a compaction. 64 stores with distinct columns rotate, so
// branch history cannot learn the columns (with 8, a comparison select
// at k = 256 read 1.5-2x faster than on fresh data); refilling the store
// from them is not timed.
void BM_StoreCompact(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t delta = static_cast<size_t>(state.range(1));
  std::vector<SampleStore<uint64_t>> inputs;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    Xoshiro256 rng(41 + seed);
    SampleStore<uint64_t> store(k);
    uint64_t id = 0;
    for (; id < 4 * k; ++id) store.Offer(rng.NextDoubleOpenZero(), id);
    store.Canonicalize();
    const double bound = store.AcceptBound();
    while (store.BufferedSize() < k + delta) {
      store.Offer(bound * rng.NextDoubleOpenZero(), id++);
    }
    inputs.push_back(std::move(store));
  }
  SampleStore<uint64_t> store(k);
  size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    store = inputs[next++ % inputs.size()];
    state.ResumeTiming();
    store.Canonicalize();
    benchmark::DoNotOptimize(store.AcceptBound());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(k + delta));
}
BENCHMARK(BM_StoreCompact)
    ->Args({256, 32})
    ->Args({256, 255})
    ->Args({4096, 512})
    ->Args({4096, 4095})
    ->Unit(benchmark::kMicrosecond);

void BM_TopKSamplerAdd(benchmark::State& state) {
  TopKSampler sampler(10, 4);
  ZipfGenerator zipf(100000, 1.1, 5);
  std::vector<uint64_t> stream(1 << 16);
  for (auto& x : stream) x = zipf.Next();
  size_t i = 0;
  for (auto _ : state) {
    sampler.Add(stream[i++ & (stream.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopKSamplerAdd);

void BM_FrequentItemsAdd(benchmark::State& state) {
  FrequentItemsSketch sketch(64);
  ZipfGenerator zipf(100000, 1.1, 6);
  std::vector<uint64_t> stream(1 << 16);
  for (auto& x : stream) x = zipf.Next();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Add(stream[i++ & (stream.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrequentItemsAdd);

void BM_SpaceSavingAdd(benchmark::State& state) {
  SpaceSaving sketch(64);
  ZipfGenerator zipf(100000, 1.1, 7);
  std::vector<uint64_t> stream(1 << 16);
  for (auto& x : stream) x = zipf.Next();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Add(stream[i++ & (stream.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSavingAdd);

void BM_UnbiasedSpaceSavingAdd(benchmark::State& state) {
  UnbiasedSpaceSaving sketch(64, 8);
  ZipfGenerator zipf(100000, 1.1, 9);
  std::vector<uint64_t> stream(1 << 16);
  for (auto& x : stream) x = zipf.Next();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Add(stream[i++ & (stream.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnbiasedSpaceSavingAdd);

void BM_SlidingWindowArrive(benchmark::State& state) {
  SlidingWindowSampler sampler(static_cast<size_t>(state.range(0)), 1.0,
                               10);
  double t = 0.0;
  uint64_t id = 0;
  for (auto _ : state) {
    t += 0.001;
    sampler.Arrive(t, id++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlidingWindowArrive)->Arg(100)->Arg(1000);

void BM_BudgetSamplerAdd(benchmark::State& state) {
  BudgetSampler sampler(1000.0, 11);
  Xoshiro256 rng(12);
  uint64_t key = 0;
  for (auto _ : state) {
    sampler.Add(key++, 1.0 + 4.0 * rng.NextDouble(), 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BudgetSamplerAdd);

void BM_TimeDecayAdd(benchmark::State& state) {
  TimeDecaySampler sampler(256, 13);
  Xoshiro256 rng(14);
  double t = 0.0;
  uint64_t key = 0;
  for (auto _ : state) {
    t += 0.001;
    sampler.Add(key++, 1.0 + rng.NextDouble(), 1.0, t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimeDecayAdd);

void BM_GroupDistinctAdd(benchmark::State& state) {
  GroupDistinctSketch sketch(16, 64);
  ZipfGenerator groups(5000, 1.1, 15);
  Xoshiro256 rng(16);
  std::vector<std::pair<uint64_t, uint64_t>> stream(1 << 16);
  for (auto& [g, key] : stream) {
    g = groups.Next();
    key = rng.Next();
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [g, key] = stream[i++ & (stream.size() - 1)];
    sketch.Add(g, key);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GroupDistinctAdd);

void BM_VarOptAdd(benchmark::State& state) {
  VarOptSampler sampler(static_cast<size_t>(state.range(0)), 18);
  Xoshiro256 rng(19);
  uint64_t key = 0;
  for (auto _ : state) {
    sampler.Add(key++, std::exp(rng.NextGaussian()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VarOptAdd)->Arg(64)->Arg(1024);

void BM_ReservoirAdd(benchmark::State& state) {
  ReservoirSampler sampler(1024, 17);
  uint64_t key = 0;
  for (auto _ : state) {
    sampler.Add(key++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReservoirAdd);

}  // namespace
}  // namespace ats

ATS_BENCHMARK_JSON_MAIN("BENCH_throughput.json")
