// End-to-end pipeline benchmark: workload -> route -> store ingest ->
// snapshot/merge -> serialize -> checkpoint, on three workloads that
// stress different layers (see README.md in this directory).
//
//   pipeline_bench --workload ingest-zipf --seed 1 --seconds 10 --trace 0
//                  --work-dir DIR [--corrupt-reference]
//
// Inputs are generated from --seed by src/ats/workload before timing
// starts, together with an exact reference answer. The run then repeats
// rounds of the workload for --seconds and checks every round's final
// state bit for bit against the reference. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it alternates traced and untraced
// rounds and reports per-layer metrics from spans recorded around the
// benchmark's own calls into the library. The last line of standard
// output is one JSON record: run context, correctness, operation counts
// and metrics. The exit code is 1 when any correctness check failed.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ats/core/bottom_k.h"
#include "ats/core/concurrent_sampler.h"
#include "ats/core/ht_estimator.h"
#include "ats/core/random.h"
#include "ats/core/simd/simd_dispatch.h"
#include "ats/estimators/subset_sum.h"
#include "ats/persist/checkpoint.h"
#include "ats/samplers/sharded_time_axis.h"
#include "ats/samplers/sliding_window.h"
#include "ats/util/stats.h"
#include "ats/workload/arrivals.h"
#include "ats/workload/zipf.h"
#include "trace.h"

namespace {

using perfbench::NowNs;
using perfbench::Scope;
using perfbench::Span;
using perfbench::ThreadTrace;
using PriorityItem = ats::PrioritySampler::Item;
using WindowArrival = ats::ConcurrentWindowSampler::Arrival;

// Setup (input generation + reference) runs this many times; setup_s is
// the median.
constexpr int kSetupRepeats = 9;
// A traced run alternates traced and untraced rounds until this many
// rounds were traced (bounds span memory), then runs untraced.
constexpr int kTracedRoundCap = 150;
// Top-level spans of every thread must cover at least this share of the
// thread's traced wall clock.
constexpr double kCoverageMin = 0.95;
// Open-loop query generators sleep until this close to a due time.
constexpr int64_t kSpinNs = 300'000;

// --- ingest-zipf ------------------------------------------------------
constexpr size_t kZipfShards = 32;
constexpr size_t kZipfK = 1024;
constexpr size_t kZipfItems = size_t{1} << 19;
constexpr size_t kZipfUniverse = size_t{1} << 18;
constexpr double kZipfExponent = 1.1;
constexpr size_t kZipfChunk = 4096;
constexpr int kZipfWriters = 3;
constexpr int64_t kZipfQueryPeriodNs = 5'000'000;  // 200 queries/s

// --- window-dashboard -------------------------------------------------
constexpr size_t kWindowShards = 8;
constexpr size_t kWindowK = 128;
constexpr double kWindowLength = 1.0;  // stream seconds
constexpr double kWindowBaseRate = 2500.0;
constexpr double kWindowSpikeStart = 3.0;
constexpr double kWindowSpikeEnd = 4.0;
constexpr double kWindowSpikeFactor = 6.0;
constexpr double kWindowHorizon = 6.0;
constexpr size_t kWindowChunk = 1024;
constexpr int64_t kWindowQueryPeriodNs = 2'000'000;  // 500 queries/s

// --- fanin-ckpt -------------------------------------------------------
constexpr size_t kFaninNodes = 64;
constexpr size_t kFaninK = 4096;
constexpr size_t kFaninSlice = 512;    // items per node per round
constexpr size_t kFaninEpoch = 16;     // rounds before the nodes restart
constexpr size_t kFaninRestartEvery = 4;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt_reference = false;
  std::string work_dir;
};

// --- Exactness --------------------------------------------------------

// One sample entry as raw bits: equality is bit-exact.
struct EntryBits {
  uint64_t priority;
  uint64_t key;
  uint64_t value;
  uint64_t threshold;
  auto operator<=>(const EntryBits&) const = default;
};

std::vector<EntryBits> Canonical(std::span<const ats::SampleEntry> sample) {
  std::vector<EntryBits> out;
  out.reserve(sample.size());
  for (const ats::SampleEntry& e : sample) {
    out.push_back({std::bit_cast<uint64_t>(e.priority), e.key,
                   std::bit_cast<uint64_t>(e.value),
                   std::bit_cast<uint64_t>(e.threshold)});
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Corrupt(std::vector<EntryBits>& reference) {
  if (!reference.empty()) reference.front().priority ^= 1;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// --- Measurements -----------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
  std::string note;
};

// Highest quantile, at most 0.99, with at least ten samples beyond it.
double TailLevel(size_t n) {
  if (n == 0) return 0.99;
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.99);
}

std::string TailNote(size_t n) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%.4g of %zu", 100 * TailLevel(n), n);
  return buf;
}

double Median(const std::vector<double>& v) { return ats::Quantile(v, 0.5); }
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double Tail(const std::vector<double>& v) {
  return ats::Quantile(v, TailLevel(v.size()));
}

// Everything one run measures. Vectors hold one sample per event.
struct RunStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> setup_s;
  std::vector<double> ingest_mitems_s;  // per round
  std::vector<double> query_us;
  std::vector<double> late_us;
  std::vector<double> round_ms;
  std::vector<double> recover_ms;
  std::vector<double> state_bytes;
  std::vector<double> checkpoint_bytes;
  double est_rel_err = 0;
  double cpu_steal_frac = 0;
  // Trace mode: full round wall clock of paired traced/untraced rounds.
  std::vector<double> traced_wall_ms;
  std::vector<double> untraced_wall_ms;
  // Items routed to each shard in traced rounds.
  std::vector<uint64_t> shard_items;
  std::string threads;  // "writers=3,query=1,total=4"
};

void Check(RunStats& st, bool ok, const char* what, uint64_t round) {
  ++st.attempted;
  if (ok) return;
  ++st.failed;
  if (st.failed <= 5) {
    std::fprintf(stderr, "exactness check failed: %s (round %" PRIu64 ")\n",
                 what, round);
  }
}

// Per-role scratch and counters. Each role is one thread; the barrier
// between rounds orders its writes before the main thread's reads.
template <typename Item>
struct alignas(64) RoleState {
  std::vector<std::vector<Item>> runs;
  std::vector<uint32_t> touched;
  std::vector<uint64_t> shard_items;
  std::vector<double> query_us;
  std::vector<double> late_us;
  uint64_t ops = 0;
};

// A fixed crew of helper threads that runs one function per round on
// every role: role 0 is the calling thread, roles 1..helpers the crew.
class Crew {
 public:
  Crew(int helpers, std::function<void(int)> work)
      : sync_(helpers + 1), work_(std::move(work)) {
    for (int role = 1; role <= helpers; ++role) {
      threads_.emplace_back([this, role] { Loop(role); });
    }
  }
  ~Crew() {
    stop_ = true;
    sync_.arrive_and_wait();
    for (std::thread& t : threads_) t.join();
  }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  void Start() { sync_.arrive_and_wait(); }
  void Finish() { sync_.arrive_and_wait(); }

 private:
  void Loop(int role) {
    for (;;) {
      sync_.arrive_and_wait();
      if (stop_) return;
      work_(role);
      sync_.arrive_and_wait();
    }
  }

  std::barrier<> sync_;
  std::function<void(int)> work_;
  bool stop_ = false;  // written before a barrier phase, read after it
  std::vector<std::thread> threads_;
};

// Waits until `due` (true) or until `done` is set (false). Sleeps until
// kSpinNs before `due`, then spins: a sleeping generator wakes late by a
// scheduler-dependent amount, and one that always spins competes for
// the CPU with the threads it measures.
bool WaitUntil(int64_t due, const std::atomic<bool>& done) {
  for (;;) {
    if (done.load(std::memory_order_acquire)) return false;
    const int64_t now = NowNs();
    if (now >= due) return true;
    if (due - now > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<int64_t>(due - now - kSpinNs, 1'000'000)));
    } else {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }
}

// Offset of a round's first query due time. The open-loop schedule
// restarts every round; rotating its phase by the golden ratio spreads
// the queries evenly over the ingest phase across rounds.
int64_t FirstDueOffset(uint64_t round, int64_t period_ns) {
  const double phase = std::fmod(0.6180339887498949 * double(round), 1.0);
  return static_cast<int64_t>(phase * double(period_ns));
}

// Open-loop query generator for one round: query q is due at
// first_due + q * period regardless of how long earlier queries took,
// and is timed from its due time. Stops when `done` is set.
template <typename Item, typename QueryFn>
void OpenLoopQueries(ThreadTrace& tr, RoleState<Item>& rs, int64_t first_due,
                     int64_t period_ns, const std::atomic<bool>& done,
                     QueryFn query) {
  int64_t due = first_due;
  for (uint64_t q = 0;; ++q, due += period_ns) {
    bool fire;
    {
      Scope wait(tr, "workload.wait", q);
      fire = WaitUntil(due, done);
    }
    if (!fire) return;
    const int64_t sent = NowNs();
    query(q);
    rs.query_us.push_back((NowNs() - due) / 1e3);
    rs.late_us.push_back((sent - due) / 1e3);
    ++rs.ops;
  }
}

// Folds every role's counters and samples into the run's.
template <typename Item>
void CollectRoles(const std::vector<RoleState<Item>>& roles, RunStats& st) {
  for (const RoleState<Item>& rs : roles) {
    st.attempted += rs.ops;
    st.query_us.insert(st.query_us.end(), rs.query_us.begin(),
                       rs.query_us.end());
    st.late_us.insert(st.late_us.end(), rs.late_us.begin(),
                      rs.late_us.end());
    st.shard_items.resize(
        std::max(st.shard_items.size(), rs.shard_items.size()));
    for (size_t s = 0; s < rs.shard_items.size(); ++s) {
      st.shard_items[s] += rs.shard_items[s];
    }
  }
}

// The routed ingest AddBatch performs, driven through its public
// decomposition so that routing and store ingest get separate spans:
// ShardOf partition (order-preserving per shard), then AddShardBatch.
template <typename Sampler, typename Item, typename KeyOf>
size_t DecomposedAddBatch(Sampler& sampler, std::span<const Item> chunk,
                          KeyOf key_of, RoleState<Item>& role,
                          ThreadTrace& tr, uint64_t request) {
  const size_t num_shards = sampler.num_shards();
  if (role.runs.size() < num_shards) {
    role.runs.resize(num_shards);
    role.shard_items.resize(num_shards, 0);
  }
  {
    Scope route(tr, "core.route", request);
    for (const uint32_t s : role.touched) role.runs[s].clear();
    role.touched.clear();
    for (const Item& item : chunk) {
      const size_t s = sampler.ShardOf(key_of(item));
      if (role.runs[s].empty()) role.touched.push_back(uint32_t(s));
      role.runs[s].push_back(item);
    }
    route.items = chunk.size();
    route.out = role.touched.size();
  }
  size_t accepted = 0;
  for (const uint32_t s : role.touched) {
    Scope store(tr, "core.store", request);
    const size_t n = sampler.AddShardBatch(s, role.runs[s]);
    store.items = role.runs[s].size();
    store.out = n;
    role.shard_items[s] += role.runs[s].size();
    accepted += n;
  }
  return accepted;
}

// Writes `frame` as a CKP1 checkpoint. On a restart round it then
// recovers from it like a restarted process would: OpenView, byte
// equality of the stored payload with the written frame, Restore into
// `restored`, and a first answer that must equal `expected_answer`.
template <typename Sketch, typename Answer>
void PersistAndMaybeRecover(RunStats& st, ThreadTrace& tr, uint64_t round,
                            const std::string& path,
                            ats::persist::SchemeKind kind,
                            const std::string& frame, bool restart,
                            Sketch restored, Answer answer,
                            double expected_answer) {
  ats::persist::CheckpointFault fault;
  {
    Scope write(tr, "persist.write", round);
    fault = ats::persist::CheckpointWriter::Write(path, kind, round, frame);
    write.items = frame.size();
  }
  Check(st, fault == ats::persist::CheckpointFault::kNone,
        "checkpoint write", round);
  std::error_code error;
  const uintmax_t bytes = std::filesystem::file_size(path, error);
  if (!error) st.checkpoint_bytes.push_back(static_cast<double>(bytes));
  if (!restart) return;
  const int64_t t0 = NowNs();
  ats::persist::CheckpointReader reader;
  {
    Scope open(tr, "persist.open", round);
    fault = ats::persist::CheckpointReader::OpenView(path, &reader);
  }
  const bool opened = fault == ats::persist::CheckpointFault::kNone &&
                      reader.kind() == kind && reader.epoch() == round;
  {
    Scope restore(tr, "persist.restore", round);
    fault = ats::persist::RestoreFromCheckpoint(path, kind, &restored);
  }
  double first = 0;
  {
    Scope est(tr, "estimators", round);
    first = answer(restored);
  }
  st.recover_ms.push_back((NowNs() - t0) / 1e6);
  Scope verify(tr, "bench.verify", round);
  Check(st, opened && reader.payload() == frame,
        "checkpoint bytes equal the written frame", round);
  Check(st, fault == ats::persist::CheckpointFault::kNone &&
                SameBits(first, expected_answer),
        "restored answer", round);
}

// Runs rounds until --seconds passed. In trace mode odd rounds are
// traced (until kTracedRoundCap) and each traced round is paired with
// the untraced round before it for trace.overhead_frac.
// {steal, total} CPU ticks so far, from /proc/stat; {0, 0} where it is
// missing. Steal is time the hypervisor ran something else while a vCPU
// of this machine had work: a run with much of it ran on a busy host.
std::pair<double, double> CpuStealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  double total = 0;
  for (unsigned long long x : v) total += static_cast<double>(x);
  return {static_cast<double>(v[7]), total};
}

template <typename RoundFn>
void MeasureRounds(const Options& opt, RunStats& st, RoundFn&& round_fn) {
  const auto [steal0, total0] = CpuStealTicks();
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
  int traced_rounds = 0;
  uint64_t round = 0;
  do {
    const bool traced =
        opt.trace && round % 2 == 1 && traced_rounds < kTracedRoundCap;
    const bool paired = opt.trace && traced_rounds < kTracedRoundCap;
    const int64_t t0 = NowNs();
    round_fn(round, traced);
    const double wall_ms = (NowNs() - t0) / 1e6;
    if (paired) {
      (traced ? st.traced_wall_ms : st.untraced_wall_ms).push_back(wall_ms);
    }
    traced_rounds += traced ? 1 : 0;
    ++round;
  } while (NowNs() < deadline);
  const auto [steal1, total1] = CpuStealTicks();
  st.cpu_steal_frac =
      total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0;
}

template <typename SetupFn>
auto TimedSetup(RunStats& st, SetupFn&& setup) {
  for (int i = 1; i < kSetupRepeats; ++i) {
    const int64_t t0 = NowNs();
    auto discard = setup();
    st.setup_s.push_back((NowNs() - t0) / 1e9);
  }
  const int64_t t0 = NowNs();
  auto inputs = setup();
  st.setup_s.push_back((NowNs() - t0) / 1e9);
  return inputs;
}

// --- ingest-zipf ------------------------------------------------------

struct ZipfInputs {
  std::vector<PriorityItem> items;
  std::vector<EntryBits> reference;
  double reference_threshold = 0;
  double truth = 0;
};

ZipfInputs MakeZipfInputs(uint64_t seed) {
  ZipfInputs in;
  ats::ZipfGenerator zipf(kZipfUniverse, kZipfExponent, seed);
  ats::Xoshiro256 rng(seed ^ 0x5a17f00dULL);
  in.items.reserve(kZipfItems);
  for (size_t i = 0; i < kZipfItems; ++i) {
    const double u = rng.NextDouble();
    const PriorityItem item{zipf.Next(), 1.0 + 99.0 * u * u * u};
    in.truth += item.weight;
    in.items.push_back(item);
  }
  // The reference: one coordinated single store over the same stream.
  ats::PrioritySampler single(kZipfK, seed, /*coordinated=*/true);
  single.AddBatch(in.items);
  in.reference = Canonical(single.Sample());
  in.reference_threshold = single.Threshold();
  return in;
}

void RunIngestZipf(const Options& opt, RunStats& st,
                   std::vector<ThreadTrace>& traces) {
  ZipfInputs in = TimedSetup(st, [&] { return MakeZipfInputs(opt.seed); });
  if (opt.corrupt_reference) Corrupt(in.reference);
  const size_t num_chunks = (in.items.size() + kZipfChunk - 1) / kZipfChunk;
  const int query_role = kZipfWriters;
  const std::string ckpt = opt.work_dir + "/ingest-zipf.ckp";
  traces.resize(kZipfWriters + 1);
  std::vector<RoleState<PriorityItem>> roles(kZipfWriters + 1);
  st.threads = "writers=3,query=1,total=4";

  std::unique_ptr<ats::ConcurrentPrioritySampler> sampler;
  std::atomic<size_t> next_chunk{0};
  std::atomic<int> writers_left{0};
  std::atomic<bool> ingest_done{false};
  int64_t start_ns = 0;
  uint64_t round = 0;
  bool traced = false;

  const auto writer = [&](int role) {
    ThreadTrace& tr = traces[role];
    RoleState<PriorityItem>& rs = roles[role];
    for (;;) {
      const size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      const size_t begin = c * kZipfChunk;
      const std::span<const PriorityItem> chunk(
          in.items.data() + begin,
          std::min(kZipfChunk, in.items.size() - begin));
      ++rs.ops;
      if (!traced) {
        sampler->AddBatch(chunk);
        continue;
      }
      Scope frontend(tr, "core.frontend", c);
      frontend.items = chunk.size();
      frontend.out = DecomposedAddBatch(
          *sampler, chunk, [](const PriorityItem& it) { return it.key; }, rs,
          tr, c);
    }
    if (writers_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ingest_done.store(true, std::memory_order_release);
    }
  };
  const auto querier = [&] {
    ThreadTrace& tr = traces[query_role];
    OpenLoopQueries(
        tr, roles[query_role],
        start_ns + FirstDueOffset(round, kZipfQueryPeriodNs),
        kZipfQueryPeriodNs, ingest_done, [&](uint64_t q) {
          ats::ConcurrentPrioritySampler::MergedSample merged;
          {
            Scope snap(tr, "core.snapshot", q);
            merged = sampler->Merged();
            snap.out = merged.entries.size();
          }
          Scope est(tr, "estimators", q);
          est.items = merged.entries.size();
          (void)ats::EstimateTotal(merged.entries);
        });
  };
  Crew crew(kZipfWriters, [&](int role) {
    traces[role].set_enabled(traced);
    traces[role].BeginSegment();
    if (role == query_role) {
      querier();
    } else {
      writer(role);
    }
    traces[role].EndSegment();
  });

  MeasureRounds(opt, st, [&](uint64_t r, bool trace_round) {
    ThreadTrace& tr = traces[0];
    tr.set_enabled(trace_round);
    tr.BeginSegment();
    round = r;
    traced = trace_round;
    const int64_t t_round = NowNs();
    {
      Scope create(tr, "core.frontend.create", r);
      sampler = std::make_unique<ats::ConcurrentPrioritySampler>(
          kZipfShards, kZipfK, /*coordinated=*/true, opt.seed);
    }
    next_chunk.store(0, std::memory_order_relaxed);
    writers_left.store(kZipfWriters, std::memory_order_relaxed);
    ingest_done.store(false, std::memory_order_relaxed);
    start_ns = NowNs();
    {
      Scope sync(tr, "workload.sync", r);
      crew.Start();
    }
    writer(0);
    {
      Scope sync(tr, "workload.sync", r);
      crew.Finish();
    }
    const int64_t t_ingested = NowNs();
    ats::ConcurrentPrioritySampler::MergedSample final_sample;
    {
      Scope snap(tr, "core.snapshot", r);
      final_sample = sampler->Merged();
      snap.out = final_sample.entries.size();
    }
    double estimate;
    {
      Scope est(tr, "estimators", r);
      est.items = final_sample.entries.size();
      estimate = ats::EstimateTotal(final_sample.entries).estimate;
    }
    std::string frame;
    {
      Scope ser(tr, "util.serialize", r);
      frame = sampler->Snapshot()->SerializeToString();
      ser.out = frame.size();
    }
    PersistAndMaybeRecover(
        st, tr, r, ckpt, ats::persist::SchemeKind::kBottomK, frame,
        /*restart=*/true, ats::BottomK<PriorityItem>(kZipfK),
        [](const ats::BottomK<PriorityItem>& b) {
          return ats::EstimateTotal(ats::MakeWeightedSample(b.store()))
              .estimate;
        },
        estimate);
    const int64_t t_done = NowNs();
    {
      Scope mem(tr, "util.memory", r);
      st.state_bytes.push_back(
          static_cast<double>(sampler->MemoryFootprint()));
    }
    {
      Scope verify(tr, "bench.verify", r);
      Check(st, Canonical(final_sample.entries) == in.reference &&
                    SameBits(final_sample.threshold, in.reference_threshold),
            "merged sample equals the single-store reference", r);
    }
    // The round is the user-visible pass: build, ingest, answer,
    // serialize, checkpoint. The restart inside is timed as recover_ms.
    st.round_ms.push_back(
        (t_done - t_round) / 1e6 - st.recover_ms.back());
    st.ingest_mitems_s.push_back(
        Ratio(static_cast<double>(in.items.size()) * 1e3,
              static_cast<double>(t_ingested - start_ns)));
    st.est_rel_err = std::abs(estimate - in.truth) / in.truth;
    tr.EndSegment();
  });
  CollectRoles(roles, st);
}

// --- window-dashboard -------------------------------------------------

struct WindowInputs {
  std::vector<WindowArrival> arrivals;
  double end_time = 0;
  std::vector<EntryBits> reference;
  size_t reference_stored = 0;
  double truth = 0;
};

WindowInputs MakeWindowInputs(uint64_t seed) {
  WindowInputs in;
  ats::ArrivalProcess process(
      ats::RateProfile::WithSpike(kWindowBaseRate, kWindowSpikeStart,
                                  kWindowSpikeEnd, kWindowSpikeFactor),
      kWindowBaseRate * kWindowSpikeFactor, seed);
  for (const ats::Arrival& a : process.Until(kWindowHorizon)) {
    in.arrivals.push_back({a.time, a.id});
  }
  in.end_time = in.arrivals.back().time;
  // The reference: the sequential sharded front-end over the same stream.
  ats::ShardedWindowSampler ref(kWindowShards, kWindowK, kWindowLength, seed);
  for (const WindowArrival& a : in.arrivals) ref.Arrive(a.time, a.id);
  in.reference = Canonical(ref.ImprovedSample(in.end_time));
  in.reference_stored = ref.MergedStoredCount(in.end_time);
  for (const WindowArrival& a : in.arrivals) {
    if (a.time > in.end_time - kWindowLength) in.truth += 1;
  }
  return in;
}

void RunWindowDashboard(const Options& opt, RunStats& st,
                        std::vector<ThreadTrace>& traces) {
  WindowInputs in =
      TimedSetup(st, [&] { return MakeWindowInputs(opt.seed); });
  if (opt.corrupt_reference) Corrupt(in.reference);
  const std::string ckpt = opt.work_dir + "/window-dashboard.ckp";
  traces.resize(2);
  std::vector<RoleState<WindowArrival>> roles(2);
  st.threads = "writers=1,query=1,total=2";

  std::unique_ptr<ats::ConcurrentWindowSampler> sampler;
  std::atomic<double> latest_time{0.0};
  std::atomic<bool> ingest_done{false};
  int64_t start_ns = 0;
  uint64_t round = 0;
  bool traced = false;

  const auto querier = [&] {
    ThreadTrace& tr = traces[1];
    OpenLoopQueries(
        tr, roles[1], start_ns + FirstDueOffset(round, kWindowQueryPeriodNs),
        kWindowQueryPeriodNs, ingest_done, [&](uint64_t q) {
          const double now = latest_time.load(std::memory_order_acquire);
          std::vector<ats::SampleEntry> sample;
          {
            Scope snap(tr, "core.snapshot", q);
            sample = sampler->ImprovedSample(now);
            snap.out = sample.size();
          }
          Scope est(tr, "estimators", q);
          est.items = sample.size();
          (void)ats::HtCount(sample);
        });
  };
  Crew crew(1, [&](int role) {
    traces[role].set_enabled(traced);
    traces[role].BeginSegment();
    querier();
    traces[role].EndSegment();
  });

  MeasureRounds(opt, st, [&](uint64_t r, bool trace_round) {
    ThreadTrace& tr = traces[0];
    RoleState<WindowArrival>& rs = roles[0];
    tr.set_enabled(trace_round);
    tr.BeginSegment();
    round = r;
    traced = trace_round;
    const int64_t t_round = NowNs();
    {
      Scope create(tr, "core.frontend.create", r);
      sampler = std::make_unique<ats::ConcurrentWindowSampler>(
          kWindowShards, kWindowK, kWindowLength, opt.seed);
    }
    latest_time.store(0.0, std::memory_order_relaxed);
    ingest_done.store(false, std::memory_order_relaxed);
    start_ns = NowNs();
    {
      Scope sync(tr, "workload.sync", r);
      crew.Start();
    }
    for (size_t begin = 0; begin < in.arrivals.size();
         begin += kWindowChunk) {
      const std::span<const WindowArrival> chunk(
          in.arrivals.data() + begin,
          std::min(kWindowChunk, in.arrivals.size() - begin));
      const uint64_t c = begin / kWindowChunk;
      ++rs.ops;
      if (!trace_round) {
        sampler->AddBatch(chunk);
      } else {
        Scope frontend(tr, "core.frontend", c);
        frontend.items = chunk.size();
        frontend.out = DecomposedAddBatch(
            *sampler, chunk, [](const WindowArrival& a) { return a.id; },
            rs, tr, c);
      }
      latest_time.store(chunk.back().time, std::memory_order_release);
    }
    ingest_done.store(true, std::memory_order_release);
    const int64_t t_ingested = NowNs();
    {
      Scope sync(tr, "workload.sync", r);
      crew.Finish();
    }
    std::vector<ats::SampleEntry> final_sample;
    {
      Scope snap(tr, "core.snapshot", r);
      final_sample = sampler->ImprovedSample(in.end_time);
      snap.out = final_sample.size();
    }
    double estimate;
    {
      Scope est(tr, "estimators", r);
      est.items = final_sample.size();
      estimate = ats::HtCount(final_sample);
    }
    size_t stored;
    {
      Scope window(tr, "samplers.window", r);
      stored = sampler->MergedStoredCount(in.end_time);
      window.out = stored;
    }
    std::string frame;
    {
      Scope ser(tr, "util.serialize", r);
      frame = sampler->Snapshot()->SerializeToString();
      ser.out = frame.size();
    }
    const double end_time = in.end_time;
    PersistAndMaybeRecover(
        st, tr, r, ckpt, ats::persist::SchemeKind::kSlidingWindow, frame,
        /*restart=*/true,
        ats::SlidingWindowSampler(kWindowK, kWindowLength, opt.seed),
        [end_time](ats::SlidingWindowSampler& w) {
          return ats::HtCount(w.ImprovedSample(end_time));
        },
        estimate);
    const int64_t t_done = NowNs();
    {
      Scope mem(tr, "util.memory", r);
      st.state_bytes.push_back(
          static_cast<double>(sampler->MemoryFootprint()));
    }
    {
      Scope verify(tr, "bench.verify", r);
      Check(st, Canonical(final_sample) == in.reference &&
                    stored == in.reference_stored,
            "merged window sample equals the sharded reference", r);
    }
    st.round_ms.push_back(
        (t_done - t_round) / 1e6 - st.recover_ms.back());
    st.ingest_mitems_s.push_back(
        Ratio(static_cast<double>(in.arrivals.size()) * 1e3,
              static_cast<double>(t_ingested - start_ns)));
    st.est_rel_err = std::abs(estimate - in.truth) / in.truth;
    tr.EndSegment();
  });
  CollectRoles(roles, st);
}

// --- fanin-ckpt -------------------------------------------------------

struct FaninInputs {
  // slices[round * kFaninNodes + node]: disjoint keys per slice.
  std::vector<std::vector<PriorityItem>> slices;
  // reference[round]: one single store over every slice up to `round`.
  std::vector<std::vector<EntryBits>> reference;
  std::vector<double> truth;
};

FaninInputs MakeFaninInputs(uint64_t seed) {
  FaninInputs in;
  ats::Xoshiro256 rng(seed);
  ats::PrioritySampler single(kFaninK, seed, /*coordinated=*/true);
  uint64_t next_key = seed << 32;
  double total = 0;
  for (size_t round = 0; round < kFaninEpoch; ++round) {
    for (size_t node = 0; node < kFaninNodes; ++node) {
      std::vector<PriorityItem> slice(kFaninSlice);
      for (PriorityItem& item : slice) {
        const double u = rng.NextDouble();
        item = {next_key++, 1.0 + 99.0 * u * u * u};
        total += item.weight;
      }
      single.AddBatch(slice);
      in.slices.push_back(std::move(slice));
    }
    in.reference.push_back(Canonical(single.Sample()));
    in.truth.push_back(total);
  }
  return in;
}

void RunFaninCkpt(const Options& opt, RunStats& st,
                  std::vector<ThreadTrace>& traces) {
  FaninInputs in = TimedSetup(st, [&] { return MakeFaninInputs(opt.seed); });
  if (opt.corrupt_reference) {
    for (auto& ref : in.reference) Corrupt(ref);
  }
  const std::string ckpt = opt.work_dir + "/fanin-ckpt.ckp";
  traces.resize(1);
  st.threads = "writers=1,query=0,total=1";
  std::vector<ats::PrioritySampler> nodes;
  std::vector<std::string> frames(kFaninNodes);
  std::vector<std::string_view> views(kFaninNodes);

  MeasureRounds(opt, st, [&](uint64_t r, bool trace_round) {
    ThreadTrace& tr = traces[0];
    tr.set_enabled(trace_round);
    tr.BeginSegment();
    const size_t j = r % kFaninEpoch;
    const int64_t t_ingest = NowNs();
    if (j == 0) {
      Scope create(tr, "core.store.create", r);
      nodes.clear();
      for (size_t i = 0; i < kFaninNodes; ++i) {
        nodes.emplace_back(kFaninK, opt.seed + i, /*coordinated=*/true);
      }
    }
    for (size_t i = 0; i < kFaninNodes; ++i) {
      const auto& slice = in.slices[j * kFaninNodes + i];
      Scope store(tr, "core.store", r);
      store.items = slice.size();
      store.out = nodes[i].AddBatch(slice);
    }
    const int64_t t_round = NowNs();
    size_t entries_in = 0;
    for (size_t i = 0; i < kFaninNodes; ++i) {
      Scope ser(tr, "util.serialize", r);
      frames[i] = nodes[i].SerializeToString();
      views[i] = frames[i];
      ser.items = nodes[i].size();
      ser.out = frames[i].size();
      entries_in += nodes[i].size();
    }
    ats::PrioritySampler root(kFaninK, opt.seed, /*coordinated=*/true);
    bool merged;
    {
      Scope merge(tr, "core.merge", r);
      merged = root.MergeManyFrames(views);
      merge.items = entries_in;
      merge.out = root.size();
    }
    const int64_t t_query = NowNs();
    std::vector<ats::SampleEntry> sample;
    ats::EstimateWithError answer;
    {
      Scope est(tr, "estimators", r);
      sample = root.Sample();
      answer = ats::EstimateTotal(sample);
      est.items = sample.size();
    }
    st.query_us.push_back((NowNs() - t_query) / 1e3);
    std::string frame;
    {
      Scope ser(tr, "util.serialize", r);
      frame = root.SerializeToString();
      ser.items = root.size();
      ser.out = frame.size();
    }
    const bool restart = r % kFaninRestartEvery == kFaninRestartEvery - 1;
    PersistAndMaybeRecover(
        st, tr, r, ckpt, ats::persist::SchemeKind::kPriority, frame, restart,
        ats::PrioritySampler(kFaninK),
        [](const ats::PrioritySampler& p) {
          return ats::EstimateTotal(p.Sample()).estimate;
        },
        answer.estimate);
    // The round is the timed aggregation; a restart is timed apart.
    const double round_ms = (NowNs() - t_round) / 1e6 -
                            (restart ? st.recover_ms.back() : 0.0);
    {
      Scope mem(tr, "util.memory", r);
      size_t bytes = root.MemoryFootprint();
      for (const auto& node : nodes) bytes += node.MemoryFootprint();
      st.state_bytes.push_back(static_cast<double>(bytes));
    }
    {
      Scope verify(tr, "bench.verify", r);
      Check(st, merged && Canonical(sample) == in.reference[j],
            "root sample equals the single-store reference", r);
    }
    st.round_ms.push_back(round_ms);
    st.ingest_mitems_s.push_back(
        Ratio(static_cast<double>(kFaninNodes * kFaninSlice) * 1e3,
              static_cast<double>(t_round - t_ingest)));
    st.attempted += kFaninNodes + 1;  // node ingests + the root answer
    st.est_rel_err = std::abs(answer.estimate - in.truth[j]) / in.truth[j];
    tr.EndSegment();
  });
}

// --- Per-layer attribution --------------------------------------------

struct Layer {
  std::vector<double> dur_us;
  std::vector<double> items;
  std::vector<double> out;
  double self_ns = 0;
  double sum_items = 0;
  double sum_out = 0;
};

// Self time is a span's duration minus the time its child spans (same
// thread, nested) cover.
std::map<std::string, Layer> Attribute(const std::vector<ThreadTrace>& traces) {
  std::map<std::string, Layer> layers;
  for (const ThreadTrace& tr : traces) {
    const std::vector<Span>& spans = tr.spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      Layer& layer = layers[s.name];
      const int64_t dur = s.end_ns - s.start_ns;
      layer.dur_us.push_back(dur / 1e3);
      layer.items.push_back(static_cast<double>(s.items));
      layer.out.push_back(static_cast<double>(s.out));
      layer.self_ns += static_cast<double>(dur - child_ns[i]);
      layer.sum_items += static_cast<double>(s.items);
      layer.sum_out += static_cast<double>(s.out);
    }
  }
  return layers;
}

// Lowest, over threads, of the share of the thread's traced wall clock
// that its top-level spans cover.
double Coverage(const std::vector<ThreadTrace>& traces) {
  double lowest = 1.0;
  for (const ThreadTrace& tr : traces) {
    double wall = 0;
    double covered = 0;
    for (const auto& [begin, end] : tr.segments()) wall += end - begin;
    for (const Span& s : tr.spans()) {
      if (s.parent < 0) covered += s.end_ns - s.start_ns;
    }
    if (wall > 0) lowest = std::min(lowest, covered / wall);
  }
  return lowest;
}

void WriteSpans(const std::string& path,
                const std::vector<ThreadTrace>& traces, int64_t origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "thread\tspan\tparent\tname\trequest\tstart_ns\tend_ns"
                  "\titems\tout\n");
  for (size_t t = 0; t < traces.size(); ++t) {
    const auto& spans = traces[t].spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%zu\t%zu\t%d\t%s\t%" PRIu64 "\t%" PRId64 "\t%" PRId64
                   "\t%" PRIu64 "\t%" PRIu64 "\n",
                   t, i, s.parent, s.name, s.request, s.start_ns - origin,
                   s.end_ns - origin, s.items, s.out);
    }
  }
  std::fclose(f);
}

std::vector<Metric> LayerMetrics(const RunStats& st,
                                 const std::vector<ThreadTrace>& traces,
                                 double coverage) {
  std::map<std::string, Layer> layers = Attribute(traces);
  const Layer none;
  const auto get = [&](const char* name) -> const Layer& {
    const auto it = layers.find(name);
    return it == layers.end() ? none : it->second;
  };
  const auto n = [](const Layer& l) { return l.dur_us.size(); };
  const Layer& route = get("core.route");
  const Layer& store = get("core.store");
  const Layer& frontend = get("core.frontend");
  const Layer& snapshot = get("core.snapshot");
  const Layer& estimators = get("estimators");
  const Layer& window = get("samplers.window");
  const Layer& serialize = get("util.serialize");
  const Layer& merge = get("core.merge");
  const Layer& write = get("persist.write");
  const Layer& open = get("persist.open");
  const Layer& restore = get("persist.restore");

  double skew = 0;
  if (!st.shard_items.empty()) {
    double sum = 0;
    double max = 0;
    for (uint64_t c : st.shard_items) {
      sum += static_cast<double>(c);
      max = std::max(max, static_cast<double>(c));
    }
    skew = Ratio(max, sum / static_cast<double>(st.shard_items.size()));
  }
  const double overhead =
      st.untraced_wall_ms.empty()
          ? 0.0
          : Ratio(Median(st.traced_wall_ms), Median(st.untraced_wall_ms)) -
                1.0;
  return {
      {"core.route.ns_per_item", Ratio(route.self_ns, route.sum_items), "ns",
       n(route), "self time over items routed"},
      {"core.route.shard_skew", skew, "ratio", st.shard_items.size(),
       "busiest shard's items over the mean"},
      {"core.store.ns_per_item", Ratio(store.self_ns, store.sum_items), "ns",
       n(store), "self time over items offered, lock waits included"},
      {"core.store.accept_ratio", Ratio(store.sum_out, store.sum_items),
       "ratio", n(store), "accepted over offered"},
      {"core.frontend.batch_p50_us", Median(frontend.dur_us), "us",
       n(frontend), "AddBatch span"},
      {"core.frontend.batch_p99_us", Tail(frontend.dur_us), "us",
       n(frontend), TailNote(n(frontend))},
      {"core.snapshot.p50_us", Median(snapshot.dur_us), "us", n(snapshot),
       "Merged / ImprovedSample call"},
      {"core.snapshot.p99_us", Tail(snapshot.dur_us), "us", n(snapshot),
       TailNote(n(snapshot))},
      {"core.snapshot.calls", static_cast<double>(n(snapshot)), "count",
       n(snapshot), "in traced rounds"},
      {"estimators.p50_us", Median(estimators.dur_us), "us", n(estimators),
       ""},
      {"samplers.window.stored_count", Median(window.out), "count", n(window),
       "merged stored items at the end of a round"},
      {"util.serialize.p50_us", Median(serialize.dur_us), "us", n(serialize),
       ""},
      {"util.serialize.bytes", Median(serialize.out), "bytes", n(serialize),
       "median frame size"},
      {"core.merge.p50_us", Median(merge.dur_us), "us", n(merge),
       "MergeManyFrames"},
      {"core.merge.entries_in", Median(merge.items), "count", n(merge),
       "entries in the merged frames"},
      {"core.merge.kept_ratio", Ratio(merge.sum_out, merge.sum_items),
       "ratio", n(merge), "root entries over entries in"},
      {"persist.write_p50_us", Median(write.dur_us), "us", n(write), ""},
      {"persist.write_p99_us", Tail(write.dur_us), "us", n(write),
       TailNote(n(write))},
      {"persist.open_us", Median(open.dur_us), "us", n(open), "median"},
      {"persist.restore_us", Median(restore.dur_us), "us", n(restore),
       "median"},
      {"workload.gen_late_p99_us", Tail(st.late_us), "us", st.late_us.size(),
       TailNote(st.late_us.size())},
      {"trace.coverage", coverage, "ratio", traces.size(),
       "lowest per-thread share of traced wall clock in top-level spans"},
      {"trace.overhead_frac", overhead, "ratio", st.traced_wall_ms.size(),
       "traced over untraced median round wall clock, minus 1"},
  };
}

std::vector<Metric> EndToEndMetrics(const RunStats& st) {
  const double failed_frac =
      Ratio(static_cast<double>(st.failed), static_cast<double>(st.attempted));
  return {
      {"setup_s", Median(st.setup_s), "s", st.setup_s.size(),
       "median of setups (input generation + reference)"},
      {"ingest_mitems_s", Median(st.ingest_mitems_s), "Mitems/s",
       st.ingest_mitems_s.size(),
       "median over rounds of items over ingest wall clock"},
      {"query_p50_us", Median(st.query_us), "us", st.query_us.size(),
       "open loop: from due time; fanin-ckpt: the root answer"},
      {"query_p99_us", Tail(st.query_us), "us", st.query_us.size(),
       TailNote(st.query_us.size())},
      {"round_p50_ms", Median(st.round_ms), "ms", st.round_ms.size(), ""},
      {"round_p99_ms", Tail(st.round_ms), "ms", st.round_ms.size(),
       TailNote(st.round_ms.size())},
      {"recover_ms", Median(st.recover_ms), "ms", st.recover_ms.size(),
       "median of OpenView + Restore + first answer"},
      {"state_bytes", Median(st.state_bytes), "bytes", st.state_bytes.size(),
       "MemoryFootprint at round end, median"},
      {"checkpoint_bytes", Median(st.checkpoint_bytes), "bytes",
       st.checkpoint_bytes.size(), "CKP1 file size, median"},
      {"est_rel_err", st.est_rel_err, "ratio", 1,
       "final estimate against the exact truth"},
      {"ops_failed_frac", failed_frac, "ratio",
       static_cast<size_t>(st.attempted), "failed over attempted"},
      {"cpu_steal_frac", st.cpu_steal_frac, "ratio", 1,
       "CPU time the hypervisor took away while measuring (/proc/stat)"},
  };
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pipeline_bench --workload ingest-zipf|"
               "window-dashboard|fanin-ckpt --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--corrupt-reference]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--corrupt-reference") {
      opt.corrupt_reference = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string_view(argv[++i]) == "1";
    } else if (arg == "--work-dir" && has_value) {
      opt.work_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  using RunFn = void (*)(const Options&, RunStats&, std::vector<ThreadTrace>&);
  const std::map<std::string, RunFn> workloads = {
      {"ingest-zipf", RunIngestZipf},
      {"window-dashboard", RunWindowDashboard},
      {"fanin-ckpt", RunFaninCkpt},
  };
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end() || opt.work_dir.empty() || !(opt.seconds > 0)) {
    return Usage();
  }
  std::filesystem::create_directories(opt.work_dir);

  RunStats st;
  std::vector<ThreadTrace> traces;
  const int64_t origin = NowNs();
  it->second(opt, st, traces);

  std::vector<Metric> metrics;
  bool coverage_ok = true;
  if (opt.trace) {
    const double coverage = Coverage(traces);
    coverage_ok = coverage >= kCoverageMin;
    if (!coverage_ok) {
      std::fprintf(stderr, "trace coverage %.4f below %.2f\n", coverage,
                   kCoverageMin);
    }
    metrics = LayerMetrics(st, traces, coverage);
    WriteSpans(opt.work_dir + "/" + opt.workload + "-seed" +
                   std::to_string(opt.seed) + ".spans.tsv",
               traces, origin);
  } else {
    metrics = EndToEndMetrics(st);
  }
  const bool correct = st.failed == 0 && coverage_ok;

  const std::string context =
      "{\"workload\": " + JsonString(opt.workload) +
      ", \"seed\": " + std::to_string(opt.seed) +
      ", \"seconds\": " + JsonNumber(opt.seconds) +
      ", \"trace\": " + (opt.trace ? "1" : "0") +
      ", \"num_cpus\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"simd_level\": " +
      JsonString(ats::simd::SimdLevelName(ats::simd::ActiveSimdLevel())) +
      ", \"build_type\": " + JsonString(ATS_BENCH_BUILD_TYPE) +
      ", \"compiler\": " + JsonString(__VERSION__) +
      ", \"threads\": " + JsonString(st.threads) +
      ", \"coverage_min\": " + JsonNumber(kCoverageMin) +
      ", \"corrupt_reference\": " +
      (opt.corrupt_reference ? "true" : "false") + "}";
  std::printf("context %s\n", context.c_str());
  for (const Metric& m : metrics) {
    std::printf("%-17s %-30s %14.6g %-9s n=%-7zu %s\n", opt.workload.c_str(),
                m.name.c_str(), m.value, m.unit.c_str(), m.samples,
                m.note.c_str());
  }
  std::printf("%-17s %-30s %" PRIu64 " failed of %" PRIu64 " attempted\n",
              opt.workload.c_str(), "operations", st.failed, st.attempted);

  std::string record = "{\"context\": " + context +
                       ", \"correct\": " + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(st.attempted) +
                       ", \"failed\": " + std::to_string(st.failed) +
                       ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    record += (i ? ", " : "") + JsonString(m.name) +
              ": {\"value\": " + JsonNumber(m.value) +
              ", \"unit\": " + JsonString(m.unit) +
              ", \"samples\": " + std::to_string(m.samples) +
              ", \"note\": " + JsonString(m.note) + "}";
  }
  record += "}}";
  std::printf("%s\n", record.c_str());
  return correct ? 0 : 1;
}
