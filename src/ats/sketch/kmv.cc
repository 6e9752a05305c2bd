#include "ats/sketch/kmv.h"

#include <algorithm>
#include <cstring>

#include "ats/util/check.h"

namespace {
// Wire stride of one (priority, key) frame entry.
constexpr size_t kKmvEntryStride = sizeof(double) + sizeof(uint64_t);
}  // namespace

namespace ats {

KmvSketch::KmvSketch(size_t k, double initial_threshold, uint64_t hash_salt)
    : hash_salt_(hash_salt), store_(k, initial_threshold) {
  ATS_CHECK(initial_threshold > 0.0 && initial_threshold <= 1.0);
}

bool KmvSketch::AddKey(uint64_t key) {
  return OfferPriority(HashToUnit(HashKey(key, hash_salt_)), key);
}

size_t KmvSketch::AddKeys(std::span<const uint64_t> keys) {
  // Fused hash -> priority -> pre-filter pipeline: each 64-key block is
  // hashed into a dense priority column first, culled against the store's
  // acceptance bound with the shared block scan, and only survivors reach
  // the per-item duplicate check (OfferPriority re-checks the live bound).
  size_t retained = 0;
  internal::VisitHashedCandidates(
      keys, hash_salt_, [this] { return store_.AcceptBound(); },
      [&](double priority, uint64_t key) {
        retained += OfferPriority(priority, key) ? 1 : 0;
      });
  return retained;
}

bool KmvSketch::OfferPriority(double priority, uint64_t key) {
  // Test against the O(1) chunked acceptance bound, not the canonical
  // Threshold(): the latter would force a buffer compaction per call,
  // defeating the store's amortized-O(1) ingest.
  if (priority >= store_.AcceptBound()) return false;
  if (!seen_.insert(std::bit_cast<uint64_t>(priority)).second) {
    return true;  // duplicate key: already accepted (it is below theta)
  }
  const bool retained = store_.Offer(priority, key);
  // Dropped priorities in seen_ are harmless (they sit at/above the
  // acceptance bound and are rejected before the set is consulted) but
  // they accumulate over a long stream; rebuilding from the retained set
  // once the slack exceeds ~k keeps memory at O(k) with amortized O(1)
  // cost per accepted offer.
  if (seen_.size() > 2 * store_.k() + 64) CompactSeen();
  return retained;
}

void KmvSketch::CompactSeen() {
  seen_.clear();
  for (double p : store_.priorities()) {
    seen_.insert(std::bit_cast<uint64_t>(p));
  }
}

double KmvSketch::Estimate() const {
  return static_cast<double>(store_.size()) / store_.Threshold();
}

std::vector<std::pair<double, uint64_t>> KmvSketch::members() const {
  const std::vector<size_t> order = store_.SortedOrder();
  const std::vector<double>& priorities = store_.priorities();
  const std::vector<uint64_t>& keys = store_.payloads();
  std::vector<std::pair<double, uint64_t>> out;
  out.reserve(order.size());
  for (size_t i : order) out.emplace_back(priorities[i], keys[i]);
  return out;
}

void KmvSketch::Merge(const KmvSketch& other) {
  if (&other == this) return;
  ATS_CHECK(hash_salt_ == other.hash_salt_);
  store_.LowerThreshold(other.Threshold());
  // Per-item offers (not a raw store merge): coordinated hashing means the
  // same key appears with the same priority in both sketches, and
  // OfferPriority suppresses those duplicates.
  const std::vector<double>& priorities = other.store_.priorities();
  const std::vector<uint64_t>& keys = other.store_.payloads();
  for (size_t i = 0; i < priorities.size(); ++i) {
    OfferPriority(priorities[i], keys[i]);
  }
  store_.PurgeAboveThreshold();
}

void KmvSketch::MergeMany(std::span<const KmvSketch* const> others) {
  // No real inputs: strict no-op, like the zero-length pairwise chain
  // (the closing purge must only run on behalf of an actual merge).
  bool any_input = false;
  for (const KmvSketch* o : others) any_input |= o != this;
  if (!any_input) return;
  // Pass 1: global acceptance bound. Threshold() canonicalizes each
  // input, so pass 2 scans dense canonical columns.
  double bound = store_.Threshold();
  for (const KmvSketch* o : others) {
    if (o == this) continue;
    ATS_CHECK(hash_salt_ == o->hash_salt_);
    bound = std::min(bound, o->Threshold());
  }
  store_.LowerThreshold(bound);
  // Pass 2: block-prefiltered gather. Only survivors reach the per-item
  // duplicate check (OfferPriority re-checks the live bound, which
  // compactions tighten below the global min as evictions accumulate).
  // Rejected members never touch the seen_ set or the key column --
  // exactly the items a pairwise chain would admit early and purge
  // later.
  for (const KmvSketch* o : others) {
    if (o == this) continue;
    const std::vector<double>& ps = o->store_.priorities();
    const std::vector<uint64_t>& keys = o->store_.payloads();
    size_t i = 0;
    for (; i + internal::kIngestBlock <= ps.size();
         i += internal::kIngestBlock) {
      internal::VisitBlockCandidates(
          ps.data() + i, store_.AcceptBound(),
          [&](size_t j) { OfferPriority(ps[i + j], keys[i + j]); });
    }
    for (; i < ps.size(); ++i) {
      if (ps[i] < store_.AcceptBound()) OfferPriority(ps[i], keys[i]);
    }
  }
  store_.PurgeAboveThreshold();
}

size_t KmvSketch::FrameView::size() const {
  return entries_.size() / kKmvEntryStride;
}

double KmvSketch::FrameView::priority(size_t i) const {
  ATS_DCHECK(i < size());
  double p;
  std::memcpy(&p, entries_.data() + i * kKmvEntryStride, sizeof(p));
  return p;
}

uint64_t KmvSketch::FrameView::key(size_t i) const {
  ATS_DCHECK(i < size());
  uint64_t k;
  std::memcpy(&k,
              entries_.data() + i * kKmvEntryStride + sizeof(double),
              sizeof(k));
  return k;
}

std::optional<KmvSketch::FrameView> KmvSketch::ReadView(ByteReader& r) {
  if (!ReadSketchHeader(r, kWireMagic, kWireVersion)) return std::nullopt;
  const auto k = r.ReadU64();
  const auto salt = r.ReadU64();
  const auto initial = r.ReadDouble();
  const auto threshold = r.ReadDouble();
  const auto count = r.ReadU64();
  if (!k || !salt.has_value() || !initial || !threshold || !count) {
    return std::nullopt;
  }
  if (*k < 1 || !(*initial > 0.0) || *initial > 1.0 ||
      !(*threshold > 0.0) || *threshold > *initial || *count > *k) {
    return std::nullopt;
  }
  // Fixed-stride entry region: one size comparison bounds-checks every
  // entry; the division keeps it overflow-free for hostile counts.
  const std::string_view rest = r.Rest();
  if (*count > rest.size() / kKmvEntryStride) return std::nullopt;
  FrameView view;
  view.k_ = *k;
  view.hash_salt_ = *salt;
  view.initial_threshold_ = *initial;
  view.threshold_ = *threshold;
  view.entries_ = rest.substr(0, *count * kKmvEntryStride);
  // Canonical encoding only: strictly ascending priorities inside
  // (0, threshold). Ascending order implies distinctness.
  double prev = 0.0;
  for (size_t i = 0; i < view.size(); ++i) {
    const double p = view.priority(i);
    if (!(p > prev) || p >= *threshold) return std::nullopt;
    prev = p;
  }
  r.Skip(view.entries_.size());
  return view;
}

KmvSketch KmvSketch::FromView(const FrameView& view) {
  KmvSketch sketch(view.k(), view.initial_threshold(), view.hash_salt());
  for (size_t i = 0; i < view.size(); ++i) {
    sketch.seen_.insert(std::bit_cast<uint64_t>(view.priority(i)));
    sketch.store_.Offer(view.priority(i), view.key(i));
  }
  sketch.store_.LowerThreshold(view.threshold());
  return sketch;
}

void KmvSketch::MergeValidatedViews(std::span<const FrameView> views) {
  double bound = store_.Threshold();
  for (const FrameView& v : views) bound = std::min(bound, v.threshold());
  store_.LowerThreshold(bound);
  alignas(64) double block[internal::kIngestBlock];
  for (const FrameView& v : views) {
    // Canonical frames are ascending, so the global bound cuts each
    // frame to a PREFIX: binary-search it and never decode the tail.
    size_t n = v.size();
    {
      size_t lo = 0, hi = n;
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (v.priority(mid) < bound) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      n = lo;
    }
    size_t i = 0;
    for (; i + internal::kIngestBlock <= n; i += internal::kIngestBlock) {
      for (size_t j = 0; j < internal::kIngestBlock; ++j) {
        block[j] = v.priority(i + j);
      }
      internal::VisitBlockCandidates(
          block, store_.AcceptBound(),
          [&](size_t j) { OfferPriority(block[j], v.key(i + j)); });
    }
    for (; i < n; ++i) {
      const double p = v.priority(i);
      if (p < store_.AcceptBound()) OfferPriority(p, v.key(i));
    }
  }
  store_.PurgeAboveThreshold();
}

void KmvSketch::SerializeTo(ByteWriter& w) const {
  WriteSketchHeader(w, kWireMagic, kWireVersion);
  w.WriteU64(store_.k());
  w.WriteU64(hash_salt_);
  w.WriteDouble(store_.initial_threshold());
  w.WriteDouble(store_.Threshold());
  w.WriteU64(store_.size());
  for (const auto& [priority, key] : members()) {
    w.WriteDouble(priority);
    w.WriteU64(key);
  }
}

}  // namespace ats
