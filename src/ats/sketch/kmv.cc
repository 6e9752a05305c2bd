#include "ats/sketch/kmv.h"

#include <algorithm>
#include <functional>
#include <ranges>

#include "ats/util/check.h"

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
  if (!(priority < store_.AcceptBound())) return false;
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
  const KmvSketch* one = &other;
  MergeMany(std::span(&one, 1));
}

void KmvSketch::MergeMany(std::span<const KmvSketch* const> others) {
  for (const KmvSketch* o : others) ATS_CHECK(hash_salt_ == o->hash_salt_);
  // The store's one merge gather, accepting through the per-item
  // duplicate check (coordinated hashing gives a key the same priority
  // in every sketch). No initial-threshold merge: the receiver keeps
  // its own.
  store_.MergeGather(others, &KmvSketch::store_,
                     [this](double p, uint64_t key) { OfferPriority(p, key); });
}

size_t KmvSketch::FrameView::PrefixBelow(double t) const {
  const auto ids = std::views::iota(size_t{0}, size());
  const auto below = [&](size_t i) { return priority(i) < t; };
  return static_cast<size_t>(std::ranges::partition_point(ids, below) -
                             ids.begin());
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
  FrameView view;
  view.k_ = *k;
  view.hash_salt_ = *salt;
  view.initial_threshold_ = *initial;
  view.threshold_ = *threshold;
  if (!view.Take(r, *count)) return std::nullopt;
  // Canonical encoding only: strictly ascending priorities inside
  // (0, threshold). Ascending order implies distinctness.
  double prev = 0.0;
  for (size_t i = 0; i < view.size(); ++i) {
    const double p = view.priority(i);
    if (!(p > prev) || p >= *threshold) return std::nullopt;
    prev = p;
  }
  return view;
}

KmvSketch KmvSketch::FromView(const FrameView& view) {
  // Materializing a frame is merging it into an empty sketch.
  KmvSketch sketch(view.k(), view.initial_threshold(), view.hash_salt());
  sketch.MergeValidatedViews(std::span(&view, 1));
  return sketch;
}

void KmvSketch::MergeValidatedViews(std::span<const FrameView> views) {
  store_.MergeGather(views, std::identity{},
                     [this](double p, uint64_t key) { OfferPriority(p, key); });
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
