// Frequent-groups distinct counting (Section 3.6).
//
// GROUP BY distinct-count queries can create tens of millions of tiny
// sketches. Instead of a bottom-k sketch per group, this structure keeps
//   * m bottom-k (KMV) sketches for the m currently-largest groups, and
//   * one shared "general pool" of (group, hash) samples filtered at the
//     threshold T_max = max over the m promoted groups' thresholds.
// A new item of a promoted group goes to that group's sketch; otherwise it
// enters the pool if its hash priority is below T_max. When a pool group
// accumulates more than k sampled items, it is promoted: the promoted
// group with the LARGEST threshold is demoted (its items move back to the
// pool), so T_max is monotone non-increasing and the pool always holds a
// valid threshold sample. In effect the sampling rate adapts to the top m
// groups: the tolerated error for a small group is a percentage of the
// heavy groups' sizes, and most small groups store no items at all.
//
// Estimates: promoted group -> its KMV estimate; pool group -> (#pool
// items of the group) / T_max, an HT count at threshold T_max.
//
// The per-group sketches are SampleStore-backed KMV sketches, and the
// whole structure satisfies the MergeableSketch interface: Merge() takes
// the union of two grouped sketches (min pool threshold, per-group KMV
// merges) and the wire format nests the member sketches' bytes.
#ifndef ATS_SKETCH_GROUP_DISTINCT_H_
#define ATS_SKETCH_GROUP_DISTINCT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ats/sketch/kmv.h"
#include "ats/util/memory.h"
#include "ats/util/serialize.h"

namespace ats {

class GroupDistinctSketch : public WholeFrame<GroupDistinctSketch> {
 public:
  // m: number of promoted per-group sketches; k: per-sketch capacity.
  GroupDistinctSketch(size_t m, size_t k, uint64_t hash_salt = 0);

  // Feeds one (group, key) observation.
  void Add(uint64_t group, uint64_t key);

  // One (group, key) observation for the batched path.
  struct Observation {
    uint64_t group;
    uint64_t key;
  };

  // Batched ingest: equivalent to calling Add() on each observation in
  // order, but the per-(group, key) coordinated hash priorities are
  // computed for a whole 64-observation block up front (a dense,
  // vectorizable loop), so the routing stage never re-hashes. Routing
  // itself cannot be block-pre-filtered -- promoted groups accept above
  // the pool threshold -- so each observation still consults its group's
  // sketch, which is an O(1) bound test on the compaction store.
  void AddBatch(std::span<const Observation> observations);

  // Distinct-count estimate for a group (0 when the group has no sampled
  // items -- its true count is below the resolution T_max affords).
  double Estimate(uint64_t group) const;

  // Current pool threshold T_max.
  double PoolThreshold() const { return pool_threshold_; }

  bool IsPromoted(uint64_t group) const {
    return promoted_.contains(group);
  }

  // Total stored items (promoted sketches + pool): the memory cost.
  size_t StoredItems() const;

  // Live heap bytes (util/memory.h convention): the promoted sketches
  // recursively plus the modeled pool containers. O(groups), not
  // O(items): per-sketch footprints are O(1).
  size_t MemoryFootprint() const {
    size_t total = HashFootprint(promoted_) + HashFootprint(pool_);
    for (const auto& [group, sketch] : promoted_) {
      total += sketch.MemoryFootprint();
    }
    for (const auto& [group, priorities] : pool_) {
      total += TreeFootprint(priorities);
    }
    return total;
  }

  size_t NumPromoted() const { return promoted_.size(); }
  size_t PoolSize() const { return pool_.size(); }

  // All groups that currently have at least one sampled item.
  std::vector<uint64_t> GroupsWithSamples() const;

  // Union of two grouped sketches over the same (m, k, salt) parameters:
  // per-group KMV merges for groups promoted on both sides, adoption plus
  // demotion down to m otherwise, and pool union at the min pool
  // threshold. Estimates on the merged sketch remain valid HT counts.
  // Self-merge is a no-op.
  void Merge(const GroupDistinctSketch& other);

  // Threshold-pruned k-way union over the same (m, k, salt) parameters,
  // built on the k-way merge engine: the union pool threshold (min over
  // all inputs) is applied FIRST, so every subsequent per-group fold and
  // pool union filters at the final bound from the start; groups
  // promoted across several inputs are merged with ONE
  // KmvSketch::MergeMany selection each instead of a chain of pairwise
  // merges; and the m-bound demotions run once at the end.
  //
  // Semantics: the same union guarantees as a chain of pairwise Merge
  // calls -- identical pool-completeness/HT-validity invariants and, for
  // every group, an estimate built from the union of its observations.
  // The promoted SET and per-sketch thetas may differ from a particular
  // pairwise chain within the structure's heuristic freedom (pairwise
  // chains already differ between merge orders); the aggregation-tier
  // tests pin exact equality in the demotion-free regime and the
  // invariants under demotion pressure. Inputs aliasing `this` are
  // skipped.
  void MergeMany(std::span<const GroupDistinctSketch* const> others);

  size_t m() const { return m_; }
  size_t k() const { return k_; }
  uint64_t hash_salt() const { return hash_salt_; }

  // Wire format: versioned header, parameters, nested promoted KMV
  // sketches, then the pool.
  void SerializeTo(ByteWriter& w) const;
  static std::optional<GroupDistinctSketch> Deserialize(ByteReader& r);
  using WholeFrame<GroupDistinctSketch>::Deserialize;

 private:
  // Shared routing core for Add/AddBatch: `priority` is the observation's
  // coordinated hash priority (already computed).
  void AddWithPriority(uint64_t group, uint64_t key, double priority);

  void RecomputePoolThreshold();
  void PurgePool();
  void MaybePromote(uint64_t group);
  // Moves the promoted sketch with the largest threshold back to the pool
  // (keeping only items below the pool threshold).
  void DemoteLargestThreshold();

  size_t m_;
  size_t k_;
  uint64_t hash_salt_;
  double pool_threshold_ = 1.0;
  // Pool insertions since the last RecomputePoolThreshold: bounds how
  // stale (high) the pool threshold may go under the lazy bound-drop
  // refresh trigger (see AddWithPriority).
  size_t pool_inserts_since_refresh_ = 0;
  std::unordered_map<uint64_t, KmvSketch> promoted_;
  // Pool: group -> set of retained hash priorities (dedup per group).
  std::unordered_map<uint64_t, std::set<double>> pool_;
};

static_assert(MergeableSketch<GroupDistinctSketch>);

}  // namespace ats

#endif  // ATS_SKETCH_GROUP_DISTINCT_H_
