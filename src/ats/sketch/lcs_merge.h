// Generalized LCS merge for distinct counting (Section 3.5, Figure 4).
//
// Merging coordinated bottom-k sketches with the Theta rule (min of the
// thresholds) throws information away: a hash retained by sketch A at
// threshold theta_A > theta_min still certifies inclusion at probability
// theta_A. The LCS sketch of Cohen & Kaplan [9] instead keeps per-item
// thresholds T'_h = max over the input sketches whose sample contains h of
// that sketch's threshold -- a 1-substitutable composition (Theorem 9) --
// and estimates the union as  N_hat = sum_h 1 / T'_h.
//
// Why the max is the correct inclusion probability for every case:
//   * h in both samples: the item is in A and B, so it is retained iff
//     h < max(theta_A, theta_B).
//   * h only in sample A and h < theta_B: the item cannot be in B (it
//     would have been retained), so pi = theta_A.
//   * h only in sample A and h >= theta_B: whether or not the item is in
//     B, theta_B <= h < theta_A forces max = theta_A, so pi = theta_A.
// Merges chain: merging merged sketches takes the per-item max again.
#ifndef ATS_SKETCH_LCS_MERGE_H_
#define ATS_SKETCH_LCS_MERGE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ats/sketch/kmv.h"
#include "ats/util/memory.h"
#include "ats/util/serialize.h"

namespace ats {

class LcsSketch : public WholeFrame<LcsSketch> {
 public:
  // Lifts a KMV sketch: every retained hash gets the sketch's threshold.
  static LcsSketch FromKmv(const KmvSketch& kmv);

  // Merges this sketch with another (union semantics): per-item thresholds
  // are maxed for hashes in both samples. Self-merge is a no-op.
  void Merge(const LcsSketch& other);

  // Union distinct-count estimate: sum over retained hashes of 1/T'_h.
  double Estimate() const;

  size_t size() const { return items_.size(); }

  // Live heap bytes of the retained map, modeled per util/memory.h.
  size_t MemoryFootprint() const { return TreeFootprint(items_); }

  // Retained (hash priority -> per-item threshold), ascending by priority.
  const std::map<double, double>& items() const { return items_; }

  // Wire format (per-item thresholds travel with the sample, so merges
  // chain across serialization boundaries).
  void SerializeTo(ByteWriter& w) const;
  static std::optional<LcsSketch> Deserialize(ByteReader& r);
  using WholeFrame<LcsSketch>::Deserialize;

 private:
  std::map<double, double> items_;  // priority -> per-item threshold
};

static_assert(MergeableSketch<LcsSketch>);

}  // namespace ats

#endif  // ATS_SKETCH_LCS_MERGE_H_
