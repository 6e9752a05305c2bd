// Exact rank selection for bottom-k compaction: the one order-statistic
// routine behind every threshold the library lowers in chunks.
//
// A bottom-k threshold is the (k+1)-th smallest priority, and chunked
// lowering (Theorem 6) makes each canonicalization one selection. A
// comparison selection (std::nth_element) over the whole column
// mispredicts on about every compare. SelectRank instead counts the
// values per bucket of a monotone linear map of a known value range,
// copies out only the bucket holding the rank, and selects exactly
// within it. The result does not depend on the range: a monotone map
// keeps equal values in one bucket and orders the buckets, so values in
// earlier buckets are strictly smaller and values in later ones strictly
// larger. A range whose top misses some values (they clamp into the top
// bucket) or a skewed column costs only speed.
#ifndef ATS_CORE_SELECT_RANK_H_
#define ATS_CORE_SELECT_RANK_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

namespace ats::internal {

struct RankSelection {
  double value;  // the (rank+1)-th smallest value
  size_t below;  // how many values are strictly below it
};

/// The (rank+1)-th smallest of `v` (rank < v.size()) and how many values
/// are strictly below it. Every value must be >= lo; values are expected
/// up to hi. The bucket holding the rank is copied to `out`, which needs
/// room for v.size() values and may be v.data() itself: a caller whose
/// column is scratch selects in place. A degenerate or non-finite range
/// (all ties, infinities) selects over the whole column. NaN values have
/// no rank; callers keep them out.
inline RankSelection SelectRank(std::span<const double> v, size_t rank,
                                double lo, double hi, double* out) {
  constexpr uint32_t kBuckets = 64;
  // Two interleaved histograms, so that increments of one bucket by
  // neighbouring values do not form one store-to-load chain. On a
  // skewed column (7/8 of it in one bucket) two lanes cut the pass by
  // ~45% against one; four ran ~30% slower than two on every shape
  // tried.
  constexpr size_t kLanes = 2;
  const size_t n = v.size();
  const double scale = kBuckets / (hi - lo);
  size_t before = 0;
  size_t m = n;
  if (!(std::isfinite(scale) && scale > 0.0)) {
    std::copy(v.begin(), v.end(), out);
  } else {
    // x >= 0 since p >= lo; above the top bucket (and for NaN) the
    // compare fails and the value clamps into it.
    const auto bucket_of = [lo, scale](double p) {
      const double x = (p - lo) * scale;
      return x < kBuckets - 1 ? static_cast<uint32_t>(x) : kBuckets - 1;
    };
    size_t count[kLanes][kBuckets] = {};
    size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      for (size_t l = 0; l < kLanes; ++l) ++count[l][bucket_of(v[i + l])];
    }
    for (; i < n; ++i) ++count[0][bucket_of(v[i])];
    uint32_t b = 0;
    for (;; ++b) {
      for (size_t l = 1; l < kLanes; ++l) count[0][b] += count[l][b];
      if (before + count[0][b] > rank) break;
      before += count[0][b];
    }
    // Branch-free copy-out: every value is written, and the write index
    // advances past the bucket's own only, so it never passes the read.
    m = 0;
    for (const double p : v) {
      out[m] = p;
      m += bucket_of(p) == b;
    }
  }
  double* const nth = out + (rank - before);
  std::nth_element(out, nth, out + m);
  const double value = *nth;
  const auto below_in_bucket = static_cast<size_t>(
      std::count_if(out, nth, [value](double p) { return p < value; }));
  return {value, before + below_in_bucket};
}

/// SelectRank over the column's own range [min, max], measured in one
/// pass: for columns with no known bounds, such as decay log keys, which
/// are negative.
inline RankSelection SelectRank(std::span<const double> v, size_t rank,
                                double* out) {
  // Eight accumulators of each kind, written as the compare-selects
  // that vectorize: the pass costs a small fraction of the select.
  constexpr size_t kLanes = 8;
  double lo[kLanes];
  double hi[kLanes];
  std::fill_n(lo, kLanes, v[0]);
  std::fill_n(hi, kLanes, v[0]);
  size_t i = 0;
  for (; i + kLanes <= v.size(); i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      const double p = v[i + l];
      lo[l] = p < lo[l] ? p : lo[l];
      hi[l] = p > hi[l] ? p : hi[l];
    }
  }
  for (; i < v.size(); ++i) {
    lo[0] = std::min(lo[0], v[i]);
    hi[0] = std::max(hi[0], v[i]);
  }
  return SelectRank(v, rank, *std::min_element(lo, lo + kLanes),
                    *std::max_element(hi, hi + kLanes), out);
}

}  // namespace ats::internal

#endif  // ATS_CORE_SELECT_RANK_H_
