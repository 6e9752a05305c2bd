// Tests for ats/core/select_rank.h: the bucketed rank select behind
// every bottom-k compaction must return exactly what a full
// std::nth_element plus a strict-below count returns, whatever the
// column's shape and whatever range the caller passes.
#include "ats/core/select_rank.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "ats/core/random.h"

namespace ats {
namespace {

using internal::RankSelection;
using internal::SelectRank;

constexpr double kInf = std::numeric_limits<double>::infinity();

RankSelection Reference(std::vector<double> v, size_t rank) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  const double value = v[rank];
  const auto below = static_cast<size_t>(std::count_if(
      v.begin(), v.end(), [value](double p) { return p < value; }));
  return {value, below};
}

// Checks `rank` of `v` through both entry points, the measured range and
// the caller's [lo, hi], into separate scratch (the column must stay
// untouched) and in place on a copy.
void ExpectMatches(const std::vector<double>& v, size_t rank, double lo,
                   double hi) {
  const RankSelection want = Reference(v, rank);
  const std::vector<double> before = v;
  std::vector<double> out(v.size());
  const RankSelection measured = SelectRank(v, rank, out.data());
  EXPECT_EQ(measured.value, want.value) << "rank " << rank;
  EXPECT_EQ(measured.below, want.below) << "rank " << rank;
  const RankSelection ranged = SelectRank(v, rank, lo, hi, out.data());
  EXPECT_EQ(ranged.value, want.value) << "rank " << rank << " [" << lo
                                      << ", " << hi << "]";
  EXPECT_EQ(ranged.below, want.below) << "rank " << rank;
  EXPECT_EQ(v, before);
  std::vector<double> column = v;
  const RankSelection in_place =
      SelectRank(column, rank, lo, hi, column.data());
  EXPECT_EQ(in_place.value, want.value) << "rank " << rank << " in place";
  EXPECT_EQ(in_place.below, want.below) << "rank " << rank << " in place";
}

// The compaction ranks: rank k of n = 2k (a full buffer) and of n = k + 1
// (the smallest overflow), and the smallest value.
void ExpectMatchesAtCompactionRanks(const std::vector<double>& v, double lo,
                                    double hi) {
  const size_t n = v.size();
  for (size_t rank : {size_t{0}, n / 2, n - 1}) ExpectMatches(v, rank, lo, hi);
}

std::vector<double> Uniform(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (double& p : v) p = rng.NextDoubleOpenZero();
  return v;
}

TEST(SelectRank, MatchesNthElementOnUniformColumns) {
  for (size_t n : {1u, 2u, 3u, 65u, 257u, 1000u, 8192u}) {
    for (uint64_t seed : {1u, 2u}) {
      const auto v = Uniform(n, seed);
      ExpectMatchesAtCompactionRanks(v, 0.0, 1.0);
    }
  }
}

TEST(SelectRank, EveryRankOfASmallColumn) {
  const auto v = Uniform(130, 3);
  for (size_t rank = 0; rank < v.size(); ++rank) {
    ExpectMatches(v, rank, 0.0, 1.0);
  }
}

TEST(SelectRank, AllTies) {
  const std::vector<double> v(300, 0.375);
  for (size_t rank : {0u, 150u, 299u}) {
    ExpectMatches(v, rank, 0.375, 0.375);
    ExpectMatches(v, rank, 0.0, 1.0);
  }
}

TEST(SelectRank, TwoDistinctValues) {
  std::vector<double> v;
  for (size_t i = 0; i < 200; ++i) v.push_back(i % 3 == 0 ? 0.25 : 0.75);
  for (size_t rank = 0; rank < v.size(); rank += 7) {
    ExpectMatches(v, rank, 0.25, 0.75);
    ExpectMatches(v, rank, 0.0, 1.0);
  }
}

TEST(SelectRank, TiesStraddlingTheRank) {
  // k = 64 and 2k = 128 buffered: 40 distinct values below, a block of
  // 60 ties across rank 64, and distinct values above.
  std::vector<double> v;
  for (size_t i = 0; i < 40; ++i) {
    v.push_back(0.001 * static_cast<double>(i));
  }
  for (size_t i = 0; i < 60; ++i) v.push_back(0.5);
  for (size_t i = 0; i < 28; ++i) {
    v.push_back(0.6 + 0.01 * static_cast<double>(i));
  }
  Xoshiro256 rng(4);
  for (size_t i = v.size() - 1; i > 0; --i) {
    std::swap(v[i], v[rng.NextBelow(i + 1)]);
  }
  for (size_t rank : {39u, 40u, 64u, 99u, 100u}) {
    ExpectMatches(v, rank, 0.0, 1.0);
  }
  std::vector<double> out(v.size());
  EXPECT_EQ(SelectRank(v, 64, 0.0, 1.0, out.data()).below, 40u);
}

TEST(SelectRank, NegativeLogKeys) {
  // Decay-style keys log(u / w) - t: negative, spread over several units.
  Xoshiro256 rng(5);
  std::vector<double> v(4096);
  for (size_t i = 0; i < v.size(); ++i) {
    const double weight = 0.5 + 4 * rng.NextDouble();
    v[i] = std::log(rng.NextDoubleOpenZero() / weight) -
           0.001 * static_cast<double>(i);
  }
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  ExpectMatchesAtCompactionRanks(v, *lo, *hi);
  // A range whose top misses most values: still exact.
  ExpectMatches(v, 2048, *lo, *lo + 1.0);
}

TEST(SelectRank, InfinitiesFallBackToAFullSelection) {
  auto v = Uniform(500, 6);
  v[3] = -kInf;
  v[77] = -kInf;
  v[400] = kInf;
  for (size_t rank : {0u, 1u, 2u, 250u, 499u}) {
    ExpectMatches(v, rank, -kInf, kInf);
    ExpectMatches(v, rank, -kInf, 1.0);
  }
  v[3] = v[77] = 0.5;
  for (size_t rank : {0u, 250u, 499u}) {
    ExpectMatches(v, rank, 0.0, 1.0);  // +inf clamps into the top bucket
  }
  const std::vector<double> all_inf(10, -kInf);
  ExpectMatches(all_inf, 5, -kInf, -kInf);
}

TEST(SelectRank, Subnormals) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> v;
  for (size_t i = 0; i < 300; ++i) {
    v.push_back(tiny * static_cast<double>((i * 37) % 101));
  }
  for (size_t rank : {0u, 100u, 150u, 299u}) {
    ExpectMatches(v, rank, 0.0, tiny * 100);  // scale overflows: fallback
    ExpectMatches(v, rank, 0.0, 1.0);         // one bucket holds them all
  }
  v.push_back(1.0);  // a range of [0, 1] with subnormal neighbours
  ExpectMatches(v, 150, 0.0, 1.0);
}

TEST(SelectRank, AColumnInOneBucket) {
  // Every value in [0.5, 0.5 + 1e-9) against the range [0, 1]: the one
  // bucket holds the whole column. And one outlier that stretches the
  // measured range so that all other values share bucket 0.
  Xoshiro256 rng(7);
  std::vector<double> v(1000);
  for (double& p : v) p = 0.5 + 1e-9 * rng.NextDouble();
  ExpectMatchesAtCompactionRanks(v, 0.0, 1.0);
  v.push_back(1e6);
  ExpectMatchesAtCompactionRanks(v, 0.5, 1e6);
}

TEST(SelectRank, ARangeWhoseTopMissesValuesStaysExact) {
  const auto v = Uniform(2000, 8);
  for (size_t rank : {10u, 1000u, 1990u}) {
    ExpectMatches(v, rank, 0.0, 0.75);
    ExpectMatches(v, rank, 0.0, 0.05);
  }
}

}  // namespace
}  // namespace ats
