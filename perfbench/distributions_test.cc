#include "distributions.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace gemrec::perfbench {
namespace {

TEST(ExponentialDistributionTest, MeanAndVarianceMatchClosedForm) {
  Rng rng(11);
  const double rate = 2500.0;
  const ExponentialDistribution gap(rate);
  constexpr int kDraws = 400000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = gap(rng);
    ASSERT_GT(x, 0.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kDraws;
  const double variance = sum_sq / kDraws - mean * mean;
  // Standard error of the mean is (1/rate)/sqrt(n); allow 4 of them.
  EXPECT_NEAR(mean, 1.0 / rate, 4.0 / rate / std::sqrt(kDraws));
  EXPECT_NEAR(variance * rate * rate, 1.0, 0.02);
}

TEST(PoissonArrivalsTest, CountAndGapsMatchRate) {
  Rng rng(12);
  const double rate = 3000.0, seconds = 20.0;
  const std::vector<int64_t> at = PoissonArrivals(rate, seconds, rng);
  // The count is Poisson(rate * seconds): sd = sqrt(60000) ~ 245.
  EXPECT_NEAR(static_cast<double>(at.size()), rate * seconds, 4 * 245.0);
  for (size_t i = 1; i < at.size(); ++i) ASSERT_GE(at[i], at[i - 1]);
  ASSERT_FALSE(at.empty());
  EXPECT_LT(at.back(), static_cast<int64_t>(seconds * 1e9));
  const double mean_gap_ns =
      static_cast<double>(at.back() - at.front()) / (at.size() - 1);
  EXPECT_NEAR(mean_gap_ns, 1e9 / rate, 0.02 * 1e9 / rate);
}

TEST(PoissonArrivalsTest, SameSeedSameSchedule) {
  Rng a(5), b(5);
  EXPECT_EQ(PoissonArrivals(1000.0, 1.0, a), PoissonArrivals(1000.0, 1.0, b));
}

void ExpectZipfFrequencies(uint64_t n, double s, uint64_t seed) {
  const ZipfDistribution zipf(n, s);
  Rng rng(seed);
  constexpr int kDraws = 500000;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t k = zipf(rng);
    ASSERT_LT(k, n);
    ++counts[k];
  }
  double total_probability = 0.0;
  for (uint64_t k = 0; k < n; ++k) total_probability += zipf.Probability(k);
  EXPECT_NEAR(total_probability, 1.0, 1e-9);
  // The head ranks carry the signal; each frequency must sit within
  // five binomial standard deviations of its closed-form probability.
  for (uint64_t k = 0; k < std::min<uint64_t>(n, 20); ++k) {
    const double p = zipf.Probability(k);
    const double sd = std::sqrt(p * (1.0 - p) / kDraws);
    EXPECT_NEAR(static_cast<double>(counts[k]) / kDraws, p, 5.0 * sd + 1e-12)
        << "n=" << n << " s=" << s << " rank " << k;
  }
}

TEST(ZipfDistributionTest, RankFrequenciesMatchClosedForm) {
  ExpectZipfFrequencies(12000, 1.0, 20);  // the hot_partner shape
  ExpectZipfFrequencies(12000, 1.1, 21);
  ExpectZipfFrequencies(100, 1.0, 22);    // s == 1 takes the log branch
  ExpectZipfFrequencies(50, 0.6, 23);
  ExpectZipfFrequencies(1, 1.1, 24);
}

TEST(ZipfDistributionTest, HeadMassSetsTheCacheHitCeiling) {
  // The share of draws landing in the top-c ranks is what an LRU of c
  // entries can hit at best; the workload picks s for this mass.
  const ZipfDistribution zipf(12000, 1.1);
  Rng rng(31);
  constexpr int kDraws = 300000;
  int head = 0;
  for (int i = 0; i < kDraws; ++i) head += zipf(rng) < 4000 ? 1 : 0;
  double expected = 0.0;
  for (uint64_t k = 0; k < 4000; ++k) expected += zipf.Probability(k);
  EXPECT_NEAR(static_cast<double>(head) / kDraws, expected, 0.005);
}

}  // namespace
}  // namespace gemrec::perfbench
