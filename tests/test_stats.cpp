#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "stats/bootstrap.hpp"
#include "stats/distributions.hpp"
#include "stats/fast_math.hpp"
#include "stats/histogram.hpp"
#include "stats/reservoir.hpp"
#include "stats/summary.hpp"

namespace sixg::stats {
namespace {

// ---------------------------------------------------------------- Summary

TEST(Summary, KnownValues) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, EmptyIsSafe) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, SingleValue) {
  Summary s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(Summary, MergeWithEmpty) {
  Summary a;
  a.add(1.0);
  a.add(2.0);
  Summary b;
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

/// Property: merging partial summaries must equal the serial summary,
/// for any split point. This is the invariant the parallel campaign
/// runner relies on.
class SummaryMergeProperty : public ::testing::TestWithParam<int> {};

TEST_P(SummaryMergeProperty, MergeEqualsSerial) {
  Rng rng{std::uint64_t(GetParam()) * 7919 + 1};
  std::vector<double> data(500);
  for (auto& x : data) x = rng.uniform(-100.0, 100.0);

  Summary serial;
  for (double x : data) serial.add(x);

  const std::size_t split =
      std::size_t(GetParam()) * data.size() / 10;
  Summary left;
  Summary right;
  for (std::size_t i = 0; i < data.size(); ++i)
    (i < split ? left : right).add(data[i]);
  left.merge(right);

  EXPECT_EQ(left.count(), serial.count());
  EXPECT_NEAR(left.mean(), serial.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), serial.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), serial.min());
  EXPECT_DOUBLE_EQ(left.max(), serial.max());
}

INSTANTIATE_TEST_SUITE_P(Splits, SummaryMergeProperty,
                         ::testing::Range(0, 11));

// ---------------------------------------------------------------- Histogram

TEST(Histogram, BinEdgesAndCounts) {
  Histogram h{0.0, 10.0, 10};
  h.add(0.5);
  h.add(1.5);
  h.add(1.7);
  h.add(9.99);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(1), 2u);
  EXPECT_EQ(h.bin(9), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
}

TEST(Histogram, UnderOverflow) {
  Histogram h{0.0, 1.0, 4};
  h.add(-5.0);
  h.add(2.0);
  h.add(0.5);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, CdfMonotoneAndBounded) {
  Histogram h{0.0, 100.0, 50};
  Rng rng{3};
  for (int i = 0; i < 10000; ++i) h.add(rng.uniform(0.0, 100.0));
  double prev = -1.0;
  for (double x = 0.0; x <= 100.0; x += 5.0) {
    const double c = h.cdf(x);
    EXPECT_GE(c, prev);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  // Uniform data: CDF at midpoint ~ 0.5.
  EXPECT_NEAR(h.cdf(50.0), 0.5, 0.03);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a{0.0, 10.0, 10};
  Histogram b{0.0, 10.0, 10};
  a.add(1.0);
  b.add(1.0);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.bin(1), 2u);
  EXPECT_EQ(a.bin(5), 1u);
}

// ------------------------------------------------------------ distributions

TEST(Distributions, NormalMoments) {
  Rng rng{5};
  Summary s;
  for (int i = 0; i < 200000; ++i) s.add(sample_normal(rng, 10.0, 3.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

struct LognormalCase {
  double median;
  double sigma;
};

class LognormalProperty : public ::testing::TestWithParam<LognormalCase> {};

TEST_P(LognormalProperty, MedianAndMeanMatchTheory) {
  const auto param = GetParam();
  const Lognormal dist = Lognormal::from_median(param.median, param.sigma);
  EXPECT_NEAR(dist.median(), param.median, 1e-9);

  Rng rng{17};
  ReservoirQuantile q{100000};
  Summary s;
  for (int i = 0; i < 100000; ++i) {
    const double x = dist.sample(rng);
    EXPECT_GT(x, 0.0);
    q.add(x);
    s.add(x);
  }
  EXPECT_NEAR(q.median() / param.median, 1.0, 0.03);
  EXPECT_NEAR(s.mean() / dist.mean(), 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LognormalProperty,
    ::testing::Values(LognormalCase{1.0, 0.1}, LognormalCase{10.0, 0.4},
                      LognormalCase{65.0, 0.25}, LognormalCase{0.5, 0.8}));

TEST(Distributions, ShiftedExponentialMoments) {
  const ShiftedExponential dist{5.0, 2.0};
  Rng rng{6};
  Summary s;
  for (int i = 0; i < 100000; ++i) {
    const double x = dist.sample(rng);
    EXPECT_GE(x, 5.0);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), 7.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

// ---------------------------------------------------------------- bootstrap

TEST(Bootstrap, CiContainsTrueMeanForWellBehavedData) {
  Rng rng{11};
  std::vector<double> sample(400);
  for (auto& x : sample) x = sample_normal(rng, 50.0, 5.0);
  const Interval ci = bootstrap_mean_ci(sample, 0.95, 2000, 99);
  EXPECT_TRUE(ci.contains(50.0)) << "[" << ci.lo << "," << ci.hi << "]";
  EXPECT_LT(ci.width(), 2.5);
  EXPECT_GT(ci.width(), 0.0);
}

TEST(Bootstrap, DeterministicForSeed) {
  std::vector<double> sample{1, 2, 3, 4, 5, 6, 7, 8};
  const Interval a = bootstrap_mean_ci(sample, 0.9, 500, 7);
  const Interval b = bootstrap_mean_ci(sample, 0.9, 500, 7);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

TEST(Bootstrap, HigherConfidenceWidensInterval) {
  Rng rng{12};
  std::vector<double> sample(200);
  for (auto& x : sample) x = rng.uniform(0.0, 10.0);
  const Interval narrow = bootstrap_mean_ci(sample, 0.80, 2000, 3);
  const Interval wide = bootstrap_mean_ci(sample, 0.99, 2000, 3);
  EXPECT_GT(wide.width(), narrow.width());
}

// ------------------------------------------------------------- fast_log

TEST(FastLog, TracksLibmAcrossTheSamplerDomain) {
  // The exponential samplers feed x = 1 - uniform() in (0, 1]; fast_log
  // must stay within a few ulp of libm there (the committed-table kernel
  // is accurate to ~2.5e-16 absolute for |log| < 1).
  Rng rng{2024};
  for (int i = 0; i < 2'000'000; ++i) {
    const double x = 1.0 - rng.uniform();
    const double ref = std::log(x);
    const double fast = fast_log(x);
    const double tol = 1e-15 * std::max(1.0, std::fabs(ref));
    ASSERT_NEAR(ref, fast, tol) << "x=" << x;
  }
}

TEST(FastLog, TracksLibmAcrossMagnitudes) {
  Rng rng{7};
  for (int exp10 = -300; exp10 <= 300; exp10 += 7) {
    const double scale = std::pow(10.0, exp10);
    for (int i = 0; i < 200; ++i) {
      const double x = rng.uniform(0.5, 1.5) * scale;
      const double ref = std::log(x);
      ASSERT_NEAR(ref, fast_log(x), 1e-15 * std::max(1.0, std::fabs(ref)))
          << "x=" << x;
    }
  }
}

TEST(FastLog, SpecialValuesMatchLibmSemantics) {
  // log(1) is ~1e-17, not exactly 0 (table method); every sampler
  // truncates to integer nanoseconds, which absorbs it.
  EXPECT_NEAR(fast_log(1.0), 0.0, 1e-15);
  EXPECT_TRUE(std::isinf(fast_log(0.0)));
  EXPECT_LT(fast_log(0.0), 0.0);
  EXPECT_TRUE(std::isnan(fast_log(-1.0)));
  EXPECT_TRUE(std::isinf(fast_log(
      std::numeric_limits<double>::infinity())));
  EXPECT_TRUE(std::isnan(fast_log(
      std::numeric_limits<double>::quiet_NaN())));
  // Subnormals route through the fallback and stay finite.
  const double sub = std::numeric_limits<double>::denorm_min();
  EXPECT_NEAR(fast_log(sub), std::log(sub), 1e-12);
}

// ---------------------------------------------------------- reservoir

/// Reference for the exact mode: sort every value, then interpolate
/// linearly between the order statistics around q * (n - 1).
double sort_and_interpolate(std::vector<double> sample, double q) {
  std::sort(sample.begin(), sample.end());
  const double pos = q * double(sample.size() - 1);
  const auto lo = std::size_t(pos);
  const auto hi = std::min(lo + 1, sample.size() - 1);
  const double frac = pos - double(lo);
  return sample[lo] * (1.0 - frac) + sample[hi] * frac;
}

TEST(ReservoirQuantile, ExactBelowCapMatchesSortAndInterpolate) {
  // Below the cap the reservoir retains every value: its quantiles are
  // the sorted sample's, bit for bit.
  ReservoirQuantile r{256, 1};
  std::vector<double> values;
  Rng rng{9};
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0.0, 50.0);
    r.add(x);
    values.push_back(x);
  }
  EXPECT_TRUE(r.exact());
  EXPECT_EQ(r.count(), 200u);
  EXPECT_EQ(r.sample_count(), 200u);
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(r.quantile(q), sort_and_interpolate(values, q)) << q;
  }
}

TEST(ReservoirQuantile, ExactQuantilesAtCapEqualToSampleCount) {
  ReservoirQuantile q{100};
  for (int i = 1; i <= 100; ++i) q.add(double(i));
  EXPECT_TRUE(q.exact());
  EXPECT_NEAR(q.median(), 50.5, 1e-9);
  EXPECT_NEAR(q.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(q.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(q.quantile(0.25), 25.75, 1e-9);
}

TEST(ReservoirQuantile, ExactMergeCombines) {
  ReservoirQuantile a{100};
  ReservoirQuantile b{50};
  for (int i = 1; i <= 50; ++i) a.add(double(i));
  for (int i = 51; i <= 100; ++i) b.add(double(i));
  a.merge(b);
  EXPECT_TRUE(a.exact());
  EXPECT_EQ(a.count(), 100u);
  EXPECT_NEAR(a.median(), 50.5, 1e-9);
}

TEST(ReservoirQuantile, CappedStreamStaysBoundedAndAccurate) {
  ReservoirQuantile r{2048, 7};
  Rng rng{13};
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) r.add(rng.uniform(0.0, 1.0));
  EXPECT_FALSE(r.exact());
  EXPECT_EQ(r.count(), std::uint64_t(kSamples));
  EXPECT_EQ(r.sample_count(), 2048u);
  // A uniform stream: the sampled quantiles must track the true ones.
  EXPECT_NEAR(r.quantile(0.5), 0.5, 0.05);
  EXPECT_NEAR(r.quantile(0.9), 0.9, 0.05);
  EXPECT_NEAR(r.quantile(0.99), 0.99, 0.02);
}

TEST(ReservoirQuantile, DeterministicForFixedSeed) {
  ReservoirQuantile a{128, 3};
  ReservoirQuantile b{128, 3};
  ReservoirQuantile other_seed{128, 4};
  Rng rng{21};
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    a.add(x);
    b.add(x);
    other_seed.add(x);
  }
  EXPECT_EQ(a.quantile(0.5), b.quantile(0.5));
  EXPECT_EQ(a.quantile(0.99), b.quantile(0.99));
  // A different eviction stream keeps different residents.
  EXPECT_NE(a.quantile(0.5), other_seed.quantile(0.5));
}

// -------------------------------------------------- buffer renderers

TEST(BufferRenderers, SummaryAppendMatchesStr) {
  Summary s;
  Rng rng{2};
  for (int i = 0; i < 500; ++i) s.add(rng.uniform(-1.0, 12.0));
  std::string buf = "prefix:";
  s.to(buf);
  EXPECT_EQ(buf, "prefix:" + s.str());
}

TEST(FastLog, ShiftedExponentialUsesTheSharedKernel) {
  // The distribution's inverse-CDF draw must equal the hand-written
  // expression over the same kernel — this is the contract CompiledPath
  // relies on for byte-equal sampling.
  const ShiftedExponential dist{0.0, 17.5};
  Rng a{5};
  Rng b{5};
  for (int i = 0; i < 10000; ++i) {
    const double expected =
        0.0 - 17.5 * fast_log_positive_normal(1.0 - b.uniform());
    ASSERT_EQ(dist.sample(a), expected);
  }
}

}  // namespace
}  // namespace sixg::stats
