// Unit tests for the common module: timestamps, HLC, codec, RNG, Zipf,
// statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/hlc.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/zipf.h"

namespace faastcc {
namespace {

// ---------------------------------------------------------------------------
// Timestamp
// ---------------------------------------------------------------------------

TEST(Timestamp, PacksAndUnpacksFields) {
  const Timestamp t(123456, 7, 42);
  EXPECT_EQ(t.physical_us(), 123456u);
  EXPECT_EQ(t.logical(), 7u);
  EXPECT_EQ(t.node(), 42u);
}

TEST(Timestamp, OrderedByPhysicalFirst) {
  EXPECT_LT(Timestamp(100, 500, 900), Timestamp(101, 0, 0));
}

TEST(Timestamp, OrderedByLogicalWithinSamePhysical) {
  EXPECT_LT(Timestamp(100, 3, 900), Timestamp(100, 4, 0));
}

TEST(Timestamp, OrderedByNodeAsTieBreak) {
  EXPECT_LT(Timestamp(100, 3, 1), Timestamp(100, 3, 2));
}

TEST(Timestamp, MinMaxAreExtremes) {
  EXPECT_LT(Timestamp::min(), Timestamp(0, 0, 1));
  EXPECT_GT(Timestamp::max(), Timestamp((1ull << 40), 4095, 1023));
}

TEST(Timestamp, PrevNextAreAdjacent) {
  const Timestamp t(5, 5, 5);
  EXPECT_LT(t.prev(), t);
  EXPECT_GT(t.next(), t);
  EXPECT_EQ(t.prev().next(), t);
  EXPECT_EQ(t.next().raw(), t.raw() + 1);
}

TEST(Timestamp, MaxFieldValuesDoNotOverflowNeighbors) {
  const Timestamp t(77, Timestamp::kMaxLogical, Timestamp::kMaxNode);
  EXPECT_EQ(t.physical_us(), 77u);
  EXPECT_EQ(t.logical(), Timestamp::kMaxLogical);
  EXPECT_EQ(t.node(), Timestamp::kMaxNode);
}

// ---------------------------------------------------------------------------
// HlcClock
// ---------------------------------------------------------------------------

TEST(HlcClock, TickIsStrictlyMonotone) {
  HlcClock c(3);
  Timestamp prev = c.tick(100);
  for (int i = 0; i < 100; ++i) {
    const Timestamp t = c.tick(100);  // physical time frozen
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(HlcClock, TickTracksAdvancingPhysicalTime) {
  HlcClock c(3);
  const Timestamp a = c.tick(100);
  const Timestamp b = c.tick(200);
  EXPECT_EQ(a.physical_us(), 100u);
  EXPECT_EQ(b.physical_us(), 200u);
  EXPECT_EQ(b.logical(), 0u);
}

TEST(HlcClock, UpdateMovesAheadOfRemote) {
  HlcClock c(3);
  c.tick(100);
  const Timestamp remote(500, 9, 7);
  const Timestamp t = c.update(remote, 100);
  EXPECT_GT(t, remote);
  EXPECT_EQ(t.node(), 3u);
}

TEST(HlcClock, UpdateRespectsHappenedBefore) {
  // Classic HLC exchange: every message receipt produces a timestamp above
  // both the sender's and the receiver's previous ones.
  HlcClock a(1);
  HlcClock b(2);
  Timestamp last_a = a.tick(10);
  Timestamp last_b = b.update(last_a, 5);  // b's physical clock lags
  EXPECT_GT(last_b, last_a);
  Timestamp next_a = a.update(last_b, 12);
  EXPECT_GT(next_a, last_b);
}

TEST(HlcClock, LogicalOverflowBorrowsPhysicalTime) {
  HlcClock c(1);
  Timestamp t = c.tick(50);
  for (uint64_t i = 0; i <= Timestamp::kMaxLogical + 2; ++i) {
    const Timestamp n = c.tick(50);
    EXPECT_GT(n, t);
    t = n;
  }
  EXPECT_GT(t.physical_us(), 50u);
}

TEST(HlcClock, BoundedDriftWithoutRemoteInfluence) {
  HlcClock c(1);
  for (int i = 0; i < 1000; ++i) c.tick(1000);
  // Frozen physical time: drift is bounded by the logical bits borrowing.
  EXPECT_LE(c.current().physical_us(), 1001u);
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(Codec, RoundTripsScalars) {
  BufWriter w;
  w.put_u8(0xAB);
  w.put_u16(0xCDEF);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  w.put_f64(3.25);
  w.put_bool(true);
  const Buffer b = w.take();

  BufReader r(b);
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0xCDEF);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.25);
  EXPECT_TRUE(r.get_bool());
  EXPECT_TRUE(r.done());
}

TEST(Codec, RoundTripsStrings) {
  BufWriter w;
  w.put_bytes("");
  w.put_bytes("hello");
  w.put_bytes(std::string(10000, 'x'));
  const Buffer b = w.take();
  BufReader r(b);
  EXPECT_EQ(r.get_bytes(), "");
  EXPECT_EQ(r.get_bytes(), "hello");
  EXPECT_EQ(r.get_bytes().size(), 10000u);
}

TEST(Codec, UnderflowThrows) {
  BufWriter w;
  w.put_u32(7);
  const Buffer b = w.take();
  BufReader r(b);
  r.get_u32();
  EXPECT_THROW(r.get_u64(), CodecError);
}

TEST(Codec, TruncatedStringThrows) {
  BufWriter w;
  w.put_u32(1000);  // length prefix with no payload behind it
  const Buffer b = w.take();
  BufReader r(b);
  EXPECT_THROW(r.get_bytes(), CodecError);
}

TEST(Codec, SizesAreExact) {
  BufWriter w;
  w.put_u64(1);
  w.put_u64(2);
  EXPECT_EQ(w.size(), 16u);  // the snapshot-interval wire size (Fig. 5)
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng r(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.next_below(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(9);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, NextRangeInclusive) {
  Rng r(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.next_range(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

// ---------------------------------------------------------------------------
// Zipf
// ---------------------------------------------------------------------------

TEST(Zipf, PmfSumsToOne) {
  ZipfSampler z(1000, 1.0);
  double sum = 0;
  for (uint64_t i = 0; i < 1000; ++i) sum += z.pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, RankZeroIsMostLikely) {
  ZipfSampler z(1000, 1.2);
  EXPECT_GT(z.pmf(0), z.pmf(1));
  EXPECT_GT(z.pmf(1), z.pmf(10));
  EXPECT_GT(z.pmf(10), z.pmf(999));
}

TEST(Zipf, ThetaZeroIsUniform) {
  ZipfSampler z(100, 0.0);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_NEAR(z.pmf(i), 0.01, 1e-9);
  }
}

TEST(Zipf, SamplesMatchPmf) {
  ZipfSampler z(100, 1.0);
  Rng r(17);
  std::vector<int> counts(100, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(r)];
  for (uint64_t k : {0u, 1u, 5u, 50u}) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, z.pmf(k),
                5 * std::sqrt(z.pmf(k) / n) + 1e-3);
  }
}

TEST(Zipf, HigherThetaIsMoreSkewed) {
  ZipfSampler low(1000, 1.0), high(1000, 1.5);
  EXPECT_GT(high.pmf(0), low.pmf(0));
}

TEST(Zipf, SamplesStayInRange) {
  ZipfSampler z(10, 1.5);
  Rng r(23);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(z.sample(r), 10u);
  }
}

// The rank the plain inverse CDF gives: std::upper_bound over every entry.
uint64_t plain_rank(const ZipfSampler& z, double u) {
  const auto& cdf = z.cdf();
  const auto idx =
      static_cast<uint64_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                            cdf.begin());
  return std::min<uint64_t>(idx, z.num_keys() - 1);
}

// Counts the draws among `us` where the guided search disagrees.
size_t guide_mismatches(const ZipfSampler& z, const std::vector<double>& us) {
  size_t bad = 0;
  for (double u : us) bad += z.rank_of(u) != plain_rank(z, u);
  return bad;
}

// Every CDF entry and its two floating-point neighbours, plus the bucket
// bounds b / 2^k of every power-of-two bucket count up to 2^20.
std::vector<double> boundary_values(const ZipfSampler& z) {
  std::vector<double> us;
  const auto keep = [&us](double u) {
    if (u >= 0.0 && u < 1.0) us.push_back(u);
  };
  for (double c : z.cdf()) {
    keep(c);
    keep(std::nextafter(c, 0.0));
    keep(std::nextafter(c, 1.0));
  }
  for (int bits = 0; bits <= 20; ++bits) {
    const double buckets = std::ldexp(1.0, bits);
    for (double b = 0; b < buckets; ++b) {
      keep(b / buckets);
      keep(std::nextafter(b / buckets, 0.0));
    }
  }
  keep(0.0);
  keep(std::nextafter(1.0, 0.0));
  return us;
}

TEST(Zipf, GuideTableMatchesPlainUpperBoundOnDraws) {
  // The paper's dataset and skew, a million draws from the generator's Rng.
  ZipfSampler z(100000, 1.0);
  Rng r(29);
  std::vector<double> us(1000000);
  for (double& u : us) u = r.next_double();
  EXPECT_EQ(guide_mismatches(z, us), 0u);
  // sample() is rank_of() on the same draw sequence.
  Rng a(31), b(31);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_EQ(z.sample(a), plain_rank(z, b.next_double()));
  }
}

TEST(Zipf, GuideTableMatchesPlainUpperBoundOnBoundaries) {
  for (const auto& [n, theta] :
       std::vector<std::pair<uint64_t, double>>{{100000, 1.0},
                                                {100000, 0.6},
                                                {1000, 1.5},
                                                {1000, 1.2},
                                                {100, 0.0},
                                                {3, 1.0},
                                                {1, 1.0}}) {
    ZipfSampler z(n, theta);
    EXPECT_EQ(guide_mismatches(z, boundary_values(z)), 0u)
        << "n=" << n << " theta=" << theta;
  }
}

TEST(Zipf, SamplersOfOneDistributionShareTheirTable) {
  ZipfSampler a(5000, 1.0), b(5000, 1.0), c(5000, 0.9);
  EXPECT_EQ(&a.cdf(), &b.cdf());
  EXPECT_NE(&a.cdf(), &c.cdf());
}

// ---------------------------------------------------------------------------
// Samples
// ---------------------------------------------------------------------------

TEST(Samples, EmptyIsZero) {
  Samples s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Samples, ExactPercentilesOnKnownData) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.p99(), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
}

TEST(Samples, SingleElement) {
  Samples s;
  s.add(7.5);
  EXPECT_DOUBLE_EQ(s.median(), 7.5);
  EXPECT_DOUBLE_EQ(s.p99(), 7.5);
  EXPECT_DOUBLE_EQ(s.mean(), 7.5);
}

TEST(Samples, MeanMinMaxSum) {
  Samples s;
  s.add(1);
  s.add(2);
  s.add(6);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.sum(), 9.0);
}

TEST(Samples, MergeCombines) {
  Samples a, b;
  a.add(1);
  b.add(3);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Samples, PercentileIsOrderInsensitive) {
  Samples a, b;
  std::vector<double> values{9, 1, 5, 3, 7};
  for (double v : values) a.add(v);
  std::sort(values.begin(), values.end());
  for (double v : values) b.add(v);
  EXPECT_DOUBLE_EQ(a.median(), b.median());
}

// Parameterized sweep: percentile() agrees with a naive sorted
// implementation for many (size, percentile) combinations.
class PercentileSweep : public ::testing::TestWithParam<int> {};

TEST_P(PercentileSweep, MatchesNaiveImplementation) {
  const int n = GetParam();
  Rng r(static_cast<uint64_t>(n) * 31 + 7);
  Samples s;
  std::vector<double> values;
  for (int i = 0; i < n; ++i) {
    const double v = r.next_double() * 1000;
    s.add(v);
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    const double rank = (p / 100.0) * (n - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = static_cast<size_t>(std::ceil(rank));
    const double expected =
        values[lo] + (values[hi] - values[lo]) * (rank - lo);
    EXPECT_NEAR(s.percentile(p), expected, 1e-9) << "n=" << n << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PercentileSweep,
                         ::testing::Values(1, 2, 3, 10, 101, 1000));

}  // namespace
}  // namespace faastcc
