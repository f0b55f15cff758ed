// Unit tests for the PRNG substrate: determinism, ranges, rough
// uniformity, and stream independence; plus the pin of the in-tree
// MT19937-64 engine, and every Rng operation over it, to the standard
// library's std::mt19937_64.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <set>
#include <vector>

#include "random/mt19937_64.h"
#include "random/rng.h"
#include "random/splitmix64.h"

namespace soldist {
namespace {

TEST(SplitMix64Test, DeterministicForSameSeed) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(SplitMix64Test, KnownReferenceValue) {
  // Reference: first output of SplitMix64 for seed 0 per Vigna's code.
  SplitMix64 g(0);
  EXPECT_EQ(g.Next(), 0xe220a8397b1dcdafULL);
}

TEST(DeriveSeedTest, DistinctIndexesGiveDistinctSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    seeds.insert(DeriveSeed(42, i));
  }
  EXPECT_EQ(seeds.size(), 10000u);
}

TEST(DeriveSeedTest, Deterministic) {
  EXPECT_EQ(DeriveSeed(7, 3), DeriveSeed(7, 3));
  EXPECT_NE(DeriveSeed(7, 3), DeriveSeed(8, 3));
  EXPECT_NE(DeriveSeed(7, 3), DeriveSeed(7, 4));
}

/// The seeds every pin below covers: edge values, the standard default,
/// and the per-trial / per-chunk seeds the library actually derives.
std::vector<std::uint64_t> PinSeeds() {
  std::vector<std::uint64_t> seeds{0, 1, 5489, ~std::uint64_t{0}};
  for (std::uint64_t i = 0; i < 200; ++i) seeds.push_back(DeriveSeed(42, i));
  return seeds;
}

// The Rng operations written out over the reference engine.
double ReferenceUnitReal(std::mt19937_64& g) {
  return static_cast<double>(g() >> 11) * 0x1.0p-53;
}

std::uint64_t ReferenceUniformInt(std::mt19937_64& g, std::uint64_t bound) {
  unsigned __int128 m = static_cast<unsigned __int128>(g()) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    std::uint64_t threshold = (-bound) % bound;
    while (low < threshold) {
      m = static_cast<unsigned __int128>(g()) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

TEST(Mt19937_64Test, StandardTenThousandthDraw) {
  // [rand.predef]: the 10000th draw of a default-seeded (5489)
  // mt19937_64 is 9981545732273789042.
  Mt19937_64 g(5489);
  for (int i = 1; i < 10000; ++i) g();
  EXPECT_EQ(g(), 9981545732273789042ULL);
}

TEST(Mt19937_64Test, DrawsEqualStdMt19937_64) {
  // 1,500 draws cross the 312-word twist more than four times.
  for (std::uint64_t seed : PinSeeds()) {
    Mt19937_64 g(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 1500; ++i) {
      ASSERT_EQ(g(), reference()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Mt19937_64Test, DiscardEqualsStdMt19937_64Discard) {
  // Skips that stop short of, on and just past the 312-word twist, and
  // one of many twists, each from read positions before, on and past a
  // twist boundary; 700 draws afterwards cross the next twist.
  for (std::uint64_t before : {0, 1, 311, 312, 500}) {
    for (std::uint64_t skip : {0, 1, 311, 312, 313, 1000003}) {
      Mt19937_64 g(DeriveSeed(42, skip));
      std::mt19937_64 reference(DeriveSeed(42, skip));
      for (std::uint64_t i = 0; i < before; ++i) {
        ASSERT_EQ(g(), reference());
      }
      g.Discard(skip);
      reference.discard(skip);
      for (int i = 0; i < 700; ++i) {
        ASSERT_EQ(g(), reference())
            << "after " << before << " draws, skip " << skip << ", draw " << i;
      }
    }
  }
}

TEST(Mt19937_64Test, RangeEqualsStdMt19937_64) {
  EXPECT_EQ(Mt19937_64::min(), std::mt19937_64::min());
  EXPECT_EQ(Mt19937_64::max(), std::mt19937_64::max());
}

TEST(RngPinTest, OperationsEqualFormulasOverStdMt19937_64) {
  for (std::uint64_t seed : PinSeeds()) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(rng.NextBits(), reference());
      ASSERT_EQ(rng.UnitReal(), ReferenceUnitReal(reference));
      // 2^63 + 1 rejects about half its draws in Lemire's loop.
      for (std::uint64_t bound :
           {1ULL, 7ULL, 5242ULL, (1ULL << 63) + 1}) {
        ASSERT_EQ(rng.UniformInt(bound), ReferenceUniformInt(reference, bound))
            << "seed " << seed << " bound " << bound;
      }
      for (double p : {0.1, 0.5, 1.0}) {
        ASSERT_EQ(rng.Bernoulli(p), ReferenceUnitReal(reference) < p);
      }
    }
  }
}

TEST(RngPinTest, ShuffleEqualsShuffleOverStdMt19937_64) {
  // libstdc++'s std::shuffle reads only the generator's range and draws,
  // and with a 64-bit range it takes the path that draws two swap
  // positions per call; both parities of the length are covered.
  for (std::size_t length = 0; length <= 1000; ++length) {
    std::vector<std::uint32_t> got(length);
    std::iota(got.begin(), got.end(), 0u);
    std::vector<std::uint32_t> want = got;
    Rng rng(DeriveSeed(7, length));
    std::mt19937_64 reference(DeriveSeed(7, length));
    std::shuffle(got.begin(), got.end(), rng.engine());
    std::shuffle(want.begin(), want.end(), reference);
    ASSERT_EQ(got, want) << "length " << length;
    ASSERT_EQ(rng.NextBits(), reference()) << "length " << length;
  }
}

TEST(RngTest, UnitRealInHalfOpenInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.UnitReal();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UnitRealMeanNearHalf) {
  Rng rng(2);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.UnitReal();
  // SD of the mean is ~1/sqrt(12*kSamples) ≈ 0.0009; 5 sigma tolerance.
  EXPECT_NEAR(sum / kSamples, 0.5, 0.005);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1000003ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.UniformInt(bound), bound);
    }
  }
}

TEST(RngTest, UniformIntRoughlyUniform) {
  Rng rng(4);
  constexpr std::uint64_t kBound = 10;
  constexpr int kSamples = 100000;
  std::vector<int> buckets(kBound, 0);
  for (int i = 0; i < kSamples; ++i) ++buckets[rng.UniformInt(kBound)];
  // Chi-squared with 9 dof: 99.9% quantile ≈ 27.9.
  double expected = static_cast<double>(kSamples) / kBound;
  double chi2 = 0.0;
  for (int b : buckets) {
    chi2 += (b - expected) * (b - expected) / expected;
  }
  EXPECT_LT(chi2, 35.0);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(5);
  constexpr int kSamples = 200000;
  for (double p : {0.1, 0.5, 0.9}) {
    int hits = 0;
    for (int i = 0; i < kSamples; ++i) {
      if (rng.Bernoulli(p)) ++hits;
    }
    double rate = static_cast<double>(hits) / kSamples;
    // 5-sigma band: sigma = sqrt(p(1-p)/kSamples) <= 0.0011.
    EXPECT_NEAR(rate, p, 0.006) << "p=" << p;
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));  // UnitReal() < 0 never holds
  }
  int hits = 0;
  for (int i = 0; i < 100; ++i) {
    if (rng.Bernoulli(1.0)) ++hits;
  }
  EXPECT_EQ(hits, 100);  // UnitReal() < 1 always holds
}

TEST(RngTest, EngineUsableWithStdShuffle) {
  Rng rng(7);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  std::shuffle(v.begin(), v.end(), rng.engine());
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

}  // namespace
}  // namespace soldist
