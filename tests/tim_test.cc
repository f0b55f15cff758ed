// Tests for the TIM+-style sample-number determination.

#include <gtest/gtest.h>

#include <cmath>

#include "core/bounds.h"
#include "core/tim.h"
#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/probability.h"
#include "oracle/rr_oracle.h"

namespace soldist {
namespace {

InfluenceGraph KarateUc01() {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());
  return MakeInfluenceGraph(std::move(g), ProbabilityModel::kUc01);
}

TEST(TimTest, KptIsPlausibleOptLowerBound) {
  InfluenceGraph ig = KarateUc01();
  TimParams params{.k = 1, .epsilon = 0.2, .ell = 1.0};
  std::uint64_t used = 0;
  TraversalCounters counters;
  double kpt = EstimateKpt(ig, params, 7, &used, &counters);
  // OPT_1 on Karate uc0.1 is ~3.8 (the instructor vertex); KPT must be a
  // nontrivial lower bound: above the trivial 1, below OPT.
  EXPECT_GE(kpt, 1.0);
  EXPECT_LT(kpt, 6.0);
  EXPECT_GT(used, 0u);
  EXPECT_GT(counters.vertices, 0u);
}

TEST(TimTest, LambdaMatchesFormula) {
  InfluenceGraph ig = KarateUc01();
  TimParams params{.k = 2, .epsilon = 0.1, .ell = 1.0};
  double n = 34.0;
  double expected = (8.0 + 0.2) * n *
                    (std::log(n) + LogBinomial(34, 2) + std::log(2.0)) /
                    0.01;
  EXPECT_NEAR(TimLambda(ig, params), expected, 1e-6);
}

TEST(TimTest, ThetaDecreasesWithLooserEpsilon) {
  InfluenceGraph ig = KarateUc01();
  TimParams tight{.k = 1, .epsilon = 0.1, .ell = 1.0};
  TimParams loose{.k = 1, .epsilon = 0.5, .ell = 1.0};
  TimResult a = RunTimPlus(ig, tight, 3);
  TimResult b = RunTimPlus(ig, loose, 3);
  EXPECT_GT(a.theta, b.theta);
}

TEST(TimTest, EndToEndFindsNearOptimalSeeds) {
  InfluenceGraph ig = KarateUc01();
  TimParams params{.k = 2, .epsilon = 0.3, .ell = 1.0};
  TimResult result = RunTimPlus(ig, params, 11);
  ASSERT_EQ(result.greedy.seeds.size(), 2u);
  EXPECT_GE(result.theta, 1u);

  // Compare against the oracle-greedy reference: TIM+'s guarantee is
  // (1−1/e−ε), but empirically it should land within a few percent.
  RrOracle oracle(&ig, 100000, 12);
  double got = oracle.EstimateInfluence(result.greedy.seeds);
  double reference =
      oracle.EstimateInfluence(oracle.OracleGreedySeeds(2));
  EXPECT_GE(got, 0.9 * reference);
}

TEST(TimTest, DeterministicInSeed) {
  InfluenceGraph ig = KarateUc01();
  TimParams params{.k = 1, .epsilon = 0.3, .ell = 1.0};
  TimResult a = RunTimPlus(ig, params, 5);
  TimResult b = RunTimPlus(ig, params, 5);
  EXPECT_EQ(a.theta, b.theta);
  EXPECT_EQ(a.greedy.seeds, b.greedy.seeds);
}

}  // namespace
}  // namespace soldist
