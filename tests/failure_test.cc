// Failure-injection tests: the CHECK contracts that guard the library
// against misuse must actually fire (death tests), and Status paths must
// engage instead of crashing for recoverable errors.

#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/greedy.h"
#include "core/ris.h"
#include "core/snapshot.h"
#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/lt.h"
#include "model/probability.h"
#include "oracle/exact_oracle.h"

namespace soldist {
namespace {

InfluenceGraph TinyIg(double p = 0.5) {
  EdgeList edges;
  edges.num_vertices = 2;
  edges.Add(0, 1);
  Graph g = GraphBuilder::FromEdgeList(edges);
  return InfluenceGraph(std::move(g), {p});
}

using FailureDeathTest = testing::Test;

TEST(FailureDeathTest, InfluenceGraphRejectsOutOfRangeProbability) {
  EdgeList edges;
  edges.num_vertices = 2;
  edges.Add(0, 1);
  Graph g1 = GraphBuilder::FromEdgeList(edges);
  EXPECT_DEATH(InfluenceGraph(std::move(g1), {1.5}), "probability");
  Graph g2 = GraphBuilder::FromEdgeList(edges);
  EXPECT_DEATH(InfluenceGraph(std::move(g2), {0.0}), "probability");
}

TEST(FailureDeathTest, InfluenceGraphRejectsMisalignedProbabilities) {
  EdgeList edges;
  edges.num_vertices = 2;
  edges.Add(0, 1);
  Graph g = GraphBuilder::FromEdgeList(edges);
  EXPECT_DEATH(InfluenceGraph(std::move(g), {0.5, 0.5}), "align");
}

TEST(FailureDeathTest, BuilderRejectsInvalidEdgeList) {
  EdgeList edges;
  edges.num_vertices = 1;
  edges.Add(0, 5);  // endpoint out of range
  EXPECT_DEATH(GraphBuilder::FromEdgeList(edges), "out-of-range");
}

TEST(FailureDeathTest, EstimatorsRejectDoubleBuild) {
  InfluenceGraph ig = TinyIg();
  SnapshotEstimator snapshot(ModelInstance::Ic(&ig), 2, 1);
  snapshot.Build();
  EXPECT_DEATH(snapshot.Build(), "exactly once");
  RisEstimator ris(ModelInstance::Ic(&ig), 2, 1);
  ris.Build();
  EXPECT_DEATH(ris.Build(), "exactly once");
}

TEST(FailureDeathTest, EstimateBeforeBuildFires) {
  InfluenceGraph ig = TinyIg();
  RisEstimator ris(ModelInstance::Ic(&ig), 2, 1);
  EXPECT_DEATH(ris.Estimate(0), "built");
}

TEST(FailureDeathTest, GreedyRejectsOversizedK) {
  InfluenceGraph ig = TinyIg();
  auto estimator = MakeEstimator(ModelInstance::Ic(&ig), Approach::kRis, 4, 1);
  Rng tie_rng(1);
  EXPECT_DEATH(RunGreedy(estimator.get(), ig.num_vertices(), 3, &tie_rng),
               "");
}

TEST(FailureDeathTest, LtWeightsRejectInvalidGraph) {
  // In-weights sum to 1.5 at vertex 1: invalid for LT.
  EdgeList edges;
  edges.num_vertices = 3;
  edges.Add(0, 1);
  edges.Add(2, 1);
  Graph g = GraphBuilder::FromEdgeList(edges);
  InfluenceGraph ig(std::move(g), {0.9, 0.6});
  EXPECT_DEATH(LtWeights{&ig}, "iwc");
}

TEST(FailureDeathTest, ExactOracleRejectsLargeGraphs) {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());  // 156 edges
  InfluenceGraph ig =
      MakeInfluenceGraph(std::move(g), ProbabilityModel::kUc01);
  EXPECT_DEATH(ExactInfluence(ig, std::vector<VertexId>{0}), "enumeration");
}

TEST(FailureStatusTest, DatasetByNameReturnsNotFound) {
  auto result = Datasets::ByName("NoSuchNetwork", 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(FailureStatusTest, ProbabilityParseReturnsNotFound) {
  auto result = ParseProbabilityModel("bogus");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace soldist
