// Tests for the greedy framework (Algorithm 3.1) and CELF.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/celf.h"
#include "core/greedy.h"
#include "core/oneshot.h"
#include "core/ris.h"
#include "core/snapshot.h"
#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/probability.h"

namespace soldist {
namespace {

InfluenceGraph StarGraph(VertexId leaves, double p) {
  EdgeList edges;
  edges.num_vertices = leaves + 1;
  for (VertexId i = 1; i <= leaves; ++i) edges.Add(0, i);
  Graph g = GraphBuilder::FromEdgeList(edges);
  return InfluenceGraph(std::move(g), std::vector<double>(leaves, p));
}

InfluenceGraph TwoEdgePairs() {
  // 0 -> 1 and 2 -> 3 with p = 1: vertices 0 and 2 tie exactly.
  EdgeList edges;
  edges.num_vertices = 4;
  edges.Add(0, 1);
  edges.Add(2, 3);
  Graph g = GraphBuilder::FromEdgeList(edges);
  return InfluenceGraph(std::move(g), {1.0, 1.0});
}

/// Stub estimator with fixed scores, recording Estimate calls in order.
class FixedEstimator : public InfluenceEstimator {
 public:
  explicit FixedEstimator(std::vector<double> scores)
      : scores_(std::move(scores)) {}
  void Build() override {}
  double Estimate(VertexId v) override {
    order_.push_back(v);
    return scores_[v];
  }
  void Update(VertexId) override {}
  bool EstimatesAreMarginal() const override { return true; }
  std::uint64_t sample_number() const override { return 1; }
  const TraversalCounters& counters() const override { return counters_; }
  std::string name() const override { return "Fixed"; }
  std::uint64_t calls() const { return order_.size(); }
  /// Every Estimate argument, in call order.
  const std::vector<VertexId>& order() const { return order_; }

 private:
  std::vector<double> scores_;
  std::vector<VertexId> order_;
  TraversalCounters counters_;
};

TEST(GreedyTest, PicksUniqueMaximum) {
  FixedEstimator estimator({1.0, 5.0, 3.0, 2.0});
  Rng tie_rng(1);
  auto result = RunGreedy(&estimator, 4, 1, &tie_rng);
  ASSERT_EQ(result.seeds.size(), 1u);
  EXPECT_EQ(result.seeds[0], 1u);
  EXPECT_DOUBLE_EQ(result.estimates[0], 5.0);
}

TEST(GreedyTest, SweepsAllUnselectedVertices) {
  FixedEstimator estimator({1.0, 2.0, 3.0, 4.0, 5.0});
  Rng tie_rng(2);
  auto result = RunGreedy(&estimator, 5, 2, &tie_rng);
  // Round 1: 5 calls; round 2: 4 calls (selected vertex skipped).
  EXPECT_EQ(estimator.calls(), 9u);
  EXPECT_EQ(result.seeds[0], 4u);
  EXPECT_EQ(result.seeds[1], 3u);
  // Each round asks the unselected vertices in the shuffled order (Oneshot
  // draws one RNG stream per Estimate call, so its estimates depend on it).
  std::vector<VertexId> order(5);
  for (VertexId v = 0; v < 5; ++v) order[v] = v;
  Rng replay(2);
  std::shuffle(order.begin(), order.end(), replay.engine());
  std::vector<VertexId> expected = order;
  order.erase(std::find(order.begin(), order.end(), result.seeds[0]));
  expected.insert(expected.end(), order.begin(), order.end());
  EXPECT_EQ(estimator.order(), expected);
}

TEST(GreedyTest, SeedsAreDistinct) {
  InfluenceGraph ig = StarGraph(6, 0.5);
  OneshotEstimator estimator(ModelInstance::Ic(&ig), 4, /*seed=*/3);
  Rng tie_rng(4);
  auto result = RunGreedy(&estimator, ig.num_vertices(), 5, &tie_rng);
  std::vector<VertexId> sorted = result.SortedSeedSet();
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_EQ(sorted.size(), 5u);
}

TEST(GreedyTest, StarCenterAlwaysFirstAtFullProbability) {
  InfluenceGraph ig = StarGraph(8, 1.0);
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    RisEstimator estimator(ModelInstance::Ic(&ig), 256, seed);
    Rng tie_rng(seed + 1000);
    auto result = RunGreedy(&estimator, ig.num_vertices(), 1, &tie_rng);
    EXPECT_EQ(result.seeds[0], 0u) << "seed " << seed;
  }
}

TEST(GreedyTest, TieBrokenUniformly) {
  // Vertices 0 and 2 have identical deterministic influence 2.0; 1 and 3
  // have 1.0. Over many runs both 0 and 2 must be chosen often.
  InfluenceGraph ig = TwoEdgePairs();
  std::map<VertexId, int> wins;
  constexpr int kRuns = 600;
  for (int run = 0; run < kRuns; ++run) {
    SnapshotEstimator estimator(ModelInstance::Ic(&ig), 1, /*seed=*/run);
    Rng tie_rng(run * 7919 + 17);
    auto result = RunGreedy(&estimator, ig.num_vertices(), 1, &tie_rng);
    ++wins[result.seeds[0]];
  }
  EXPECT_EQ(wins.count(1), 0u);
  EXPECT_EQ(wins.count(3), 0u);
  // Binomial(600, 0.5): 5 sigma ≈ 61.
  EXPECT_GT(wins[0], 230);
  EXPECT_GT(wins[2], 230);
}

TEST(GreedyTest, LastMaximumWins) {
  // All scores equal: the selected vertex must be the LAST in shuffled
  // order. Reconstruct the shuffle with an identically seeded Rng.
  FixedEstimator estimator(std::vector<double>(10, 1.0));
  Rng tie_rng(42);
  auto result = RunGreedy(&estimator, 10, 1, &tie_rng);

  std::vector<VertexId> order(10);
  for (VertexId v = 0; v < 10; ++v) order[v] = v;
  Rng replay(42);
  std::shuffle(order.begin(), order.end(), replay.engine());
  EXPECT_EQ(result.seeds[0], order.back());
}

TEST(GreedyTest, DefaultEstimateAllCallsEstimateInCandidateOrder) {
  FixedEstimator estimator({1.0, 2.0, 3.0, 4.0, 5.0});
  const std::vector<VertexId> candidates = {3, 0, 4, 1};
  std::vector<double> out(candidates.size());
  estimator.EstimateAll(candidates, out);
  EXPECT_EQ(estimator.order(), candidates);
  EXPECT_EQ(out, (std::vector<double>{4.0, 1.0, 5.0, 2.0}));
}

TEST(GreedyTest, SortedSeedSetSorts) {
  GreedyRunResult result;
  result.seeds = {5, 1, 3};
  EXPECT_EQ(result.SortedSeedSet(), (std::vector<VertexId>{1, 3, 5}));
}

TEST(CelfTest, MatchesPlainGreedyOnDeterministicInstance) {
  InfluenceGraph ig = StarGraph(8, 1.0);
  RisEstimator plain_est(ModelInstance::Ic(&ig), 512, /*seed=*/5);
  Rng tie1(6);
  auto plain = RunGreedy(&plain_est, ig.num_vertices(), 3, &tie1);

  RisEstimator celf_est(ModelInstance::Ic(&ig), 512, /*seed=*/5);
  Rng tie2(6);
  auto celf = RunCelfGreedy(&celf_est, ig.num_vertices(), 3, &tie2);
  // The star at p=1 has a unique best first seed; subsequent marginals all
  // tie at 0, so compare the seed sets' first element and size.
  EXPECT_EQ(celf.greedy.seeds[0], plain.seeds[0]);
  EXPECT_EQ(celf.greedy.seeds.size(), plain.seeds.size());
}

TEST(CelfTest, SavesEstimateCalls) {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());
  InfluenceGraph ig = MakeInfluenceGraph(std::move(g),
                                         ProbabilityModel::kUc01);
  RisEstimator estimator(ModelInstance::Ic(&ig), 2048, /*seed=*/7);
  Rng tie_rng(8);
  auto result = RunCelfGreedy(&estimator, ig.num_vertices(), 4, &tie_rng);
  // Plain greedy would use 34 + 33 + 32 + 31 = 130 calls.
  EXPECT_LT(result.estimate_calls, 130u);
  EXPECT_GE(result.estimate_calls, 34u);  // at least the initial sweep
  EXPECT_EQ(result.greedy.seeds.size(), 4u);
}

TEST(CelfDeathTest, RejectsNonMarginalEstimator) {
  InfluenceGraph ig = StarGraph(4, 0.5);
  OneshotEstimator estimator(ModelInstance::Ic(&ig), 4, /*seed=*/9);
  Rng tie_rng(10);
  EXPECT_DEATH(RunCelfGreedy(&estimator, ig.num_vertices(), 1, &tie_rng),
               "marginal");
}

}  // namespace
}  // namespace soldist
