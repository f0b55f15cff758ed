// Tests for the influence oracles: RR oracle vs exact vs Monte Carlo, a
// pool-built RR oracle vs an inline one, and concurrent estimates on one
// shared oracle vs serial ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <thread>
#include <vector>

#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/lt.h"
#include "model/probability.h"
#include "oracle/exact_oracle.h"
#include "oracle/rr_oracle.h"
#include "random/rng.h"
#include "sim/forward_sim.h"
#include "util/thread_pool.h"

namespace soldist {
namespace {

/// Influence estimation by repeated forward simulation: the
/// straightforward alternative oracle, which cross-validates the RR
/// oracle here.
class McOracle {
 public:
  explicit McOracle(const InfluenceGraph* ig) : simulator_(ig) {}

  /// Mean activated count over `runs` simulations.
  double EstimateInfluence(std::span<const VertexId> seeds,
                           std::uint64_t runs, Rng* rng) {
    TraversalCounters scratch;
    return simulator_.EstimateInfluence(seeds, runs, rng, &scratch);
  }

 private:
  ForwardSimulator simulator_;
};

InfluenceGraph Diamond(double p) {
  EdgeList edges;
  edges.num_vertices = 4;
  edges.Add(0, 1);
  edges.Add(0, 2);
  edges.Add(1, 3);
  edges.Add(2, 3);
  Graph g = GraphBuilder::FromEdgeList(edges);
  return InfluenceGraph(std::move(g), std::vector<double>(4, p));
}

TEST(ExactOracleTest, ClosedFormsOnDiamond) {
  InfluenceGraph ig = Diamond(0.5);
  // Inf({0}) = 1 + 0.5 + 0.5 + Pr[3 reached]
  //          = 2 + (1 - (1 - 0.25)^2) = 2 + 0.4375 = 2.4375.
  EXPECT_NEAR(ExactInfluence(ig, std::vector<VertexId>{0}), 2.4375, 1e-12);
  // Inf({3}) = 1 (sink).
  EXPECT_NEAR(ExactInfluence(ig, std::vector<VertexId>{3}), 1.0, 1e-12);
  // Inf({1}) = 1 + 0.5 = 1.5.
  EXPECT_NEAR(ExactInfluence(ig, std::vector<VertexId>{1}), 1.5, 1e-12);
}

TEST(ExactOracleTest, MonotoneInSeeds) {
  InfluenceGraph ig = Diamond(0.3);
  double one = ExactInfluence(ig, std::vector<VertexId>{0});
  double two = ExactInfluence(ig, std::vector<VertexId>{0, 3});
  EXPECT_GT(two, one);
}

TEST(ExactOracleTest, HitProbabilityIdentity) {
  InfluenceGraph ig = Diamond(0.5);
  double inf = ExactInfluence(ig, std::vector<VertexId>{0});
  double hit = ExactRrHitProbability(ig, std::vector<VertexId>{0});
  EXPECT_NEAR(hit, inf / 4.0, 1e-12);
}

TEST(RrOracleTest, MatchesExactOnDiamond) {
  InfluenceGraph ig = Diamond(0.5);
  RrOracle oracle(&ig, 200000, /*seed=*/1);
  for (VertexId v = 0; v < 4; ++v) {
    double exact = ExactInfluence(ig, std::vector<VertexId>{v});
    EXPECT_NEAR(oracle.EstimateInfluence(std::vector<VertexId>{v}), exact,
                0.03)
        << "vertex " << v;
  }
}

TEST(RrOracleTest, MatchesMcOracleOnKarate) {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());
  InfluenceGraph ig =
      MakeInfluenceGraph(std::move(g), ProbabilityModel::kUc01);
  RrOracle rr(&ig, 100000, /*seed=*/2);
  McOracle mc(&ig);
  Rng rng(3);
  std::vector<VertexId> seeds{0, 33};
  double rr_estimate = rr.EstimateInfluence(seeds);
  double mc_estimate = mc.EstimateInfluence(seeds, 100000, &rng);
  EXPECT_NEAR(rr_estimate, mc_estimate, 0.15);
}

TEST(RrOracleTest, ConfidenceIntervalFormula) {
  InfluenceGraph ig = Diamond(0.5);
  RrOracle oracle(&ig, 10000, /*seed=*/4);
  // 1.29 * n / sqrt(N) = 1.29 * 4 / 100.
  EXPECT_NEAR(oracle.ConfidenceInterval99(), 1.29 * 4.0 / 100.0, 1e-12);
}

TEST(RrOracleTest, EmptySeedSetHasZeroInfluence) {
  InfluenceGraph ig = Diamond(0.5);
  RrOracle oracle(&ig, 1000, /*seed=*/5);
  EXPECT_DOUBLE_EQ(oracle.EstimateInfluence(std::vector<VertexId>{}), 0.0);
}

TEST(RrOracleTest, FullSeedSetCoversEverything) {
  InfluenceGraph ig = Diamond(0.5);
  RrOracle oracle(&ig, 1000, /*seed=*/6);
  std::vector<VertexId> all{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(oracle.EstimateInfluence(all), 4.0);
}

TEST(RrOracleTest, DeterministicInSeed) {
  InfluenceGraph ig = Diamond(0.5);
  RrOracle a(&ig, 5000, /*seed=*/7);
  RrOracle b(&ig, 5000, /*seed=*/7);
  std::vector<VertexId> seeds{0};
  EXPECT_DOUBLE_EQ(a.EstimateInfluence(seeds), b.EstimateInfluence(seeds));
}

TEST(RrOracleTest, OracleGreedyPicksStarCenter) {
  EdgeList edges;
  edges.num_vertices = 6;
  for (VertexId i = 1; i < 6; ++i) edges.Add(0, i);
  Graph g = GraphBuilder::FromEdgeList(edges);
  InfluenceGraph ig(std::move(g), std::vector<double>(5, 1.0));
  RrOracle oracle(&ig, 2000, /*seed=*/8);
  auto seeds = oracle.OracleGreedySeeds(2);
  EXPECT_EQ(seeds[0], 0u);
  EXPECT_EQ(seeds.size(), 2u);
}

TEST(RrOracleTest, OracleGreedyCoversDisjointComponents) {
  // Two disjoint p=1 stars: greedy k=2 must take both centers.
  EdgeList edges;
  edges.num_vertices = 8;
  edges.Add(0, 1);
  edges.Add(0, 2);
  edges.Add(0, 3);
  edges.Add(4, 5);
  edges.Add(4, 6);
  edges.Add(4, 7);
  Graph g = GraphBuilder::FromEdgeList(edges);
  InfluenceGraph ig(std::move(g), std::vector<double>(6, 1.0));
  RrOracle oracle(&ig, 4000, /*seed=*/9);
  auto seeds = oracle.OracleGreedySeeds(2);
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(seeds, (std::vector<VertexId>{0, 4}));
}

/// Every observable of an oracle built on `sampling` equals that of the
/// inline build `inline_oracle`: set count, EPT, every inverted list,
/// the estimate of each seed set in a fixed catalog, and oracle greedy.
void ExpectSameOracle(const RrOracle& inline_oracle, const RrOracle& pooled,
                      int width) {
  ASSERT_EQ(pooled.num_rr_sets(), inline_oracle.num_rr_sets());
  EXPECT_EQ(pooled.EmpiricalEpt(), inline_oracle.EmpiricalEpt());
  const VertexId n = inline_oracle.influence_graph().num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    std::span<const std::uint32_t> a = inline_oracle.InvertedList(v);
    std::span<const std::uint32_t> b = pooled.InvertedList(v);
    ASSERT_EQ(std::vector<std::uint32_t>(a.begin(), a.end()),
              std::vector<std::uint32_t>(b.begin(), b.end()))
        << "vertex " << v << " width " << width;
  }
  const std::vector<std::vector<VertexId>> catalog = {
      {}, {0}, {33}, {0, 33}, {1, 2, 3}, {5, 16, 24, 31}, {0, 1, 32, 33}};
  for (const std::vector<VertexId>& seeds : catalog) {
    EXPECT_EQ(pooled.EstimateInfluence(seeds),
              inline_oracle.EstimateInfluence(seeds))
        << "width " << width;
  }
  EXPECT_EQ(pooled.OracleGreedySeeds(4), inline_oracle.OracleGreedySeeds(4))
      << "width " << width;
}

/// Width 1 runs inline, width 2 on the engine's own pool, width 4 on a
/// borrowed pool (as api::Session passes its own).
TEST(RrOracleTest, PoolBuildEqualsInlineBuild) {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());
  InfluenceGraph uc01 = MakeInfluenceGraph(g, ProbabilityModel::kUc01);
  InfluenceGraph iwc = MakeInfluenceGraph(std::move(g), ProbabilityModel::kIwc);
  LtWeights weights(&iwc);
  const RrOracle ic_inline(&uc01, 20000, /*seed=*/11);
  const RrOracle lt_inline(&weights, 20000, /*seed=*/12);
  ThreadPool pool(4);
  for (int width : {1, 2, 4}) {
    SamplingOptions sampling;
    if (width == 4) {
      sampling.pool = &pool;
    } else {
      sampling.num_threads = width;
    }
    ExpectSameOracle(ic_inline, RrOracle(&uc01, 20000, 11, sampling), width);
    ExpectSameOracle(lt_inline, RrOracle(&weights, 20000, 12, sampling),
                     width);
  }
}

/// Every thread evaluates the same seed sets on one shared oracle, each
/// in its own order, all at once: each value equals the serial one.
void ExpectConcurrentEqualsSerial(const RrOracle& oracle) {
  const VertexId n = oracle.influence_graph().num_vertices();
  Rng rng(2026);
  std::vector<std::vector<VertexId>> seed_sets(64);
  for (std::vector<VertexId>& seeds : seed_sets) {
    seeds.resize(1 + rng.UniformInt(8));
    for (VertexId& v : seeds) v = static_cast<VertexId>(rng.UniformInt(n));
  }
  std::vector<double> serial;
  for (const std::vector<VertexId>& seeds : seed_sets) {
    serial.push_back(oracle.EstimateInfluence(seeds));
  }

  constexpr int kThreads = 4;
  std::vector<std::vector<double>> values(
      kThreads, std::vector<double>(seed_sets.size()));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::size_t> order(seed_sets.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      Rng order_rng(static_cast<std::uint64_t>(t) + 1);
      std::shuffle(order.begin(), order.end(), order_rng.engine());
      start.arrive_and_wait();
      for (std::size_t i : order) {
        values[t][i] = oracle.EstimateInfluence(seed_sets[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < seed_sets.size(); ++i) {
      EXPECT_EQ(values[t][i], serial[i]) << "thread " << t << " set " << i;
    }
  }
}

TEST(RrOracleTest, ConcurrentEstimatesEqualSerial) {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());
  InfluenceGraph uc01 = MakeInfluenceGraph(g, ProbabilityModel::kUc01);
  InfluenceGraph iwc = MakeInfluenceGraph(std::move(g), ProbabilityModel::kIwc);
  LtWeights weights(&iwc);
  ExpectConcurrentEqualsSerial(RrOracle(&uc01, 20000, /*seed=*/13));
  ExpectConcurrentEqualsSerial(RrOracle(&weights, 20000, /*seed=*/14));
}

TEST(McOracleTest, MatchesExactOnDiamond) {
  InfluenceGraph ig = Diamond(0.5);
  McOracle mc(&ig);
  Rng rng(10);
  double exact = ExactInfluence(ig, std::vector<VertexId>{0});
  EXPECT_NEAR(mc.EstimateInfluence(std::vector<VertexId>{0}, 200000, &rng),
              exact, 0.02);
}

}  // namespace
}  // namespace soldist
