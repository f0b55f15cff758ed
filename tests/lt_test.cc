// Tests for the linear-threshold model extension: LtWeights, the LT
// simulators/samplers, and the three estimators run on LT instances,
// validated against exact LT influence on tiny graphs.

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
#include "sim/lt_forward_sim.h"
#include "sim/lt_samplers.h"

namespace soldist {
namespace {

/// Diamond with all weights 0.5; vertex 3's in-weights sum to 1.
InfluenceGraph DiamondLt() {
  EdgeList edges;
  edges.num_vertices = 4;
  edges.Add(0, 1);
  edges.Add(0, 2);
  edges.Add(1, 3);
  edges.Add(2, 3);
  Graph g = GraphBuilder::FromEdgeList(edges);
  return InfluenceGraph(std::move(g), std::vector<double>(4, 0.5));
}

InfluenceGraph Chain3Lt(double w) {
  EdgeList edges;
  edges.num_vertices = 3;
  edges.Add(0, 1);
  edges.Add(1, 2);
  Graph g = GraphBuilder::FromEdgeList(edges);
  return InfluenceGraph(std::move(g), {w, w});
}

InfluenceGraph KarateIwc() {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());
  return MakeInfluenceGraph(std::move(g), ProbabilityModel::kIwc);
}

// LT(Diamond, S={0}): 1 and 2 activate w.p. 0.5 each; 3 keeps the edge
// from 1 or from 2 (w.p. 0.5 each) and activates iff that one is active.
// Pr[3] = 0.5*0.5 + 0.5*0.5 = 0.5. Inf = 1 + 0.5 + 0.5 + 0.5 = 2.5.
constexpr double kDiamondLtInfluence = 2.5;

TEST(LtValidityTest, IwcIsValidUcIsNot) {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());
  InfluenceGraph iwc = MakeInfluenceGraph(Graph(g), ProbabilityModel::kIwc);
  EXPECT_TRUE(IsValidLtGraph(iwc));
  // uc0.1 on Karate: vertex 33 has in-degree 17, sum = 1.7 > 1.
  InfluenceGraph uc = MakeInfluenceGraph(Graph(g), ProbabilityModel::kUc01);
  EXPECT_FALSE(IsValidLtGraph(uc));
}

TEST(LtWeightsTest, SampleDistribution) {
  InfluenceGraph ig = DiamondLt();
  LtWeights weights(&ig);
  EXPECT_DOUBLE_EQ(weights.Total(3), 1.0);
  EXPECT_DOUBLE_EQ(weights.Total(1), 0.5);
  EXPECT_DOUBLE_EQ(weights.Total(0), 0.0);

  Rng rng(1);
  int from_1 = 0, from_2 = 0, none = 0;
  constexpr int kSamples = 100000;
  const Graph& g = ig.graph();
  for (int i = 0; i < kSamples; ++i) {
    EdgeId pos = weights.SampleLiveInEdge(3, &rng);
    if (pos == LtWeights::kNoInEdge) {
      ++none;
    } else if (g.in_sources()[pos] == 1) {
      ++from_1;
    } else {
      ++from_2;
    }
  }
  EXPECT_EQ(none, 0);  // vertex 3's weights sum to exactly 1
  EXPECT_NEAR(from_1 / static_cast<double>(kSamples), 0.5, 0.01);
  EXPECT_NEAR(from_2 / static_cast<double>(kSamples), 0.5, 0.01);
}

TEST(LtWeightsTest, NoInEdgeForSources) {
  InfluenceGraph ig = DiamondLt();
  LtWeights weights(&ig);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(weights.SampleLiveInEdge(0, &rng), LtWeights::kNoInEdge);
  }
}

TEST(ExactLtTest, DiamondClosedForm) {
  InfluenceGraph ig = DiamondLt();
  EXPECT_NEAR(ExactLtInfluence(ig, std::vector<VertexId>{0}),
              kDiamondLtInfluence, 1e-12);
  EXPECT_NEAR(ExactLtInfluence(ig, std::vector<VertexId>{3}), 1.0, 1e-12);
}

TEST(ExactLtTest, ChainMatchesIcOnInDegreeOneGraphs) {
  // With in-degree <= 1 everywhere, LT and IC coincide.
  InfluenceGraph ig = Chain3Lt(0.5);
  double lt = ExactLtInfluence(ig, std::vector<VertexId>{0});
  double ic = ExactInfluence(ig, std::vector<VertexId>{0});
  EXPECT_NEAR(lt, ic, 1e-12);
  EXPECT_NEAR(lt, 1.0 + 0.5 + 0.25, 1e-12);
}

TEST(LtForwardSimTest, UnbiasedOnDiamond) {
  InfluenceGraph ig = DiamondLt();
  LtForwardSimulator sim(&ig);
  Rng rng(3);
  TraversalCounters counters;
  const VertexId seeds[1] = {0};
  double estimate = sim.EstimateInfluence(seeds, 200000, &rng, &counters);
  EXPECT_NEAR(estimate, kDiamondLtInfluence, 0.02);
}

TEST(LtForwardSimTest, SeedsAlwaysCounted) {
  InfluenceGraph ig = DiamondLt();
  LtForwardSimulator sim(&ig);
  Rng rng(4);
  TraversalCounters counters;
  const VertexId seeds[2] = {0, 3};
  for (int i = 0; i < 50; ++i) {
    EXPECT_GE(sim.Simulate(seeds, &rng, &counters), 2u);
  }
}

TEST(LtSnapshotSamplerTest, AtMostOneInEdgePerVertex) {
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  LtSnapshotSampler sampler(&weights);
  Rng rng(5);
  TraversalCounters counters;
  for (int i = 0; i < 20; ++i) {
    Snapshot snap = sampler.Sample(&rng, &counters);
    // In-degree <= 1 in the live graph: count incoming per vertex.
    std::vector<int> in_count(ig.num_vertices(), 0);
    for (VertexId t : snap.out_targets) ++in_count[t];
    for (int c : in_count) EXPECT_LE(c, 1);
    EXPECT_LE(snap.num_live_edges(), ig.num_vertices());
  }
}

TEST(LtSnapshotSamplerTest, BuildWorkCounted) {
  // Build-phase accounting must match the RR walk's: one vertex
  // examination per SampleLiveInEdge, one edge examination per kept live
  // edge — otherwise LT snapshot build cost is invisible to Table-8-style
  // traversal-cost accounting.
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  LtSnapshotSampler sampler(&weights);
  Rng rng(16);
  TraversalCounters counters;
  Snapshot snap = sampler.Sample(&rng, &counters);
  EXPECT_EQ(counters.vertices, ig.num_vertices());
  EXPECT_EQ(counters.edges, snap.num_live_edges());
  EXPECT_EQ(counters.sample_edges, snap.num_live_edges());

  // A second draw accumulates, never resets.
  Snapshot snap2 = sampler.Sample(&rng, &counters);
  EXPECT_EQ(counters.vertices, 2ull * ig.num_vertices());
  EXPECT_EQ(counters.edges, snap.num_live_edges() + snap2.num_live_edges());
}

TEST(LtSnapshotSamplerTest, MeanReachMatchesExact) {
  InfluenceGraph ig = DiamondLt();
  LtWeights weights(&ig);
  LtSnapshotSampler sampler(&weights);
  SnapshotSampler bfs(&ig);  // model-agnostic reachability
  Rng rng(6);
  TraversalCounters counters;
  const VertexId seeds[1] = {0};
  std::uint64_t total = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    Snapshot snap = sampler.Sample(&rng, &counters);
    total += bfs.CountReachable(snap, seeds, &counters);
  }
  EXPECT_NEAR(static_cast<double>(total) / kSamples, kDiamondLtInfluence,
              0.02);
}

TEST(LtRrSamplerTest, HitProbabilityMatchesExact) {
  InfluenceGraph ig = DiamondLt();
  LtWeights weights(&ig);
  LtRrSampler sampler(&weights);
  Rng target_rng(7), coin_rng(8);
  TraversalCounters counters;
  std::vector<VertexId> rr_set;
  constexpr int kSamples = 200000;
  int hits = 0;
  for (int i = 0; i < kSamples; ++i) {
    sampler.Sample(&target_rng, &coin_rng, &rr_set, &counters);
    if (std::find(rr_set.begin(), rr_set.end(), 0u) != rr_set.end()) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples,
              kDiamondLtInfluence / 4.0, 0.006);
}

TEST(LtRrSamplerTest, WalkIsAChain) {
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  LtRrSampler sampler(&weights);
  Rng target_rng(9), coin_rng(10);
  TraversalCounters counters;
  std::vector<VertexId> rr_set;
  for (int i = 0; i < 200; ++i) {
    sampler.Sample(&target_rng, &coin_rng, &rr_set, &counters);
    // No duplicates: the walk stops at revisits.
    std::vector<VertexId> sorted = rr_set;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end());
  }
}

TEST(LtEstimatorsTest, AllThreeUnbiasedOnDiamond) {
  InfluenceGraph ig = DiamondLt();
  LtWeights weights(&ig);
  for (Approach approach :
       {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
    auto estimator =
        MakeEstimator(ModelInstance::Lt(&weights), approach, 100000, 11);
    estimator->Build();
    EXPECT_NEAR(estimator->Estimate(0), kDiamondLtInfluence, 0.03)
        << ApproachName(approach);
  }
}

TEST(LtEstimatorsTest, GreedyRunsAndConvergesAcrossApproaches) {
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  std::map<Approach, std::vector<VertexId>> seeds;
  for (Approach approach :
       {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
    std::uint64_t sample_number =
        approach == Approach::kRis ? (1 << 15) : (1 << 11);
    auto estimator = MakeEstimator(ModelInstance::Lt(&weights), approach,
                                   sample_number, 12);
    Rng tie_rng(13);
    auto result = RunGreedy(estimator.get(), ig.num_vertices(), 1, &tie_rng);
    seeds[approach] = result.SortedSeedSet();
  }
  // Same limit behavior under LT as under IC: all approaches find the
  // same top vertex at large sample numbers.
  EXPECT_EQ(seeds[Approach::kOneshot], seeds[Approach::kSnapshot]);
  EXPECT_EQ(seeds[Approach::kSnapshot], seeds[Approach::kRis]);
}

TEST(LtEstimatorsTest, SnapshotMarginalsShrink) {
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  SnapshotEstimator estimator(ModelInstance::Lt(&weights), 64, 14);
  estimator.Build();
  std::vector<double> before(ig.num_vertices());
  for (VertexId v = 0; v < ig.num_vertices(); ++v) {
    before[v] = estimator.Estimate(v);
  }
  estimator.Update(0);
  for (VertexId v = 1; v < ig.num_vertices(); ++v) {
    EXPECT_LE(estimator.Estimate(v), before[v] + 1e-12);
  }
}

TEST(LtEstimatorsTest, RisUpdateZeroesCoveredSeed) {
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  RisEstimator estimator(ModelInstance::Lt(&weights), 2048, 15);
  estimator.Build();
  estimator.Update(33);
  EXPECT_DOUBLE_EQ(estimator.Estimate(33), 0.0);
}

TEST(LtEstimatorsTest, NamesAndFlags) {
  // One class per approach: an LT instance reports the approach's name.
  InfluenceGraph ig = DiamondLt();
  LtWeights weights(&ig);
  for (Approach approach :
       {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
    auto estimator =
        MakeEstimator(ModelInstance::Lt(&weights), approach, 4, 1);
    EXPECT_EQ(estimator->name(), ApproachName(approach));
    EXPECT_EQ(estimator->EstimatesAreMarginal(),
              approach != Approach::kOneshot);
  }
}

}  // namespace
}  // namespace soldist
