// Tests for the three estimators behind Build/Estimate/Update.

#include <gtest/gtest.h>

#include "core/oneshot.h"
#include "core/ris.h"
#include "core/snapshot.h"
#include "exp/trial_runner.h"
#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/probability.h"
#include "oracle/exact_oracle.h"

namespace soldist {
namespace {

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

InfluenceGraph KarateUc01() {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());
  return MakeInfluenceGraph(std::move(g), ProbabilityModel::kUc01);
}

TEST(OneshotEstimatorTest, UnbiasedAgainstExactInfluence) {
  InfluenceGraph ig = Diamond(0.5);
  double exact = ExactInfluence(ig, std::vector<VertexId>{0});
  OneshotEstimator estimator(ModelInstance::Ic(&ig), 200000, /*seed=*/1);
  estimator.Build();
  EXPECT_NEAR(estimator.Estimate(0), exact, 0.02);
}

TEST(OneshotEstimatorTest, EstimateAfterUpdateUsesSeedSet) {
  InfluenceGraph ig = Diamond(1.0);
  OneshotEstimator estimator(ModelInstance::Ic(&ig), 10, /*seed=*/2);
  estimator.Build();
  // p=1: Inf({0}) = 4 deterministic.
  EXPECT_DOUBLE_EQ(estimator.Estimate(0), 4.0);
  estimator.Update(0);
  // Inf({0, 3}) still 4 (3 already reachable).
  EXPECT_DOUBLE_EQ(estimator.Estimate(3), 4.0);
}

TEST(OneshotEstimatorTest, PropertiesAndCounters) {
  InfluenceGraph ig = Diamond(0.5);
  OneshotEstimator estimator(ModelInstance::Ic(&ig), 100, /*seed=*/3);
  estimator.Build();
  EXPECT_FALSE(estimator.EstimatesAreMarginal());
  EXPECT_EQ(estimator.sample_number(), 100u);
  EXPECT_EQ(estimator.name(), "Oneshot");
  EXPECT_EQ(estimator.counters().vertices, 0u);  // nothing yet
  estimator.Estimate(0);
  EXPECT_GE(estimator.counters().vertices, 100u);  // >= 1 per simulation
  EXPECT_EQ(estimator.counters().sample_vertices, 0u);
  EXPECT_EQ(estimator.counters().sample_edges, 0u);
}

TEST(SnapshotEstimatorTest, NaiveAndResidualAgreeExactly) {
  // Same seed -> identical snapshots -> the two strategies must return
  // bit-identical estimates through a whole greedy-like sequence
  // (Section 3.4.3: the reduction does not disturb estimates).
  InfluenceGraph ig = KarateUc01();
  SnapshotEstimator naive(ModelInstance::Ic(&ig), 16, /*seed=*/7,
                          SnapshotEstimator::Mode::kNaive);
  SnapshotEstimator residual(ModelInstance::Ic(&ig), 16, /*seed=*/7,
                             SnapshotEstimator::Mode::kResidual);
  naive.Build();
  residual.Build();
  for (int round = 0; round < 3; ++round) {
    for (VertexId v = 0; v < ig.num_vertices(); ++v) {
      ASSERT_DOUBLE_EQ(naive.Estimate(v), residual.Estimate(v))
          << "round " << round << " vertex " << v;
    }
    VertexId next = static_cast<VertexId>(round * 7 + 1);
    naive.Update(next);
    residual.Update(next);
  }
}

TEST(SnapshotEstimatorTest, UnbiasedAgainstExactInfluence) {
  InfluenceGraph ig = Diamond(0.5);
  double exact = ExactInfluence(ig, std::vector<VertexId>{0});
  SnapshotEstimator estimator(ModelInstance::Ic(&ig), 200000, /*seed=*/8);
  estimator.Build();
  EXPECT_NEAR(estimator.Estimate(0), exact, 0.02);
}

TEST(SnapshotEstimatorTest, MarginalsShrinkAfterUpdate) {
  // Submodularity of the snapshot estimator (Section 3.4.1): marginals
  // w.r.t. a larger seed set never grow.
  InfluenceGraph ig = KarateUc01();
  SnapshotEstimator estimator(ModelInstance::Ic(&ig), 64, /*seed=*/9);
  estimator.Build();
  std::vector<double> before(ig.num_vertices());
  for (VertexId v = 0; v < ig.num_vertices(); ++v) {
    before[v] = estimator.Estimate(v);
  }
  estimator.Update(0);
  for (VertexId v = 1; v < ig.num_vertices(); ++v) {
    EXPECT_LE(estimator.Estimate(v), before[v] + 1e-12) << "vertex " << v;
  }
}

TEST(SnapshotEstimatorTest, MarginalOfSelectedSeedIsZero) {
  InfluenceGraph ig = Diamond(1.0);
  SnapshotEstimator estimator(ModelInstance::Ic(&ig), 4, /*seed=*/10);
  estimator.Build();
  estimator.Update(0);
  // Everything is reachable from 0 at p=1: all marginals vanish.
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_DOUBLE_EQ(estimator.Estimate(v), 0.0);
  }
}

TEST(SnapshotEstimatorTest, SampleSizeIsLiveEdges) {
  InfluenceGraph ig = Diamond(1.0);
  SnapshotEstimator estimator(ModelInstance::Ic(&ig), 5, /*seed=*/11);
  estimator.Build();
  // p=1: every snapshot stores all 4 edges.
  EXPECT_EQ(estimator.counters().sample_edges, 20u);
  EXPECT_EQ(estimator.counters().sample_vertices, 0u);
}

TEST(RisEstimatorTest, UnbiasedAgainstExactInfluence) {
  InfluenceGraph ig = Diamond(0.5);
  double exact = ExactInfluence(ig, std::vector<VertexId>{0});
  RisEstimator estimator(ModelInstance::Ic(&ig), 200000, /*seed=*/12);
  estimator.Build();
  EXPECT_NEAR(estimator.Estimate(0), exact, 0.02);
}

TEST(RisEstimatorTest, UpdateRemovesCoveredSets) {
  InfluenceGraph ig = Diamond(1.0);
  RisEstimator estimator(ModelInstance::Ic(&ig), 1000, /*seed=*/13);
  estimator.Build();
  // p=1: vertex 0 reaches everything, so 0 is in every RR set;
  // Estimate(0) = n = 4 and after Update(0) all marginals are zero.
  EXPECT_DOUBLE_EQ(estimator.Estimate(0), 4.0);
  estimator.Update(0);
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_DOUBLE_EQ(estimator.Estimate(v), 0.0);
  }
}

TEST(RisEstimatorTest, MarginalsShrinkAfterUpdate) {
  InfluenceGraph ig = KarateUc01();
  RisEstimator estimator(ModelInstance::Ic(&ig), 4096, /*seed=*/14);
  estimator.Build();
  std::vector<double> before(ig.num_vertices());
  for (VertexId v = 0; v < ig.num_vertices(); ++v) {
    before[v] = estimator.Estimate(v);
  }
  estimator.Update(5);
  for (VertexId v = 0; v < ig.num_vertices(); ++v) {
    if (v == 5) continue;
    EXPECT_LE(estimator.Estimate(v), before[v] + 1e-12);
  }
}

TEST(RisEstimatorTest, EmpiricalEptAndSampleSize) {
  InfluenceGraph ig = Diamond(0.5);
  RisEstimator estimator(ModelInstance::Ic(&ig), 10000, /*seed=*/15);
  estimator.Build();
  EXPECT_EQ(estimator.counters().sample_vertices,
            static_cast<std::uint64_t>(estimator.EmpiricalEpt() * 10000 + 0.5));
  EXPECT_EQ(estimator.counters().sample_edges, 0u);
  EXPECT_GT(estimator.EmpiricalEpt(), 1.0);  // target plus sometimes more
}

TEST(MakeEstimatorTest, FactoryProducesEachApproach) {
  InfluenceGraph ig = Diamond(0.5);
  auto oneshot =
      MakeEstimator(ModelInstance::Ic(&ig), Approach::kOneshot, 4, 1);
  auto snapshot =
      MakeEstimator(ModelInstance::Ic(&ig), Approach::kSnapshot, 4, 1);
  auto ris = MakeEstimator(ModelInstance::Ic(&ig), Approach::kRis, 4, 1);
  EXPECT_EQ(oneshot->name(), "Oneshot");
  EXPECT_EQ(snapshot->name(), "Snapshot");
  EXPECT_EQ(ris->name(), "RIS");
  EXPECT_EQ(ApproachName(Approach::kOneshot), "Oneshot");
  EXPECT_EQ(ApproachName(Approach::kSnapshot), "Snapshot");
  EXPECT_EQ(ApproachName(Approach::kRis), "RIS");
}

}  // namespace
}  // namespace soldist
