// End-to-end integration tests reproducing the paper's headline findings
// in miniature on Karate (uc0.1):
//  1. for large sample numbers, all three approaches converge to the SAME
//     unique seed set (Section 5.1.1);
//  2. entropy decays toward 0 as the sample number grows;
//  3. mean influence increases with the sample number (Section 5.2.1).

#include <gtest/gtest.h>

#include "exp/instance_registry.h"
#include "exp/sweep.h"
#include "exp/trial_runner.h"
#include "stats/set_metrics.h"

namespace soldist {
namespace {

class KarateIntegrationTest : public testing::Test {
 protected:
  void SetUp() override {
    registry_ = std::make_unique<InstanceRegistry>(42);
    auto ig = registry_->GetInstance("Karate", ProbabilityModel::kUc01);
    ASSERT_TRUE(ig.ok());
    ig_ = ig.value();
    oracle_ = std::make_unique<RrOracle>(ig_, 50000, 99);
  }

  std::unique_ptr<InstanceRegistry> registry_;
  const InfluenceGraph* ig_ = nullptr;
  std::unique_ptr<RrOracle> oracle_;
};

TEST_F(KarateIntegrationTest, ThreeApproachesShareTheLimitSolution) {
  // Paper finding 1: "For a sufficiently large sample number, we obtain a
  // unique solution regardless of algorithms."
  std::map<Approach, std::vector<VertexId>> modal;
  struct Setting {
    Approach approach;
    std::uint64_t sample_number;
  };
  // Sample numbers past the convergence knee of the paper's Figure 1a
  // (entropy hits 0 around 2^13 for Oneshot/Snapshot, ~2^4 later for RIS).
  for (Setting s : {Setting{Approach::kOneshot, 1 << 14},
                    Setting{Approach::kSnapshot, 1 << 14},
                    Setting{Approach::kRis, 1 << 18}}) {
    TrialConfig config;
    config.approach = s.approach;
    config.sample_number = s.sample_number;
    config.k = 1;
    config.trials = 10;
    config.master_seed = 1234;
    TrialResult result = RunTrials(*ig_, config, nullptr);
    EXPECT_TRUE(result.distribution.IsDegenerate())
        << ApproachName(s.approach) << " entropy "
        << result.distribution.Entropy();
    modal[s.approach] = result.distribution.ModalSet();
  }
  EXPECT_EQ(modal[Approach::kOneshot], modal[Approach::kSnapshot]);
  EXPECT_EQ(modal[Approach::kSnapshot], modal[Approach::kRis]);
}

TEST_F(KarateIntegrationTest, EntropyDecaysWithSampleNumber) {
  SweepConfig config;
  config.approach = Approach::kRis;
  config.k = 1;
  config.trials = 60;
  config.master_seed = 17;
  config.min_exponent = 0;
  config.max_exponent = 17;
  auto cells = RunSweep(*ig_, *oracle_, config, nullptr);
  // Entropy at the start is high (many distinct singletons), at the end ~0.
  EXPECT_GT(cells.front().entropy, 2.0);
  EXPECT_LT(cells.back().entropy, 0.3);
  // Overall trend: final < initial substantially; allow local noise.
  EXPECT_LT(cells.back().entropy, cells.front().entropy - 1.5);
}

TEST_F(KarateIntegrationTest, MeanInfluenceIncreases) {
  SweepConfig config;
  config.approach = Approach::kSnapshot;
  config.k = 2;
  config.trials = 40;
  config.master_seed = 23;
  config.min_exponent = 0;
  config.max_exponent = 10;
  auto cells = RunSweep(*ig_, *oracle_, config, nullptr);
  double first = cells.front().summary.mean_influence;
  double last = cells.back().summary.mean_influence;
  EXPECT_GT(last, first);
  // The converged mean should be near the oracle-greedy reference.
  auto reference = oracle_->OracleGreedySeeds(2);
  double ref_influence = oracle_->EstimateInfluence(reference);
  EXPECT_GT(last, 0.95 * ref_influence);
}

TEST_F(KarateIntegrationTest, ConvergedSolutionIsNearOracleGreedy) {
  TrialConfig config;
  config.approach = Approach::kRis;
  config.sample_number = 1 << 15;
  config.k = 1;
  config.trials = 8;
  config.master_seed = 31;
  TrialResult result = RunTrials(*ig_, config, nullptr);
  EvaluateInfluence(*oracle_, &result);
  auto reference = oracle_->OracleGreedySeeds(1);
  double ref_influence = oracle_->EstimateInfluence(reference);
  // All trials produce a solution within 5% of the greedy reference.
  EXPECT_GE(result.influence.Min(), 0.95 * ref_influence);
}

TEST_F(KarateIntegrationTest, ApproachDistributionsConvergeTogether) {
  // Quantitative version of the paper's "same limit behavior": the total
  // variation distance between the seed-set distributions of Snapshot and
  // RIS shrinks as both approach the degenerate limit.
  auto run = [&](Approach approach, std::uint64_t s) {
    TrialConfig config;
    config.approach = approach;
    config.sample_number = s;
    config.k = 1;
    config.trials = 60;
    config.master_seed = 77;
    return RunTrials(*ig_, config, nullptr);
  };
  // RIS needs ~2^4 times the samples for the same accuracy (Figure 1).
  double tv_small = TotalVariationDistance(
      run(Approach::kSnapshot, 1 << 2).distribution,
      run(Approach::kRis, 1 << 6).distribution);
  double tv_large = TotalVariationDistance(
      run(Approach::kSnapshot, 1 << 12).distribution,
      run(Approach::kRis, 1 << 16).distribution);
  EXPECT_LT(tv_large, tv_small);
  EXPECT_LT(tv_large, 0.3);

  // Inclusion frequencies concentrate on the winner.
  TrialResult converged = run(Approach::kRis, 1 << 16);
  auto freq = InclusionFrequencies(converged.distribution,
                                   ig_->num_vertices());
  double max_freq = *std::max_element(freq.begin(), freq.end());
  EXPECT_GE(max_freq, 0.9);
}

TEST_F(KarateIntegrationTest, TraversalCostRatiosFollowTable1) {
  // Vertex-cost ratio Oneshot : Snapshot ≈ 1 : 1 and RIS ≈ 1/n of either
  // (paper Table 1 / Section 5.3.2), measured at k=1 and sample number 1.
  // The residual backend is the paper's cost model: it counts vertices,
  // where the condensed default counts DAG components.
  auto run = [&](Approach approach) {
    TrialConfig config;
    config.approach = approach;
    config.snapshot_mode = SnapshotEstimator::Mode::kResidual;
    config.sample_number = 1;
    config.k = 1;
    config.trials = 400;
    config.master_seed = 55;
    TrialResult result = RunTrials(*ig_, config, nullptr);
    return result.MeanVertexCost(config.trials);
  };
  double oneshot = run(Approach::kOneshot);
  double snapshot = run(Approach::kSnapshot);
  double ris = run(Approach::kRis);
  EXPECT_NEAR(snapshot / oneshot, 1.0, 0.15);
  EXPECT_NEAR(ris / oneshot, 1.0 / 34.0, 0.02);
}

}  // namespace
}  // namespace soldist
