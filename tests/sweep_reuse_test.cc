// The sweep-reuse acceptance contract: a RIS sample-number ladder run
// with reuse ON (one per-trial RR arena serving prefix views) is
// byte-identical — seed sets, counters, distributions — to reuse OFF
// (same prefix-closed streams, fresh sampling per cell), for IC and LT
// and for worker counts 1/2/4; so is a condensed Snapshot ladder over
// its per-trial SnapshotArena. Ladders with no arena form run reuse ON
// as reuse OFF.

#include <gtest/gtest.h>

#include <vector>

#include "exp/instance_registry.h"
#include "exp/sweep.h"
#include "exp/trial_runner.h"
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

SamplingOptions Threads(int num_threads, std::uint64_t chunk_size = 64) {
  SamplingOptions options;
  options.num_threads = num_threads;
  options.chunk_size = chunk_size;
  return options;
}

void ExpectResultsEq(const std::vector<TrialResult>& a,
                     const std::vector<TrialResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t l = 0; l < a.size(); ++l) {
    EXPECT_EQ(a[l].seed_sets, b[l].seed_sets) << "cell " << l;
    EXPECT_EQ(a[l].total_counters.vertices, b[l].total_counters.vertices);
    EXPECT_EQ(a[l].total_counters.edges, b[l].total_counters.edges);
    EXPECT_EQ(a[l].total_counters.sample_vertices,
              b[l].total_counters.sample_vertices);
    EXPECT_EQ(a[l].total_counters.sample_edges,
              b[l].total_counters.sample_edges);
    EXPECT_EQ(a[l].distribution.counts(), b[l].distribution.counts());
  }
}

TrialLadderConfig LadderConfig(bool reuse, const SamplingOptions& sampling) {
  TrialLadderConfig config;
  config.approach = Approach::kRis;
  config.sample_numbers = {1, 2, 4, 8, 16, 23, 64, 128};  // incl. non-2^e
  config.k = 2;
  config.trials = 8;
  config.master_seed = 40;
  config.sampling = sampling;
  config.reuse = reuse;
  return config;
}

TEST(SweepReuseTest, LadderReuseOnEqualsOffIc) {
  InfluenceGraph ig = KarateUc01();
  ModelInstance instance = ModelInstance::Ic(&ig);
  for (int threads : {1, 2, 4}) {
    auto on = RunTrialLadder(instance, LadderConfig(true, Threads(threads)),
                             nullptr);
    auto off = RunTrialLadder(instance,
                              LadderConfig(false, Threads(threads)), nullptr);
    ExpectResultsEq(on, off);
  }
}

TEST(SweepReuseTest, LadderReuseOnEqualsOffLt) {
  InstanceRegistry registry(42);
  auto lt = registry.GetModelInstance("Karate", ProbabilityModel::kIwc,
                                      DiffusionModel::kLt);
  ASSERT_TRUE(lt.ok());
  for (int threads : {1, 2, 4}) {
    // RIS over an LT RrArena, condensed Snapshot over an LT SnapshotArena.
    for (Approach approach : {Approach::kRis, Approach::kSnapshot}) {
      TrialLadderConfig on = LadderConfig(true, Threads(threads));
      on.approach = approach;
      on.snapshot_mode = SnapshotEstimator::Mode::kCondensed;
      TrialLadderConfig off = on;
      off.reuse = false;
      ExpectResultsEq(RunTrialLadder(lt.value(), on, nullptr),
                      RunTrialLadder(lt.value(), off, nullptr));
    }
  }
}

TEST(SweepReuseTest, LadderDefaultsWithoutAnArenaRunAsReuseOff) {
  // A ladder left at reuse = true for a configuration with no arena
  // (Oneshot, and Snapshot named to the residual backend) runs fresh
  // per-cell sampling — byte-identical to reuse = false — instead of
  // aborting. The default Snapshot backend is the condensed one, which
  // has an arena.
  ASSERT_TRUE(TrialLadderConfig{}.reuse);
  ASSERT_EQ(TrialLadderConfig{}.snapshot_mode,
            SnapshotEstimator::Mode::kCondensed);
  InfluenceGraph ig = KarateUc01();
  ModelInstance instance = ModelInstance::Ic(&ig);
  for (Approach approach : {Approach::kSnapshot, Approach::kOneshot}) {
    TrialLadderConfig config;
    config.approach = approach;
    config.sample_numbers = {1, 2, 4, 8, 16};
    config.k = 2;
    config.trials = 4;
    config.master_seed = 7;
    config.snapshot_mode = SnapshotEstimator::Mode::kResidual;
    auto defaults = RunTrialLadder(instance, config, nullptr);
    config.reuse = false;
    ExpectResultsEq(defaults, RunTrialLadder(instance, config, nullptr));
  }
}

TEST(SweepReuseTest, LadderIsWorkerCountInvariant) {
  InfluenceGraph ig = KarateUc01();
  ModelInstance instance = ModelInstance::Ic(&ig);
  auto reference =
      RunTrialLadder(instance, LadderConfig(true, Threads(2)), nullptr);
  auto wider =
      RunTrialLadder(instance, LadderConfig(true, Threads(4)), nullptr);
  ExpectResultsEq(reference, wider);
}

TEST(SweepReuseTest, RunSweepReuseOnEqualsOff) {
  InfluenceGraph ig = KarateUc01();
  RrOracle oracle(&ig, 3000, 9);
  SweepConfig config;
  config.approach = Approach::kRis;
  config.k = 2;
  config.trials = 6;
  config.master_seed = 11;
  config.min_exponent = 0;
  config.max_exponent = 7;

  config.reuse = SweepReuse::kOn;
  auto on = RunSweep(ig, oracle, config, nullptr);
  config.reuse = SweepReuse::kOff;
  auto off = RunSweep(ig, oracle, config, nullptr);
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t l = 0; l < on.size(); ++l) {
    EXPECT_EQ(on[l].sample_number, off[l].sample_number);
    EXPECT_EQ(on[l].result.seed_sets, off[l].result.seed_sets);
    EXPECT_EQ(on[l].entropy, off[l].entropy);
    EXPECT_EQ(on[l].summary.mean_influence, off[l].summary.mean_influence);
    EXPECT_EQ(on[l].summary.mean_sample_size,
              off[l].summary.mean_sample_size);
  }

}

TEST(SweepReuseTest, OneshotIgnoresReuse) {
  // Oneshot has no reusable sample collection: the reuse field must
  // leave its independent per-cell trials untouched.
  InfluenceGraph ig = KarateUc01();
  RrOracle oracle(&ig, 2000, 9);
  SweepConfig config;
  config.approach = Approach::kOneshot;
  config.k = 1;
  config.trials = 4;
  config.master_seed = 3;
  config.max_exponent = 4;
  config.reuse = SweepReuse::kOn;
  auto with_reuse = RunSweep(ig, oracle, config, nullptr);
  config.reuse = SweepReuse::kOff;
  auto without = RunSweep(ig, oracle, config, nullptr);
  ASSERT_EQ(with_reuse.size(), without.size());
  for (std::size_t l = 0; l < without.size(); ++l) {
    EXPECT_EQ(with_reuse[l].result.seed_sets, without[l].result.seed_sets);
  }
}

TEST(SweepReuseTest, SnapshotSweepReuseOnEqualsOff) {
  // Snapshot sweeps take the trial-major ladder: condensed mode serves
  // every cell from a per-trial SnapshotArena under kOn, the non-arena
  // modes downgrade kOn to kOff mechanics — either way kOn must be
  // byte-identical to kOff (fresh per-cell sampling, same streams).
  InfluenceGraph ig = KarateUc01();
  RrOracle oracle(&ig, 2000, 9);
  for (SnapshotEstimator::Mode mode : {SnapshotEstimator::Mode::kResidual,
                                       SnapshotEstimator::Mode::kCondensed}) {
    SweepConfig config;
    config.approach = Approach::kSnapshot;
    config.k = 2;
    config.trials = 4;
    config.master_seed = 3;
    config.max_exponent = 4;
    config.snapshot_mode = mode;
    config.reuse = SweepReuse::kOn;
    auto on = RunSweep(ig, oracle, config, nullptr);
    config.reuse = SweepReuse::kOff;
    auto off = RunSweep(ig, oracle, config, nullptr);
    ASSERT_EQ(on.size(), off.size());
    for (std::size_t l = 0; l < on.size(); ++l) {
      EXPECT_EQ(on[l].result.seed_sets, off[l].result.seed_sets)
          << SnapshotModeName(mode) << " cell " << l;
      EXPECT_EQ(on[l].result.total_counters.vertices,
                off[l].result.total_counters.vertices);
      EXPECT_EQ(on[l].result.total_counters.sample_edges,
                off[l].result.total_counters.sample_edges);
      EXPECT_EQ(on[l].entropy, off[l].entropy);
      EXPECT_EQ(on[l].summary.mean_influence, off[l].summary.mean_influence);
    }
  }
}

TEST(SweepReuseTest, ParseSweepReuseFlagValues) {
  EXPECT_EQ(ParseSweepReuse("on").value(), SweepReuse::kOn);
  EXPECT_EQ(ParseSweepReuse("off").value(), SweepReuse::kOff);
  EXPECT_FALSE(ParseSweepReuse("legacy").ok());
  EXPECT_FALSE(ParseSweepReuse("sometimes").ok());
  EXPECT_EQ(SweepReuseName(SweepReuse::kOn), "on");
  EXPECT_EQ(SweepReuseName(SweepReuse::kOff), "off");
}

}  // namespace
}  // namespace soldist
