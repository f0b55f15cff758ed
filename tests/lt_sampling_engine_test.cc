// Determinism regression for the parallel LT path, mirroring
// sampling_engine_test for IC: LT builds draw through the chunked
// deterministic streams for EVERY sampling configuration, so parallel
// builds (num_threads ∈ {1, 2, 4}) must produce byte-identical sample
// sequences (shard concatenations) and identical seed sets to the
// single-threaded default.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/factory.h"
#include "core/greedy.h"
#include "core/oneshot.h"
#include "core/ris.h"
#include "exp/trial_runner.h"
#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/diffusion.h"
#include "model/probability.h"
#include "sim/lt_forward_sim.h"
#include "sim/lt_samplers.h"
#include "sim/rr_arena.h"
#include "sim/sampling_engine.h"

namespace soldist {
namespace {

InfluenceGraph KarateIwc() {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());
  return MakeInfluenceGraph(std::move(g), ProbabilityModel::kIwc);
}

/// Single-threaded default, but with the test's chunk size (the chunk
/// size — never the worker count — selects which stream produces which
/// sample).
SamplingOptions Sequential(std::uint64_t chunk_size = 64) {
  SamplingOptions options;
  options.chunk_size = chunk_size;
  return options;
}

SamplingOptions Threads(int num_threads, std::uint64_t chunk_size = 64) {
  SamplingOptions options;
  options.num_threads = num_threads;
  options.chunk_size = chunk_size;
  return options;
}

void ExpectCountersEq(const TraversalCounters& a,
                      const TraversalCounters& b) {
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.sample_vertices, b.sample_vertices);
  EXPECT_EQ(a.sample_edges, b.sample_edges);
}

/// The RR sets of a shard sequence in order (an inline run fills one
/// shard, a pooled run one per chunk; the contract is on the order).
std::vector<std::vector<VertexId>> Sets(const std::vector<RrShard>& shards) {
  std::vector<std::vector<VertexId>> sets;
  for (const RrShard& shard : shards) {
    for (std::uint64_t s = 0; s < shard.num_sets(); ++s) {
      sets.emplace_back(shard.flat.begin() + shard.offsets[s],
                        shard.flat.begin() + shard.offsets[s + 1]);
    }
  }
  return sets;
}

template <typename Shard>
TraversalCounters TotalCounters(const std::vector<Shard>& shards) {
  TraversalCounters total;
  for (const Shard& shard : shards) total += shard.counters;
  return total;
}

TEST(LtSamplingEngineTest, RrShardsIdenticalAcrossWorkerCounts) {
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  SamplingEngine sequential(Sequential(32));
  auto reference = SampleLtRrShards(weights, 7, 500, &sequential);
  for (int threads : {2, 4}) {
    SamplingEngine parallel(Threads(threads, 32));
    auto shards = SampleLtRrShards(weights, 7, 500, &parallel);
    EXPECT_EQ(Sets(shards), Sets(reference)) << threads;
    ExpectCountersEq(TotalCounters(shards), TotalCounters(reference));
  }
}

TEST(LtSamplingEngineTest, SnapshotShardsIdenticalAcrossWorkerCounts) {
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  SamplingEngine sequential(Sequential(16));
  auto reference = SampleLtSnapshotShards(weights, 9, 200, &sequential);
  std::vector<const Snapshot*> want;
  for (const SnapshotShard& shard : reference) {
    for (const Snapshot& snap : shard.snapshots) want.push_back(&snap);
  }
  for (int threads : {2, 4}) {
    SamplingEngine parallel(Threads(threads, 16));
    auto shards = SampleLtSnapshotShards(weights, 9, 200, &parallel);
    std::size_t i = 0;
    for (const SnapshotShard& shard : shards) {
      for (const Snapshot& snap : shard.snapshots) {
        ASSERT_LT(i, want.size()) << threads;
        EXPECT_EQ(snap.out_offsets, want[i]->out_offsets) << threads;
        EXPECT_EQ(snap.out_targets, want[i]->out_targets) << threads;
        ++i;
      }
    }
    EXPECT_EQ(i, want.size()) << threads;
    ExpectCountersEq(TotalCounters(shards), TotalCounters(reference));
  }
}

TEST(LtSamplingEngineTest, ShardedForwardSimIdenticalAndUnbiased) {
  // Diamond with all weights 0.5: exact LT influence of {0} is 2.5.
  EdgeList edges;
  edges.num_vertices = 4;
  edges.Add(0, 1);
  edges.Add(0, 2);
  edges.Add(1, 3);
  edges.Add(2, 3);
  InfluenceGraph ig(GraphBuilder::FromEdgeList(edges),
                    std::vector<double>(4, 0.5));
  const std::vector<VertexId> seeds = {0};

  SamplingEngine sequential(Sequential(64));
  TraversalCounters counters1;
  double reference = EstimateLtInfluenceSharded(ig, seeds, 20000, 13,
                                                &sequential, &counters1);
  EXPECT_NEAR(reference, 2.5, 0.05);
  for (int threads : {2, 4}) {
    SamplingEngine parallel(Threads(threads, 64));
    TraversalCounters counters;
    double mean = EstimateLtInfluenceSharded(ig, seeds, 20000, 13,
                                             &parallel, &counters);
    EXPECT_DOUBLE_EQ(mean, reference) << threads;
    ExpectCountersEq(counters, counters1);
  }
}

/// One greedy selection's seed sequence, estimates and counters.
struct LtRun {
  GreedyRunResult run;
  TraversalCounters counters;
};

LtRun LtGreedyWith(const LtWeights& weights, Approach approach,
                   std::uint64_t samples, SnapshotEstimator::Mode mode,
                   const SamplingOptions& sampling, int k) {
  auto estimator = MakeEstimator(ModelInstance::Lt(&weights), approach,
                                 samples, /*seed=*/21, mode, sampling);
  Rng tie_rng(123);
  GreedyRunResult run = RunGreedy(
      estimator.get(), weights.influence_graph().num_vertices(), k, &tie_rng);
  return {std::move(run), estimator->counters()};
}

TEST(LtSamplingEngineTest, EstimatorsIdenticalAcrossThreadCounts) {
  // The satellite contract: num_threads ∈ {1, 2, 4} all match the
  // sequential default — seed sets AND counters — for every approach and
  // every Snapshot backend. Across backends the seeds and estimates must
  // agree too (only the traversal cost may differ).
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  const SnapshotEstimator::Mode kModes[] = {
      SnapshotEstimator::Mode::kResidual,
      SnapshotEstimator::Mode::kCondensed};
  for (Approach approach :
       {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
    std::uint64_t samples = approach == Approach::kRis ? 2000 : 256;
    std::vector<LtRun> per_mode;
    for (SnapshotEstimator::Mode mode : kModes) {
      if (approach != Approach::kSnapshot &&
          mode != SnapshotEstimator::Mode::kResidual) {
        continue;  // the mode only matters to Snapshot
      }
      const std::string label =
          ApproachName(approach) + "/" + SnapshotModeName(mode);
      LtRun reference =
          LtGreedyWith(weights, approach, samples, mode, Sequential(), 3);
      for (int threads : {2, 4}) {
        LtRun run =
            LtGreedyWith(weights, approach, samples, mode, Threads(threads), 3);
        EXPECT_EQ(run.run.SortedSeedSet(), reference.run.SortedSeedSet())
            << label << " @ " << threads << " threads";
        ExpectCountersEq(run.counters, reference.counters);
      }
      per_mode.push_back(std::move(reference));
    }
    for (std::size_t m = 1; m < per_mode.size(); ++m) {
      EXPECT_EQ(per_mode[m].run.seeds, per_mode[0].run.seeds)
          << SnapshotModeName(kModes[m]) << " vs residual";
      EXPECT_EQ(per_mode[m].run.estimates, per_mode[0].run.estimates)
          << SnapshotModeName(kModes[m]) << " vs residual";
    }
  }
}

TEST(LtSamplingEngineTest, UnifiedFactoryRoutesBothModels) {
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  const ModelInstance lt_instance = ModelInstance::Lt(&weights);
  auto lt = MakeEstimator(lt_instance, Approach::kRis, 64, 1);
  auto ic = MakeEstimator(ModelInstance::Ic(&ig), Approach::kRis, 64, 1);
  // The factory's LT RIS draws LT backward walks: it answers exactly as
  // an estimator borrowing an LT arena of the same seed does.
  RrArena arena = RrArena::SampleFor(lt_instance, 1, 64, {});
  RisEstimator borrowed(&arena, 64);
  lt->Build();
  ic->Build();
  borrowed.Build();
  bool differs_from_ic = false;
  for (VertexId v = 0; v < ig.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(lt->Estimate(v), borrowed.Estimate(v)) << v;
    differs_from_ic |= lt->Estimate(v) != ic->Estimate(v);
  }
  EXPECT_TRUE(differs_from_ic);
}

TEST(LtSamplingEngineTest, RunTrialsLtIdenticalAcrossSamplingModes) {
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  ModelInstance instance = ModelInstance::Lt(&weights);
  TrialConfig config;
  config.approach = Approach::kRis;
  config.sample_number = 512;
  config.k = 2;
  config.trials = 6;
  config.master_seed = 31;
  config.sampling.chunk_size = 64;

  // Sequential default (inline chunked streams)...
  TrialResult sequential = RunTrials(instance, config, nullptr);

  // ...vs sample-level parallelism on a shared pool...
  ThreadPool four(4);
  TrialConfig parallel_config = config;
  parallel_config.sampling.num_threads = 0;  // engine on the shared pool
  TrialResult sample_parallel = RunTrials(instance, parallel_config, &four);
  EXPECT_EQ(sequential.seed_sets, sample_parallel.seed_sets);
  ExpectCountersEq(sequential.total_counters,
                   sample_parallel.total_counters);

  // ...vs trial-level parallelism (legacy sampling mode fans trials out).
  TrialResult trial_parallel = RunTrials(instance, config, &four);
  EXPECT_EQ(sequential.seed_sets, trial_parallel.seed_sets);
  ExpectCountersEq(sequential.total_counters,
                   trial_parallel.total_counters);
}

TEST(LtSamplingEngineTest, OneshotEstimateSequenceIdentical) {
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  OneshotEstimator a(ModelInstance::Lt(&weights), 256, 17, Sequential());
  OneshotEstimator b(ModelInstance::Lt(&weights), 256, 17, Threads(4));
  a.Build();
  b.Build();
  for (VertexId v = 0; v < 8; ++v) {
    ASSERT_DOUBLE_EQ(a.Estimate(v), b.Estimate(v)) << "vertex " << v;
  }
  a.Update(0);
  b.Update(0);
  ASSERT_DOUBLE_EQ(a.Estimate(5), b.Estimate(5));
  ExpectCountersEq(a.counters(), b.counters());
}

}  // namespace
}  // namespace soldist
