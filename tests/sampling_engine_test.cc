// Tests for the deterministic chunked sampling engine: the output of any
// build must be a pure function of (master seed, count, chunk_size) —
// byte-identical for the default inline engine, a 1-thread pool, or N
// worker threads — and MergeRrShards must equal a naive concatenation of
// the shards, with every set's id in its vertices' inverted lists.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/factory.h"
#include "core/greedy.h"
#include "core/oneshot.h"
#include "core/ris.h"
#include "core/snapshot.h"
#include "core/tim.h"
#include "exp/trial_runner.h"
#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/probability.h"
#include "random/splitmix64.h"
#include "sim/rr_sampler.h"
#include "sim/sampling_engine.h"

namespace soldist {
namespace {

InfluenceGraph KarateUc01() {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());
  return MakeInfluenceGraph(std::move(g), ProbabilityModel::kUc01);
}

/// Engine running chunks on exactly one pool worker thread.
SamplingOptions OneThreadEngine(ThreadPool* one_thread_pool,
                                std::uint64_t chunk_size = 64) {
  SamplingOptions options;
  options.num_threads = 1;
  options.chunk_size = chunk_size;
  options.pool = one_thread_pool;
  return options;
}

SamplingOptions FourThreadEngine(std::uint64_t chunk_size = 64) {
  SamplingOptions options;
  options.num_threads = 4;
  options.chunk_size = chunk_size;
  return options;
}

/// Flattens a shard sequence: the determinism contract is on the
/// concatenation (an inline run fills one shard, a pooled run one per
/// chunk).
RrShard Concat(const std::vector<RrShard>& shards) {
  RrShard out;
  out.offsets.push_back(0);
  for (const RrShard& shard : shards) {
    const std::uint64_t base = out.flat.size();
    out.flat.insert(out.flat.end(), shard.flat.begin(), shard.flat.end());
    for (std::size_t j = 1; j < shard.offsets.size(); ++j) {
      out.offsets.push_back(base + shard.offsets[j]);
    }
    out.counters += shard.counters;
  }
  return out;
}

TEST(SamplingOptionsTest, DefaultSamplesInlineThroughTheSameChunks) {
  // The only question num_threads/pool answer is WHICH level of
  // parallelism a caller uses; the default asks for none.
  SamplingOptions options;
  EXPECT_FALSE(options.SampleParallel());
  EXPECT_TRUE(FourThreadEngine().SampleParallel());
  ThreadPool pool(1);
  EXPECT_TRUE(OneThreadEngine(&pool).SampleParallel());

  // ...and the default draws exactly the sets a 4-worker engine draws.
  InfluenceGraph ig = KarateUc01();
  options.chunk_size = 64;
  SamplingEngine inline_engine(options);
  SamplingEngine parallel(FourThreadEngine(64));
  EXPECT_EQ(inline_engine.NumShards(500), 1u);
  EXPECT_EQ(parallel.NumShards(500), parallel.NumChunks(500));
  const RrShard a = Concat(SampleRrShards(ig, 3, 500, &inline_engine));
  const RrShard b = Concat(SampleRrShards(ig, 3, 500, &parallel));
  EXPECT_EQ(a.flat, b.flat);
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.counters.vertices, b.counters.vertices);
  EXPECT_EQ(a.counters.edges, b.counters.edges);
}

TEST(SamplingEngineTest, ChunkSeedsDependOnlyOnMasterAndIndex) {
  SamplingOptions options;
  options.chunk_size = 10;
  SamplingEngine engine(options);
  std::vector<SamplingEngine::Chunk> chunks;
  engine.Run(77, 35, [&](const SamplingEngine::Chunk& c, std::size_t slot) {
    EXPECT_EQ(slot, 0u);  // inline path uses slot 0
    chunks.push_back(c);
  });
  ASSERT_EQ(chunks.size(), 4u);
  for (std::uint64_t c = 0; c < chunks.size(); ++c) {
    EXPECT_EQ(chunks[c].index, c);
    EXPECT_EQ(chunks[c].begin, c * 10);
    EXPECT_EQ(chunks[c].end, std::min<std::uint64_t>((c + 1) * 10, 35));
    EXPECT_EQ(chunks[c].seed, DeriveSeed(77, c));
  }
}

TEST(SamplingEngineTest, RunCoversEveryIndexOnceAtAnyWorkerCount) {
  for (int workers : {1, 4}) {
    SamplingOptions options;
    options.num_threads = workers;
    options.chunk_size = 7;
    SamplingEngine engine(options);
    std::vector<std::atomic<int>> hits(100);
    engine.Run(1, 100,
               [&](const SamplingEngine::Chunk& chunk, std::size_t slot) {
      EXPECT_LT(slot, engine.num_workers());
      for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
        hits[i].fetch_add(1);
      }
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << workers;
  }
}

TEST(SamplingEngineTest, RrShardsIdenticalAcrossWorkerCounts) {
  InfluenceGraph ig = KarateUc01();
  ThreadPool one(1);
  SamplingEngine sequentialish(OneThreadEngine(&one, 32));
  SamplingEngine parallel(FourThreadEngine(32));
  const RrShard a = Concat(SampleRrShards(ig, 5, 500, &sequentialish));
  const RrShard b = Concat(SampleRrShards(ig, 5, 500, &parallel));
  EXPECT_EQ(a.flat, b.flat);
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.counters.vertices, b.counters.vertices);
  EXPECT_EQ(a.counters.edges, b.counters.edges);
  EXPECT_EQ(a.counters.sample_vertices, b.counters.sample_vertices);
}

TEST(MergeRrShardsTest, MatchesNaiveConcatenation) {
  InfluenceGraph ig = KarateUc01();
  SamplingEngine engine(FourThreadEngine(16));
  auto shards = SampleRrShards(ig, 9, 200, &engine);
  ASSERT_GT(shards.size(), 1u);
  const RrShard naive = Concat(shards);
  const store::RrFlatPayload merged =
      MergeRrShards(ig.num_vertices(), std::move(shards), &engine);

  EXPECT_EQ(merged.flat, naive.flat);
  EXPECT_EQ(merged.set_offsets, naive.offsets);
  ASSERT_EQ(merged.num_vertices(), ig.num_vertices());
  for (VertexId v = 0; v < ig.num_vertices(); ++v) {
    std::vector<std::uint32_t> expected;
    for (std::uint64_t s = 0; s + 1 < naive.offsets.size(); ++s) {
      const auto begin = naive.flat.begin() +
                         static_cast<std::ptrdiff_t>(naive.offsets[s]);
      const auto end = naive.flat.begin() +
                       static_cast<std::ptrdiff_t>(naive.offsets[s + 1]);
      if (std::find(begin, end, v) != end) {
        expected.push_back(static_cast<std::uint32_t>(s));
      }
    }
    std::span<const std::uint32_t> list = merged.InvertedList(v);
    EXPECT_EQ(std::vector<std::uint32_t>(list.begin(), list.end()), expected)
        << "vertex " << v;
  }
}

TEST(MergeCountersTest, SumsAllShards) {
  std::vector<TraversalCounters> parts(3);
  parts[0].vertices = 1;
  parts[1].edges = 2;
  parts[2].sample_vertices = 3;
  parts[2].sample_edges = 4;
  TraversalCounters total = MergeCounters(parts);
  EXPECT_EQ(total.vertices, 1u);
  EXPECT_EQ(total.edges, 2u);
  EXPECT_EQ(total.sample_vertices, 3u);
  EXPECT_EQ(total.sample_edges, 4u);
}

/// Runs one greedy selection with the given estimator options and returns
/// (sorted seed set, counters).
template <typename MakeFn>
std::pair<std::vector<VertexId>, TraversalCounters> GreedyWith(
    const InfluenceGraph& ig, MakeFn make, int k) {
  auto estimator = make();
  Rng tie_rng(123);
  GreedyRunResult run = RunGreedy(estimator.get(), ig.num_vertices(), k,
                                  &tie_rng);
  return {run.SortedSeedSet(), estimator->counters()};
}

void ExpectCountersEq(const TraversalCounters& a, const TraversalCounters& b) {
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.sample_vertices, b.sample_vertices);
  EXPECT_EQ(a.sample_edges, b.sample_edges);
}

TEST(SamplingEngineTest, RisBuildIdenticalFor1And4Threads) {
  InfluenceGraph ig = KarateUc01();
  ThreadPool one(1);
  auto [seeds1, counters1] = GreedyWith(ig, [&] {
    return std::make_unique<RisEstimator>(ModelInstance::Ic(&ig), 2000, 11,
                                          OneThreadEngine(&one));
  }, 3);
  auto [seeds4, counters4] = GreedyWith(ig, [&] {
    return std::make_unique<RisEstimator>(ModelInstance::Ic(&ig), 2000, 11,
                                          FourThreadEngine());
  }, 3);
  EXPECT_EQ(seeds1, seeds4);
  ExpectCountersEq(counters1, counters4);
}

TEST(SamplingEngineTest, SnapshotBuildIdenticalFor1And4Threads) {
  InfluenceGraph ig = KarateUc01();
  ThreadPool one(1);
  auto [seeds1, counters1] = GreedyWith(ig, [&] {
    return std::make_unique<SnapshotEstimator>(
        ModelInstance::Ic(&ig), 64, 13, SnapshotEstimator::Mode::kResidual,
        OneThreadEngine(&one, 16));
  }, 3);
  auto [seeds4, counters4] = GreedyWith(ig, [&] {
    return std::make_unique<SnapshotEstimator>(
        ModelInstance::Ic(&ig), 64, 13, SnapshotEstimator::Mode::kResidual,
        FourThreadEngine(16));
  }, 3);
  EXPECT_EQ(seeds1, seeds4);
  ExpectCountersEq(counters1, counters4);
}

TEST(SamplingEngineTest, OneshotEstimatesIdenticalFor1And4Threads) {
  InfluenceGraph ig = KarateUc01();
  ThreadPool one(1);
  OneshotEstimator a(ModelInstance::Ic(&ig), 512, 17,
                     OneThreadEngine(&one, 64));
  OneshotEstimator b(ModelInstance::Ic(&ig), 512, 17, FourThreadEngine(64));
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

TEST(SamplingEngineTest, FactoryRoutesOptionsToAllThreeApproaches) {
  InfluenceGraph ig = KarateUc01();
  ThreadPool one(1);
  SamplingOptions inline_default;
  inline_default.chunk_size = 64;
  for (Approach approach :
       {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
    auto [seeds, counters] = GreedyWith(ig, [&] {
      return MakeEstimator(ModelInstance::Ic(&ig), approach, 256, 19,
                           SnapshotEstimator::Mode::kResidual,
                           inline_default);
    }, 2);
    for (const SamplingOptions& sampling :
         {OneThreadEngine(&one), FourThreadEngine()}) {
      auto [seeds_n, counters_n] = GreedyWith(ig, [&] {
        return MakeEstimator(ModelInstance::Ic(&ig), approach, 256, 19,
                             SnapshotEstimator::Mode::kResidual, sampling);
      }, 2);
      EXPECT_EQ(seeds_n, seeds) << ApproachName(approach);
      ExpectCountersEq(counters_n, counters);
    }
  }
}

TEST(SamplingEngineTest, TimIdenticalFor1And4Threads) {
  InfluenceGraph ig = KarateUc01();
  ThreadPool one(1);
  SamplingOptions inline_default;
  inline_default.chunk_size = 64;
  TimParams tim_params;
  tim_params.k = 2;
  tim_params.epsilon = 0.5;
  TimResult tim0 = RunTimPlus(ig, tim_params, 29, inline_default);
  TimResult tim1 = RunTimPlus(ig, tim_params, 29, OneThreadEngine(&one));
  TimResult tim4 = RunTimPlus(ig, tim_params, 29, FourThreadEngine());
  for (const TimResult* tim : {&tim1, &tim4}) {
    EXPECT_EQ(tim->greedy.seeds, tim0.greedy.seeds);
    EXPECT_EQ(tim->theta, tim0.theta);
    EXPECT_DOUBLE_EQ(tim->kpt, tim0.kpt);
  }
}

TEST(SamplingEngineTest, RunTrialsSampleParallelIdenticalToOneThread) {
  InfluenceGraph ig = KarateUc01();
  TrialConfig config;
  config.approach = Approach::kRis;
  config.sample_number = 512;
  config.k = 2;
  config.trials = 6;
  config.master_seed = 31;

  ThreadPool one(1);
  TrialConfig config1 = config;
  config1.sampling = OneThreadEngine(&one);
  TrialResult r1 = RunTrials(ig, config1, nullptr);

  ThreadPool four(4);
  TrialConfig config4 = config;
  config4.sampling.num_threads = 0;  // engine on the shared pool
  config4.sampling.chunk_size = 64;
  TrialResult r4 = RunTrials(ig, config4, &four);

  EXPECT_EQ(r1.seed_sets, r4.seed_sets);
  ExpectCountersEq(r1.total_counters, r4.total_counters);

  // The default width parallelizes the other level — trials fan out over
  // the pool, each sampling inline — and still yields the same bytes.
  TrialConfig config_inline = config;
  config_inline.sampling.chunk_size = 64;
  TrialResult r_inline = RunTrials(ig, config_inline, &four);
  EXPECT_EQ(r_inline.seed_sets, r4.seed_sets);
  ExpectCountersEq(r_inline.total_counters, r4.total_counters);
}

TEST(SamplingEngineTest, TrialParallelAndSequentialAgree) {
  // Trial-level parallelism (inline sampling) must also be schedule-free:
  // per-trial seeds are derived from (master, t) regardless of workers.
  InfluenceGraph ig = KarateUc01();
  TrialConfig config;
  config.approach = Approach::kSnapshot;
  config.sample_number = 16;
  config.k = 2;
  config.trials = 8;
  config.master_seed = 37;
  TrialResult sequential = RunTrials(ig, config, nullptr);
  ThreadPool four(4);
  TrialResult parallel = RunTrials(ig, config, &four);
  EXPECT_EQ(sequential.seed_sets, parallel.seed_sets);
  ExpectCountersEq(sequential.total_counters, parallel.total_counters);
}

TEST(RisEstimatorTest, ChosenSeedScoresZeroAfterUpdate) {
  // Regression: Estimate(v) of an already-chosen seed must return 0 —
  // Update eagerly decrements the coverage counts of every member of the
  // sets it deactivates, so a chosen seed never keeps a stale score.
  InfluenceGraph ig = KarateUc01();
  RisEstimator estimator(ModelInstance::Ic(&ig), 1000, 41);
  Rng tie_rng(1);
  // RunGreedy calls Build() itself.
  GreedyRunResult run = RunGreedy(&estimator, ig.num_vertices(), 3, &tie_rng);
  for (VertexId seed : run.seeds) {
    EXPECT_DOUBLE_EQ(estimator.Estimate(seed), 0.0) << "seed " << seed;
  }
}

TEST(RisEstimatorTest, ChosenSeedScoresZeroOnEnginePath) {
  InfluenceGraph ig = KarateUc01();
  RisEstimator estimator(ModelInstance::Ic(&ig), 1000, 43, FourThreadEngine());
  estimator.Build();
  double before = estimator.Estimate(0);
  EXPECT_GT(before, 0.0);
  estimator.Update(0);
  EXPECT_DOUBLE_EQ(estimator.Estimate(0), 0.0);
}

}  // namespace
}  // namespace soldist
