// The arena's load-bearing contract, ctest-enforced: a prefix view of a
// τ₂ arena is BYTE-IDENTICAL to sampling τ₁ < τ₂ directly — same sets in
// the same order, same inverted lists, same traversal counters — for the
// chunked engine streams at worker counts 1/2/4 (width 1 being the
// default inline engine, byte-identical to 2 and 4), both chunk sizes,
// and both diffusion models. On top of that, a RisEstimator borrowing an
// arena prefix must be indistinguishable from a fresh RisEstimator
// through the greedy framework.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/greedy.h"
#include "core/ris.h"
#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/probability.h"
#include "random/splitmix64.h"
#include "sim/lt_samplers.h"
#include "sim/max_coverage.h"
#include "sim/rr_arena.h"
#include "sim/sampling_engine.h"

namespace soldist {
namespace {

InfluenceGraph KarateUc01() {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());
  return MakeInfluenceGraph(std::move(g), ProbabilityModel::kUc01);
}

InfluenceGraph KarateIwc() {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());
  return MakeInfluenceGraph(std::move(g), ProbabilityModel::kIwc);
}

SamplingOptions Threads(int num_threads, std::uint64_t chunk_size) {
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

/// Builds the RR collection of `tau` sets straight from the shard
/// samplers (the streams a fresh RisEstimator at `tau` draws), plus its
/// summed counters.
struct DirectBuild {
  RrCollection collection;
  TraversalCounters counters;
};

DirectBuild DirectIc(const InfluenceGraph& ig, std::uint64_t seed,
                     std::uint64_t tau, const SamplingOptions& sampling) {
  DirectBuild direct{RrCollection(ig.num_vertices()), {}};
  SamplingEngine engine(sampling);
  auto shards = SampleRrShards(ig, seed, tau, &engine);
  for (const RrShard& shard : shards) direct.counters += shard.counters;
  direct.collection.Merge(std::move(shards));
  direct.collection.BuildIndex();
  return direct;
}

DirectBuild DirectLt(const LtWeights& weights, std::uint64_t seed,
                     std::uint64_t tau, const SamplingOptions& sampling) {
  DirectBuild direct{
      RrCollection(weights.influence_graph().num_vertices()), {}};
  SamplingEngine engine(sampling);
  auto shards = SampleLtRrShards(weights, seed, tau, &engine);
  for (const RrShard& shard : shards) direct.counters += shard.counters;
  direct.collection.Merge(std::move(shards));
  direct.collection.BuildIndex();
  return direct;
}

void ExpectPrefixEqualsDirect(const RrArena& arena,
                              const DirectBuild& direct,
                              std::uint64_t tau) {
  RrPrefixView view = arena.Prefix(tau);
  ASSERT_EQ(view.size(), direct.collection.size());
  for (std::uint64_t i = 0; i < tau; ++i) {
    std::span<const VertexId> a = view.Set(i);
    std::span<const VertexId> b = direct.collection.Set(i);
    ASSERT_EQ(std::vector<VertexId>(a.begin(), a.end()),
              std::vector<VertexId>(b.begin(), b.end()))
        << "set " << i << " differs at tau=" << tau;
  }
  for (VertexId v = 0; v < arena.num_vertices(); ++v) {
    std::span<const std::uint32_t> a = view.InvertedList(v);
    std::span<const std::uint32_t> b = direct.collection.InvertedList(v);
    ASSERT_EQ(std::vector<std::uint32_t>(a.begin(), a.end()),
              std::vector<std::uint32_t>(b.begin(), b.end()))
        << "inverted list of " << v << " differs at tau=" << tau;
    EXPECT_EQ(view.CoverCount(v), a.size());
  }
  ExpectCountersEq(view.Counters(), direct.counters);
}

TEST(RrArenaTest, IcPrefixViewsMatchDirectSampling) {
  InfluenceGraph ig = KarateUc01();
  const std::uint64_t capacity = 500;
  for (std::uint64_t chunk_size : {256u, 64u}) {
    // Width 1 (the default inline engine) must equal widths 2 and 4 byte
    // for byte.
    std::uint64_t width1_checksum = 0;
    for (int threads : {1, 2, 4}) {
      SamplingOptions sampling = Threads(threads, chunk_size);
      RrArena arena = RrArena::SampleIc(ig, 77, capacity, sampling);
      if (threads == 1) width1_checksum = arena.ContentChecksum();
      EXPECT_EQ(arena.ContentChecksum(), width1_checksum)
          << "threads=" << threads << " chunk=" << chunk_size;
      for (std::uint64_t tau : {1u, 63u, 64u, 257u, 300u, 500u}) {
        ExpectPrefixEqualsDirect(arena, DirectIc(ig, 77, tau, sampling),
                                 tau);
      }
    }
  }
}

TEST(RrArenaTest, LtPrefixViewsMatchDirectSampling) {
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  const std::uint64_t capacity = 400;
  for (std::uint64_t chunk_size : {256u, 64u}) {
    std::uint64_t width1_checksum = 0;
    for (int threads : {1, 2, 4}) {
      SamplingOptions sampling = Threads(threads, chunk_size);
      RrArena arena = RrArena::SampleFor(ModelInstance::Lt(&weights), 31,
                                         capacity, sampling);
      if (threads == 1) width1_checksum = arena.ContentChecksum();
      EXPECT_EQ(arena.ContentChecksum(), width1_checksum)
          << "threads=" << threads << " chunk=" << chunk_size;
      for (std::uint64_t tau : {1u, 100u, 256u, 399u, 400u}) {
        ExpectPrefixEqualsDirect(arena,
                                 DirectLt(weights, 31, tau, sampling), tau);
      }
    }
  }
}

TEST(RrArenaTest, ArenaContentIsWorkerCountInvariant) {
  InfluenceGraph ig = KarateUc01();
  RrArena reference = RrArena::SampleIc(ig, 5, 300, Threads(1, 64));
  for (int threads : {2, 3, 4}) {
    RrArena arena = RrArena::SampleIc(ig, 5, 300, Threads(threads, 64));
    ASSERT_EQ(arena.capacity(), reference.capacity());
    ASSERT_EQ(arena.total_entries(), reference.total_entries());
    for (std::uint64_t i = 0; i < arena.capacity(); ++i) {
      std::span<const VertexId> a = arena.Set(i);
      std::span<const VertexId> b = reference.Set(i);
      ASSERT_EQ(std::vector<VertexId>(a.begin(), a.end()),
                std::vector<VertexId>(b.begin(), b.end()));
    }
    ExpectCountersEq(arena.PrefixCounters(300),
                     reference.PrefixCounters(300));
  }
}

/// A RisEstimator borrowing the first τ sets of an arena must match a
/// fresh RisEstimator at τ with the arena's seed through the greedy
/// framework — seeds, estimates, counters and EPT — at widths 1/2/4.
void ExpectBorrowedMatchesFresh(const ModelInstance& instance,
                                std::uint64_t seed, std::uint64_t capacity,
                                std::vector<std::uint64_t> taus, int k) {
  const VertexId n = instance.ig->num_vertices();
  for (int threads : {1, 2, 4}) {
    SamplingOptions sampling = Threads(threads, 64);
    RrArena arena = RrArena::SampleFor(instance, seed, capacity, sampling);
    for (std::uint64_t tau : taus) {
      RisEstimator fresh(instance, tau, seed, sampling);
      RisEstimator borrowed(&arena, tau);
      Rng tie_a(1234), tie_b(1234);
      GreedyRunResult a = RunGreedy(&fresh, n, k, &tie_a);
      GreedyRunResult b = RunGreedy(&borrowed, n, k, &tie_b);
      EXPECT_EQ(a.seeds, b.seeds) << "tau=" << tau;
      EXPECT_EQ(a.estimates, b.estimates) << "tau=" << tau;
      ExpectCountersEq(fresh.counters(), borrowed.counters());
      EXPECT_DOUBLE_EQ(fresh.EmpiricalEpt(), borrowed.EmpiricalEpt());
    }
  }
}

TEST(RrArenaTest, BorrowedRisEstimatorMatchesFreshIc) {
  InfluenceGraph ig = KarateUc01();
  ExpectBorrowedMatchesFresh(ModelInstance::Ic(&ig), 99, 512,
                             {64, 200, 512}, 4);
}

TEST(RrArenaTest, BorrowedRisEstimatorMatchesFreshLt) {
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  ExpectBorrowedMatchesFresh(ModelInstance::Lt(&weights), 13, 300,
                             {32, 300}, 3);
}

TEST(RrArenaTest, PrefixViewMaxCoverageMatchesCollection) {
  InfluenceGraph ig = KarateUc01();
  SamplingOptions sampling = Threads(2, 64);
  RrArena arena = RrArena::SampleIc(ig, 21, 400, sampling);
  for (std::uint64_t tau : {50u, 400u}) {
    DirectBuild direct = DirectIc(ig, 21, tau, sampling);
    for (int k : {1, 4, 8}) {
      MaxCoverageResult from_view = GreedyMaxCoverage(arena.Prefix(tau), k);
      MaxCoverageResult from_collection =
          GreedyMaxCoverage(direct.collection, k);
      EXPECT_EQ(from_view.seeds, from_collection.seeds);
      EXPECT_EQ(from_view.covered, from_collection.covered);
    }
  }
}

TEST(RrArenaTest, InvertedPrefixMatchesPrefixViewCut) {
  // The lazy point-query cut (one binary search on demand) must agree
  // with the materialized RrPrefixView cut for every vertex and τ,
  // including the full-capacity fast path (no search at all).
  InfluenceGraph ig = KarateUc01();
  RrArena arena = RrArena::SampleIc(ig, 21, 500, Threads(2, 64));
  for (std::uint64_t tau : {1u, 63u, 257u, 500u}) {
    RrPrefixView view = arena.Prefix(tau);
    for (VertexId v = 0; v < arena.num_vertices(); ++v) {
      std::span<const std::uint32_t> lazy = arena.InvertedPrefix(v, tau);
      std::span<const std::uint32_t> cut = view.InvertedList(v);
      ASSERT_EQ(std::vector<std::uint32_t>(lazy.begin(), lazy.end()),
                std::vector<std::uint32_t>(cut.begin(), cut.end()))
          << "vertex " << v << " tau " << tau;
    }
  }
  for (VertexId v = 0; v < arena.num_vertices(); ++v) {
    EXPECT_EQ(arena.InvertedPrefix(v, 1000).size(),
              arena.InvertedAll(v).size());
  }
}

TEST(RrArenaTest, PrefixCapacityIsChecked) {
  InfluenceGraph ig = KarateUc01();
  RrArena arena = RrArena::SampleIc(ig, 1, 8, SamplingOptions{});
  EXPECT_EQ(arena.capacity(), 8u);
  EXPECT_GT(arena.MemoryBytes(), 0u);
  EXPECT_DEATH(arena.Prefix(9), "exceeds arena capacity");
}

}  // namespace
}  // namespace soldist
