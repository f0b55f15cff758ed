// The arena's load-bearing contract, ctest-enforced: a prefix view of a
// τ₂ arena is BYTE-IDENTICAL to sampling τ₁ < τ₂ directly — same sets in
// the same order, same inverted lists, same traversal counters — for the
// chunked engine streams at worker counts 1/2/4 (width 1 being the
// default inline engine, byte-identical to 2 and 4), both chunk sizes,
// and both diffusion models. On top of that, a RisEstimator borrowing an
// arena prefix must be indistinguishable from a fresh RisEstimator
// through the greedy framework. And every inverted index — an arena
// sampled at widths 1/2/4 or cancelled, one reloaded through FromParts,
// an RrCollection grown round by round — equals the serial reference
// counting sort byte for byte.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
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

/// The serial counting sort the block-parallel one replaced
/// (sim/inverted_index.h): per-vertex counts, a prefix sum, then one
/// pass over the sets in id order. Every index build must equal it byte
/// for byte.
struct ReferenceIndex {
  std::vector<std::uint32_t> ids;
  std::vector<std::uint32_t> offsets;
};

ReferenceIndex ReferenceInvertedIndex(
    VertexId num_vertices, std::span<const VertexId> flat,
    std::span<const std::uint64_t> set_offsets) {
  ReferenceIndex index;
  index.offsets.assign(static_cast<std::size_t>(num_vertices) + 1, 0);
  for (VertexId v : flat) ++index.offsets[static_cast<std::size_t>(v) + 1];
  std::partial_sum(index.offsets.begin(), index.offsets.end(),
                   index.offsets.begin());
  index.ids.resize(flat.size());
  std::vector<std::uint32_t> cursor(index.offsets.begin(),
                                    index.offsets.end() - 1);
  for (std::uint64_t set_id = 0; set_id + 1 < set_offsets.size(); ++set_id) {
    for (std::uint64_t k = set_offsets[set_id]; k < set_offsets[set_id + 1];
         ++k) {
      index.ids[cursor[flat[k]]++] = static_cast<std::uint32_t>(set_id);
    }
  }
  return index;
}

void ExpectArenaIndexIsReference(const RrArena& arena) {
  const store::RrFlatPayload* payload = arena.storage().flat_payload();
  ASSERT_NE(payload, nullptr);
  ASSERT_EQ(payload->set_offsets.size(), arena.capacity() + 1);
  const ReferenceIndex reference = ReferenceInvertedIndex(
      arena.num_vertices(), payload->flat, payload->set_offsets);
  EXPECT_EQ(payload->index_offsets, reference.offsets);
  EXPECT_EQ(payload->index_ids, reference.ids);
}

void ExpectCollectionIndexIsReference(const RrCollection& collection) {
  std::vector<VertexId> flat;
  std::vector<std::uint64_t> set_offsets{0};
  for (std::uint64_t i = 0; i < collection.size(); ++i) {
    std::span<const VertexId> set = collection.Set(i);
    flat.insert(flat.end(), set.begin(), set.end());
    set_offsets.push_back(flat.size());
  }
  const ReferenceIndex reference =
      ReferenceInvertedIndex(collection.num_vertices(), flat, set_offsets);
  for (VertexId v = 0; v < collection.num_vertices(); ++v) {
    std::span<const std::uint32_t> list = collection.InvertedList(v);
    ASSERT_EQ(std::vector<std::uint32_t>(list.begin(), list.end()),
              std::vector<std::uint32_t>(
                  reference.ids.begin() + reference.offsets[v],
                  reference.ids.begin() + reference.offsets[v + 1]))
        << "vertex " << v << " of " << collection.size() << " sets";
  }
}

TEST(InvertedIndexTest, ArenaSampleForMatchesReference) {
  InfluenceGraph uc01 = KarateUc01();
  InfluenceGraph iwc = KarateIwc();
  LtWeights weights(&iwc);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    ExpectArenaIndexIsReference(
        RrArena::SampleIc(uc01, 41, 3000, Threads(threads, 64)));
    ExpectArenaIndexIsReference(RrArena::SampleFor(
        ModelInstance::Lt(&weights), 42, 2000, Threads(threads, 64)));
  }
}

TEST(InvertedIndexTest, CancelledArenaMatchesReference) {
  InfluenceGraph ig = KarateUc01();
  std::atomic<int> checks{0};
  CancelToken cancel([&] { return checks.fetch_add(1) + 1 >= 40; });
  SamplingOptions sampling = Threads(4, 16);
  sampling.cancel = &cancel;
  RrArena arena = RrArena::SampleIc(ig, 43, 4000, sampling);
  EXPECT_GE(arena.capacity(), 1u);
  EXPECT_LT(arena.capacity(), 4000u);
  ExpectArenaIndexIsReference(arena);
}

TEST(InvertedIndexTest, FromPartsMatchesReference) {
  InfluenceGraph ig = KarateUc01();
  RrArena sampled = RrArena::SampleIc(ig, 44, 1500, Threads(4, 64));
  const store::RrFlatPayload& payload = *sampled.storage().flat_payload();
  std::vector<TraversalCounters> per_set;
  for (std::uint64_t i = 0; i < sampled.capacity(); ++i) {
    per_set.push_back(sampled.PrefixCounters(i + 1) -
                      sampled.PrefixCounters(i));
  }
  RrArena loaded = RrArena::FromParts(ig.num_vertices(), payload.flat,
                                      payload.set_offsets, per_set);
  ExpectArenaIndexIsReference(loaded);
  EXPECT_EQ(loaded.storage().flat_payload()->index_ids, payload.index_ids);
  // Vertices 1, 3 and 5 are in no set.
  RrArena sparse = RrArena::FromParts(6, {0, 2, 2, 4, 0}, {0, 2, 3, 5},
                                      std::vector<TraversalCounters>(3));
  ExpectArenaIndexIsReference(sparse);
  EXPECT_TRUE(sparse.InvertedAll(1).empty());
}

/// IMM's pattern: Merge a batch of fresh sets, BuildIndex, select,
/// repeat — including a round smaller than the worker count and a
/// second BuildIndex with nothing new.
TEST(InvertedIndexTest, CollectionRoundsMatchReference) {
  InfluenceGraph ig = KarateUc01();
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    SamplingEngine engine(Threads(threads, 64));
    RrCollection one_shot(ig.num_vertices());
    one_shot.Merge(SampleRrShards(ig, 45, 2000, &engine));
    one_shot.BuildIndex(&engine);
    ExpectCollectionIndexIsReference(one_shot);

    RrCollection rounds(ig.num_vertices());
    std::uint64_t round = 0;
    for (std::uint64_t delta : {300u, 2u, 700u, 1500u}) {
      rounds.Merge(
          SampleRrShards(ig, DeriveSeed(46, round++), delta, &engine));
      rounds.BuildIndex(&engine);
      ExpectCollectionIndexIsReference(rounds);
      rounds.BuildIndex(&engine);  // nothing new: a no-op
      ExpectCollectionIndexIsReference(rounds);
    }

    RrCollection sparse(6);  // vertices 1, 3 and 5 are in no set
    sparse.Add({0, 2});
    sparse.BuildIndex(&engine);  // a 1-set collection
    ExpectCollectionIndexIsReference(sparse);
    sparse.Add({2});
    sparse.Add({4, 0});
    sparse.BuildIndex(&engine);
    ExpectCollectionIndexIsReference(sparse);
    EXPECT_TRUE(sparse.InvertedList(5).empty());
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
