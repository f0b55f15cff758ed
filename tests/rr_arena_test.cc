// The arena's load-bearing contract, ctest-enforced: a prefix view of a
// τ₂ arena is BYTE-IDENTICAL to sampling τ₁ < τ₂ directly — same sets in
// the same order, same inverted lists, same traversal counters — for the
// chunked engine streams at worker counts 1/2/4 (width 1 being the
// default inline engine, byte-identical to 2 and 4), both chunk sizes,
// and both diffusion models. On top of that, a RisEstimator borrowing an
// arena prefix must be indistinguishable from a fresh RisEstimator
// through the greedy framework. And every inverted index — an arena
// sampled at widths 1/2/4 or cancelled, one reloaded through FromParts,
// a payload merged from sampled shards (the oracle's build) — equals the
// serial reference counting sort byte for byte.

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

/// Builds the RR payload of `tau` sets straight from the shard samplers
/// (the streams a fresh RisEstimator at `tau` draws), plus its summed
/// counters.
struct DirectBuild {
  store::RrFlatPayload payload;
  TraversalCounters counters;
};

DirectBuild Direct(VertexId n, std::vector<RrShard> shards,
                   SamplingEngine* engine) {
  DirectBuild direct;
  for (const RrShard& shard : shards) direct.counters += shard.counters;
  direct.payload = MergeRrShards(n, std::move(shards), engine);
  return direct;
}

DirectBuild DirectIc(const InfluenceGraph& ig, std::uint64_t seed,
                     std::uint64_t tau, const SamplingOptions& sampling) {
  SamplingEngine engine(sampling);
  return Direct(ig.num_vertices(), SampleRrShards(ig, seed, tau, &engine),
                &engine);
}

DirectBuild DirectLt(const LtWeights& weights, std::uint64_t seed,
                     std::uint64_t tau, const SamplingOptions& sampling) {
  SamplingEngine engine(sampling);
  return Direct(weights.influence_graph().num_vertices(),
                SampleLtRrShards(weights, seed, tau, &engine), &engine);
}

void ExpectPrefixEqualsDirect(const RrArena& arena,
                              const DirectBuild& direct,
                              std::uint64_t tau) {
  RrPrefixView view = arena.Prefix(tau);
  ASSERT_EQ(view.size(), direct.payload.size());
  for (std::uint64_t i = 0; i < tau; ++i) {
    std::span<const VertexId> a = view.Set(i);
    std::span<const VertexId> b = direct.payload.Set(i);
    ASSERT_EQ(std::vector<VertexId>(a.begin(), a.end()),
              std::vector<VertexId>(b.begin(), b.end()))
        << "set " << i << " differs at tau=" << tau;
  }
  for (VertexId v = 0; v < arena.num_vertices(); ++v) {
    std::span<const std::uint32_t> a = view.InvertedList(v);
    std::span<const std::uint32_t> b = direct.payload.InvertedList(v);
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

TEST(RrArenaTest, PrefixViewMaxCoverageMatchesDirectPayload) {
  InfluenceGraph ig = KarateUc01();
  SamplingOptions sampling = Threads(2, 64);
  RrArena arena = RrArena::SampleIc(ig, 21, 400, sampling);
  for (std::uint64_t tau : {50u, 400u}) {
    DirectBuild direct = DirectIc(ig, 21, tau, sampling);
    for (int k : {1, 4, 8}) {
      MaxCoverageResult from_view = GreedyMaxCoverage(arena.Prefix(tau), k);
      MaxCoverageResult from_payload = GreedyMaxCoverage(direct.payload, k);
      EXPECT_EQ(from_view.seeds, from_payload.seeds);
      EXPECT_EQ(from_view.covered, from_payload.covered);
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

void ExpectPayloadIndexIsReference(const store::RrFlatPayload& payload) {
  const ReferenceIndex reference = ReferenceInvertedIndex(
      payload.num_vertices(), payload.flat, payload.set_offsets);
  EXPECT_EQ(payload.index_offsets, reference.offsets);
  EXPECT_EQ(payload.index_ids, reference.ids);
}

void ExpectArenaIndexIsReference(const RrArena& arena) {
  const store::RrFlatPayload* payload = arena.storage().flat_payload();
  ASSERT_NE(payload, nullptr);
  ASSERT_EQ(payload->set_offsets.size(), arena.capacity() + 1);
  ASSERT_EQ(payload->num_vertices(), arena.num_vertices());
  ExpectPayloadIndexIsReference(*payload);
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

/// MergeRrShards, the oracle's build, at widths 1/2/4 — plus a 1-set
/// payload in which vertices 1, 3 and 5 are in no set.
TEST(InvertedIndexTest, MergedPayloadMatchesReference) {
  InfluenceGraph ig = KarateUc01();
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    SamplingEngine engine(Threads(threads, 64));
    ExpectPayloadIndexIsReference(MergeRrShards(
        ig.num_vertices(), SampleRrShards(ig, 45, 2000, &engine), &engine));

    std::vector<RrShard> sparse(1);
    sparse[0].flat = {0, 2};
    sparse[0].offsets = {0, 2};
    const store::RrFlatPayload payload =
        MergeRrShards(6, std::move(sparse), &engine);
    ASSERT_EQ(payload.size(), 1u);
    ExpectPayloadIndexIsReference(payload);
    EXPECT_TRUE(payload.InvertedList(5).empty());
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
