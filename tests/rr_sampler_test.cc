// Tests for RR-set sampling: the Borgs et al. identity
// Pr[R ∩ S != ∅] = Inf(S)/n, EPT accounting, and coverage counts on a
// merged, indexed payload;
// plus a differential check of the two-pass reverse scan against the
// one-pass loop it replaced (kept below as ReferenceRrSet) and a digest
// that pins the sampled streams.

#include <gtest/gtest.h>

#include <string>

#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/influence_graph.h"
#include "model/probability.h"
#include "oracle/exact_oracle.h"
#include "random/splitmix64.h"
#include "sim/forward_sim.h"
#include "sim/max_coverage.h"
#include "sim/rr_sampler.h"

namespace soldist {
namespace {

InfluenceGraph SingleEdge(double p) {
  EdgeList edges;
  edges.num_vertices = 2;
  edges.Add(0, 1);
  Graph g = GraphBuilder::FromEdgeList(edges);
  return InfluenceGraph(std::move(g), {p});
}

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

/// The one-pass reverse BFS that RrSampler::SampleForTarget replaced,
/// kept here verbatim as the differential-test baseline: it tests the
/// mark before every coin, so the kernel must draw the same coins in the
/// same order and produce the same set and counters.
void ReferenceRrSet(const InfluenceGraph& ig, VertexId target, Rng* coin_rng,
                    VisitedMarker* visited, std::vector<VertexId>* out,
                    TraversalCounters* counters) {
  const Graph& g = ig.graph();
  out->clear();
  visited->NextEpoch();
  visited->Mark(target);
  out->push_back(target);
  std::size_t head = 0;
  while (head < out->size()) {
    VertexId v = (*out)[head++];
    counters->vertices += 1;
    const EdgeId begin = g.in_offsets()[v];
    const EdgeId end = g.in_offsets()[v + 1];
    counters->edges += end - begin;
    for (EdgeId pos = begin; pos < end; ++pos) {
      VertexId w = g.in_sources()[pos];
      if (visited->IsMarked(w)) continue;
      if (coin_rng->Bernoulli(ig.InProbability(pos))) {
        visited->Mark(w);
        out->push_back(w);
      }
    }
  }
  counters->sample_vertices += out->size();
}

InfluenceGraph UniformIg(const EdgeList& edges, double p) {
  Graph g = GraphBuilder::FromEdgeList(edges);
  const EdgeId m = g.num_edges();
  return InfluenceGraph(std::move(g), std::vector<double>(m, p));
}

/// Parallel arcs (up to three copies) and self-loops on five vertices:
/// an earlier copy of an arc can activate the endpoint of a later one
/// within a single scan.
EdgeList Multigraph() {
  EdgeList edges;
  edges.num_vertices = 5;
  for (int copy = 0; copy < 3; ++copy) edges.Add(0, 1);
  for (int copy = 0; copy < 2; ++copy) edges.Add(2, 1);
  for (int copy = 0; copy < 2; ++copy) edges.Add(2, 3);
  for (int copy = 0; copy < 2; ++copy) edges.Add(0, 4);
  edges.Add(1, 1);
  edges.Add(1, 2);
  edges.Add(3, 2);
  edges.Add(3, 3);
  edges.Add(4, 0);
  edges.Add(4, 4);
  edges.Add(1, 4);
  return edges;
}

/// A bidirected star on 100 leaves plus a doubled arc per tenth leaf:
/// the hub's in- and out-degree (110) exceed 64.
EdgeList Hub() {
  EdgeList edges;
  edges.num_vertices = 101;
  for (VertexId leaf = 1; leaf <= 100; ++leaf) {
    edges.Add(leaf, 0);
    edges.Add(0, leaf);
    if (leaf % 10 == 0) {
      edges.Add(leaf, 0);
      edges.Add(0, leaf);
    }
  }
  return edges;
}

/// Samples `sets` RR sets for uniformly drawn targets through the kernel
/// and through ReferenceRrSet from twin coin streams. After every set the
/// two must agree in content and order, in counters, and in the next
/// coin-stream draw (the same stream position).
void ExpectMatchesReference(const InfluenceGraph& ig, std::uint64_t seed,
                            int sets) {
  RrSampler sampler(&ig);
  VisitedMarker visited(ig.num_vertices());
  Rng target_rng(DeriveSeed(seed, 1));
  Rng coin_rng(DeriveSeed(seed, 2));
  Rng ref_coin_rng(DeriveSeed(seed, 2));
  TraversalCounters counters;
  TraversalCounters ref_counters;
  std::vector<VertexId> rr_set;
  std::vector<VertexId> ref_set;
  for (int i = 0; i < sets; ++i) {
    auto target =
        static_cast<VertexId>(target_rng.UniformInt(ig.num_vertices()));
    sampler.SampleForTarget(target, &coin_rng, &rr_set, &counters);
    ReferenceRrSet(ig, target, &ref_coin_rng, &visited, &ref_set,
                   &ref_counters);
    ASSERT_EQ(rr_set, ref_set) << "set " << i;
    EXPECT_EQ(counters.vertices, ref_counters.vertices);
    EXPECT_EQ(counters.edges, ref_counters.edges);
    EXPECT_EQ(counters.sample_vertices, ref_counters.sample_vertices);
    EXPECT_EQ(counters.sample_edges, ref_counters.sample_edges);
    ASSERT_EQ(coin_rng.NextBits(), ref_coin_rng.NextBits())
        << "coin streams diverged at set " << i;
  }
}

/// FNV-1a over raw bytes, chained through `hash`.
std::uint64_t Fnv1a(std::uint64_t hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

TEST(RrSamplerTest, TargetAlwaysInSet) {
  InfluenceGraph ig = Diamond(0.5);
  RrSampler sampler(&ig);
  Rng target_rng(1), coin_rng(2);
  TraversalCounters counters;
  std::vector<VertexId> rr_set;
  for (int i = 0; i < 200; ++i) {
    sampler.Sample(&target_rng, &coin_rng, &rr_set, &counters);
    ASSERT_FALSE(rr_set.empty());
    // The target is the first entry by construction.
    EXPECT_LT(rr_set.front(), 4u);
  }
}

TEST(RrSamplerTest, HitProbabilityEqualsInfluenceOverN) {
  // Borgs et al. Observation 3.2 on the diamond with p = 0.5, S = {0}.
  InfluenceGraph ig = Diamond(0.5);
  double expected = ExactInfluence(ig, std::vector<VertexId>{0}) / 4.0;
  RrSampler sampler(&ig);
  Rng target_rng(3), coin_rng(4);
  TraversalCounters counters;
  std::vector<VertexId> rr_set;
  constexpr int kSamples = 200000;
  int hits = 0;
  for (int i = 0; i < kSamples; ++i) {
    sampler.Sample(&target_rng, &coin_rng, &rr_set, &counters);
    for (VertexId v : rr_set) {
      if (v == 0) {
        ++hits;
        break;
      }
    }
  }
  double rate = static_cast<double>(hits) / kSamples;
  EXPECT_NEAR(rate, expected, 0.006);
}

TEST(RrSamplerTest, MeanSizeIsEpt) {
  // EPT = Σ_v Inf(v) / n. Single edge p=0.4: Inf(0)=1.4, Inf(1)=1,
  // EPT = 1.2.
  InfluenceGraph ig = SingleEdge(0.4);
  RrSampler sampler(&ig);
  Rng target_rng(5), coin_rng(6);
  TraversalCounters counters;
  std::vector<VertexId> rr_set;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    sampler.Sample(&target_rng, &coin_rng, &rr_set, &counters);
  }
  double mean_size =
      static_cast<double>(counters.sample_vertices) / kSamples;
  EXPECT_NEAR(mean_size, 1.2, 0.01);
}

TEST(RrSamplerTest, EptBoundedByOnePlusMTilde) {
  // Paper appendix: EPT <= 1 + m̃ — check the empirical mean obeys it.
  InfluenceGraph ig = Diamond(0.6);
  RrSampler sampler(&ig);
  Rng target_rng(7), coin_rng(8);
  TraversalCounters counters;
  std::vector<VertexId> rr_set;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    sampler.Sample(&target_rng, &coin_rng, &rr_set, &counters);
  }
  double mean_size =
      static_cast<double>(counters.sample_vertices) / kSamples;
  EXPECT_LE(mean_size, 1.0 + ig.SumProbabilities() + 0.05);
}

TEST(RrSamplerTest, WeightAccountingIsSumOfInDegrees) {
  // p = 1 on the diamond: an RR set for target 3 is {3,1,2,0}; its weight
  // Σ d−(v) = 2 + 1 + 1 + 0 = 4 edges examined.
  InfluenceGraph ig = Diamond(1.0);
  RrSampler sampler(&ig);
  Rng coin_rng(9);
  TraversalCounters counters;
  std::vector<VertexId> rr_set;
  sampler.SampleForTarget(3, &coin_rng, &rr_set, &counters);
  EXPECT_EQ(rr_set.size(), 4u);
  EXPECT_EQ(counters.vertices, 4u);
  EXPECT_EQ(counters.edges, 4u);
  EXPECT_EQ(counters.sample_vertices, 4u);
}

TEST(RrSamplerTest, FixedTargetSourceVertex) {
  // Target 0 in the diamond has no in-edges: RR set is always {0}.
  InfluenceGraph ig = Diamond(1.0);
  RrSampler sampler(&ig);
  Rng coin_rng(10);
  TraversalCounters counters;
  std::vector<VertexId> rr_set;
  sampler.SampleForTarget(0, &coin_rng, &rr_set, &counters);
  EXPECT_EQ(rr_set, (std::vector<VertexId>{0}));
}

/// An indexed payload of `sets` in order, merged from one shard.
store::RrFlatPayload HandBuiltPayload(
    VertexId n, const std::vector<std::vector<VertexId>>& sets) {
  std::vector<RrShard> shards(1);
  shards[0].offsets.push_back(0);
  for (const auto& set : sets) {
    shards[0].flat.insert(shards[0].flat.end(), set.begin(), set.end());
    shards[0].offsets.push_back(shards[0].flat.size());
  }
  return MergeRrShards(n, std::move(shards), /*engine=*/nullptr);
}

TEST(CountCoveredTest, IndexAndCoverage) {
  const store::RrFlatPayload payload =
      HandBuiltPayload(4, {{0, 1}, {2}, {1, 2, 3}});
  EXPECT_EQ(payload.size(), 3u);
  EXPECT_EQ(payload.flat.size(), 6u);
  EXPECT_EQ(payload.num_vertices(), 4u);

  auto list1 = payload.InvertedList(1);
  EXPECT_EQ(std::vector<std::uint64_t>(list1.begin(), list1.end()),
            (std::vector<std::uint64_t>{0, 2}));

  EXPECT_EQ(CountCovered(payload, std::vector<VertexId>{0}), 1u);
  EXPECT_EQ(CountCovered(payload, std::vector<VertexId>{1}), 2u);
  EXPECT_EQ(CountCovered(payload, std::vector<VertexId>{1, 2}), 3u);
  EXPECT_EQ(CountCovered(payload, std::vector<VertexId>{}), 0u);
}

TEST(CountCoveredTest, CoverageCountsSetOnce) {
  const store::RrFlatPayload payload = HandBuiltPayload(3, {{0, 1, 2}});
  // All three seeds hit the same single set: covered = 1, not 3.
  EXPECT_EQ(CountCovered(payload, std::vector<VertexId>{0, 1, 2}), 1u);
  // A repeated seed counts its sets once too.
  EXPECT_EQ(CountCovered(payload, std::vector<VertexId>{1, 1}), 1u);
}

TEST(CountCoveredTest, RepeatedQueriesConsistent) {
  const store::RrFlatPayload payload = HandBuiltPayload(2, {{0}, {1}});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(CountCovered(payload, std::vector<VertexId>{0}), 1u);
  }
}

/// Sets that straddle bitmap words: a vertex in every set of 130 counts
/// all of them, and seeds whose lists share words count each set once.
TEST(CountCoveredTest, CountsAcrossBitmapWords) {
  std::vector<std::vector<VertexId>> sets;
  for (int i = 0; i < 130; ++i) {
    sets.push_back(i % 2 == 0 ? std::vector<VertexId>{0, 1}
                              : std::vector<VertexId>{0, 2});
  }
  const store::RrFlatPayload payload = HandBuiltPayload(3, sets);
  EXPECT_EQ(CountCovered(payload, std::vector<VertexId>{0}), 130u);
  EXPECT_EQ(CountCovered(payload, std::vector<VertexId>{1}), 65u);
  EXPECT_EQ(CountCovered(payload, std::vector<VertexId>{1, 2}), 130u);
  EXPECT_EQ(CountCovered(payload, std::vector<VertexId>{2, 0, 1}), 130u);
}

TEST(RrSamplerReferenceTest, MultigraphWithParallelArcsAndSelfLoops) {
  for (double p : {0.5, 1.0, 1e-3}) {
    SCOPED_TRACE(p);
    ExpectMatchesReference(UniformIg(Multigraph(), p), 11, 2000);
  }
}

TEST(RrSamplerReferenceTest, HubOfDegreeAbove64) {
  for (double p : {0.1, 1.0, 1e-3}) {
    SCOPED_TRACE(p);
    ExpectMatchesReference(UniformIg(Hub(), p), 12, 2000);
  }
}

TEST(RrSamplerReferenceTest, KarateAndPhysicians) {
  const EdgeList karate = Datasets::Karate();
  const EdgeList physicians = Datasets::Physicians(42);
  for (const EdgeList* edges : {&karate, &physicians}) {
    for (ProbabilityModel model :
         {ProbabilityModel::kUc01, ProbabilityModel::kIwc}) {
      SCOPED_TRACE(ProbabilityModelName(model));
      ExpectMatchesReference(
          MakeInfluenceGraph(GraphBuilder::FromEdgeList(*edges), model), 13,
          3000);
    }
    for (double p : {1.0, 1e-3}) {
      SCOPED_TRACE(p);
      ExpectMatchesReference(UniformIg(*edges, p), 14, 1000);
    }
  }
}

// Pins the sampled streams byte for byte: the expected digests were
// recorded with the one-pass loops and the standard library's
// mt19937_64, so any later change to a drawn bit, a coin's order or the
// chunk layout fails here.
TEST(SamplingKernelDigestTest, StreamsMatchRecordedDigests) {
  const InfluenceGraph karate = MakeInfluenceGraph(
      GraphBuilder::FromEdgeList(Datasets::Karate()),
      ProbabilityModel::kUc01);
  SamplingEngine inline_engine;
  const std::vector<RrShard> shards =
      SampleRrShards(karate, 42, 4096, &inline_engine);
  std::uint64_t rr_digest = kFnvOffsetBasis;
  for (const RrShard& shard : shards) {
    rr_digest = Fnv1a(rr_digest, shard.flat.data(),
                      shard.flat.size() * sizeof(VertexId));
    rr_digest = Fnv1a(rr_digest, shard.offsets.data(),
                      shard.offsets.size() * sizeof(std::uint64_t));
  }
  EXPECT_EQ(rr_digest, 0x1c8aacbd027d0050ULL) << std::hex << rr_digest;

  const InfluenceGraph physicians = MakeInfluenceGraph(
      GraphBuilder::FromEdgeList(Datasets::Physicians(42)),
      ProbabilityModel::kIwc);
  ForwardSimulator sim(&physicians);
  Rng rng(42);
  TraversalCounters counters;
  std::uint64_t sim_digest = kFnvOffsetBasis;
  for (VertexId run = 0; run < 4096; ++run) {
    const VertexId seeds[1] = {run % physicians.num_vertices()};
    const std::uint32_t total = sim.Simulate(seeds, &rng, &counters);
    sim_digest = Fnv1a(sim_digest, &total, sizeof(total));
  }
  EXPECT_EQ(sim_digest, 0x95f99df38cb548beULL) << std::hex << sim_digest;
}

}  // namespace
}  // namespace soldist
