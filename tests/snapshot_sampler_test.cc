// Tests for snapshot (live-edge graph) sampling and reachability, and
// the pin of each snapshot sampler's per-world draw count.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/influence_graph.h"
#include "model/lt.h"
#include "model/probability.h"
#include "sim/lt_samplers.h"
#include "sim/snapshot_sampler.h"

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

TEST(SnapshotSamplerTest, FullProbabilityKeepsAllEdges) {
  InfluenceGraph ig = Diamond(1.0);
  SnapshotSampler sampler(&ig);
  Rng rng(1);
  TraversalCounters counters;
  Snapshot snap = sampler.Sample(&rng, &counters);
  EXPECT_EQ(snap.num_live_edges(), 4u);
  EXPECT_EQ(counters.sample_edges, 4u);
}

TEST(SnapshotSamplerTest, LiveEdgeCountMatchesMTilde) {
  // E[live edges] = m̃ = Σ p(e) = 4 * 0.3 = 1.2.
  InfluenceGraph ig = Diamond(0.3);
  SnapshotSampler sampler(&ig);
  Rng rng(2);
  TraversalCounters counters;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) sampler.Sample(&rng, &counters);
  double mean_live =
      static_cast<double>(counters.sample_edges) / kSamples;
  EXPECT_NEAR(mean_live, ig.SumProbabilities(), 0.02);
}

TEST(SnapshotSamplerTest, SnapshotOffsetsWellFormed) {
  InfluenceGraph ig = Diamond(0.5);
  SnapshotSampler sampler(&ig);
  Rng rng(3);
  TraversalCounters counters;
  for (int i = 0; i < 100; ++i) {
    Snapshot snap = sampler.Sample(&rng, &counters);
    ASSERT_EQ(snap.out_offsets.size(), 5u);
    EXPECT_EQ(snap.out_offsets[0], 0u);
    for (std::size_t v = 0; v + 1 < snap.out_offsets.size(); ++v) {
      EXPECT_LE(snap.out_offsets[v], snap.out_offsets[v + 1]);
    }
    EXPECT_EQ(snap.out_offsets[4], snap.num_live_edges());
  }
}

TEST(SnapshotSamplerTest, ReachabilityOnFullSnapshot) {
  InfluenceGraph ig = Diamond(1.0);
  SnapshotSampler sampler(&ig);
  Rng rng(4);
  TraversalCounters counters;
  Snapshot snap = sampler.Sample(&rng, &counters);
  const VertexId s0[1] = {0};
  const VertexId s3[1] = {3};
  EXPECT_EQ(sampler.CountReachable(snap, s0, &counters), 4u);
  EXPECT_EQ(sampler.CountReachable(snap, s3, &counters), 1u);
}

TEST(SnapshotSamplerTest, MeanReachabilityIsInfluence) {
  // Snapshot reachability averaged over snapshots is an unbiased estimate
  // of the influence: diamond p=0.5 from {0}:
  // Inf = 1 + 2*0.5 + Pr[3 activated]. Pr[3] = 1 - (1 - 0.25)^2 = 0.4375.
  InfluenceGraph ig = Diamond(0.5);
  SnapshotSampler sampler(&ig);
  Rng rng(5);
  TraversalCounters counters;
  const VertexId seeds[1] = {0};
  constexpr int kSamples = 100000;
  std::uint64_t total = 0;
  for (int i = 0; i < kSamples; ++i) {
    Snapshot snap = sampler.Sample(&rng, &counters);
    total += sampler.CountReachable(snap, seeds, &counters);
  }
  double mean = static_cast<double>(total) / kSamples;
  EXPECT_NEAR(mean, 1.0 + 1.0 + 0.4375, 0.015);
}

TEST(SnapshotSamplerTest, TraversalCountsOnlyLiveEdges) {
  // With p=1 all 4 edges are live: BFS from 0 scans 4 vertices and
  // examines each vertex's live out-edges = 4 edges total.
  InfluenceGraph ig = Diamond(1.0);
  SnapshotSampler sampler(&ig);
  Rng rng(6);
  TraversalCounters build_counters;
  Snapshot snap = sampler.Sample(&rng, &build_counters);
  TraversalCounters bfs_counters;
  const VertexId seeds[1] = {0};
  sampler.CountReachable(snap, seeds, &bfs_counters);
  EXPECT_EQ(bfs_counters.vertices, 4u);
  EXPECT_EQ(bfs_counters.edges, 4u);
  EXPECT_EQ(bfs_counters.sample_edges, 0u);  // estimate stores nothing
}

TEST(SnapshotSamplerTest, DuplicateSeedsHandled) {
  InfluenceGraph ig = Diamond(1.0);
  SnapshotSampler sampler(&ig);
  Rng rng(7);
  TraversalCounters counters;
  Snapshot snap = sampler.Sample(&rng, &counters);
  const VertexId seeds[3] = {0, 0, 3};
  EXPECT_EQ(sampler.CountReachable(snap, seeds, &counters), 4u);
}

/// After k SampleInto calls the sampler's Rng equals a twin that skipped
/// k × DrawsPerWorld() words — the count a snapshot build piece skips to
/// enter its chunk's stream mid-chunk. Equality is read as the next 700
/// draws, which cross a twist.
template <typename Sampler>
void ExpectDrawsPerWorldPinned(Sampler* sampler, const std::string& label) {
  constexpr std::uint64_t kSeed = 0x5eed;
  Rng rng(kSeed);
  TraversalCounters counters;
  Snapshot scratch;
  for (std::uint64_t k = 1; k <= 3; ++k) {
    sampler->SampleInto(&rng, &counters, &scratch);
    Rng probe = rng;
    Rng twin(kSeed);
    twin.Discard(k * sampler->DrawsPerWorld());
    for (int i = 0; i < 700; ++i) {
      ASSERT_EQ(probe.NextBits(), twin.NextBits())
          << label << " after " << k << " worlds, draw " << i;
    }
  }
}

InfluenceGraph Make(const EdgeList& edges, ProbabilityModel prob) {
  return MakeInfluenceGraph(GraphBuilder::FromEdgeList(edges), prob);
}

TEST(SnapshotSamplerTest, DrawsPerWorldIsWhatSampleIntoDraws) {
  const std::vector<std::pair<std::string, EdgeList>> graphs = {
      {"Karate", Datasets::Karate()},
      {"Physicians", Datasets::Physicians(1)},
      {"ca-GrQc", Datasets::CaGrQc(1)}};
  for (const auto& [name, edges] : graphs) {
    for (ProbabilityModel prob :
         {ProbabilityModel::kIwc, ProbabilityModel::kUc01}) {
      InfluenceGraph ig = Make(edges, prob);
      SnapshotSampler sampler(&ig);
      EXPECT_EQ(sampler.DrawsPerWorld(), ig.graph().num_edges());
      ExpectDrawsPerWorldPinned(&sampler, "IC " + name);
    }
    InfluenceGraph ig = Make(edges, ProbabilityModel::kIwc);
    LtWeights weights(&ig);
    LtSnapshotSampler sampler(&weights);
    ExpectDrawsPerWorldPinned(&sampler, "LT " + name);
  }
}

TEST(SnapshotSamplerTest, LtDrawsPerWorldSkipsVerticesWithoutInArcs) {
  // Vertex 0 has no in-arc and draws nothing; 1, 2 and 3 draw one word
  // each.
  InfluenceGraph ig = Diamond(0.5);
  LtWeights weights(&ig);
  LtSnapshotSampler sampler(&weights);
  EXPECT_EQ(sampler.DrawsPerWorld(), 3u);
  ExpectDrawsPerWorldPinned(&sampler, "LT diamond");
}

}  // namespace
}  // namespace soldist
