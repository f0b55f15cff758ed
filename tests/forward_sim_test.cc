// Statistical and accounting tests for the forward IC simulator, checked
// against closed-form influence values on tiny graphs, plus a
// differential check of the two-pass forward scan against the one-pass
// loop it replaced (kept below as ReferenceSimulate).

#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/influence_graph.h"
#include "model/probability.h"
#include "random/splitmix64.h"
#include "sim/forward_sim.h"

namespace soldist {
namespace {

InfluenceGraph SingleEdge(double p) {
  EdgeList edges;
  edges.num_vertices = 2;
  edges.Add(0, 1);
  Graph g = GraphBuilder::FromEdgeList(edges);
  return InfluenceGraph(std::move(g), {p});
}

InfluenceGraph Chain3(double p) {
  EdgeList edges;
  edges.num_vertices = 3;
  edges.Add(0, 1);
  edges.Add(1, 2);
  Graph g = GraphBuilder::FromEdgeList(edges);
  return InfluenceGraph(std::move(g), {p, p});
}

InfluenceGraph Star(VertexId leaves, double p) {
  EdgeList edges;
  edges.num_vertices = leaves + 1;
  for (VertexId i = 1; i <= leaves; ++i) edges.Add(0, i);
  Graph g = GraphBuilder::FromEdgeList(edges);
  return InfluenceGraph(std::move(g), std::vector<double>(leaves, p));
}

/// The one-pass forward BFS that ForwardSimulator::Simulate replaced,
/// kept here verbatim as the differential-test baseline: it tests the
/// mark before every coin, so the kernel must draw the same coins in the
/// same order. Returns the activated set in visit order.
std::vector<VertexId> ReferenceSimulate(const InfluenceGraph& ig,
                                        std::span<const VertexId> seeds,
                                        Rng* rng, VisitedMarker* active,
                                        TraversalCounters* counters) {
  const Graph& g = ig.graph();
  active->NextEpoch();
  std::vector<VertexId> queue;
  for (VertexId s : seeds) {
    if (active->Mark(s)) queue.push_back(s);
  }
  std::size_t head = 0;
  while (head < queue.size()) {
    VertexId u = queue[head++];
    counters->vertices += 1;
    const EdgeId begin = g.out_offsets()[u];
    const EdgeId end = g.out_offsets()[u + 1];
    counters->edges += end - begin;
    for (EdgeId e = begin; e < end; ++e) {
      VertexId v = g.out_targets()[e];
      if (active->IsMarked(v)) continue;
      if (rng->Bernoulli(ig.OutProbability(e))) {
        active->Mark(v);
        queue.push_back(v);
      }
    }
  }
  return queue;
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
  for (int copy = 0; copy < 2; ++copy) edges.Add(1, 2);
  for (int copy = 0; copy < 2; ++copy) edges.Add(2, 3);
  for (int copy = 0; copy < 2; ++copy) edges.Add(4, 0);
  edges.Add(1, 1);
  edges.Add(2, 1);
  edges.Add(2, 2);
  edges.Add(3, 4);
  edges.Add(0, 4);
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

/// Runs `runs` diffusions from random seed sets of one to three vertices
/// (repeats allowed) through the kernel and through ReferenceSimulate
/// from twin streams. After every run the two must agree in the
/// activated set and its order, in counters, and in the next draw of the
/// stream (the same stream position).
void ExpectMatchesReference(const InfluenceGraph& ig, std::uint64_t seed,
                            int runs) {
  ForwardSimulator sim(&ig);
  VisitedMarker active(ig.num_vertices());
  Rng seed_rng(DeriveSeed(seed, 1));
  Rng rng(DeriveSeed(seed, 2));
  Rng ref_rng(DeriveSeed(seed, 2));
  TraversalCounters counters;
  TraversalCounters ref_counters;
  for (int i = 0; i < runs; ++i) {
    std::vector<VertexId> seeds(1 + seed_rng.UniformInt(3));
    for (VertexId& s : seeds) {
      s = static_cast<VertexId>(seed_rng.UniformInt(ig.num_vertices()));
    }
    const std::vector<VertexId> activated =
        sim.SimulateSet(seeds, &rng, &counters);
    const std::vector<VertexId> ref_activated =
        ReferenceSimulate(ig, seeds, &ref_rng, &active, &ref_counters);
    ASSERT_EQ(activated, ref_activated) << "run " << i;
    EXPECT_EQ(counters.vertices, ref_counters.vertices);
    EXPECT_EQ(counters.edges, ref_counters.edges);
    EXPECT_EQ(counters.sample_vertices, ref_counters.sample_vertices);
    EXPECT_EQ(counters.sample_edges, ref_counters.sample_edges);
    ASSERT_EQ(rng.NextBits(), ref_rng.NextBits())
        << "streams diverged at run " << i;
  }
}

TEST(ForwardSimTest, SeedsAlwaysActivated) {
  InfluenceGraph ig = SingleEdge(0.5);
  Rng rng(1);
  TraversalCounters counters;
  ForwardSimulator sim(&ig);
  const VertexId seeds[1] = {1};  // sink vertex: nothing to influence
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(sim.Simulate(seeds, &rng, &counters), 1u);
  }
}

TEST(ForwardSimTest, SingleEdgeInfluenceIsOnePlusP) {
  // Inf({0}) = 1 + p exactly.
  for (double p : {0.1, 0.5, 0.9}) {
    InfluenceGraph ig = SingleEdge(p);
    ForwardSimulator sim(&ig);
    Rng rng(2);
    TraversalCounters counters;
    const VertexId seeds[1] = {0};
    double estimate = sim.EstimateInfluence(seeds, 200000, &rng, &counters);
    // sigma = sqrt(p(1-p)/200000) <= 0.0012; 5-sigma tolerance.
    EXPECT_NEAR(estimate, 1.0 + p, 0.006) << "p=" << p;
  }
}

TEST(ForwardSimTest, Chain3InfluenceIsGeometric) {
  // Inf({0}) = 1 + p + p^2.
  const double p = 0.5;
  InfluenceGraph ig = Chain3(p);
  ForwardSimulator sim(&ig);
  Rng rng(3);
  TraversalCounters counters;
  const VertexId seeds[1] = {0};
  double estimate = sim.EstimateInfluence(seeds, 200000, &rng, &counters);
  EXPECT_NEAR(estimate, 1.0 + p + p * p, 0.008);
}

TEST(ForwardSimTest, StarInfluenceIsOnePlusKp) {
  const double p = 0.3;
  InfluenceGraph ig = Star(10, p);
  ForwardSimulator sim(&ig);
  Rng rng(4);
  TraversalCounters counters;
  const VertexId seeds[1] = {0};
  double estimate = sim.EstimateInfluence(seeds, 100000, &rng, &counters);
  EXPECT_NEAR(estimate, 1.0 + 10 * p, 0.03);
}

TEST(ForwardSimTest, MultiSeedNoDoubleCount) {
  // Seeding both endpoints of the edge: exactly 2 activated always.
  InfluenceGraph ig = SingleEdge(0.7);
  ForwardSimulator sim(&ig);
  Rng rng(5);
  TraversalCounters counters;
  const VertexId seeds[2] = {0, 1};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(sim.Simulate(seeds, &rng, &counters), 2u);
  }
}

TEST(ForwardSimTest, TraversalAccountingPerAppendix) {
  // Deterministic p=1 chain: every simulation activates all 3 vertices,
  // scans 3 vertices, and examines d+(0)+d+(1)+d+(2) = 2 edges.
  InfluenceGraph ig = Chain3(1.0);
  ForwardSimulator sim(&ig);
  Rng rng(6);
  TraversalCounters counters;
  const VertexId seeds[1] = {0};
  sim.Simulate(seeds, &rng, &counters);
  EXPECT_EQ(counters.vertices, 3u);
  EXPECT_EQ(counters.edges, 2u);
  EXPECT_EQ(counters.sample_vertices, 0u);  // Oneshot stores nothing
  EXPECT_EQ(counters.sample_edges, 0u);
}

TEST(ForwardSimTest, ExpectedVertexCostIsInfluence) {
  // E[vertex traversal per simulation] = Inf(S) (paper Appendix).
  const double p = 0.4;
  InfluenceGraph ig = SingleEdge(p);
  ForwardSimulator sim(&ig);
  Rng rng(7);
  TraversalCounters counters;
  const VertexId seeds[1] = {0};
  constexpr std::uint64_t kRuns = 100000;
  sim.EstimateInfluence(seeds, kRuns, &rng, &counters);
  double mean_vertex_cost =
      static_cast<double>(counters.vertices) / static_cast<double>(kRuns);
  EXPECT_NEAR(mean_vertex_cost, 1.0 + p, 0.01);
}

TEST(ForwardSimTest, SimulateSetReturnsActivatedVertices) {
  InfluenceGraph ig = Chain3(1.0);
  ForwardSimulator sim(&ig);
  Rng rng(8);
  TraversalCounters counters;
  const VertexId seeds[1] = {0};
  auto activated = sim.SimulateSet(seeds, &rng, &counters);
  std::sort(activated.begin(), activated.end());
  EXPECT_EQ(activated, (std::vector<VertexId>{0, 1, 2}));
}

TEST(ForwardSimTest, ZeroIndependenceAcrossRuns) {
  // Two simulators with the same seed produce identical streams;
  // different seeds diverge. Guards accidental shared state.
  InfluenceGraph ig = Star(20, 0.5);
  ForwardSimulator sim1(&ig), sim2(&ig);
  Rng rng1(9), rng2(9), rng3(10);
  TraversalCounters c;
  const VertexId seeds[1] = {0};
  bool diverged = false;
  for (int i = 0; i < 20; ++i) {
    auto a = sim1.Simulate(seeds, &rng1, &c);
    auto b = sim2.Simulate(seeds, &rng2, &c);
    EXPECT_EQ(a, b);
    if (sim2.Simulate(seeds, &rng3, &c) != a) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(ForwardSimReferenceTest, MultigraphWithParallelArcsAndSelfLoops) {
  for (double p : {0.5, 1.0, 1e-3}) {
    SCOPED_TRACE(p);
    ExpectMatchesReference(UniformIg(Multigraph(), p), 21, 2000);
  }
}

TEST(ForwardSimReferenceTest, HubOfDegreeAbove64) {
  for (double p : {0.1, 1.0, 1e-3}) {
    SCOPED_TRACE(p);
    ExpectMatchesReference(UniformIg(Hub(), p), 22, 2000);
  }
}

TEST(ForwardSimReferenceTest, KarateAndPhysicians) {
  const EdgeList karate = Datasets::Karate();
  const EdgeList physicians = Datasets::Physicians(42);
  for (const EdgeList* edges : {&karate, &physicians}) {
    for (ProbabilityModel model :
         {ProbabilityModel::kUc01, ProbabilityModel::kIwc}) {
      SCOPED_TRACE(ProbabilityModelName(model));
      ExpectMatchesReference(
          MakeInfluenceGraph(GraphBuilder::FromEdgeList(*edges), model), 23,
          3000);
    }
    for (double p : {1.0, 1e-3}) {
      SCOPED_TRACE(p);
      ExpectMatchesReference(UniformIg(*edges, p), 24, 500);
    }
  }
}

}  // namespace
}  // namespace soldist
