// The condensed Snapshot backend's contract: SCC condensation preserves
// reachability EXACTLY, and the backends share sampler streams, so
// Mode::kCondensed must be a pure speed change — byte-identical seed
// sets and estimates to kNaive/kResidual under every driver and every
// sampling width. Its world-tiled greedy rounds (EstimateAll), over all
// candidates or a subset, must equal the per-vertex Estimate loop in
// value and in counters, however the two paths interleave.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "core/celf.h"
#include "core/greedy.h"
#include "core/snapshot.h"
#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/lt.h"
#include "model/probability.h"
#include "sim/condensed_snapshot.h"
#include "sim/snapshot_arena.h"
#include "sim/snapshot_sampler.h"

namespace soldist {
namespace {

InfluenceGraph Make(const EdgeList& edges, ProbabilityModel prob) {
  return MakeInfluenceGraph(GraphBuilder::FromEdgeList(edges), prob);
}

/// A 1+2n-vertex star with bidirected spokes: every leaf reaches every
/// other leaf through the hub, so live-edge graphs grow one giant SCC —
/// the regime where component granularity pays the most.
EdgeList BidirectedStar(VertexId leaves) {
  EdgeList edges;
  edges.num_vertices = leaves + 1;
  for (VertexId leaf = 1; leaf <= leaves; ++leaf) {
    edges.Add(0, leaf);
    edges.Add(leaf, 0);
  }
  return edges;
}

/// A 1+n-vertex star whose leaves all point at the hub: removing the hub
/// is a small removal with up to n live ancestors.
EdgeList InStar(VertexId leaves) {
  EdgeList edges;
  edges.num_vertices = leaves + 1;
  for (VertexId leaf = 1; leaf <= leaves; ++leaf) edges.Add(leaf, 0);
  return edges;
}

/// Reference: condenses one snapshot with a fresh condenser (no scratch
/// carried over from an earlier snapshot).
CondensedSnapshot CondenseSnapshot(const Snapshot& snapshot,
                                   VertexId num_vertices) {
  return SnapshotCondenser(num_vertices).Condense(snapshot);
}

/// Reference: the number of vertices reachable from `v` in the original
/// snapshot, summed component-granular over the whole condensation DAG
/// (the backend has its own residual-aware walk).
std::uint32_t CountReachable(const CondensedSnapshot& snap, VertexId v) {
  std::vector<std::uint8_t> visited(snap.num_components(), 0);
  std::vector<std::uint32_t> queue = {snap.comp_of[v]};
  visited[queue.front()] = 1;
  std::uint64_t total = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t c = queue[head];
    total += snap.comp_size[c];
    for (std::uint32_t succ : snap.dag.Successors(c)) {
      if (!visited[succ]) {
        visited[succ] = 1;
        queue.push_back(succ);
      }
    }
  }
  return static_cast<std::uint32_t>(total);
}

/// Exact reach parity, snapshot by snapshot and vertex by vertex: the
/// condensed DAG count must equal a raw BFS on the live-edge CSR.
void CheckReachParity(const InfluenceGraph& ig, std::uint64_t tau,
                      std::uint64_t seed) {
  SnapshotSampler sampler(&ig);
  Rng rng(seed);
  TraversalCounters counters;
  for (std::uint64_t i = 0; i < tau; ++i) {
    Snapshot snap = sampler.Sample(&rng, &counters);
    CondensedSnapshot condensed = CondenseSnapshot(snap, ig.num_vertices());
    std::uint32_t total_members = 0;
    for (std::uint32_t size : condensed.comp_size) total_members += size;
    ASSERT_EQ(total_members, ig.num_vertices());
    for (VertexId v = 0; v < ig.num_vertices(); ++v) {
      const VertexId source[1] = {v};
      ASSERT_EQ(CountReachable(condensed, v),
                sampler.CountReachable(snap, source, &counters))
          << "snapshot " << i << " vertex " << v;
    }
  }
}

TEST(CondensedSnapshotTest, ReachParityKarate) {
  CheckReachParity(Make(Datasets::Karate(), ProbabilityModel::kUc01), 16, 7);
  CheckReachParity(Make(Datasets::Karate(), ProbabilityModel::kIwc), 16, 8);
}

TEST(CondensedSnapshotTest, ReachParityBarabasiAlbert) {
  CheckReachParity(Make(Datasets::BaSparse(3), ProbabilityModel::kIwc), 6, 9);
  CheckReachParity(Make(Datasets::BaDense(4), ProbabilityModel::kUc001), 4,
                   10);
}

TEST(CondensedSnapshotTest, ReachParityStar) {
  // p=0.3 spokes: snapshots mix giant SCCs (hub↔leaf cycles) with
  // stranded leaves.
  Graph g = GraphBuilder::FromEdgeList(BidirectedStar(64));
  InfluenceGraph ig(std::move(g),
                    std::vector<double>(64 * 2, 0.3));
  CheckReachParity(ig, 16, 11);
}

struct ModeRun {
  GreedyRunResult greedy;
  GreedyRunResult celf;
  std::uint64_t celf_calls = 0;
  TraversalCounters greedy_counters;
  TraversalCounters celf_counters;
};

void ExpectCountersEq(const TraversalCounters& a, const TraversalCounters& b,
                      const std::string& label) {
  EXPECT_EQ(a.vertices, b.vertices) << label;
  EXPECT_EQ(a.edges, b.edges) << label;
  EXPECT_EQ(a.sample_vertices, b.sample_vertices) << label;
  EXPECT_EQ(a.sample_edges, b.sample_edges) << label;
}

ModeRun RunBothDrivers(const InfluenceGraph& ig, SnapshotEstimator::Mode mode,
                       std::uint64_t tau, std::uint64_t seed, int k,
                       const SamplingOptions& sampling) {
  ModeRun out;
  {
    SnapshotEstimator estimator(ModelInstance::Ic(&ig), tau, seed, mode,
                                sampling);
    Rng tie_rng(seed + 1);
    out.greedy = RunGreedy(&estimator, ig.num_vertices(), k, &tie_rng);
    out.greedy_counters = estimator.counters();
  }
  {
    SnapshotEstimator estimator(ModelInstance::Ic(&ig), tau, seed, mode,
                                sampling);
    Rng tie_rng(seed + 1);
    CelfRunResult celf =
        RunCelfGreedy(&estimator, ig.num_vertices(), k, &tie_rng);
    out.celf = celf.greedy;
    out.celf_calls = celf.estimate_calls;
    out.celf_counters = estimator.counters();
  }
  return out;
}

/// Byte-identical seeds AND estimates across all three backends, for the
/// plain greedy driver and the CELF driver, at sampling widths 1 (the
/// default inline engine), 2, and 4 — and across those widths too. The
/// condensed backend's counters must also agree across widths: its
/// greedy rounds run world tiles on the pool at widths 2 and 4.
void CheckBackendParity(const InfluenceGraph& ig, std::uint64_t tau,
                        std::uint64_t seed, int k) {
  ModeRun width1;
  ModeRun condensed_width1;
  for (int sample_threads : {1, 2, 4}) {
    SamplingOptions sampling;
    sampling.num_threads = sample_threads;
    ModeRun residual = RunBothDrivers(
        ig, SnapshotEstimator::Mode::kResidual, tau, seed, k, sampling);
    if (sample_threads == 1) width1 = residual;
    EXPECT_EQ(residual.greedy.seeds, width1.greedy.seeds)
        << "st=" << sample_threads;
    EXPECT_EQ(residual.greedy.estimates, width1.greedy.estimates)
        << "st=" << sample_threads;
    EXPECT_EQ(residual.celf.seeds, width1.celf.seeds)
        << "st=" << sample_threads;
    EXPECT_EQ(residual.celf.estimates, width1.celf.estimates)
        << "st=" << sample_threads;
    for (SnapshotEstimator::Mode mode :
         {SnapshotEstimator::Mode::kNaive,
          SnapshotEstimator::Mode::kCondensed}) {
      ModeRun other = RunBothDrivers(ig, mode, tau, seed, k, sampling);
      EXPECT_EQ(other.greedy.seeds, residual.greedy.seeds)
          << SnapshotModeName(mode) << " st=" << sample_threads;
      EXPECT_EQ(other.greedy.estimates, residual.greedy.estimates)
          << SnapshotModeName(mode) << " st=" << sample_threads;
      EXPECT_EQ(other.celf.seeds, residual.celf.seeds)
          << SnapshotModeName(mode) << " st=" << sample_threads;
      EXPECT_EQ(other.celf.estimates, residual.celf.estimates)
          << SnapshotModeName(mode) << " st=" << sample_threads;
      if (mode != SnapshotEstimator::Mode::kCondensed) continue;
      if (sample_threads == 1) condensed_width1 = other;
      const std::string label = "condensed st=" +
                                std::to_string(sample_threads);
      ExpectCountersEq(other.greedy_counters,
                       condensed_width1.greedy_counters, label + " greedy");
      ExpectCountersEq(other.celf_counters, condensed_width1.celf_counters,
                       label + " celf");
    }
  }
}

TEST(CondensedBackendTest, ByteIdenticalKarate) {
  CheckBackendParity(Make(Datasets::Karate(), ProbabilityModel::kUc01), 64,
                     21, 4);
  CheckBackendParity(Make(Datasets::Karate(), ProbabilityModel::kIwc), 64,
                     22, 4);
}

TEST(CondensedBackendTest, ByteIdenticalAcrossPartialTiles) {
  // τ=100: three full 32-world tiles and a partial 4-world last tile.
  CheckBackendParity(Make(Datasets::Karate(), ProbabilityModel::kUc01), 100,
                     25, 4);
}

TEST(CondensedBackendTest, ByteIdenticalBarabasiAlbert) {
  CheckBackendParity(Make(Datasets::BaSparse(5), ProbabilityModel::kIwc), 16,
                     23, 4);
}

TEST(CondensedBackendTest, ByteIdenticalStarGiantScc) {
  Graph g = GraphBuilder::FromEdgeList(BidirectedStar(48));
  InfluenceGraph ig(std::move(g), std::vector<double>(48 * 2, 0.3));
  CheckBackendParity(ig, 32, 24, 4);
}

/// Greedy rounds driven by hand on twin built estimators: each round,
/// EstimateAll over the unselected vertices in shuffled order on `batched`
/// must equal per-vertex Estimate on `single` in value and in counters()
/// afterwards; then both commit the same winner.
void ExpectEstimateAllMatchesPerVertex(InfluenceEstimator* batched,
                                       InfluenceEstimator* single,
                                       VertexId n, int rounds,
                                       std::uint64_t shuffle_seed) {
  std::vector<VertexId> candidates(n);
  std::iota(candidates.begin(), candidates.end(), VertexId{0});
  Rng rng(shuffle_seed);
  std::shuffle(candidates.begin(), candidates.end(), rng.engine());
  ExpectCountersEq(batched->counters(), single->counters(), "after Build");
  for (int round = 0; round < rounds; ++round) {
    const std::string label = "round " + std::to_string(round);
    std::vector<double> all(candidates.size());
    batched->EstimateAll(candidates, all);
    std::size_t best = 0;
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      ASSERT_EQ(all[j], single->Estimate(candidates[j]))
          << label << " vertex " << candidates[j];
      if (all[j] >= all[best]) best = j;
    }
    ExpectCountersEq(batched->counters(), single->counters(), label);
    batched->Update(candidates[best]);
    single->Update(candidates[best]);
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(best));
  }
  ExpectCountersEq(batched->counters(), single->counters(), "after rounds");
}

TEST(CondensedBackendTest, EstimateAllEqualsPerVertexEstimate) {
  InfluenceGraph ig = Make(Datasets::Karate(), ProbabilityModel::kUc01);
  const ModelInstance instance = ModelInstance::Ic(&ig);
  constexpr std::uint64_t kTau = 100;  // three full tiles + a partial one
  SamplingOptions sampling;
  sampling.num_threads = 4;
  {
    // Fresh twins at width 4: the batched twin sweeps its tiles on the pool.
    SnapshotEstimator batched(instance, kTau, 61,
                              SnapshotEstimator::Mode::kCondensed, sampling);
    SnapshotEstimator single(instance, kTau, 61,
                             SnapshotEstimator::Mode::kCondensed, sampling);
    batched.Build();
    single.Build();
    ExpectEstimateAllMatchesPerVertex(&batched, &single, ig.num_vertices(),
                                      6, 62);
  }
  {
    // Twins borrowing one arena: the inline tiled path.
    SnapshotArena arena = SnapshotArena::SampleFor(instance, 63, kTau,
                                                   sampling);
    SnapshotEstimator batched(&arena, kTau);
    SnapshotEstimator single(&arena, kTau);
    batched.Build();
    single.Build();
    ExpectEstimateAllMatchesPerVertex(&batched, &single, ig.num_vertices(),
                                      6, 64);
  }
}

/// Greedy rounds that mix both scoring paths on `mixed`: each round runs
/// EstimateAll over every other unselected vertex plus one duplicate,
/// per-vertex Estimate on a few vertices, then EstimateAll over every
/// unselected vertex. `single` answers the same calls one Estimate at a
/// time. Values and counters() must agree after every call; then both
/// commit the same winner. The subset rounds leave stale components that
/// hold no candidate, and `single` never clears a full-scan flag, so
/// both the dirty slots and the flagged worlds are exercised.
void ExpectMixedRoundsMatchPerVertex(InfluenceEstimator* mixed,
                                     InfluenceEstimator* single, VertexId n,
                                     int rounds, const std::string& fixture) {
  std::vector<VertexId> unselected(n);
  std::iota(unselected.begin(), unselected.end(), VertexId{0});
  ExpectCountersEq(mixed->counters(), single->counters(),
                   fixture + " after Build");
  const auto estimate_all = [&](const std::vector<VertexId>& candidates,
                                const std::string& label) {
    std::vector<double> out(candidates.size());
    mixed->EstimateAll(candidates, out);
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      EXPECT_EQ(out[j], single->Estimate(candidates[j]))
          << label << " vertex " << candidates[j];
    }
    ExpectCountersEq(mixed->counters(), single->counters(), label);
    return out;
  };
  for (int round = 0; round < rounds; ++round) {
    const std::string label = fixture + " round " + std::to_string(round);
    std::vector<VertexId> subset;
    for (std::size_t j = 0; j < unselected.size(); j += 2) {
      subset.push_back(unselected[j]);
    }
    subset.push_back(subset.front());
    estimate_all(subset, label + " subset");
    for (std::size_t j = 1; j < unselected.size() && j <= 7; j += 3) {
      const VertexId v = unselected[j];
      EXPECT_EQ(mixed->Estimate(v), single->Estimate(v))
          << label << " single vertex " << v;
      ExpectCountersEq(mixed->counters(), single->counters(),
                       label + " single vertex " + std::to_string(v));
    }
    const std::vector<double> all = estimate_all(unselected, label + " all");
    const auto best = static_cast<std::ptrdiff_t>(
        std::max_element(all.begin(), all.end()) - all.begin());
    mixed->Update(unselected[best]);
    single->Update(unselected[best]);
    ExpectCountersEq(mixed->counters(), single->counters(),
                     label + " update");
    unselected.erase(unselected.begin() + best);
  }
}

/// Fresh twins at widths 1 and 4, then twins borrowing a τ-prefix of one
/// arena.
void CheckMixedRounds(const ModelInstance& instance, std::uint64_t tau,
                      std::uint64_t seed, int rounds,
                      const std::string& fixture) {
  const VertexId n = instance.ig->num_vertices();
  for (int width : {1, 4}) {
    SamplingOptions sampling;
    sampling.num_threads = width;
    SnapshotEstimator mixed(instance, tau, seed,
                            SnapshotEstimator::Mode::kCondensed, sampling);
    SnapshotEstimator single(instance, tau, seed,
                             SnapshotEstimator::Mode::kCondensed, sampling);
    mixed.Build();
    single.Build();
    ExpectMixedRoundsMatchPerVertex(
        &mixed, &single, n, rounds,
        fixture + " width " + std::to_string(width));
  }
  SamplingOptions sampling;
  sampling.num_threads = 4;
  SnapshotArena arena =
      SnapshotArena::SampleFor(instance, seed, tau + 16, sampling);
  SnapshotEstimator mixed(&arena, tau);
  SnapshotEstimator single(&arena, tau);
  mixed.Build();
  single.Build();
  ExpectMixedRoundsMatchPerVertex(&mixed, &single, n, rounds,
                                  fixture + " arena");
}

TEST(CondensedBackendTest, MixedRoundPathsMatchPerVertex) {
  // Karate uc0.1: small removals, so Update walks ancestors precisely.
  InfluenceGraph karate = Make(Datasets::Karate(), ProbabilityModel::kUc01);
  CheckMixedRounds(ModelInstance::Ic(&karate), 100, 71, 6, "karate uc0.1");
  // Dense live star: one giant SCC per world, so the first Update takes
  // the whole-snapshot invalidation branch.
  Graph g = GraphBuilder::FromEdgeList(BidirectedStar(512));
  InfluenceGraph star(std::move(g), std::vector<double>(512 * 2, 0.9));
  CheckMixedRounds(ModelInstance::Ic(&star), 32, 72, 3, "star p=0.9");
  // Leaves into a hub at p=0.5: the first seed removes the hub, and the
  // precise reverse walk marks more stale ancestors than a world has
  // dirty slots.
  InfluenceGraph in_star(GraphBuilder::FromEdgeList(InStar(96)),
                         std::vector<double>(96, 0.5));
  CheckMixedRounds(ModelInstance::Ic(&in_star), 32, 74, 3, "in-star p=0.5");
  InfluenceGraph karate_iwc = Make(Datasets::Karate(), ProbabilityModel::kIwc);
  LtWeights weights(&karate_iwc);
  CheckMixedRounds(ModelInstance::Lt(&weights), 64, 73, 6, "karate lt");
}

TEST(CondensedBackendTest, InitialBoundsAreSound) {
  InfluenceGraph ig = Make(Datasets::Karate(), ProbabilityModel::kUc01);
  SnapshotEstimator estimator(ModelInstance::Ic(&ig), 64, 31,
                              SnapshotEstimator::Mode::kCondensed);
  EXPECT_TRUE(estimator.ProvidesInitialBounds());
  estimator.Build();
  for (VertexId v = 0; v < ig.num_vertices(); ++v) {
    EXPECT_GE(estimator.InitialBound(v), estimator.Estimate(v))
        << "vertex " << v;
  }
}

TEST(CondensedBackendTest, CelfSkipsTheExactInitialSweep) {
  // The lazy bound initialization must touch at most as many candidates
  // in total as the exact-init run spends on its first sweep alone.
  InfluenceGraph ig = Make(Datasets::Karate(), ProbabilityModel::kUc01);
  ModeRun residual = RunBothDrivers(
      ig, SnapshotEstimator::Mode::kResidual, 64, 41, 4, {});
  ModeRun condensed = RunBothDrivers(
      ig, SnapshotEstimator::Mode::kCondensed, 64, 41, 4, {});
  EXPECT_LT(condensed.celf_calls, residual.celf_calls);
}

TEST(CondensedBackendTest, CondensedUsesLessMemoryWhenComponentsAreLarge) {
  // The memory claim is regime-dependent: condensed pays 4 B/vertex for
  // the component map but drops the live-edge CSR (8 B/vertex offsets +
  // 4 B/live edge) and the n-byte removal bitmap, so it wins once live
  // components are large (percolated snapshots) and loses on
  // near-singleton decompositions. Dense live star: most spokes close a
  // cycle through the hub, one giant SCC per snapshot.
  Graph g = GraphBuilder::FromEdgeList(BidirectedStar(512));
  InfluenceGraph ig(std::move(g), std::vector<double>(512 * 2, 0.9));
  SnapshotEstimator residual(ModelInstance::Ic(&ig), 32, 51,
                             SnapshotEstimator::Mode::kResidual);
  SnapshotEstimator condensed(ModelInstance::Ic(&ig), 32, 51,
                              SnapshotEstimator::Mode::kCondensed);
  residual.Build();
  condensed.Build();
  EXPECT_LT(condensed.MemoryBytes(), residual.MemoryBytes());
}

TEST(CondensedBackendTest, FreshBuildKeepsOnlyItsWorlds) {
  // A fresh condensed build samples a private arena of τ worlds and
  // keeps only the worlds, each without its comp_of (transposed into
  // the backend's state); the arena's warmth and counter table go with
  // it. So at width 1 (one round slot, as a borrowing build has) the
  // fresh build owns exactly a borrowing build's bookkeeping plus those
  // world bytes.
  InfluenceGraph ig = Make(Datasets::Karate(), ProbabilityModel::kUc01);
  const ModelInstance instance = ModelInstance::Ic(&ig);
  constexpr std::uint64_t kTau = 100;
  constexpr std::uint64_t kSeed = 81;
  SnapshotEstimator fresh(instance, kTau, kSeed,
                          SnapshotEstimator::Mode::kCondensed);
  fresh.Build();
  const SnapshotArena arena =
      SnapshotArena::SampleFor(instance, kSeed, kTau, SamplingOptions{});
  SnapshotEstimator borrowing(&arena, kTau);
  borrowing.Build();
  std::uint64_t world_bytes = 0;
  for (const CondensedSnapshot& world : arena.Worlds(kTau)) {
    world_bytes += world.MemoryBytes() -
                   world.comp_of.capacity() * sizeof(world.comp_of[0]);
  }
  EXPECT_EQ(fresh.MemoryBytes(), borrowing.MemoryBytes() + world_bytes);
  ExpectCountersEq(fresh.counters(), borrowing.counters(), "after Build");
}

TEST(SnapshotModeTest, ParseAndName) {
  EXPECT_EQ(SnapshotModeName(SnapshotEstimator::Mode::kCondensed),
            "condensed");
  EXPECT_EQ(ParseSnapshotMode("Condensed").value(),
            SnapshotEstimator::Mode::kCondensed);
  EXPECT_EQ(ParseSnapshotMode("naive").value(),
            SnapshotEstimator::Mode::kNaive);
  EXPECT_EQ(ParseSnapshotMode("RESIDUAL").value(),
            SnapshotEstimator::Mode::kResidual);
  EXPECT_FALSE(ParseSnapshotMode("pruned").ok());
}

}  // namespace
}  // namespace soldist
