// Kernel microbenchmarks (google-benchmark): the sampling primitives the
// traversal-cost model abstracts over. Useful to calibrate the
// "proportionality constant" between traversal cost and wall time that
// the paper's methodology deliberately leaves machine-dependent.

#include <benchmark/benchmark.h>

#include <memory>
#include <random>
#include <vector>

#include "core/greedy.h"
#include "core/oneshot.h"
#include "core/ris.h"
#include "core/snapshot.h"
#include "gen/datasets.h"
#include "graph/builder.h"
#include "graph/reach_sketch.h"
#include "graph/traversal.h"
#include "model/probability.h"
#include "oracle/rr_oracle.h"
#include "random/splitmix64.h"
#include "serve/query_service.h"
#include "sim/forward_sim.h"
#include "sim/rr_arena.h"
#include "sim/rr_sampler.h"
#include "sim/snapshot_arena.h"
#include "sim/snapshot_sampler.h"
#include "util/checksum.h"

namespace soldist {
namespace {

const InfluenceGraph& KarateIg() {
  static const InfluenceGraph* ig = new InfluenceGraph(MakeInfluenceGraph(
      GraphBuilder::FromEdgeList(Datasets::Karate()),
      ProbabilityModel::kUc01));
  return *ig;
}

const InfluenceGraph& BaDenseIg(ProbabilityModel model) {
  static std::map<ProbabilityModel, const InfluenceGraph*> cache;
  auto it = cache.find(model);
  if (it == cache.end()) {
    auto* ig = new InfluenceGraph(MakeInfluenceGraph(
        GraphBuilder::FromEdgeList(Datasets::BaDense(42)), model));
    it = cache.emplace(model, ig).first;
  }
  return *it->second;
}

void BM_GraphBuildKarate(benchmark::State& state) {
  EdgeList edges = Datasets::Karate();
  for (auto _ : state) {
    Graph g = GraphBuilder::FromEdgeList(edges);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_GraphBuildKarate);

void BM_ForwardSimulation(benchmark::State& state) {
  const InfluenceGraph& ig =
      BaDenseIg(static_cast<ProbabilityModel>(state.range(0)));
  ForwardSimulator sim(&ig);
  Rng rng(1);
  TraversalCounters counters;
  const VertexId seeds[1] = {0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Simulate(seeds, &rng, &counters));
  }
  state.SetLabel(ProbabilityModelName(
      static_cast<ProbabilityModel>(state.range(0))));
}
BENCHMARK(BM_ForwardSimulation)
    ->Arg(static_cast<int>(ProbabilityModel::kUc01))
    ->Arg(static_cast<int>(ProbabilityModel::kUc001))
    ->Arg(static_cast<int>(ProbabilityModel::kIwc))
    ->Arg(static_cast<int>(ProbabilityModel::kOwc));

void BM_SnapshotSample(benchmark::State& state) {
  const InfluenceGraph& ig =
      BaDenseIg(static_cast<ProbabilityModel>(state.range(0)));
  SnapshotSampler sampler(&ig);
  Rng rng(2);
  TraversalCounters counters;
  for (auto _ : state) {
    Snapshot snap = sampler.Sample(&rng, &counters);
    benchmark::DoNotOptimize(snap.num_live_edges());
  }
  state.SetLabel(ProbabilityModelName(
      static_cast<ProbabilityModel>(state.range(0))));
}
BENCHMARK(BM_SnapshotSample)
    ->Arg(static_cast<int>(ProbabilityModel::kUc01))
    ->Arg(static_cast<int>(ProbabilityModel::kIwc));

void BM_SnapshotBfs(benchmark::State& state) {
  const InfluenceGraph& ig = BaDenseIg(ProbabilityModel::kIwc);
  SnapshotSampler sampler(&ig);
  Rng rng(3);
  TraversalCounters counters;
  Snapshot snap = sampler.Sample(&rng, &counters);
  VertexId v = 0;
  for (auto _ : state) {
    const VertexId seeds[1] = {v};
    benchmark::DoNotOptimize(sampler.CountReachable(snap, seeds, &counters));
    v = (v + 1) % ig.num_vertices();
  }
}
BENCHMARK(BM_SnapshotBfs);

void BM_RrSetGeneration(benchmark::State& state) {
  const InfluenceGraph& ig =
      BaDenseIg(static_cast<ProbabilityModel>(state.range(0)));
  RrSampler sampler(&ig);
  Rng target_rng(4), coin_rng(5);
  TraversalCounters counters;
  std::vector<VertexId> rr_set;
  for (auto _ : state) {
    sampler.Sample(&target_rng, &coin_rng, &rr_set, &counters);
    benchmark::DoNotOptimize(rr_set.size());
  }
  state.SetLabel(ProbabilityModelName(
      static_cast<ProbabilityModel>(state.range(0))));
}
BENCHMARK(BM_RrSetGeneration)
    ->Arg(static_cast<int>(ProbabilityModel::kUc01))
    ->Arg(static_cast<int>(ProbabilityModel::kIwc));

void BM_OracleEvaluate(benchmark::State& state) {
  const InfluenceGraph& ig = BaDenseIg(ProbabilityModel::kIwc);
  static const RrOracle* oracle = new RrOracle(&ig, 50000, 6);
  std::vector<VertexId> seeds{1, 17, 33, 99};
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle->EstimateInfluence(seeds));
  }
}
BENCHMARK(BM_OracleEvaluate);

void BM_GreedyRis(benchmark::State& state) {
  const InfluenceGraph& ig = KarateIg();
  std::uint64_t theta = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    RisEstimator estimator(ModelInstance::Ic(&ig), theta, ++seed);
    Rng tie_rng(seed);
    auto result = RunGreedy(&estimator, ig.num_vertices(), 4, &tie_rng);
    benchmark::DoNotOptimize(result.seeds.data());
  }
}
BENCHMARK(BM_GreedyRis)->Arg(256)->Arg(4096);

void BM_ReachSketchBuild(benchmark::State& state) {
  // Bottom-k sketches vs n BFS runs: the descendant-counting bottleneck
  // of Snapshot's first iteration (paper Section 3.4.3).
  const InfluenceGraph& ig = BaDenseIg(ProbabilityModel::kIwc);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    ReachabilitySketches sketches(&ig.graph(), 64, &rng);
    benchmark::DoNotOptimize(sketches.EstimateReachable(0));
  }
}
BENCHMARK(BM_ReachSketchBuild);

void BM_AllVerticesBfsReachability(benchmark::State& state) {
  const InfluenceGraph& ig = BaDenseIg(ProbabilityModel::kIwc);
  BfsReachability bfs(&ig.graph());
  for (auto _ : state) {
    std::uint64_t total = 0;
    for (VertexId v = 0; v < ig.num_vertices(); ++v) {
      const VertexId source[1] = {v};
      total += bfs.CountReachable(source);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_AllVerticesBfsReachability);

// ---------------------------------------------------------------------
// coverage_popcount: the serving layer's covered-count kernel. Both
// variants answer |covered(S)| over the SAME RR sets; what differs is
// the layout. The packed path is QueryView's word-packed bitmap over
// the arena's 32-bit inverted index: per-entry bit tests on uint64
// words (1 bit per RR set), cleared with one fill of the tiny bitmap.
// The walk path is the GreeDIMM TransposeRRRSets shape: one std::vector
// of 64-bit set ids per vertex, membership marked one byte per set,
// cleared via a touched list. The packed bitmap is 8x smaller scratch
// (2 KB vs 16 KB here) with 2x denser id reads — the layout win the
// serve/ design banks on. Note the run-grouped mask+popcount idiom the
// GREEDY engine uses (sim/max_coverage.cc) deliberately does NOT appear
// on this path: at point-query densities (~1 list entry per 64-set
// word, BaDense 0.99 / Physicians 1.16) the grouping loop costs more
// than the popcounts it saves.
// ---------------------------------------------------------------------

const RrArena& CoverageArena() {
  static const RrArena* arena = new RrArena(RrArena::SampleIc(
      BaDenseIg(ProbabilityModel::kIwc), 11, 16384, SamplingOptions{}));
  return *arena;
}

/// 64 rotating 4-seed query sets (deterministic, shared by both kernels).
const std::vector<std::vector<VertexId>>& CoverageQueries() {
  static const auto* queries = [] {
    auto* q = new std::vector<std::vector<VertexId>>(64);
    SplitMix64 rng(21);
    const VertexId n = CoverageArena().num_vertices();
    for (auto& seeds : *q) {
      seeds.resize(4);
      for (VertexId& v : seeds) v = static_cast<VertexId>(rng.Next() % n);
    }
    return q;
  }();
  return *queries;
}

void BM_CoveragePopcountPacked(benchmark::State& state) {
  const RrArena& arena = CoverageArena();
  // Non-owning shared_ptr: the static arena outlives the view.
  serve::QueryView view(
      std::shared_ptr<const RrArena>(&arena, [](const RrArena*) {}),
      arena.capacity());
  const auto& queries = CoverageQueries();
  serve::QueryScratch scratch;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.CoveredCount(queries[i], &scratch));
    i = (i + 1) % queries.size();
  }
  state.SetLabel("word-packed bitmap, per-entry bit tests (QueryView)");
}
BENCHMARK(BM_CoveragePopcountPacked);

void BM_CoveragePopcountVectorWalk(benchmark::State& state) {
  const RrArena& arena = CoverageArena();
  // GreeDIMM-style transpose: per-vertex vector<std::uint64_t> set ids.
  static const auto* transpose = [] {
    auto* t = new std::vector<std::vector<std::uint64_t>>(
        CoverageArena().num_vertices());
    for (VertexId v = 0; v < CoverageArena().num_vertices(); ++v) {
      for (std::uint32_t id : CoverageArena().InvertedAll(v)) {
        (*t)[v].push_back(id);
      }
    }
    return t;
  }();
  const auto& queries = CoverageQueries();
  std::vector<std::uint8_t> marked(arena.capacity(), 0);
  std::vector<std::uint64_t> touched;
  std::size_t i = 0;
  for (auto _ : state) {
    std::uint64_t covered = 0;
    for (VertexId v : queries[i]) {
      for (std::uint64_t id : (*transpose)[v]) {
        if (!marked[id]) {
          marked[id] = 1;
          touched.push_back(id);
          ++covered;
        }
      }
    }
    for (std::uint64_t id : touched) marked[id] = 0;
    touched.clear();
    benchmark::DoNotOptimize(covered);
    i = (i + 1) % queries.size();
  }
  state.SetLabel("per-vertex vector walk + byte markers (GreeDIMM shape)");
}
BENCHMARK(BM_CoveragePopcountVectorWalk);

// ---- Sampled-world reachability probe: arena-view condensed DAG vs ----
// ---- per-snapshot BFS re-walk over the raw live-edge CSRs          ----
//
// The serving question behind QueryService::SnapshotView's
// ReachProbability(src, dst): in how many of τ sampled worlds does src
// reach dst? The arena kernel answers over SCC-condensed DAGs with the
// reverse-topological prune (same-component O(1) hit, comp(dst) >
// comp(src) O(1) miss, early-exit DAG BFS otherwise); the baseline
// re-walks each raw snapshot with a vertex-level BFS — the cost profile
// a service without condensed worlds would pay. Same sampling streams,
// same (src, dst) rotation.

constexpr std::uint64_t kWorldReachTau = 256;

const SnapshotArena& WorldReachArena() {
  static const SnapshotArena* arena = new SnapshotArena(SnapshotArena::Sample(
      BaDenseIg(ProbabilityModel::kIwc), /*seed=*/17, kWorldReachTau,
      SamplingOptions()));
  return *arena;
}

/// The raw snapshots behind the SAME worlds: the engine chunk streams
/// SnapshotArena::Sample condenses.
const std::vector<Snapshot>& WorldReachSnapshots() {
  static const auto* snaps = [] {
    auto* s = new std::vector<Snapshot>();
    SamplingEngine engine;
    for (SnapshotShard& shard :
         SampleSnapshotShards(BaDenseIg(ProbabilityModel::kIwc),
                              /*master_seed=*/17, kWorldReachTau, &engine)) {
      for (Snapshot& snap : shard.snapshots) s->push_back(std::move(snap));
    }
    return s;
  }();
  return *snaps;
}

void BM_WorldReachArenaDag(benchmark::State& state) {
  const SnapshotArena& arena = WorldReachArena();
  // Non-owning shared_ptr: the static arena outlives the view.
  serve::SnapshotQueryView view(
      std::shared_ptr<const SnapshotArena>(&arena,
                                           [](const SnapshotArena*) {}),
      arena.capacity());
  serve::WorldScratch scratch;
  const VertexId n = arena.num_vertices();
  VertexId src = 0, dst = n / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.ReachProbability(src, dst, &scratch));
    src = (src + 1) % n;
    dst = (dst + 3) % n;
  }
  state.SetLabel("condensed-DAG probe over SnapshotArena views");
}
BENCHMARK(BM_WorldReachArenaDag);

void BM_WorldReachSnapshotBfs(benchmark::State& state) {
  const std::vector<Snapshot>& snaps = WorldReachSnapshots();
  const VertexId n = WorldReachArena().num_vertices();
  std::vector<std::uint8_t> visited(n, 0);
  std::vector<VertexId> queue;
  queue.reserve(n);
  VertexId src = 0, dst = n / 2;
  for (auto _ : state) {
    std::uint64_t hits = 0;
    for (const Snapshot& snap : snaps) {
      std::fill(visited.begin(), visited.end(), 0);
      queue.clear();
      visited[src] = 1;
      queue.push_back(src);
      bool found = src == dst;
      for (std::size_t head = 0; !found && head < queue.size(); ++head) {
        const VertexId u = queue[head];
        for (EdgeId e = snap.out_offsets[u]; e < snap.out_offsets[u + 1];
             ++e) {
          const VertexId w = snap.out_targets[e];
          if (w == dst) {
            found = true;
            break;
          }
          if (!visited[w]) {
            visited[w] = 1;
            queue.push_back(w);
          }
        }
      }
      hits += found ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
    src = (src + 1) % n;
    dst = (dst + 3) % n;
  }
  state.SetLabel("per-snapshot live-edge BFS re-walk");
}
BENCHMARK(BM_WorldReachSnapshotBfs);

void BM_Mt19937UnitReal(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.UnitReal());
  }
}
BENCHMARK(BM_Mt19937UnitReal);

// UnitReal's formula over libstdc++'s engine on the same seed, beside the
// in-tree engine above: the gap is the cost of the data-dependent branch
// in libstdc++'s twist. The draws are the same.
void BM_StdMt19937_64(benchmark::State& state) {
  std::mt19937_64 engine(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(static_cast<double>(engine() >> 11) * 0x1.0p-53);
  }
}
BENCHMARK(BM_StdMt19937_64);

// The arena checksum (util/checksum.h) over a 4-MiB buffer, about the
// size of serve-mixed's Physicians RR payload: every save, load,
// VerifyArena and ContentChecksum runs this loop over the whole arena.
void BM_ArenaChecksum(benchmark::State& state) {
  std::vector<unsigned char> bytes(std::size_t{4} << 20);
  SplitMix64 rng(5);
  for (unsigned char& byte : bytes) {
    byte = static_cast<unsigned char>(rng.Next());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Checksum64::Of(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_ArenaChecksum);

}  // namespace
}  // namespace soldist
