// Ablation benchmarks (google-benchmark) for the two implementation
// techniques DESIGN.md calls out:
//  1. Snapshot's two reachability backends: the residual-graph
//     reduction of Section 3.4.3 vs the SCC-condensed DAGs with
//     incrementally maintained gains — identical estimates, different
//     cost;
//  2. CELF lazy greedy vs the plain Estimate-sweep framework on RIS.

#include <benchmark/benchmark.h>

#include "core/celf.h"
#include "core/greedy.h"
#include "core/ris.h"
#include "core/snapshot.h"
#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/probability.h"

namespace soldist {
namespace {

const InfluenceGraph& PhysiciansIg() {
  static const InfluenceGraph* ig = new InfluenceGraph(MakeInfluenceGraph(
      GraphBuilder::FromEdgeList(Datasets::Physicians(42)),
      ProbabilityModel::kUc01));
  return *ig;
}

void BM_SnapshotGreedy(benchmark::State& state, SnapshotEstimator::Mode mode) {
  const InfluenceGraph& ig = PhysiciansIg();
  const int k = static_cast<int>(state.range(0));
  std::uint64_t seed = 0;
  std::uint64_t total_edges = 0;
  for (auto _ : state) {
    SnapshotEstimator estimator(ModelInstance::Ic(&ig), 64, ++seed, mode);
    Rng tie_rng(seed);
    auto result = RunGreedy(&estimator, ig.num_vertices(), k, &tie_rng);
    benchmark::DoNotOptimize(result.seeds.data());
    total_edges += estimator.counters().edges;
  }
  state.counters["edge_traversals"] = benchmark::Counter(
      static_cast<double>(total_edges), benchmark::Counter::kAvgIterations);
}

void BM_SnapshotGreedyResidual(benchmark::State& state) {
  BM_SnapshotGreedy(state, SnapshotEstimator::Mode::kResidual);
}
BENCHMARK(BM_SnapshotGreedyResidual)->Arg(1)->Arg(4)->Arg(16);

void BM_SnapshotGreedyCondensed(benchmark::State& state) {
  BM_SnapshotGreedy(state, SnapshotEstimator::Mode::kCondensed);
}
BENCHMARK(BM_SnapshotGreedyCondensed)->Arg(1)->Arg(4)->Arg(16);

void BM_RisGreedyPlain(benchmark::State& state) {
  const InfluenceGraph& ig = PhysiciansIg();
  const int k = static_cast<int>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    RisEstimator estimator(ModelInstance::Ic(&ig), 4096, ++seed);
    Rng tie_rng(seed);
    auto result = RunGreedy(&estimator, ig.num_vertices(), k, &tie_rng);
    benchmark::DoNotOptimize(result.seeds.data());
  }
}
BENCHMARK(BM_RisGreedyPlain)->Arg(4)->Arg(16);

void BM_RisGreedyCelf(benchmark::State& state) {
  const InfluenceGraph& ig = PhysiciansIg();
  const int k = static_cast<int>(state.range(0));
  std::uint64_t seed = 0;
  std::uint64_t total_calls = 0;
  for (auto _ : state) {
    RisEstimator estimator(ModelInstance::Ic(&ig), 4096, ++seed);
    Rng tie_rng(seed);
    auto result = RunCelfGreedy(&estimator, ig.num_vertices(), k, &tie_rng);
    benchmark::DoNotOptimize(result.greedy.seeds.data());
    total_calls += result.estimate_calls;
  }
  state.counters["estimate_calls"] = benchmark::Counter(
      static_cast<double>(total_calls), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RisGreedyCelf)->Arg(4)->Arg(16);

}  // namespace
}  // namespace soldist
