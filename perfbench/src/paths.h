// The two library paths the workloads and the layer probes share: one
// approach's sample-number ladder (the paper's sweep methodology) and
// one seed-set solve. Each runs either through the public entry point
// (RunSweep, Session::Solve) or, for the traced run, decomposed into the
// calls those entry points make, with a span around each.

#ifndef PERFBENCH_PATHS_H_
#define PERFBENCH_PATHS_H_

#include <cstdint>
#include <vector>

#include "api/session.h"
#include "exp/sweep.h"

namespace perfbench {

/// One approach's ladder over sample numbers 2^0 .. 2^max_exponent.
struct LadderSpec {
  soldist::Approach approach = soldist::Approach::kRis;
  int max_exponent = 0;
  int k = 4;
  std::uint64_t trials = 1;
  std::uint64_t master_seed = 1;
};

struct LadderOutcome {
  std::vector<soldist::SweepCell> cells;
  double wall_s = 0.0;
  /// Digest of every cell's seed sets (identical for identical inputs).
  std::uint64_t digest = 0;
};

/// Runs the ladder with condensed Snapshot and sweep reuse on, fanning
/// trials out over `pool`. `decomposed` = RunTrialLadder / RunTrials +
/// EvaluateInfluence + the cell summary, each under a span (this is what
/// RunSweep does internally), recording the exp-layer pool efficiency
/// and arena build time as notes while the tracer is on; otherwise one
/// RunSweep call.
LadderOutcome RunLadder(const soldist::ModelInstance& instance,
                        const soldist::RrOracle& oracle,
                        const LadderSpec& spec, soldist::ThreadPool* pool,
                        bool decomposed);

/// Span names of a decomposed solve's estimator Build and greedy
/// selection, "core.build.<tag>" and "core.select.<tag>": the tag keeps
/// solves of different sizes apart in the per-layer metrics.
struct SolveSpans {
  const char* build;
  const char* select;
};

/// Solve through its parts — ResolveWorkload, MakeEstimator, Build,
/// greedy selection, oracle evaluation — each under a span, recording
/// the estimator's exact traversal counters as the notes
/// "core.vertices.<tag>" and "core.edges.<tag>" while the tracer is on
/// (with it off, the same calls run bare). The seeds must equal
/// Session::Solve's for the same spec; the caller checks that.
soldist::StatusOr<soldist::api::SolveResult> DecomposedSolve(
    soldist::api::Session* session,
    const soldist::api::WorkloadSpec& workload,
    const soldist::api::SolveSpec& spec, const SolveSpans& spans);

}  // namespace perfbench

#endif  // PERFBENCH_PATHS_H_
