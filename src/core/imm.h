// IMM — Influence Maximization via Martingales (Tang, Shi & Xiao,
// SIGMOD 2015), reference [69] of the paper and the de-facto standard
// RIS stopping rule: a sampling phase that lower-bounds OPT_k via
// exponential guessing with martingale concentration bounds, then a final
// RR-set count θ = λ*/LB guaranteeing (1−1/e−ε)-approximation with
// probability 1 − n^−ℓ.

#ifndef SOLDIST_CORE_IMM_H_
#define SOLDIST_CORE_IMM_H_

#include <vector>

#include "sim/max_coverage.h"
#include "model/influence_graph.h"
#include "sim/counters.h"
#include "sim/sampling_engine.h"

namespace soldist {

/// IMM parameters (the paper's usual defaults: ε = 0.1..0.5, ℓ = 1).
struct ImmParams {
  int k = 1;
  double epsilon = 0.1;
  double ell = 1.0;
};

/// Output of RunImm.
struct ImmResult {
  /// Lower bound on OPT_k established by the sampling phase.
  double opt_lower_bound = 0.0;
  /// Final number of RR sets used for selection.
  std::uint64_t theta = 0;
  /// Selected seeds (greedy max coverage over the final collection).
  std::vector<VertexId> seeds;
  /// Estimated influence of the seeds: n · F_R(seeds).
  double estimated_influence = 0.0;
  /// Sampling-phase iterations used (1 .. log2(n)-1).
  int guessing_rounds = 0;
  /// Total traversal cost of all RR-set generation.
  TraversalCounters counters;
};

/// \brief Runs IMM end to end (Algorithms 1-3 of the IMM paper).
///
/// The collection is grown incrementally across the guessing rounds and
/// reused for the final selection, as in the original ("IMM reuses the RR
/// sets generated in the sampling phase").
///
/// Each round's RR-set delta is drawn through SamplingEngine's chunked
/// deterministic streams (one fresh master per round) and sorted into the
/// index on the same engine, so results are worker-count-independent.
ImmResult RunImm(const InfluenceGraph& ig, const ImmParams& params,
                 std::uint64_t seed, const SamplingOptions& sampling = {});

}  // namespace soldist

#endif  // SOLDIST_CORE_IMM_H_
