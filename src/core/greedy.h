// The simple greedy framework (paper Algorithm 3.1): random vertex-order
// shuffle, one EstimateAll sweep per iteration over the unselected
// vertices, last-max tie-breaking, Update.

#ifndef SOLDIST_CORE_GREEDY_H_
#define SOLDIST_CORE_GREEDY_H_

#include <vector>

#include "core/estimator.h"
#include "random/rng.h"

namespace soldist {

/// \brief Output of one greedy run.
struct GreedyRunResult {
  /// Seeds in selection order (v_1, ..., v_k).
  std::vector<VertexId> seeds;
  /// Estimator score of each seed at the time of its selection (absolute
  /// Inf(S+v) for Oneshot, marginal gain for Snapshot/RIS).
  std::vector<double> estimates;
  /// Wall-clock seconds of estimator->Build() (sampling plus indexing);
  /// the rest of the run is selection.
  double build_seconds = 0.0;

  /// Seeds sorted ascending: the canonical seed-*set* identity used by the
  /// distribution analysis (selection order is irrelevant to the set).
  std::vector<VertexId> SortedSeedSet() const;
};

/// \brief Runs Algorithm 3.1.
///
/// Calls estimator->Build(), shuffles the vertex order with `tie_rng`
/// (line 2: ties between equal estimates are then broken uniformly by
/// taking the *last* maximum in shuffled order, line 5), and performs k
/// iterations, each one EstimateAll call over the still-unselected
/// vertices in shuffled order. Requires k <= num_vertices.
GreedyRunResult RunGreedy(InfluenceEstimator* estimator,
                          VertexId num_vertices, int k, Rng* tie_rng);

}  // namespace soldist

#endif  // SOLDIST_CORE_GREEDY_H_
