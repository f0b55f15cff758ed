// The Build / Estimate / Update interface of the paper's simple greedy
// framework (Algorithm 3.1). Oneshot, Snapshot, and RIS are the three
// implementations (Algorithms 3.2-3.4).

#ifndef SOLDIST_CORE_ESTIMATOR_H_
#define SOLDIST_CORE_ESTIMATOR_H_

#include <span>
#include <string>
#include <vector>

#include "graph/types.h"
#include "sim/counters.h"

namespace soldist {

/// \brief An influence estimator pluggable into the greedy framework.
///
/// Lifecycle: Build() once, then k rounds of { EstimateAll(candidates) or
/// Estimate(v) per candidate; Update(chosen) }. Implementations track the
/// current seed set internally through Update.
class InfluenceEstimator {
 public:
  virtual ~InfluenceEstimator() = default;

  /// Builds the estimator state (samples snapshots / RR sets; a no-op for
  /// Oneshot). Must be called exactly once before Estimate/Update.
  virtual void Build() = 0;

  /// Score used by greedy to rank v as the next seed given the current
  /// seed set S. Snapshot and RIS return the estimated *marginal* gain
  /// Inf(S+v) − Inf(S); Oneshot returns the estimated Inf(S+v) (paper
  /// Algorithm 3.2) — "the results will be the same regardless" for
  /// selection purposes (Section 3.2).
  virtual double Estimate(VertexId v) = 0;

  /// Scores a whole round at once: out[j] = Estimate(candidates[j]) for
  /// every j (out.size() == candidates.size()), with the same values, the
  /// same counters() afterwards and the same effect on every later call
  /// as that per-vertex loop. The default IS that loop, in candidate
  /// order — Oneshot draws one RNG stream per call, so its estimates
  /// depend on the order. An override may batch or parallelize the work
  /// as long as the contract holds at every width and for any candidate
  /// subset: the condensed Snapshot backend refreshes only the stale
  /// cached gains that some candidate holds, in tiles of worlds on the
  /// sampling pool, and reads each score from a per-vertex running
  /// total.
  virtual void EstimateAll(std::span<const VertexId> candidates,
                           std::span<double> out);

  /// Commits v as the next seed and refreshes internal state.
  virtual void Update(VertexId v) = 0;

  /// True when Estimate returns marginal gains (enables lazy/CELF greedy).
  virtual bool EstimatesAreMarginal() const = 0;

  /// True when the estimator can bound Estimate(v) from above WITHOUT a
  /// traversal (e.g. the condensed Snapshot backend's DAG-sketch bounds).
  /// The CELF driver then seeds its lazy queue from InitialBound instead
  /// of n exact Estimate calls; selection is provably unchanged because
  /// the bounds are sound (see core/celf.h).
  virtual bool ProvidesInitialBounds() const { return false; }

  /// Sound upper bound on Estimate(v) for the EMPTY seed set (and, by
  /// submodularity, on every later marginal of v). Only called when
  /// ProvidesInitialBounds(); the default CHECK-fails.
  virtual double InitialBound(VertexId v);

  /// The sample number (β, τ, or θ).
  virtual std::uint64_t sample_number() const = 0;

  /// Work counters accumulated across Build/Estimate/Update.
  virtual const TraversalCounters& counters() const = 0;

  /// Approach name: "Oneshot", "Snapshot", or "RIS".
  virtual std::string name() const = 0;
};

/// The three approaches, in the paper's column order.
enum class Approach { kOneshot, kSnapshot, kRis };

/// Canonical display name ("Oneshot" / "Snapshot" / "RIS").
std::string ApproachName(Approach approach);

}  // namespace soldist

#endif  // SOLDIST_CORE_ESTIMATOR_H_
