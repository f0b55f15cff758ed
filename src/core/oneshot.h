// Oneshot (paper Algorithm 3.2): Monte-Carlo simulation on the spot.
// Sample number β = simulations per Estimate call. Estimates are unbiased
// but mutually independent, so neither monotonicity nor submodularity of
// the estimated function is guaranteed (Section 3.3.1). The diffusion
// model only picks the forward simulator (IC cascades or LT thresholds).

#ifndef SOLDIST_CORE_ONESHOT_H_
#define SOLDIST_CORE_ONESHOT_H_

#include <vector>

#include "core/estimator.h"
#include "model/diffusion.h"
#include "sim/forward_sim.h"
#include "sim/lt_forward_sim.h"
#include "sim/sampling_engine.h"

namespace soldist {

/// \brief The Oneshot estimator.
class OneshotEstimator : public InfluenceEstimator {
 public:
  /// \param beta simulations per estimate (must be >= 1)
  /// \param seed PRNG seed for this run
  OneshotEstimator(const ModelInstance& instance, std::uint64_t beta,
                   std::uint64_t seed, const SamplingOptions& sampling = {});

  void Build() override {}  // Oneshot builds nothing.

  /// Mean activated count over β fresh simulations of the instance's
  /// model from S ∪ {v}.
  ///
  /// The β runs of each call go through the engine: call j uses
  /// per-chunk streams derived from (seed, call index j), so the sequence
  /// of estimates is deterministic for any worker count.
  double Estimate(VertexId v) override;

  void Update(VertexId v) override { seeds_.push_back(v); }

  bool EstimatesAreMarginal() const override { return false; }
  std::uint64_t sample_number() const override { return beta_; }
  const TraversalCounters& counters() const override { return counters_; }
  std::string name() const override { return "Oneshot"; }

 private:
  const InfluenceGraph* ig_;
  DiffusionModel model_;
  std::uint64_t beta_;
  SamplingEngine engine_;  ///< reused across Estimate calls (may own a pool)
  ForwardSimulatorCache sim_cache_;       ///< per-slot IC simulators
  LtForwardSimulatorCache lt_sim_cache_;  ///< per-slot LT simulators
  std::uint64_t call_master_;  ///< DeriveSeed(seed, 3)
  std::uint64_t calls_ = 0;
  std::vector<VertexId> seeds_;
  std::vector<VertexId> scratch_;
  TraversalCounters counters_;
};

}  // namespace soldist

#endif  // SOLDIST_CORE_ONESHOT_H_
