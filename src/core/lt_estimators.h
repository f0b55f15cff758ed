// The three algorithmic approaches under the LINEAR THRESHOLD model:
// LT counterparts of OneshotEstimator / SnapshotEstimator / RisEstimator,
// plugging into the same greedy framework (the paper runs its study under
// both IC and LT).
//
// Build parallelism: like the IC estimators, they draw through
// SamplingEngine's chunked deterministic streams. With the default
// SamplingOptions the engine runs inline on the calling thread; any other
// configuration fans the same chunks out across workers. Consequently an
// LT build is a pure function of (seed, sample number, chunk_size):
// byte-identical for the default and for any worker count.

#ifndef SOLDIST_CORE_LT_ESTIMATORS_H_
#define SOLDIST_CORE_LT_ESTIMATORS_H_

#include <memory>
#include <vector>

#include "core/estimator.h"
#include "model/lt.h"
#include "sim/lt_forward_sim.h"
#include "sim/lt_samplers.h"
#include "sim/rr_sampler.h"
#include "sim/sampling_engine.h"

namespace soldist {

/// \brief Oneshot under LT: β fresh threshold simulations per estimate.
class LtOneshotEstimator : public InfluenceEstimator {
 public:
  LtOneshotEstimator(const LtWeights* weights, std::uint64_t beta,
                     std::uint64_t seed, const SamplingOptions& sampling = {});

  void Build() override {}

  /// Mean activated count over β fresh LT simulations from S ∪ {v}; call j
  /// uses per-chunk streams derived from (seed, call index j), so the
  /// sequence of estimates is deterministic for any worker count.
  double Estimate(VertexId v) override;
  void Update(VertexId v) override { seeds_.push_back(v); }
  bool EstimatesAreMarginal() const override { return false; }
  std::uint64_t sample_number() const override { return beta_; }
  const TraversalCounters& counters() const override { return counters_; }
  std::string name() const override { return "LT-Oneshot"; }

 private:
  const InfluenceGraph* ig_;
  std::uint64_t beta_;
  /// Reused across Estimate calls (it may own a pool).
  SamplingEngine engine_;
  LtForwardSimulatorCache sim_cache_;  ///< per-slot simulators
  std::uint64_t call_master_;          ///< DeriveSeed(seed, 3)
  std::uint64_t calls_ = 0;
  std::vector<VertexId> seeds_;
  std::vector<VertexId> scratch_;
  TraversalCounters counters_;
};

/// \brief Snapshot under LT: τ live-edge graphs (<= n edges each), naive
/// marginal estimates with the base reach cached per greedy round.
class LtSnapshotEstimator : public InfluenceEstimator {
 public:
  LtSnapshotEstimator(const LtWeights* weights, std::uint64_t tau,
                      std::uint64_t seed,
                      const SamplingOptions& sampling = {});

  /// Samples the τ snapshots through the chunked deterministic streams
  /// (SampleLtSnapshotShards), merged in chunk order.
  void Build() override;
  double Estimate(VertexId v) override;
  void Update(VertexId v) override;
  bool EstimatesAreMarginal() const override { return true; }
  std::uint64_t sample_number() const override { return tau_; }
  const TraversalCounters& counters() const override { return counters_; }
  std::string name() const override { return "LT-Snapshot"; }

 private:
  const LtWeights* weights_;
  std::uint64_t tau_;
  std::uint64_t seed_;
  SamplingOptions sampling_;
  LtSnapshotSampler sampler_;  // reachability BFS on built snapshots
  std::vector<Snapshot> snapshots_;
  std::vector<std::uint32_t> base_reach_;
  std::vector<VertexId> seeds_;
  std::vector<VertexId> scratch_;
  TraversalCounters counters_;
  bool built_ = false;
};

/// \brief RIS under LT: θ backward-walk RR sets, coverage as under IC.
class LtRisEstimator : public InfluenceEstimator {
 public:
  LtRisEstimator(const LtWeights* weights, std::uint64_t theta,
                 std::uint64_t seed, const SamplingOptions& sampling = {});

  /// Draws the θ RR sets through the chunked deterministic streams
  /// (SampleLtRrShards) and bulk-merges the shards into the collection.
  void Build() override;
  double Estimate(VertexId v) override;
  void Update(VertexId v) override;
  bool EstimatesAreMarginal() const override { return true; }
  std::uint64_t sample_number() const override { return theta_; }
  const TraversalCounters& counters() const override { return counters_; }
  std::string name() const override { return "LT-RIS"; }

 private:
  const LtWeights* weights_;
  std::uint64_t theta_;
  std::uint64_t seed_;
  SamplingOptions sampling_;
  RrCollection collection_;
  std::vector<std::uint32_t> cover_count_;
  std::vector<std::uint8_t> set_active_;
  std::vector<std::uint8_t> chosen_;  // seeds committed via Update
  TraversalCounters counters_;
  bool built_ = false;
};

/// Factory mirroring the IC MakeEstimator for the LT model; `sampling`
/// selects the worker count exactly as it does for IC (prefer the unified
/// MakeEstimator(ModelInstance, ...) in core/factory.h).
std::unique_ptr<InfluenceEstimator> MakeLtEstimator(
    const LtWeights* weights, Approach approach, std::uint64_t sample_number,
    std::uint64_t seed, const SamplingOptions& sampling = {});

}  // namespace soldist

#endif  // SOLDIST_CORE_LT_ESTIMATORS_H_
