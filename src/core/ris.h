// RIS — Reverse Influence Sampling (paper Algorithm 3.4, Borgs et al.):
// θ RR sets drawn in Build turn influence maximization into maximum
// coverage. Estimate(v) is the marginal coverage n·F_R(v); Update removes
// the RR sets covered by the new seed.
//
// The RR sets always live in an RrArena (sim/rr_arena.h), under either
// diffusion model — the model only picks the sampler. A fresh build
// samples a private arena of exactly θ sets through SamplingEngine's
// deterministic chunked streams (inline on the calling thread by
// default), so it is byte-identical at any worker count. A borrowing
// estimator serves the first θ sets of a shared arena instead (exp/'s
// sweep-reuse ladder); because the streams are prefix-closed, both
// answer identically — same Estimate sequence, Update effects and
// counters (ctest rr_arena_test, sweep_reuse_test).

#ifndef SOLDIST_CORE_RIS_H_
#define SOLDIST_CORE_RIS_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/estimator.h"
#include "model/diffusion.h"
#include "sim/rr_arena.h"
#include "sim/sampling_engine.h"

namespace soldist {

/// \brief The RIS estimator.
class RisEstimator : public InfluenceEstimator {
 public:
  /// Fresh build: Build samples θ RR sets of `instance`'s model (two
  /// PRNG streams per chunk: targets and edge coins, as in paper Section
  /// 4.1) into a private arena. \param theta must be >= 1. A build
  /// always runs to completion: sampling.cancel must be null.
  RisEstimator(const ModelInstance& instance, std::uint64_t theta,
               std::uint64_t seed, const SamplingOptions& sampling = {});

  /// Borrowing build: serves the first θ sets of `arena` (1 <= θ <=
  /// arena->capacity(); `arena` must outlive the estimator). Build then
  /// samples nothing and counters() reports the prefix's exact sampling
  /// cost, as a fresh build at θ with the arena's seed would.
  RisEstimator(const RrArena* arena, std::uint64_t theta);

  /// Cuts the θ-set prefix view (sampling the private arena first for a
  /// fresh build) and seeds the cover counts from its cut lengths.
  void Build() override;

  /// n · (# uncovered RR sets containing v) / θ — the unbiased estimate of
  /// the marginal influence of v w.r.t. the current seed set.
  ///
  /// A chosen seed's score is 0 (not its stale pre-selection coverage):
  /// Update eagerly decrements cover_count_ for every member of every
  /// set it deactivates, v included. DCHECK-guarded here.
  double Estimate(VertexId v) override;

  /// Deactivates all RR sets containing v (word-packed active bits) and
  /// decrements the coverage counts of their members.
  void Update(VertexId v) override;

  bool EstimatesAreMarginal() const override { return true; }
  std::uint64_t sample_number() const override { return theta_; }
  const TraversalCounters& counters() const override { return counters_; }
  std::string name() const override { return "RIS"; }

  /// Empirical mean RR-set size (EPT) of the θ sets; requires Build.
  double EmpiricalEpt() const {
    SOLDIST_CHECK(built_);
    return view_->MeanSize();
  }

 private:
  ModelInstance instance_;  // fresh build only
  std::uint64_t seed_ = 0;
  SamplingOptions sampling_;
  std::unique_ptr<RrArena> owned_;  // a fresh build's private arena
  const RrArena* arena_;
  std::uint64_t theta_;
  std::optional<RrPrefixView> view_;
  std::vector<std::uint32_t> cover_count_;  // per vertex, active sets only
  std::vector<std::uint64_t> active_words_;  // packed set-active bits
  std::vector<std::uint8_t> chosen_;  // seeds committed via Update
  TraversalCounters counters_;
  bool built_ = false;
};

}  // namespace soldist

#endif  // SOLDIST_CORE_RIS_H_
