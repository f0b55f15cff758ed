// RIS — Reverse Influence Sampling (paper Algorithm 3.4, Borgs et al.):
// θ RR sets drawn in Build turn influence maximization into maximum
// coverage. Estimate(v) is the marginal coverage n·F_R(v); Update removes
// the RR sets covered by the new seed.
//
// Build parallelism: the θ RR sets are drawn through SamplingEngine's
// deterministic chunked streams (inline on the calling thread by default)
// and merged shard-by-shard into the collection, so the build is
// byte-identical at any worker count.

#ifndef SOLDIST_CORE_RIS_H_
#define SOLDIST_CORE_RIS_H_

#include <vector>

#include "core/estimator.h"
#include "model/influence_graph.h"
#include "sim/rr_arena.h"
#include "sim/rr_sampler.h"
#include "sim/sampling_engine.h"

namespace soldist {

/// \brief The RIS estimator.
class RisEstimator : public InfluenceEstimator {
 public:
  /// \param theta number of RR sets (must be >= 1)
  RisEstimator(const InfluenceGraph* ig, std::uint64_t theta,
               std::uint64_t seed, const SamplingOptions& sampling = {});

  /// Draws the θ RR sets (two PRNG streams per chunk: targets and edge
  /// coins, as in paper Section 4.1) and builds coverage counts.
  void Build() override;

  /// n · (# uncovered RR sets containing v) / θ — the unbiased estimate of
  /// the marginal influence of v w.r.t. the current seed set.
  ///
  /// A chosen seed's score is 0 (not its stale pre-selection coverage):
  /// Update eagerly decrements cover_count_ for every member of every
  /// set it deactivates, v included. DCHECK-guarded here.
  double Estimate(VertexId v) override;

  /// Deactivates all RR sets containing v and decrements the coverage
  /// counts of their members.
  void Update(VertexId v) override;

  bool EstimatesAreMarginal() const override { return true; }
  std::uint64_t sample_number() const override { return theta_; }
  const TraversalCounters& counters() const override { return counters_; }
  std::string name() const override { return "RIS"; }

  /// Empirical mean RR-set size (EPT); valid after Build.
  double EmpiricalEpt() const { return collection_.MeanSize(); }

 private:
  const InfluenceGraph* ig_;
  std::uint64_t theta_;
  std::uint64_t seed_;
  SamplingOptions sampling_;
  RrCollection collection_;
  std::vector<std::uint32_t> cover_count_;  // per vertex, active sets only
  std::vector<std::uint8_t> set_active_;
  std::vector<std::uint8_t> chosen_;  // seeds committed via Update
  TraversalCounters counters_;
  bool built_ = false;
};

/// \brief RIS served from a prefix of a pre-sampled RrArena instead of a
/// fresh build — the sweep-reuse fast path (IC and LT alike; the arena
/// already carries the model's RR sets).
///
/// Byte-identical contract: for an arena sampled with seed S and options
/// O, ArenaRisEstimator(arena, θ) produces the same Estimate sequence,
/// Update effects, and counters as RisEstimator(ig, θ, S, O) /
/// LtRisEstimator(weights, θ, S, O) — the arena's prefix IS that
/// estimator's collection (sim/rr_arena.h), the marginal-coverage
/// arithmetic is identical, and counters() returns the prefix's exact
/// sampling cost. Enforced by ctest (sweep_reuse_test, api_test).
///
/// Mechanically it is the word-packed variant: set-active state lives in
/// packed uint64 words and set ids flow through the arena's 32-bit
/// vertex-major index, so Update touches half the bytes RisEstimator
/// does.
class ArenaRisEstimator : public InfluenceEstimator {
 public:
  /// \param theta prefix length (1 <= theta <= arena->capacity());
  /// `arena` must outlive the estimator.
  ArenaRisEstimator(const RrArena* arena, std::uint64_t theta);

  /// Cuts the prefix view and seeds cover counts from its cut lengths —
  /// O(n log) instead of a pass over the collection; no sampling happens.
  void Build() override;

  /// n · (# uncovered prefix sets containing v) / θ, exactly as
  /// RisEstimator::Estimate.
  double Estimate(VertexId v) override;

  /// Deactivates the prefix sets containing v (word-packed) and
  /// decrements the coverage counts of their members.
  void Update(VertexId v) override;

  bool EstimatesAreMarginal() const override { return true; }
  std::uint64_t sample_number() const override { return theta_; }
  const TraversalCounters& counters() const override { return counters_; }
  std::string name() const override { return "RIS"; }

  /// Empirical mean RR-set size of the prefix (EPT).
  double EmpiricalEpt() const { return view_.MeanSize(); }

 private:
  const RrArena* arena_;
  std::uint64_t theta_;
  RrPrefixView view_;
  std::vector<std::uint32_t> cover_count_;  // per vertex, active sets only
  std::vector<std::uint64_t> active_words_;  // packed set-active bits
  std::vector<std::uint8_t> chosen_;
  TraversalCounters counters_;
  bool built_ = false;
};

}  // namespace soldist

#endif  // SOLDIST_CORE_RIS_H_
