// The shared influence oracle (paper Section 5.2): a large, fixed
// collection of RR sets, reused across all runs of all algorithms on an
// instance so identical seed sets always receive identical influence
// values. The paper uses 10^7 RR sets; the size is a parameter here.
// Coverage estimation n·F_R(S) is diffusion-model-agnostic, so the same
// oracle class serves IC (BFS RR sets) and LT (backward-walk RR sets) —
// the constructor picks the sampler.
//
// The build samples and indexes at the width of the SamplingOptions it is
// given (api::Session passes its pool); its sets, index and answers
// depend only on the seed and the chunk size, never on that width. The
// sets live in the flat payload an RrArena stores (MergeRrShards), but
// without the arena's per-set counter table, which no oracle query reads.
// Every query is const and keeps no scratch, so any number of threads
// may evaluate one oracle at once.

#ifndef SOLDIST_ORACLE_RR_ORACLE_H_
#define SOLDIST_ORACLE_RR_ORACLE_H_

#include <span>
#include <vector>

#include "model/influence_graph.h"
#include "model/lt.h"
#include "sim/sampling_engine.h"
#include "store/arena_storage.h"

namespace soldist {

/// \brief RR-set-based influence oracle with an oracle-greedy reference
/// solver.
class RrOracle {
 public:
  /// Builds an IC oracle with `num_rr_sets` RR sets, sampled and indexed
  /// on `sampling`'s workers (the default runs inline). The sets depend
  /// on sampling.chunk_size, never on the width; sampling.cancel must be
  /// null.
  RrOracle(const InfluenceGraph* ig, std::uint64_t num_rr_sets,
           std::uint64_t seed, const SamplingOptions& sampling = {});

  /// Builds an LT oracle: `num_rr_sets` backward-walk RR sets drawn from
  /// `lt_weights` (which must outlive the oracle), otherwise as above.
  RrOracle(const LtWeights* lt_weights, std::uint64_t num_rr_sets,
           std::uint64_t seed, const SamplingOptions& sampling = {});

  /// Unbiased influence estimate n · F_R(S). Thread-safe.
  double EstimateInfluence(std::span<const VertexId> seeds) const;

  /// Half-width of the 99% confidence interval around an influence
  /// estimate: 1.29 · n / sqrt(#RR sets) (paper Section 5.2 footnote; the
  /// conservative p(1−p) <= 1/4 Bernoulli bound with z_{0.995} = 2.576).
  double ConfidenceInterval99() const;

  /// Greedy on the oracle's own RR sets (lazy max coverage): the
  /// "Exact Greedy" reference against which near-optimality (0.95×) is
  /// judged in Table 5.
  std::vector<VertexId> OracleGreedySeeds(int k) const;

  std::uint64_t num_rr_sets() const { return payload_.size(); }
  /// Ascending ids of the oracle's RR sets containing v.
  std::span<const std::uint32_t> InvertedList(VertexId v) const {
    return payload_.InvertedList(v);
  }
  /// Mean RR-set size: the empirical EPT of Section 3.5.2.
  double EmpiricalEpt() const;
  const InfluenceGraph& influence_graph() const { return *ig_; }

 private:
  const InfluenceGraph* ig_;
  store::RrFlatPayload payload_;
};

}  // namespace soldist

#endif  // SOLDIST_ORACLE_RR_ORACLE_H_
