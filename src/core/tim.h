// TIM+-style sample-number determination (Tang, Xiao & Shi 2014), the
// canonical RIS stopping rule the paper discusses in Section 3.5.3: pick
// θ so that a (1−1/e−ε)-approximation holds with probability 1 − n^−ℓ,
// using a KPT estimate (the expected fraction-covered statistic of random
// RR sets) as the OPT_k lower bound.

#ifndef SOLDIST_CORE_TIM_H_
#define SOLDIST_CORE_TIM_H_

#include <vector>

#include "core/greedy.h"
#include "model/influence_graph.h"
#include "sim/counters.h"
#include "sim/sampling_engine.h"

namespace soldist {

/// Parameters of the TIM+ determination.
struct TimParams {
  int k = 1;
  double epsilon = 0.1;  ///< approximation slack ε
  double ell = 1.0;      ///< failure probability exponent: δ = n^−ℓ
};

/// Output of RunTimPlus.
struct TimResult {
  /// KPT* — the estimated lower bound on OPT_k (paper [70] Algorithm 2).
  double kpt = 0.0;
  /// θ — the derived RR-set count λ/KPT*.
  std::uint64_t theta = 0;
  /// Greedy seeds from a fresh RIS estimator with that θ.
  GreedyRunResult greedy;
  /// RR sets generated during KPT estimation (measurement overhead).
  std::uint64_t kpt_rr_sets = 0;
  /// Total traversal cost (KPT estimation + final build + selection).
  TraversalCounters counters;
};

/// \brief Estimates KPT (Tang et al. Algorithm 2).
///
/// Round i draws c_i = (6ℓ·ln n + 6·ln log2 n)·2^i RR sets and computes
/// the mean of κ(R) = 1 − (1 − w(R)/m)^k, where w(R) is the RR set's
/// in-degree weight; it stops when the mean exceeds 2^−i and returns
/// KPT* = n · mean / 2. Returns 1.0 when all rounds fail (KPT >= 1
/// always: a seed activates itself).
/// Each round's c_i RR sets are drawn through the engine's chunked
/// deterministic streams; κ(R) terms are summed in sample order, so KPT*
/// is worker-count-independent.
double EstimateKpt(const InfluenceGraph& ig, const TimParams& params,
                   std::uint64_t seed, std::uint64_t* rr_sets_used,
                   TraversalCounters* counters,
                   const SamplingOptions& sampling = {});

/// λ(ε, k, ℓ, n) = (8 + 2ε) n (ℓ ln n + ln C(n,k) + ln 2) ε^−2: the TIM+
/// numerator; θ = λ / KPT.
double TimLambda(const InfluenceGraph& ig, const TimParams& params);

/// \brief End-to-end TIM+: estimate KPT, derive θ, select seeds with the
/// RIS estimator through the standard greedy framework.
TimResult RunTimPlus(const InfluenceGraph& ig, const TimParams& params,
                     std::uint64_t seed,
                     const SamplingOptions& sampling = {});

}  // namespace soldist

#endif  // SOLDIST_CORE_TIM_H_
