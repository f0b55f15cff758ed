#include "core/tim.h"

#include <cmath>
#include <span>

#include "core/bounds.h"
#include "core/ris.h"
#include "random/splitmix64.h"
#include "sim/rr_sampler.h"

namespace soldist {

double EstimateKpt(const InfluenceGraph& ig, const TimParams& params,
                   std::uint64_t seed, std::uint64_t* rr_sets_used,
                   TraversalCounters* counters,
                   const SamplingOptions& sampling) {
  const auto n = static_cast<double>(ig.num_vertices());
  const auto m = static_cast<double>(ig.num_edges());
  SOLDIST_CHECK(ig.num_edges() > 0);

  std::uint64_t used = 0;
  // Accumulated locally so a null `counters` is safe.
  TraversalCounters local_counters;
  SamplingEngine engine(sampling);

  // κ(R) = 1 − (1 − w(R)/m)^k with w(R) = Σ_{v∈R} d−(v).
  auto kappa = [&](std::span<const VertexId> set) {
    double width = 0.0;
    for (VertexId v : set) {
      width += static_cast<double>(ig.graph().InDegree(v));
    }
    return 1.0 - std::pow(1.0 - width / m, static_cast<double>(params.k));
  };

  const double log_n = std::log(n);
  const double log2_n = std::log2(n);
  const int max_rounds = std::max(1, static_cast<int>(log2_n) - 1);
  double kpt = 1.0;
  for (int i = 1; i <= max_rounds; ++i) {
    const auto c_i = static_cast<std::uint64_t>(
        std::ceil((6.0 * params.ell * log_n + 6.0 * std::log(log2_n)) *
                  std::pow(2.0, i)));
    // One engine batch per round; κ terms are reduced shard-by-shard in
    // chunk order, keeping the float sum worker-count-independent.
    // Per-round chunk masters start at index 25, past RunTimPlus's RIS
    // build and tie-breaking seeds (23/24): every derived index must stay
    // distinct.
    double kappa_sum = 0.0;
    std::vector<RrShard> shards = SampleRrShards(
        ig, DeriveSeed(seed, 25 + static_cast<std::uint64_t>(i)), c_i,
        &engine);
    for (const RrShard& shard : shards) {
      local_counters += shard.counters;
      for (std::uint64_t s = 0; s < shard.num_sets(); ++s) {
        kappa_sum += kappa(std::span<const VertexId>(
            shard.flat.data() + shard.offsets[s],
            shard.flat.data() + shard.offsets[s + 1]));
      }
    }
    used += c_i;
    double mean_kappa = kappa_sum / static_cast<double>(c_i);
    if (mean_kappa > 1.0 / std::pow(2.0, i)) {
      kpt = n * mean_kappa / 2.0;
      break;
    }
  }
  if (rr_sets_used != nullptr) *rr_sets_used = used;
  if (counters != nullptr) *counters += local_counters;
  return std::max(kpt, 1.0);  // OPT_k >= 1: a seed activates itself
}

double TimLambda(const InfluenceGraph& ig, const TimParams& params) {
  const auto n = static_cast<double>(ig.num_vertices());
  return (8.0 + 2.0 * params.epsilon) * n *
         (params.ell * std::log(n) +
          LogBinomial(ig.num_vertices(), params.k) + std::log(2.0)) /
         (params.epsilon * params.epsilon);
}

TimResult RunTimPlus(const InfluenceGraph& ig, const TimParams& params,
                     std::uint64_t seed, const SamplingOptions& sampling) {
  SOLDIST_CHECK(params.k >= 1);
  SOLDIST_CHECK(params.epsilon > 0.0 && params.epsilon < 1.0);
  TimResult result;
  result.kpt = EstimateKpt(ig, params, seed, &result.kpt_rr_sets,
                           &result.counters, sampling);
  double theta_real = TimLambda(ig, params) / result.kpt;
  result.theta =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(theta_real));

  RisEstimator estimator(ModelInstance::Ic(&ig), result.theta,
                         DeriveSeed(seed, 23), sampling);
  Rng tie_rng(DeriveSeed(seed, 24));
  result.greedy =
      RunGreedy(&estimator, ig.num_vertices(), params.k, &tie_rng);
  result.counters += estimator.counters();
  return result;
}

}  // namespace soldist
