#include "core/imm.h"

#include <cmath>

#include "core/bounds.h"
#include "random/splitmix64.h"
#include "sim/rr_sampler.h"

namespace soldist {
namespace {

/// λ' of IMM Theorem 2: the RR-set count needed at guess x so that the
/// greedy cover either certifies OPT >= x/(1+ε') or the guess halves.
double LambdaPrime(double n, double ell, double eps_prime,
                   double log_binom) {
  double log_n = std::log(n);
  return (2.0 + 2.0 / 3.0 * eps_prime) *
         (log_binom + ell * log_n + std::log(std::log2(n))) * n /
         (eps_prime * eps_prime);
}

/// λ* of IMM Equation (6): the final RR-set count numerator.
double LambdaStar(double n, double ell, double epsilon, double log_binom) {
  double log_n = std::log(n);
  double alpha = std::sqrt(ell * log_n + std::log(2.0));
  double beta =
      std::sqrt((1.0 - 1.0 / M_E) * (log_binom + ell * log_n + std::log(2.0)));
  double factor = (1.0 - 1.0 / M_E) * alpha + beta;
  return 2.0 * n * factor * factor / (epsilon * epsilon);
}

}  // namespace

ImmResult RunImm(const InfluenceGraph& ig, const ImmParams& params,
                 std::uint64_t seed, const SamplingOptions& sampling) {
  SOLDIST_CHECK(params.k >= 1);
  SOLDIST_CHECK(static_cast<VertexId>(params.k) <= ig.num_vertices());
  SOLDIST_CHECK(params.epsilon > 0.0 && params.epsilon < 1.0);

  const double n = static_cast<double>(ig.num_vertices());
  const double log_binom = LogBinomial(ig.num_vertices(), params.k);
  const double eps_prime = std::sqrt(2.0) * params.epsilon;

  RrCollection collection(ig.num_vertices());

  ImmResult result;
  SamplingEngine engine(sampling);
  // Each sample_until call is one engine batch with a fresh master seed:
  // the call sequence is data-dependent but deterministic, so chunk
  // streams — and thus the whole run — stay worker-count-independent.
  std::uint64_t batch = 0;
  auto sample_until = [&](std::uint64_t count) {
    if (count <= collection.size()) return;
    std::vector<RrShard> shards =
        SampleRrShards(ig, DeriveSeed(seed, 33 + batch++),
                       count - collection.size(), &engine);
    for (const RrShard& shard : shards) result.counters += shard.counters;
    collection.Merge(std::move(shards));
  };

  // --- Sampling phase (Algorithm 2): guess OPT as n/2^i. ---
  double lb = 1.0;
  const double lambda_prime =
      LambdaPrime(n, params.ell, eps_prime, log_binom);
  const int max_rounds =
      std::max(1, static_cast<int>(std::log2(n)) - 1);
  for (int i = 1; i <= max_rounds; ++i) {
    ++result.guessing_rounds;
    const double x = n / std::pow(2.0, i);
    const auto theta_i =
        static_cast<std::uint64_t>(std::ceil(lambda_prime / x));
    sample_until(theta_i);
    collection.BuildIndex(&engine);
    MaxCoverageResult cover = GreedyMaxCoverage(collection, params.k);
    double estimate = n * cover.Fraction(collection.size());
    if (estimate >= (1.0 + eps_prime) * x) {
      lb = estimate / (1.0 + eps_prime);
      break;
    }
  }
  result.opt_lower_bound = lb;

  // --- Final sampling + node selection (Algorithms 1 & 3). ---
  const double lambda_star =
      LambdaStar(n, params.ell, params.epsilon, log_binom);
  result.theta = std::max<std::uint64_t>(
      collection.size(),
      static_cast<std::uint64_t>(std::ceil(lambda_star / lb)));
  sample_until(result.theta);
  collection.BuildIndex(&engine);
  MaxCoverageResult cover = GreedyMaxCoverage(collection, params.k);
  result.seeds = std::move(cover.seeds);
  result.estimated_influence = n * cover.Fraction(collection.size());
  return result;
}

}  // namespace soldist
