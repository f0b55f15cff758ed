#include "core/oneshot.h"

#include "random/splitmix64.h"

namespace soldist {

OneshotEstimator::OneshotEstimator(const InfluenceGraph* ig,
                                   std::uint64_t beta, std::uint64_t seed,
                                   const SamplingOptions& sampling)
    : ig_(ig),
      beta_(beta),
      engine_(sampling),
      call_master_(DeriveSeed(seed, 3)) {
  SOLDIST_CHECK(beta_ >= 1);
}

double OneshotEstimator::Estimate(VertexId v) {
  scratch_.assign(seeds_.begin(), seeds_.end());
  scratch_.push_back(v);
  return EstimateInfluenceSharded(*ig_, scratch_, beta_,
                                  DeriveSeed(call_master_, calls_++),
                                  &engine_, &counters_, &sim_cache_);
}

}  // namespace soldist
