#include "core/oneshot.h"

#include "random/splitmix64.h"

namespace soldist {

OneshotEstimator::OneshotEstimator(const ModelInstance& instance,
                                   std::uint64_t beta, std::uint64_t seed,
                                   const SamplingOptions& sampling)
    : ig_(instance.ig),
      model_(instance.model),
      beta_(beta),
      engine_(sampling),
      call_master_(DeriveSeed(seed, 3)) {
  SOLDIST_CHECK(ig_ != nullptr);
  SOLDIST_CHECK(beta_ >= 1);
}

double OneshotEstimator::Estimate(VertexId v) {
  scratch_.assign(seeds_.begin(), seeds_.end());
  scratch_.push_back(v);
  const std::uint64_t call_seed = DeriveSeed(call_master_, calls_++);
  if (model_ == DiffusionModel::kLt) {
    return EstimateLtInfluenceSharded(*ig_, scratch_, beta_, call_seed,
                                      &engine_, &counters_, &lt_sim_cache_);
  }
  return EstimateInfluenceSharded(*ig_, scratch_, beta_, call_seed,
                                  &engine_, &counters_, &sim_cache_);
}

}  // namespace soldist
