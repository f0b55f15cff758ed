#include "core/estimator.h"

#include "util/logging.h"

namespace soldist {

void InfluenceEstimator::EstimateAll(std::span<const VertexId> candidates,
                                     std::span<double> out) {
  SOLDIST_CHECK(out.size() == candidates.size());
  for (std::size_t j = 0; j < candidates.size(); ++j) {
    out[j] = Estimate(candidates[j]);
  }
}

double InfluenceEstimator::InitialBound(VertexId /*v*/) {
  SOLDIST_CHECK(false)
      << "InitialBound called on an estimator without "
         "ProvidesInitialBounds() — the CELF driver must fall back to "
         "exact initial estimates";
  return 0.0;
}

std::string ApproachName(Approach approach) {
  switch (approach) {
    case Approach::kOneshot:
      return "Oneshot";
    case Approach::kSnapshot:
      return "Snapshot";
    case Approach::kRis:
      return "RIS";
  }
  return "?";
}

}  // namespace soldist
