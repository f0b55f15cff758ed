#include "core/factory.h"

#include "core/oneshot.h"
#include "core/ris.h"

namespace soldist {

std::unique_ptr<InfluenceEstimator> MakeEstimator(
    const ModelInstance& instance, Approach approach,
    std::uint64_t sample_number, std::uint64_t seed,
    SnapshotEstimator::Mode snapshot_mode, const SamplingOptions& sampling) {
  SOLDIST_CHECK(instance.ig != nullptr);
  SOLDIST_CHECK(instance.model != DiffusionModel::kLt ||
                instance.lt_weights != nullptr)
      << "LT instance without LtWeights — resolve it through "
         "InstanceRegistry::GetModelInstance or ModelInstance::Lt";
  switch (approach) {
    case Approach::kOneshot:
      return std::make_unique<OneshotEstimator>(instance, sample_number, seed,
                                                sampling);
    case Approach::kSnapshot:
      return std::make_unique<SnapshotEstimator>(
          instance, sample_number, seed, snapshot_mode, sampling);
    case Approach::kRis:
      return std::make_unique<RisEstimator>(instance, sample_number, seed,
                                            sampling);
  }
  SOLDIST_CHECK(false) << "unreachable";
  return nullptr;
}

}  // namespace soldist
