// Estimator factory: one call site for "give me approach X at sample
// number s under diffusion model M" used by the experiment harness, the
// adaptive selector, and the examples. There is one estimator class per
// approach; the model travels inside the ModelInstance down to sim/'s
// samplers and simulators.

#ifndef SOLDIST_CORE_FACTORY_H_
#define SOLDIST_CORE_FACTORY_H_

#include <memory>

#include "core/estimator.h"
#include "core/snapshot.h"
#include "model/diffusion.h"
#include "sim/sampling_engine.h"

namespace soldist {

/// Creates the estimator for one run under `instance`'s diffusion model.
/// `sampling` selects the sampling parallelism; every estimator draws
/// through the chunked deterministic streams, so it never changes a
/// result (see SamplingOptions). `snapshot_mode` picks the Snapshot
/// reachability backend under either model; like the worker count it
/// changes only the cost, never the seeds or estimates.
std::unique_ptr<InfluenceEstimator> MakeEstimator(
    const ModelInstance& instance, Approach approach,
    std::uint64_t sample_number, std::uint64_t seed,
    SnapshotEstimator::Mode snapshot_mode = SnapshotEstimator::Mode::kResidual,
    const SamplingOptions& sampling = {});

}  // namespace soldist

#endif  // SOLDIST_CORE_FACTORY_H_
