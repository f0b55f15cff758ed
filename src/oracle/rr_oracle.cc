#include "oracle/rr_oracle.h"

#include <cmath>

#include "random/splitmix64.h"
#include "sim/lt_samplers.h"
#include "sim/max_coverage.h"
#include "sim/rr_sampler.h"

namespace soldist {

// Both models draw the oracle's sets through the chunked engine streams
// and index them on the same engine, so the payload is a pure function of
// (`seed`, sampling.chunk_size), whatever the width.
RrOracle::RrOracle(const InfluenceGraph* ig, std::uint64_t num_rr_sets,
                   std::uint64_t seed, const SamplingOptions& sampling)
    : ig_(ig) {
  SOLDIST_CHECK(num_rr_sets >= 1);
  SOLDIST_CHECK(sampling.cancel == nullptr) << "an oracle build never stops";
  SamplingEngine engine(sampling);
  payload_ = MergeRrShards(
      ig->num_vertices(),
      SampleRrShards(*ig, DeriveSeed(seed, 11), num_rr_sets, &engine),
      &engine);
}

RrOracle::RrOracle(const LtWeights* lt_weights, std::uint64_t num_rr_sets,
                   std::uint64_t seed, const SamplingOptions& sampling)
    : ig_(&lt_weights->influence_graph()) {
  SOLDIST_CHECK(num_rr_sets >= 1);
  SOLDIST_CHECK(sampling.cancel == nullptr) << "an oracle build never stops";
  SamplingEngine engine(sampling);
  payload_ = MergeRrShards(ig_->num_vertices(),
                           SampleLtRrShards(*lt_weights, DeriveSeed(seed, 11),
                                            num_rr_sets, &engine),
                           &engine);
}

double RrOracle::EstimateInfluence(std::span<const VertexId> seeds) const {
  return static_cast<double>(ig_->num_vertices()) *
         static_cast<double>(CountCovered(payload_, seeds)) /
         static_cast<double>(payload_.size());
}

double RrOracle::ConfidenceInterval99() const {
  return 1.29 * static_cast<double>(ig_->num_vertices()) /
         std::sqrt(static_cast<double>(payload_.size()));
}

std::vector<VertexId> RrOracle::OracleGreedySeeds(int k) const {
  // Deterministic lazy max coverage on the oracle's sets (ties break
  // toward smaller ids, so the reference is reproducible).
  return GreedyMaxCoverage(payload_, k).seeds;
}

double RrOracle::EmpiricalEpt() const {
  return static_cast<double>(payload_.flat.size()) /
         static_cast<double>(payload_.size());
}

}  // namespace soldist
