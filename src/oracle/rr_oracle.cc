#include "oracle/rr_oracle.h"

#include <cmath>

#include "sim/lt_samplers.h"
#include "sim/max_coverage.h"
#include "random/splitmix64.h"

namespace soldist {

// Both models draw the oracle's sets through the chunked engine streams
// and index them on the same engine, so the collection is a pure function
// of (`seed`, sampling.chunk_size), whatever the width.
RrOracle::RrOracle(const InfluenceGraph* ig, std::uint64_t num_rr_sets,
                   std::uint64_t seed, const SamplingOptions& sampling)
    : ig_(ig), collection_(ig->num_vertices()) {
  SOLDIST_CHECK(num_rr_sets >= 1);
  SOLDIST_CHECK(sampling.cancel == nullptr) << "an oracle build never stops";
  SamplingEngine engine(sampling);
  collection_.Merge(
      SampleRrShards(*ig, DeriveSeed(seed, 11), num_rr_sets, &engine));
  collection_.BuildIndex(&engine);
}

RrOracle::RrOracle(const LtWeights* lt_weights, std::uint64_t num_rr_sets,
                   std::uint64_t seed, const SamplingOptions& sampling)
    : ig_(&lt_weights->influence_graph()),
      collection_(ig_->num_vertices()) {
  SOLDIST_CHECK(num_rr_sets >= 1);
  SOLDIST_CHECK(sampling.cancel == nullptr) << "an oracle build never stops";
  SamplingEngine engine(sampling);
  collection_.Merge(SampleLtRrShards(*lt_weights, DeriveSeed(seed, 11),
                                     num_rr_sets, &engine));
  collection_.BuildIndex(&engine);
}

double RrOracle::EstimateInfluence(std::span<const VertexId> seeds) const {
  std::uint64_t covered = collection_.CountCovered(seeds);
  return static_cast<double>(ig_->num_vertices()) *
         static_cast<double>(covered) /
         static_cast<double>(collection_.size());
}

double RrOracle::ConfidenceInterval99() const {
  return 1.29 * static_cast<double>(ig_->num_vertices()) /
         std::sqrt(static_cast<double>(collection_.size()));
}

std::vector<VertexId> RrOracle::OracleGreedySeeds(int k) const {
  // Deterministic lazy max coverage on the oracle collection (ties break
  // toward smaller ids, so the reference is reproducible).
  return GreedyMaxCoverage(collection_, k).seeds;
}

}  // namespace soldist
