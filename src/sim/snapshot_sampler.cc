#include "sim/snapshot_sampler.h"

#include <memory>

#include "random/splitmix64.h"

namespace soldist {

SnapshotSampler::SnapshotSampler(const InfluenceGraph* ig)
    : ig_(ig), visited_(ig->num_vertices()) {
  queue_.reserve(ig->num_vertices());
}

Snapshot SnapshotSampler::Sample(Rng* rng, TraversalCounters* counters) {
  Snapshot snap;
  SampleInto(rng, counters, &snap);
  return snap;
}

void SnapshotSampler::SampleInto(Rng* rng, TraversalCounters* counters,
                                 Snapshot* out) {
  const Graph& g = ig_->graph();
  const VertexId n = g.num_vertices();
  out->out_offsets.resize(static_cast<std::size_t>(n) + 1);
  out->out_targets.clear();
  out->out_targets.reserve(
      static_cast<std::size_t>(ig_->SumProbabilities()) + 16);
  out->out_offsets[0] = 0;
  for (VertexId u = 0; u < n; ++u) {
    const EdgeId begin = g.out_offsets()[u];
    const EdgeId end = g.out_offsets()[u + 1];
    for (EdgeId e = begin; e < end; ++e) {
      if (rng->Bernoulli(ig_->OutProbability(e))) {
        out->out_targets.push_back(g.out_targets()[e]);
      }
    }
    out->out_offsets[u + 1] = static_cast<EdgeId>(out->out_targets.size());
  }
  counters->sample_edges += out->num_live_edges();
}

std::uint32_t SnapshotSampler::CountReachable(const Snapshot& snapshot,
                                              std::span<const VertexId> seeds,
                                              TraversalCounters* counters) {
  visited_.NextEpoch();
  queue_.clear();
  for (VertexId s : seeds) {
    if (visited_.Mark(s)) queue_.push_back(s);
  }
  std::size_t head = 0;
  while (head < queue_.size()) {
    VertexId u = queue_[head++];
    counters->vertices += 1;
    const EdgeId begin = snapshot.out_offsets[u];
    const EdgeId end = snapshot.out_offsets[u + 1];
    counters->edges += end - begin;
    for (EdgeId e = begin; e < end; ++e) {
      VertexId w = snapshot.out_targets[e];
      if (visited_.Mark(w)) queue_.push_back(w);
    }
  }
  return static_cast<std::uint32_t>(queue_.size());
}

std::vector<SnapshotShard> SampleSnapshotShards(const InfluenceGraph& ig,
                                                std::uint64_t master_seed,
                                                std::uint64_t count,
                                                SamplingEngine* engine) {
  return internal::SampleSnapshotShardsWith(
      [&ig] { return std::make_unique<SnapshotSampler>(&ig); }, master_seed,
      count, engine);
}

}  // namespace soldist
