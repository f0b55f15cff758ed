#include "sim/rr_sampler.h"

#include <memory>
#include <utility>

#include "random/splitmix64.h"
#include "sim/inverted_index.h"

namespace soldist {

RrSampler::RrSampler(const InfluenceGraph* ig)
    : ig_(ig),
      visited_(ig->num_vertices()),
      unmarked_(MaxDegree(ig->graph().in_offsets())) {}

void RrSampler::Sample(Rng* target_rng, Rng* coin_rng,
                       std::vector<VertexId>* out,
                       TraversalCounters* counters) {
  auto target =
      static_cast<VertexId>(target_rng->UniformInt(ig_->num_vertices()));
  SampleForTarget(target, coin_rng, out, counters);
}

void RrSampler::SampleForTarget(VertexId target, Rng* coin_rng,
                                std::vector<VertexId>* out,
                                TraversalCounters* counters) {
  const Graph& g = ig_->graph();
  out->clear();
  visited_.NextEpoch();
  visited_.Mark(target);
  out->push_back(target);
  std::size_t head = 0;
  while (head < out->size()) {
    VertexId v = (*out)[head++];
    counters->vertices += 1;
    const EdgeId begin = g.in_offsets()[v];
    const EdgeId end = g.in_offsets()[v + 1];
    counters->edges += end - begin;
    const VertexId* sources = g.in_sources().data() + begin;
    const double* probs = ig_->in_probabilities().data() + begin;
    const std::uint32_t count = visited_.CollectUnmarked(
        sources, static_cast<std::uint32_t>(end - begin), unmarked_.data());
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t arc = unmarked_[i];
      const VertexId w = sources[arc];
      if (visited_.IsMarked(w)) continue;  // a parallel arc marked it
      if (coin_rng->Bernoulli(probs[arc])) {
        visited_.Mark(w);
        out->push_back(w);
      }
    }
  }
  counters->sample_vertices += out->size();
}

std::vector<RrShard> SampleRrShards(const InfluenceGraph& ig,
                                    std::uint64_t master_seed,
                                    std::uint64_t count,
                                    SamplingEngine* engine,
                                    bool record_per_set) {
  return internal::SampleRrShardsWith(
      [&ig] { return std::make_unique<RrSampler>(&ig); }, master_seed, count,
      engine, record_per_set);
}

store::RrFlatPayload MergeRrShards(VertexId num_vertices,
                                   std::vector<RrShard> shards,
                                   SamplingEngine* engine) {
  std::uint64_t total_sets = 0;
  std::uint64_t total_entries = 0;
  for (const RrShard& shard : shards) {
    total_sets += shard.num_sets();
    total_entries += shard.flat.size();
  }
  store::RrFlatPayload payload;
  payload.set_offsets.reserve(total_sets + 1);
  payload.set_offsets.push_back(0);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    RrShard& shard = shards[s];
    const auto base = static_cast<std::uint64_t>(payload.flat.size());
    if (s == 0) {
      // An inline build's one shard is adopted whole, not copied.
      payload.flat = std::move(shard.flat);
      payload.flat.reserve(total_entries);
    } else {
      payload.flat.insert(payload.flat.end(), shard.flat.begin(),
                          shard.flat.end());
    }
    for (std::uint64_t j = 1; j < shard.offsets.size(); ++j) {
      payload.set_offsets.push_back(base + shard.offsets[j]);
    }
  }
  shards.clear();
  BuildInvertedIndex(num_vertices, payload.flat, payload.set_offsets, engine,
                     &payload.index_ids, &payload.index_offsets);
  return payload;
}

}  // namespace soldist
