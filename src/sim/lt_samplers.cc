#include "sim/lt_samplers.h"

#include <algorithm>
#include <memory>

#include "random/splitmix64.h"

namespace soldist {

LtSnapshotSampler::LtSnapshotSampler(const LtWeights* weights)
    : weights_(weights) {
  const Graph& g = weights_->influence_graph().graph();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.in_offsets()[v + 1] > g.in_offsets()[v]) ++draws_per_world_;
  }
}

Snapshot LtSnapshotSampler::Sample(Rng* rng, TraversalCounters* counters) {
  Snapshot snap;
  SampleInto(rng, counters, &snap);
  return snap;
}

void LtSnapshotSampler::SampleInto(Rng* rng, TraversalCounters* counters,
                                   Snapshot* out) {
  const InfluenceGraph& ig = weights_->influence_graph();
  const Graph& g = ig.graph();
  const VertexId n = g.num_vertices();

  scratch_arcs_.clear();
  for (VertexId v = 0; v < n; ++v) {
    // Build work, counted like the RR walk: one vertex examination per
    // SampleLiveInEdge, one edge examination per kept live edge.
    counters->vertices += 1;
    EdgeId pos = weights_->SampleLiveInEdge(v, rng);
    if (pos == LtWeights::kNoInEdge) continue;
    counters->edges += 1;
    scratch_arcs_.push_back({g.in_sources()[pos], v});
  }
  // Counting sort by source into the out-CSR snapshot.
  out->out_offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Arc& a : scratch_arcs_) {
    ++out->out_offsets[static_cast<std::size_t>(a.src) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    out->out_offsets[v + 1] += out->out_offsets[v];
  }
  out->out_targets.resize(scratch_arcs_.size());
  cursor_.assign(out->out_offsets.begin(), out->out_offsets.end() - 1);
  for (const Arc& a : scratch_arcs_) {
    out->out_targets[cursor_[a.src]++] = a.dst;
  }
  counters->sample_edges += out->num_live_edges();
}

LtRrSampler::LtRrSampler(const LtWeights* weights)
    : weights_(weights),
      visited_(weights->influence_graph().num_vertices()) {}

void LtRrSampler::Sample(Rng* target_rng, Rng* coin_rng,
                         std::vector<VertexId>* out,
                         TraversalCounters* counters) {
  auto target = static_cast<VertexId>(target_rng->UniformInt(
      weights_->influence_graph().num_vertices()));
  SampleForTarget(target, coin_rng, out, counters);
}

void LtRrSampler::SampleForTarget(VertexId target, Rng* coin_rng,
                                  std::vector<VertexId>* out,
                                  TraversalCounters* counters) {
  const Graph& g = weights_->influence_graph().graph();
  out->clear();
  visited_.NextEpoch();
  visited_.Mark(target);
  out->push_back(target);
  VertexId current = target;
  while (true) {
    counters->vertices += 1;
    EdgeId pos = weights_->SampleLiveInEdge(current, coin_rng);
    if (pos == LtWeights::kNoInEdge) break;
    counters->edges += 1;
    VertexId u = g.in_sources()[pos];
    if (!visited_.Mark(u)) break;  // walked into a cycle: stop
    out->push_back(u);
    current = u;
  }
  counters->sample_vertices += out->size();
}

std::vector<RrShard> SampleLtRrShards(const LtWeights& weights,
                                      std::uint64_t master_seed,
                                      std::uint64_t count,
                                      SamplingEngine* engine,
                                      bool record_per_set) {
  return internal::SampleRrShardsWith(
      [&weights] { return std::make_unique<LtRrSampler>(&weights); },
      master_seed, count, engine, record_per_set);
}

std::vector<SnapshotShard> SampleLtSnapshotShards(const LtWeights& weights,
                                                  std::uint64_t master_seed,
                                                  std::uint64_t count,
                                                  SamplingEngine* engine) {
  return internal::SampleSnapshotShardsWith(
      [&weights] { return std::make_unique<LtSnapshotSampler>(&weights); },
      master_seed, count, engine);
}

std::vector<SnapshotShard> SampleSnapshotShardsFor(
    const ModelInstance& instance, std::uint64_t master_seed,
    std::uint64_t count, SamplingEngine* engine) {
  SOLDIST_CHECK(instance.ig != nullptr);
  if (instance.model == DiffusionModel::kLt) {
    SOLDIST_CHECK(instance.lt_weights != nullptr)
        << "LT instance without LtWeights";
    return SampleLtSnapshotShards(*instance.lt_weights, master_seed, count,
                                  engine);
  }
  return SampleSnapshotShards(*instance.ig, master_seed, count, engine);
}

}  // namespace soldist
