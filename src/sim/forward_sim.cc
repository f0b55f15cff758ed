#include "sim/forward_sim.h"

#include "random/splitmix64.h"

namespace soldist {

ForwardSimulator::ForwardSimulator(const InfluenceGraph* ig)
    : ig_(ig),
      active_(ig->num_vertices()),
      inactive_(MaxDegree(ig->graph().out_offsets())) {
  queue_.reserve(ig->num_vertices());
}

std::uint32_t ForwardSimulator::Simulate(std::span<const VertexId> seeds,
                                         Rng* rng,
                                         TraversalCounters* counters) {
  const Graph& g = ig_->graph();
  active_.NextEpoch();
  queue_.clear();
  for (VertexId s : seeds) {
    if (active_.Mark(s)) queue_.push_back(s);
  }
  std::size_t head = 0;
  while (head < queue_.size()) {
    VertexId u = queue_[head++];
    // Scan u: one vertex examination plus all of its out-edges.
    counters->vertices += 1;
    const EdgeId begin = g.out_offsets()[u];
    const EdgeId end = g.out_offsets()[u + 1];
    counters->edges += end - begin;
    // Arcs to already-active targets get no coin: it would be moot.
    const VertexId* targets = g.out_targets().data() + begin;
    const double* probs = ig_->out_probabilities().data() + begin;
    const std::uint32_t count = active_.CollectUnmarked(
        targets, static_cast<std::uint32_t>(end - begin), inactive_.data());
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t arc = inactive_[i];
      const VertexId v = targets[arc];
      if (active_.IsMarked(v)) continue;  // a parallel arc activated it
      if (rng->Bernoulli(probs[arc])) {
        active_.Mark(v);
        queue_.push_back(v);
      }
    }
  }
  return static_cast<std::uint32_t>(queue_.size());
}

std::vector<VertexId> ForwardSimulator::SimulateSet(
    std::span<const VertexId> seeds, Rng* rng, TraversalCounters* counters) {
  Simulate(seeds, rng, counters);
  return queue_;
}

double ForwardSimulator::EstimateInfluence(std::span<const VertexId> seeds,
                                           std::uint64_t runs, Rng* rng,
                                           TraversalCounters* counters) {
  SOLDIST_CHECK(runs > 0);
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < runs; ++i) {
    total += Simulate(seeds, rng, counters);
  }
  return static_cast<double>(total) / static_cast<double>(runs);
}

double EstimateInfluenceSharded(const InfluenceGraph& ig,
                                std::span<const VertexId> seeds,
                                std::uint64_t runs, std::uint64_t master_seed,
                                SamplingEngine* engine,
                                TraversalCounters* counters,
                                ForwardSimulatorCache* cache) {
  SOLDIST_CHECK(runs > 0);
  const std::uint64_t num_chunks = engine->NumChunks(runs);
  ForwardSimulatorCache local_cache;
  ForwardSimulatorCache& sims = cache != nullptr ? *cache : local_cache;
  if (sims.size() < engine->num_workers()) {
    sims.resize(engine->num_workers());
  }
  std::vector<std::uint64_t> totals(num_chunks, 0);
  std::vector<TraversalCounters> chunk_counters(num_chunks);
  engine->Run(master_seed, runs,
              [&](const SamplingEngine::Chunk& chunk, std::size_t slot) {
    if (sims[slot] == nullptr) {
      sims[slot] = std::make_unique<ForwardSimulator>(&ig);
    }
    Rng rng(DeriveSeed(chunk.seed, 1));
    for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
      totals[chunk.index] +=
          sims[slot]->Simulate(seeds, &rng, &chunk_counters[chunk.index]);
    }
  });
  std::uint64_t total = 0;
  for (std::uint64_t t : totals) total += t;
  if (counters != nullptr) *counters += MergeCounters(chunk_counters);
  return static_cast<double>(total) / static_cast<double>(runs);
}

}  // namespace soldist
