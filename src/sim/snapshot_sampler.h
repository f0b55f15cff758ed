// Snapshot sampling (paper Section 3.4): live-edge random graphs G(i) ~ G
// generated once in Build and shared across the greedy selection.

#ifndef SOLDIST_SIM_SNAPSHOT_SAMPLER_H_
#define SOLDIST_SIM_SNAPSHOT_SAMPLER_H_

#include <memory>
#include <vector>

#include "graph/traversal.h"
#include "model/influence_graph.h"
#include "random/rng.h"
#include "random/splitmix64.h"
#include "sim/counters.h"
#include "sim/sampling_engine.h"

namespace soldist {

/// \brief One live-edge random graph in CSR form.
struct Snapshot {
  std::vector<EdgeId> out_offsets;    // size n+1
  std::vector<VertexId> out_targets;  // live edges only

  EdgeId num_live_edges() const {
    return static_cast<EdgeId>(out_targets.size());
  }
};

/// \brief Samples snapshots and answers reachability on them.
class SnapshotSampler {
 public:
  explicit SnapshotSampler(const InfluenceGraph* ig);

  /// Draws one snapshot: every edge e kept independently with p(e).
  ///
  /// Accounting: stored live edges are *sample size* (counters->
  /// sample_edges); the coin flip per edge is Build work the paper
  /// excludes from the traversal cost ("Build touches each edge only τ
  /// times, which does not dominate", Section 3.4.2).
  Snapshot Sample(Rng* rng, TraversalCounters* counters);

  /// Sample into a caller-owned snapshot, reusing its buffers — the
  /// condensed build discards each raw CSR right after condensing it, so
  /// one scratch snapshot serves the whole loop.
  void SampleInto(Rng* rng, TraversalCounters* counters, Snapshot* out);

  /// Engine words one Sample/SampleInto call draws: one coin per arc, m.
  /// A snapshot build enters a chunk's stream mid-chunk by skipping a
  /// multiple of it (Rng::Discard).
  std::uint64_t DrawsPerWorld() const { return ig_->graph().num_edges(); }

  /// r_G(i)(seeds): vertices reachable from `seeds` in `snapshot`.
  ///
  /// Accounting: each reached vertex is scanned (+1 vertex) and its *live*
  /// out-edges are examined (+live-degree edges) — the m̃/m edge-cost
  /// factor of Section 5.3.2 comes from scanning live edges only.
  std::uint32_t CountReachable(const Snapshot& snapshot,
                               std::span<const VertexId> seeds,
                               TraversalCounters* counters);

 private:
  const InfluenceGraph* ig_;
  VisitedMarker visited_;
  std::vector<VertexId> queue_;
};

/// \brief A run of consecutive snapshots, produced by SampleSnapshotShards.
struct SnapshotShard {
  std::vector<Snapshot> snapshots;
  TraversalCounters counters;
};

/// Samples `count` snapshots through `engine` into engine->NumShards(count)
/// shards; chunk c draws from a stream seeded with
/// DeriveSeed(DeriveSeed(master_seed, c), 1), so the concatenation in
/// shard order is worker-count-independent.
std::vector<SnapshotShard> SampleSnapshotShards(const InfluenceGraph& ig,
                                                std::uint64_t master_seed,
                                                std::uint64_t count,
                                                SamplingEngine* engine);

namespace internal {

/// The body SampleSnapshotShards and SampleLtSnapshotShards share:
/// `make_sampler()` returns a std::unique_ptr to a per-worker-slot sampler
/// with SnapshotSampler's Sample(rng, counters) signature.
template <typename MakeSampler>
std::vector<SnapshotShard> SampleSnapshotShardsWith(
    const MakeSampler& make_sampler, std::uint64_t master_seed,
    std::uint64_t count, SamplingEngine* engine) {
  std::vector<SnapshotShard> shards(engine->NumShards(count));
  std::vector<decltype(make_sampler())> samplers(engine->num_workers());
  engine->Run(master_seed, count,
              [&](const SamplingEngine::Chunk& chunk, std::size_t slot) {
    if (samplers[slot] == nullptr) samplers[slot] = make_sampler();
    Rng rng(DeriveSeed(chunk.seed, 1));
    SnapshotShard& shard = shards[chunk.shard];
    if (shard.snapshots.empty()) shard.snapshots.reserve(chunk.shard_size);
    for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
      shard.snapshots.push_back(
          samplers[slot]->Sample(&rng, &shard.counters));
    }
  });
  return shards;
}

}  // namespace internal

}  // namespace soldist

#endif  // SOLDIST_SIM_SNAPSHOT_SAMPLER_H_
