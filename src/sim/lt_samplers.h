// LT counterparts of the snapshot and RR-set samplers, built on the
// live-edge interpretation: every vertex keeps at most one in-edge.
//
// Consequences exploited here:
//  * an LT snapshot has at most n live edges (in-degree <= 1);
//  * an LT RR set is a backward *walk* (each vertex has one candidate
//    live in-edge), so generation is a chain, not a BFS tree.
//
// Both samplers also come in chunked batch form (SampleLtRrShards /
// SampleLtSnapshotShards) on top of SamplingEngine, mirroring the IC
// shard samplers: chunk c draws from streams derived from the chunk seed
// alone, so LT parallel builds are byte-identical for any worker count.

#ifndef SOLDIST_SIM_LT_SAMPLERS_H_
#define SOLDIST_SIM_LT_SAMPLERS_H_

#include <vector>

#include "model/diffusion.h"
#include "model/lt.h"
#include "sim/rr_sampler.h"
#include "sim/sampling_engine.h"
#include "sim/snapshot_sampler.h"

namespace soldist {

/// \brief Samples LT live-edge snapshots into the Snapshot struct the IC
/// sampler fills, so every reachability backend (SnapshotSampler's BFS,
/// the condensed DAGs) serves both models unchanged.
class LtSnapshotSampler {
 public:
  explicit LtSnapshotSampler(const LtWeights* weights);

  /// Draws one LT snapshot: per vertex, at most one live in-edge.
  ///
  /// Build accounting mirrors LtRrSampler: each vertex's SampleLiveInEdge
  /// is one vertex examination (+1 vertex) and a kept live edge is one
  /// edge examination (+1 edge), so LT snapshot build cost shows up in
  /// Table-8-style traversal accounting. Stored live edges count toward
  /// counters->sample_edges.
  Snapshot Sample(Rng* rng, TraversalCounters* counters);

  /// Sample into a caller-owned snapshot, reusing its buffers (the
  /// condensed build's per-slot scratch, as SnapshotSampler::SampleInto).
  void SampleInto(Rng* rng, TraversalCounters* counters, Snapshot* out);

  /// Engine words one Sample/SampleInto call draws: one per vertex with
  /// an in-arc (a vertex without one draws nothing), as
  /// SnapshotSampler::DrawsPerWorld.
  std::uint64_t DrawsPerWorld() const { return draws_per_world_; }

 private:
  const LtWeights* weights_;
  std::uint64_t draws_per_world_ = 0;
  std::vector<Arc> scratch_arcs_;
  std::vector<EdgeId> cursor_;
};

/// \brief Samples LT RR sets by a backward random walk.
class LtRrSampler {
 public:
  explicit LtRrSampler(const LtWeights* weights);

  /// Samples one RR set for a uniform random target into `*out`.
  /// Accounting: one vertex and one examined edge per walk step (the
  /// cumulative-table lookup is O(log d) but touches one live edge).
  void Sample(Rng* target_rng, Rng* coin_rng, std::vector<VertexId>* out,
              TraversalCounters* counters);

  /// Walks backward from a fixed target.
  void SampleForTarget(VertexId target, Rng* coin_rng,
                       std::vector<VertexId>* out,
                       TraversalCounters* counters);

 private:
  const LtWeights* weights_;
  VisitedMarker visited_;
};

/// Samples `count` LT RR sets through `engine`, with the shard layout,
/// chunk streams, cancel behavior and `record_per_set` semantics of the
/// IC SampleRrShards (the two share one body), so the merged payload
/// is byte-identical for any worker count.
std::vector<RrShard> SampleLtRrShards(const LtWeights& weights,
                                      std::uint64_t master_seed,
                                      std::uint64_t count,
                                      SamplingEngine* engine,
                                      bool record_per_set = false);

/// Samples `count` LT snapshots through `engine`, mirroring the IC
/// SampleSnapshotShards (shared body): chunk c draws from a stream seeded
/// with DeriveSeed(DeriveSeed(master_seed, c), 1).
std::vector<SnapshotShard> SampleLtSnapshotShards(const LtWeights& weights,
                                                  std::uint64_t master_seed,
                                                  std::uint64_t count,
                                                  SamplingEngine* engine);

/// Model dispatch over SampleSnapshotShards (IC) and
/// SampleLtSnapshotShards (LT; requires instance.lt_weights).
std::vector<SnapshotShard> SampleSnapshotShardsFor(
    const ModelInstance& instance, std::uint64_t master_seed,
    std::uint64_t count, SamplingEngine* engine);

}  // namespace soldist

#endif  // SOLDIST_SIM_LT_SAMPLERS_H_
