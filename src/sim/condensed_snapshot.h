// SCC-condensed live-edge snapshots (core/snapshot.h Mode::kCondensed),
// for IC and LT alike: condensation only sees the sampled live edges.
//
// A sampled Snapshot preserves reachability exactly when collapsed to its
// SCC DAG: every vertex of a strongly connected component reaches exactly
// what the component reaches. The condensed form keeps, per snapshot,
// only the vertex→component map, per-component member counts, and the
// deduplicated condensation DAG (forward + reverse CSR) — the raw
// live-edge CSR is discarded right after condensation, so the resident
// footprint is component-granular. Greedy reachability then walks the
// (much smaller) DAG instead of the live-edge graph.

#ifndef SOLDIST_SIM_CONDENSED_SNAPSHOT_H_
#define SOLDIST_SIM_CONDENSED_SNAPSHOT_H_

#include <vector>

#include "graph/components.h"
#include "model/diffusion.h"
#include "sim/counters.h"
#include "sim/sampling_engine.h"
#include "sim/snapshot_sampler.h"

namespace soldist {

/// \brief One live-edge random graph, condensed to its SCC DAG.
struct CondensedSnapshot {
  /// comp_of[v] is v's component id; Tarjan's reverse-topological
  /// numbering (every DAG successor of c has an id < c).
  std::vector<std::uint32_t> comp_of;   // size n
  /// Member count per component (Σ comp_size = n).
  std::vector<std::uint32_t> comp_size; // size C
  CondensationDag dag;                  ///< deduplicated forward DAG
  CondensationDag rev;                  ///< reverse DAG (invalidation walks)

  std::uint32_t num_components() const {
    return static_cast<std::uint32_t>(comp_size.size());
  }

  /// Heap bytes of the condensed representation.
  std::uint64_t MemoryBytes() const;

  /// Number of vertices reachable from `v` in the original snapshot,
  /// summed component-granular over the DAG (reference implementation for
  /// parity tests; the estimator backend has its own residual-aware walk).
  std::uint32_t CountReachable(VertexId v) const;
};

/// Condenses one sampled snapshot. Deterministic: a pure function of the
/// snapshot, so condensing shards in parallel can never change results.
CondensedSnapshot CondenseSnapshot(const Snapshot& snapshot,
                                   VertexId num_vertices);

/// \brief Scratch-reusing condenser for τ-scale build loops: the Tarjan
/// DFS arrays and the decomposition buffer live across calls (one
/// condenser per worker slot), so each snapshot pays traversal work, not
/// allocator churn. Output equals CondenseSnapshot exactly.
class SnapshotCondenser {
 public:
  explicit SnapshotCondenser(VertexId num_vertices);

  CondensedSnapshot Condense(const Snapshot& snapshot);

 private:
  VertexId num_vertices_;
  SccSolver solver_;
  ComponentDecomposition scc_;  // reused; copied into the output
  CondenseScratch scratch_;     // reused by CondenseCsrInto
  std::vector<std::uint32_t> rev_cursor_;
};

/// \brief A run of consecutive condensed snapshots.
struct CondensedSnapshotShard {
  std::vector<CondensedSnapshot> snapshots;
  TraversalCounters counters;
  /// Per-snapshot counter deltas (only when sampled with
  /// record_per_snapshot; feeds SnapshotArena's prefix counter table).
  std::vector<TraversalCounters> per_snapshot;
};

/// Samples `count` live-edge graphs of `instance`'s model through
/// `engine` (same chunk streams and shard layout as SampleSnapshotShards /
/// SampleLtSnapshotShards, so a condensed build sees byte-identical
/// live-edge graphs) and condenses each inside its chunk worker; the raw
/// CSR never outlives the sample. Shard concatenation is
/// worker-count-independent. With `record_per_snapshot`, each shard also
/// records per-snapshot counter deltas so any prefix's sampling cost is
/// exactly attributable. Honors engine->cancel() like SampleRrShards. LT
/// requires instance.lt_weights.
std::vector<CondensedSnapshotShard> SampleCondensedSnapshotShards(
    const ModelInstance& instance, std::uint64_t master_seed,
    std::uint64_t count, SamplingEngine* engine,
    bool record_per_snapshot = false);

}  // namespace soldist

#endif  // SOLDIST_SIM_CONDENSED_SNAPSHOT_H_
