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
// (much smaller) DAG instead of the live-edge graph. SnapshotArena
// (sim/snapshot_arena.h) is the one sampler of condensed worlds: the
// build task that samples a live-edge graph condenses it right away.

#ifndef SOLDIST_SIM_CONDENSED_SNAPSHOT_H_
#define SOLDIST_SIM_CONDENSED_SNAPSHOT_H_

#include <vector>

#include "graph/components.h"
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
};

/// \brief Scratch-reusing condenser for τ-scale build loops: the Tarjan
/// DFS arrays and the decomposition buffer live across calls (one
/// condenser per worker slot), so each snapshot pays traversal work, not
/// allocator churn. Deterministic: the output is a pure function of the
/// snapshot, whatever the condenser condensed before, so condensing
/// chunks in parallel can never change results.
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

}  // namespace soldist

#endif  // SOLDIST_SIM_CONDENSED_SNAPSHOT_H_
