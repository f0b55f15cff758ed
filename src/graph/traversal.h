// Reusable BFS machinery: epoch-marked visited sets and restartable queues
// avoid O(n) clearing between the millions of tiny traversals the samplers
// perform.

#ifndef SOLDIST_GRAPH_TRAVERSAL_H_
#define SOLDIST_GRAPH_TRAVERSAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace soldist {

/// \brief O(1)-reset visited marker backed by a generation counter.
///
/// Mark(v) stamps v with the current epoch; NextEpoch() invalidates all
/// marks in O(1). Overflow of the 32-bit epoch triggers a full clear.
class VisitedMarker {
 public:
  explicit VisitedMarker(std::size_t size) : stamp_(size, 0), epoch_(1) {}

  void Resize(std::size_t size) { stamp_.assign(size, 0); epoch_ = 1; }

  void NextEpoch() {
    if (++epoch_ == 0) {  // wrapped: all stamps stale but may collide
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  bool IsMarked(VertexId v) const { return stamp_[v] == epoch_; }

  /// Marks v; returns true if it was unmarked (first visit).
  bool Mark(VertexId v) {
    if (stamp_[v] == epoch_) return false;
    stamp_[v] = epoch_;
    return true;
  }

  /// Writes the positions i < count with ids[i] unmarked to out, in
  /// ascending order, and returns how many there are. Branch-free: every
  /// position is stored and the cursor moves past the unmarked ones only,
  /// so `out` must hold `count` entries.
  std::uint32_t CollectUnmarked(const VertexId* ids, std::uint32_t count,
                                std::uint32_t* out) const {
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      out[kept] = i;
      kept += stamp_[ids[i]] != epoch_ ? 1 : 0;
    }
    return kept;
  }

  std::size_t size() const { return stamp_.size(); }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_;
};

/// Largest gap between consecutive CSR offsets (the maximum out- or
/// in-degree); CHECKs that it fits the 32-bit arc positions of
/// VisitedMarker::CollectUnmarked.
std::uint32_t MaxDegree(std::span<const EdgeId> offsets);

/// \brief Forward-BFS reachability over the full graph (every arc present).
///
/// Used for graph statistics and the exact computation r_G(S) on
/// deterministic graphs; the stochastic samplers have their own loops.
class BfsReachability {
 public:
  explicit BfsReachability(const Graph* graph);

  /// Number of vertices reachable from `sources` (sources included).
  std::uint64_t CountReachable(std::span<const VertexId> sources);

  /// All vertices reachable from `sources`, in visit order.
  std::vector<VertexId> ReachableSet(std::span<const VertexId> sources);

  /// BFS hop distances from `source`; kUnreachableDistance if unreachable.
  static constexpr std::uint32_t kUnreachableDistance = ~0u;
  std::vector<std::uint32_t> Distances(VertexId source);

 private:
  const Graph* graph_;
  VisitedMarker visited_;
  std::vector<VertexId> queue_;
};

}  // namespace soldist

#endif  // SOLDIST_GRAPH_TRAVERSAL_H_
