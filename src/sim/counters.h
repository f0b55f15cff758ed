// Traversal-cost and sample-size counters (paper Sections 1.3, 3.2).
//
// The paper deliberately measures implementation-independent work instead
// of CPU time: the number of vertices/edges *examined* (traversal cost,
// proportional to running time) and the number of vertices/edges *stored*
// as samples (sample size, proportional to memory usage).

#ifndef SOLDIST_SIM_COUNTERS_H_
#define SOLDIST_SIM_COUNTERS_H_

#include <cstdint>
#include <span>

namespace soldist {

/// \brief Work counters threaded through every sampler and estimator.
struct TraversalCounters {
  /// Vertices examined by diffusion simulation, snapshot BFS, or RR-set
  /// generation (a vertex may be counted many times across samples).
  std::uint64_t vertices = 0;
  /// Edges examined (every out-edge of a scanned vertex in forward
  /// traversals; every in-edge in reverse traversals; only *live* edges in
  /// snapshot BFS — that is what produces the m̃/m factor of Section 5.3.2).
  std::uint64_t edges = 0;
  /// Vertices stored in memory as samples (RR-set entries).
  std::uint64_t sample_vertices = 0;
  /// Edges stored in memory as samples (live edges of snapshots).
  std::uint64_t sample_edges = 0;

  void Reset() { *this = TraversalCounters{}; }

  /// Total sample size, the paper's "(# vertices) + (# edges)" stored.
  std::uint64_t TotalSampleSize() const {
    return sample_vertices + sample_edges;
  }

  TraversalCounters& operator+=(const TraversalCounters& other) {
    vertices += other.vertices;
    edges += other.edges;
    sample_vertices += other.sample_vertices;
    sample_edges += other.sample_edges;
    return *this;
  }

  /// Work done since `earlier`, a past value of this same counter (the
  /// per-sample delta behind every arena's prefix cost table).
  TraversalCounters operator-(const TraversalCounters& earlier) const {
    TraversalCounters delta;
    delta.vertices = vertices - earlier.vertices;
    delta.edges = edges - earlier.edges;
    delta.sample_vertices = sample_vertices - earlier.sample_vertices;
    delta.sample_edges = sample_edges - earlier.sample_edges;
    return delta;
  }
};

/// Sum of per-thread/per-chunk counter shards (integer fields, so the
/// merge is order-independent and thread-count-independent).
TraversalCounters MergeCounters(std::span<const TraversalCounters> parts);

}  // namespace soldist

#endif  // SOLDIST_SIM_COUNTERS_H_
