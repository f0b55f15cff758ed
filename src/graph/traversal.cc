#include "graph/traversal.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace soldist {

std::uint32_t MaxDegree(std::span<const EdgeId> offsets) {
  EdgeId max_degree = 0;
  for (std::size_t v = 1; v < offsets.size(); ++v) {
    max_degree = std::max(max_degree, offsets[v] - offsets[v - 1]);
  }
  SOLDIST_CHECK(max_degree <= std::numeric_limits<std::uint32_t>::max())
      << "degree " << max_degree << " exceeds 32-bit arc positions";
  return static_cast<std::uint32_t>(max_degree);
}

BfsReachability::BfsReachability(const Graph* graph)
    : graph_(graph), visited_(graph->num_vertices()) {
  queue_.reserve(graph->num_vertices());
}

std::uint64_t BfsReachability::CountReachable(
    std::span<const VertexId> sources) {
  visited_.NextEpoch();
  queue_.clear();
  for (VertexId s : sources) {
    if (visited_.Mark(s)) queue_.push_back(s);
  }
  std::size_t head = 0;
  while (head < queue_.size()) {
    VertexId u = queue_[head++];
    for (VertexId w : graph_->OutNeighbors(u)) {
      if (visited_.Mark(w)) queue_.push_back(w);
    }
  }
  return queue_.size();
}

std::vector<VertexId> BfsReachability::ReachableSet(
    std::span<const VertexId> sources) {
  CountReachable(sources);
  return queue_;
}

std::vector<std::uint32_t> BfsReachability::Distances(VertexId source) {
  std::vector<std::uint32_t> dist(graph_->num_vertices(),
                                  kUnreachableDistance);
  visited_.NextEpoch();
  queue_.clear();
  visited_.Mark(source);
  queue_.push_back(source);
  dist[source] = 0;
  std::size_t head = 0;
  while (head < queue_.size()) {
    VertexId u = queue_[head++];
    for (VertexId w : graph_->OutNeighbors(u)) {
      if (visited_.Mark(w)) {
        dist[w] = dist[u] + 1;
        queue_.push_back(w);
      }
    }
  }
  return dist;
}

}  // namespace soldist
