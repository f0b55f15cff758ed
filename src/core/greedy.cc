#include "core/greedy.h"

#include <algorithm>
#include <numeric>

#include "util/timer.h"

namespace soldist {

std::vector<VertexId> GreedyRunResult::SortedSeedSet() const {
  std::vector<VertexId> sorted = seeds;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

GreedyRunResult RunGreedy(InfluenceEstimator* estimator,
                          VertexId num_vertices, int k, Rng* tie_rng) {
  SOLDIST_CHECK(k >= 1);
  SOLDIST_CHECK(static_cast<VertexId>(k) <= num_vertices);

  GreedyRunResult result;
  WallTimer build_timer;
  estimator->Build();
  result.build_seconds = build_timer.Seconds();

  // The unselected vertices, kept in shuffled order.
  std::vector<VertexId> candidates(num_vertices);
  std::iota(candidates.begin(), candidates.end(), VertexId{0});
  std::shuffle(candidates.begin(), candidates.end(), tie_rng->engine());

  std::vector<double> scores(num_vertices);
  result.seeds.reserve(k);
  result.estimates.reserve(k);
  for (int round = 0; round < k; ++round) {
    const std::span<double> round_scores(scores.data(), candidates.size());
    estimator->EstimateAll(candidates, round_scores);
    std::size_t best = candidates.size();
    double best_estimate = -1.0;
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      // ">=": the LAST maximum in shuffled order wins (Algorithm 3.1
      // line 5), which breaks ties uniformly at random.
      if (round_scores[j] >= best_estimate) {
        best_estimate = round_scores[j];
        best = j;
      }
    }
    SOLDIST_CHECK(best != candidates.size());
    const VertexId seed = candidates[best];
    estimator->Update(seed);
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(best));
    result.seeds.push_back(seed);
    result.estimates.push_back(best_estimate);
  }
  return result;
}

}  // namespace soldist
