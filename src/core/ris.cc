#include "core/ris.h"

namespace soldist {

RisEstimator::RisEstimator(const InfluenceGraph* ig, std::uint64_t theta,
                           std::uint64_t seed,
                           const SamplingOptions& sampling)
    : ig_(ig),
      theta_(theta),
      seed_(seed),
      sampling_(sampling),
      collection_(ig->num_vertices()) {
  SOLDIST_CHECK(theta_ >= 1);
}

void RisEstimator::Build() {
  SOLDIST_CHECK(!built_) << "Build() must be called exactly once";
  built_ = true;
  SamplingEngine engine(sampling_);
  std::vector<RrShard> shards = SampleRrShards(*ig_, seed_, theta_, &engine);
  for (const RrShard& shard : shards) counters_ += shard.counters;
  collection_.Merge(std::move(shards));
  collection_.BuildIndex();
  cover_count_.assign(ig_->num_vertices(), 0);
  for (std::uint64_t set_id = 0; set_id < collection_.size(); ++set_id) {
    for (VertexId v : collection_.Set(set_id)) ++cover_count_[v];
  }
  set_active_.assign(collection_.size(), 1);
  chosen_.assign(ig_->num_vertices(), 0);
}

double RisEstimator::Estimate(VertexId v) {
  SOLDIST_CHECK(built_);
  SOLDIST_DCHECK(!chosen_[v] || cover_count_[v] == 0)
      << "stale score: chosen seed " << v
      << " still covers active sets — Update must decrement eagerly";
  return static_cast<double>(ig_->num_vertices()) *
         static_cast<double>(cover_count_[v]) / static_cast<double>(theta_);
}

void RisEstimator::Update(VertexId v) {
  SOLDIST_CHECK(built_);
  chosen_[v] = 1;
  for (std::uint32_t set_id : collection_.InvertedList(v)) {
    if (!set_active_[set_id]) continue;
    set_active_[set_id] = 0;
    for (VertexId w : collection_.Set(set_id)) {
      SOLDIST_DCHECK(cover_count_[w] > 0);
      --cover_count_[w];
    }
  }
}

ArenaRisEstimator::ArenaRisEstimator(const RrArena* arena,
                                     std::uint64_t theta)
    : arena_(arena), theta_(theta), view_(arena, theta) {
  SOLDIST_CHECK(theta_ >= 1);
}

void ArenaRisEstimator::Build() {
  SOLDIST_CHECK(!built_) << "Build() must be called exactly once";
  built_ = true;
  counters_ = view_.Counters();
  cover_count_ = view_.CoverCounts();
  active_words_.assign((theta_ + 63) / 64, ~std::uint64_t{0});
  if (theta_ % 64 != 0) {
    active_words_.back() = (std::uint64_t{1} << (theta_ % 64)) - 1;
  }
  chosen_.assign(arena_->num_vertices(), 0);
}

double ArenaRisEstimator::Estimate(VertexId v) {
  SOLDIST_CHECK(built_);
  SOLDIST_DCHECK(!chosen_[v] || cover_count_[v] == 0)
      << "stale score: chosen seed " << v
      << " still covers active sets — Update must decrement eagerly";
  return static_cast<double>(arena_->num_vertices()) *
         static_cast<double>(cover_count_[v]) / static_cast<double>(theta_);
}

void ArenaRisEstimator::Update(VertexId v) {
  SOLDIST_CHECK(built_);
  chosen_[v] = 1;
  for (std::uint32_t set_id : view_.InvertedList(v)) {
    std::uint64_t& word = active_words_[set_id >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (set_id & 63);
    if ((word & bit) == 0) continue;
    word &= ~bit;
    // Through the view, not the arena: the view materializes sets for
    // non-flat storage backends (membership identical, order-free here).
    for (VertexId w : view_.Set(set_id)) {
      SOLDIST_DCHECK(cover_count_[w] > 0);
      --cover_count_[w];
    }
  }
}

}  // namespace soldist
