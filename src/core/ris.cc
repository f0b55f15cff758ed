#include "core/ris.h"

namespace soldist {

RisEstimator::RisEstimator(const ModelInstance& instance, std::uint64_t theta,
                           std::uint64_t seed,
                           const SamplingOptions& sampling)
    : instance_(instance),
      seed_(seed),
      sampling_(sampling),
      arena_(nullptr),
      theta_(theta) {
  SOLDIST_CHECK(instance_.ig != nullptr);
  SOLDIST_CHECK(theta_ >= 1);
  SOLDIST_CHECK(sampling_.cancel == nullptr)
      << "a fresh estimator build never stops";
}

RisEstimator::RisEstimator(const RrArena* arena, std::uint64_t theta)
    : arena_(arena), theta_(theta) {
  SOLDIST_CHECK(arena_ != nullptr);
  SOLDIST_CHECK(theta_ >= 1);
}

void RisEstimator::Build() {
  SOLDIST_CHECK(!built_) << "Build() must be called exactly once";
  built_ = true;
  if (arena_ == nullptr) {
    owned_ = std::make_unique<RrArena>(
        RrArena::SampleFor(instance_, seed_, theta_, sampling_));
    arena_ = owned_.get();
  }
  view_.emplace(arena_, theta_);
  counters_ = view_->Counters();
  cover_count_ = view_->CoverCounts();
  active_words_.assign((theta_ + 63) / 64, ~std::uint64_t{0});
  if (theta_ % 64 != 0) {
    active_words_.back() = (std::uint64_t{1} << (theta_ % 64)) - 1;
  }
  chosen_.assign(arena_->num_vertices(), 0);
}

double RisEstimator::Estimate(VertexId v) {
  SOLDIST_CHECK(built_);
  SOLDIST_DCHECK(!chosen_[v] || cover_count_[v] == 0)
      << "stale score: chosen seed " << v
      << " still covers active sets — Update must decrement eagerly";
  return static_cast<double>(arena_->num_vertices()) *
         static_cast<double>(cover_count_[v]) / static_cast<double>(theta_);
}

void RisEstimator::Update(VertexId v) {
  SOLDIST_CHECK(built_);
  chosen_[v] = 1;
  for (std::uint32_t set_id : view_->InvertedList(v)) {
    std::uint64_t& word = active_words_[set_id >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (set_id & 63);
    if ((word & bit) == 0) continue;
    word &= ~bit;
    // Through the view, not the arena: the view materializes sets for
    // non-flat storage backends (membership identical, order-free here).
    for (VertexId w : view_->Set(set_id)) {
      SOLDIST_DCHECK(cover_count_[w] > 0);
      --cover_count_[w];
    }
  }
}

}  // namespace soldist
