#include "sim/rr_sampler.h"

#include <algorithm>
#include <memory>

#include "random/splitmix64.h"
#include "sim/inverted_index.h"

namespace soldist {

RrSampler::RrSampler(const InfluenceGraph* ig)
    : ig_(ig),
      visited_(ig->num_vertices()),
      unmarked_(MaxDegree(ig->graph().in_offsets())) {}

void RrSampler::Sample(Rng* target_rng, Rng* coin_rng,
                       std::vector<VertexId>* out,
                       TraversalCounters* counters) {
  auto target =
      static_cast<VertexId>(target_rng->UniformInt(ig_->num_vertices()));
  SampleForTarget(target, coin_rng, out, counters);
}

void RrSampler::SampleForTarget(VertexId target, Rng* coin_rng,
                                std::vector<VertexId>* out,
                                TraversalCounters* counters) {
  const Graph& g = ig_->graph();
  out->clear();
  visited_.NextEpoch();
  visited_.Mark(target);
  out->push_back(target);
  std::size_t head = 0;
  while (head < out->size()) {
    VertexId v = (*out)[head++];
    counters->vertices += 1;
    const EdgeId begin = g.in_offsets()[v];
    const EdgeId end = g.in_offsets()[v + 1];
    counters->edges += end - begin;
    const VertexId* sources = g.in_sources().data() + begin;
    const double* probs = ig_->in_probabilities().data() + begin;
    const std::uint32_t count = visited_.CollectUnmarked(
        sources, static_cast<std::uint32_t>(end - begin), unmarked_.data());
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t arc = unmarked_[i];
      const VertexId w = sources[arc];
      if (visited_.IsMarked(w)) continue;  // a parallel arc marked it
      if (coin_rng->Bernoulli(probs[arc])) {
        visited_.Mark(w);
        out->push_back(w);
      }
    }
  }
  counters->sample_vertices += out->size();
}

std::vector<RrShard> SampleRrShards(const InfluenceGraph& ig,
                                    std::uint64_t master_seed,
                                    std::uint64_t count,
                                    SamplingEngine* engine,
                                    bool record_per_set) {
  return internal::SampleRrShardsWith(
      [&ig] { return std::make_unique<RrSampler>(&ig); }, master_seed, count,
      engine, record_per_set);
}

RrCollection::RrCollection(VertexId num_vertices)
    : num_vertices_(num_vertices) {
  offsets_.push_back(0);
}

void RrCollection::Add(const std::vector<VertexId>& rr_set) {
  flat_.insert(flat_.end(), rr_set.begin(), rr_set.end());
  offsets_.push_back(static_cast<std::uint64_t>(flat_.size()));
  index_built_ = false;
}

void RrCollection::Merge(std::vector<RrShard>&& shards) {
  std::size_t first = 0;
  if (flat_.empty() && size() == 0 && !shards.empty()) {
    // Adopt the first shard's flat buffer: on a fresh collection this is
    // a pointer swap instead of the build's single largest copy.
    RrShard& head = shards[0];
    flat_ = std::move(head.flat);
    offsets_.reserve(offsets_.size() + head.num_sets());
    for (std::uint64_t j = 1; j < head.offsets.size(); ++j) {
      offsets_.push_back(head.offsets[j]);
    }
    index_built_ = false;
    first = 1;
  }
  Merge(std::span<const RrShard>(shards.data() + first,
                                 shards.size() - first));
}

void RrCollection::Merge(std::span<const RrShard> shards) {
  std::uint64_t extra_entries = 0;
  std::uint64_t extra_sets = 0;
  for (const RrShard& shard : shards) {
    extra_entries += shard.flat.size();
    extra_sets += shard.num_sets();
  }
  flat_.reserve(flat_.size() + extra_entries);
  offsets_.reserve(offsets_.size() + extra_sets);
  for (const RrShard& shard : shards) {
    const std::uint64_t base = static_cast<std::uint64_t>(flat_.size());
    flat_.insert(flat_.end(), shard.flat.begin(), shard.flat.end());
    for (std::uint64_t j = 1; j < shard.offsets.size(); ++j) {
      offsets_.push_back(base + shard.offsets[j]);
    }
  }
  index_built_ = false;
}

void RrCollection::BuildIndex(SamplingEngine* engine) {
  const std::uint64_t total_sets = size();
  if (index_built_ && indexed_sets_ == total_sets) {
    // Double-build with no new sets: a no-op, never a full rebuild
    // (IMM's final selection round builds on an unchanged collection).
    SOLDIST_DCHECK(index_flat_.size() == flat_.size())
        << "index/content mismatch on a supposedly indexed collection";
    return;
  }
  BuildInvertedIndex(num_vertices_, flat_, offsets_, indexed_sets_, engine,
                     &index_flat_, &index_offsets_);
  indexed_sets_ = total_sets;
  covered_stamp_.assign(total_sets, 0);
  covered_epoch_ = 0;
  index_built_ = true;
}

std::span<const std::uint32_t> RrCollection::InvertedList(VertexId v) const {
  SOLDIST_CHECK(index_built_) << "call BuildIndex() first";
  SOLDIST_DCHECK(v < num_vertices_);
  return {index_flat_.data() + index_offsets_[v],
          index_flat_.data() + index_offsets_[v + 1]};
}

std::uint64_t RrCollection::CountCovered(
    std::span<const VertexId> seeds) const {
  SOLDIST_CHECK(index_built_) << "call BuildIndex() first";
  if (++covered_epoch_ == 0) {
    std::fill(covered_stamp_.begin(), covered_stamp_.end(), 0);
    covered_epoch_ = 1;
  }
  std::uint64_t covered = 0;
  for (VertexId v : seeds) {
    for (std::uint32_t set_id : InvertedList(v)) {
      if (covered_stamp_[set_id] != covered_epoch_) {
        covered_stamp_[set_id] = covered_epoch_;
        ++covered;
      }
    }
  }
  return covered;
}

double RrCollection::MeanSize() const {
  if (size() == 0) return 0.0;
  return static_cast<double>(total_entries()) / static_cast<double>(size());
}

}  // namespace soldist
