#include "sim/rr_arena.h"

#include <algorithm>
#include <utility>

#include "sim/inverted_index.h"
#include "sim/lt_samplers.h"
#include "util/checksum.h"
#include "util/logging.h"

namespace soldist {
RrArena RrArena::SampleFor(const ModelInstance& instance, std::uint64_t seed,
                           std::uint64_t capacity,
                           const SamplingOptions& sampling) {
  SOLDIST_CHECK(instance.ig != nullptr);
  SOLDIST_CHECK(capacity >= 1);
  SamplingEngine engine(sampling);
  RrArena arena;
  arena.num_vertices_ = instance.ig->num_vertices();
  std::vector<RrShard> shards;
  if (instance.model == DiffusionModel::kLt) {
    SOLDIST_CHECK(instance.lt_weights != nullptr)
        << "LT instance without LtWeights";
    shards = SampleLtRrShards(*instance.lt_weights, seed, capacity, &engine,
                              /*record_per_set=*/true);
  } else {
    shards = SampleRrShards(*instance.ig, seed, capacity, &engine,
                            /*record_per_set=*/true);
  }
  arena.Finalize(std::move(shards), &engine, capacity);
  return arena;
}

RrArena RrArena::SampleIc(const InfluenceGraph& ig, std::uint64_t seed,
                          std::uint64_t capacity,
                          const SamplingOptions& sampling) {
  return SampleFor(ModelInstance::Ic(&ig), seed, capacity, sampling);
}

RrArena RrArena::FromParts(VertexId num_vertices,
                           std::vector<VertexId> flat,
                           std::vector<std::uint64_t> set_offsets,
                           const std::vector<TraversalCounters>& per_set) {
  SOLDIST_CHECK(!set_offsets.empty());
  SOLDIST_CHECK(set_offsets.size() == per_set.size() + 1);
  SOLDIST_CHECK(set_offsets.back() ==
                static_cast<std::uint64_t>(flat.size()));
  RrArena arena;
  arena.num_vertices_ = num_vertices;
  arena.counters_.Reserve(per_set.size());
  for (const TraversalCounters& delta : per_set) {
    arena.counters_.Append(delta);
  }
  store::RrFlatPayload payload;
  payload.flat = std::move(flat);
  payload.set_offsets = std::move(set_offsets);
  BuildInvertedIndex(num_vertices, payload.flat, payload.set_offsets,
                     /*engine=*/nullptr, &payload.index_ids,
                     &payload.index_offsets);
  arena.AdoptPayload(std::move(payload));
  return arena;
}

void RrArena::Finalize(std::vector<RrShard>&& shards, SamplingEngine* engine,
                       std::uint64_t capacity) {
  if (engine->cancel() != nullptr) {
    capacity = engine->TruncateToCompletedPrefix(
        &shards, capacity,
        [](const RrShard& shard) { return shard.num_sets(); });
  }
  counters_.Reserve(capacity);
  for (const RrShard& shard : shards) {
    SOLDIST_CHECK(shard.per_set.size() == shard.num_sets());
    for (const TraversalCounters& delta : shard.per_set) {
      counters_.Append(delta);
    }
  }
  SOLDIST_CHECK(this->capacity() == capacity)
      << "shards produced " << this->capacity() << " sets, expected "
      << capacity;
  AdoptPayload(MergeRrShards(num_vertices_, std::move(shards), engine));
}

void RrArena::AdoptPayload(store::RrFlatPayload&& payload) {
  auto flat = std::make_shared<store::FlatStorage>(std::move(payload),
                                                   num_vertices_);
  flat_ = flat->flat_payload();
  storage_ = std::move(flat);
}

Status RrArena::ConvertStorage(const store::StorageOptions& options) {
  SOLDIST_RETURN_IF_ERROR(options.Validate());
  SOLDIST_CHECK(storage_ != nullptr);
  if (options.backend == storage_->backend()) return Status::OK();
  if (flat_ == nullptr) {
    return Status::FailedPrecondition(
        "ConvertStorage: only a flat arena can re-home its payload "
        "(current backend: " +
        std::string(store::ArenaBackendName(storage_->backend())) + ")");
  }
  // Copy the payload out (the encoder reads it while the flat storage is
  // still alive), then swap the handle.
  store::RrFlatPayload payload = *flat_;
  StatusOr<std::shared_ptr<const store::RrStorage>> next =
      store::MakeRrStorage(std::move(payload), num_vertices_, options);
  if (!next.ok()) return next.status();
  storage_ = std::move(next).value();
  flat_ = storage_->flat_payload();
  return Status::OK();
}

std::span<const std::uint32_t> RrArena::InvertedPrefix(
    VertexId v, std::uint64_t count) const {
  SOLDIST_DCHECK(v < num_vertices_);
  std::span<const std::uint32_t> all = InvertedAll(v);
  if (count >= capacity()) return all;
  const auto bound = static_cast<std::uint32_t>(count);
  return all.first(static_cast<std::size_t>(
      std::lower_bound(all.begin(), all.end(), bound) - all.begin()));
}

std::span<const std::uint32_t> RrArena::InvertedPrefix(
    VertexId v, std::uint64_t count, store::StorageScratch* scratch) const {
  SOLDIST_DCHECK(v < num_vertices_);
  std::span<const std::uint32_t> all = InvertedAll(v, scratch);
  if (count >= capacity()) return all;
  const auto bound = static_cast<std::uint32_t>(count);
  return all.first(static_cast<std::size_t>(
      std::lower_bound(all.begin(), all.end(), bound) - all.begin()));
}

std::uint64_t RrArena::MemoryBytes() const {
  return storage_->MemoryBytes() + counters_.MemoryBytes();
}

std::uint64_t RrArena::ResidentBytes() const {
  return storage_->ResidentBytes() + counters_.MemoryBytes();
}

std::uint64_t RrArena::ContentChecksum() const {
  const std::uint64_t cap = capacity();
  const std::uint64_t n = num_vertices_;
  Checksum64 sum;
  sum.Update(&cap, sizeof(cap));
  sum.Update(&n, sizeof(n));
  // The inverted lists are identical across backends and fully determine
  // set membership, so hashing them (not the backend's physical bytes)
  // keeps the checksum stable under ConvertStorage and save/load.
  store::StorageScratch scratch;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    const std::span<const std::uint32_t> ids = InvertedAll(v, &scratch);
    const std::uint64_t len = ids.size();
    sum.Update(&len, sizeof(len));
    sum.Update(ids.data(), ids.size_bytes());
  }
  return sum.Digest();
}

RrPrefixView RrArena::Prefix(std::uint64_t count) const {
  return RrPrefixView(this, count);
}

RrPrefixView::RrPrefixView(const RrArena* arena, std::uint64_t count)
    : arena_(arena), count_(count) {
  SOLDIST_CHECK(count_ >= 1);
  SOLDIST_CHECK(count_ <= arena_->capacity())
      << "prefix " << count_ << " exceeds arena capacity "
      << arena_->capacity();
  const VertexId n = arena_->num_vertices();
  cut_.resize(n);
  if (!arena_->is_flat()) {
    // Encoded backend: materialize the prefix once so estimators and
    // CELF run the identical access pattern they run on a flat arena.
    // Sets come back sorted ascending (order-free consumers only);
    // inverted lists decode to exactly the flat index, cut at count_.
    materialized_ = true;
    store::StorageScratch scratch;
    own_set_offsets_.reserve(count_ + 1);
    own_set_offsets_.push_back(0);
    for (std::uint64_t i = 0; i < count_; ++i) {
      std::span<const VertexId> set = arena_->Set(i, &scratch);
      own_flat_.insert(own_flat_.end(), set.begin(), set.end());
      own_set_offsets_.push_back(
          static_cast<std::uint64_t>(own_flat_.size()));
    }
    const auto bound = static_cast<std::uint32_t>(count_);
    own_index_offsets_.reserve(static_cast<std::size_t>(n) + 1);
    own_index_offsets_.push_back(0);
    for (VertexId v = 0; v < n; ++v) {
      std::span<const std::uint32_t> all = arena_->InvertedAll(v, &scratch);
      const std::size_t keep =
          count_ == arena_->capacity()
              ? all.size()
              : static_cast<std::size_t>(
                    std::lower_bound(all.begin(), all.end(), bound) -
                    all.begin());
      own_ids_.insert(own_ids_.end(), all.begin(), all.begin() + keep);
      own_index_offsets_.push_back(
          static_cast<std::uint32_t>(own_ids_.size()));
      cut_[v] = static_cast<std::uint32_t>(keep);
    }
    return;
  }
  if (count_ == arena_->capacity()) {
    // Full-arena view: every inverted list is already entirely in range,
    // so the cut is its length — no binary searches.
    for (VertexId v = 0; v < n; ++v) {
      cut_[v] = static_cast<std::uint32_t>(arena_->InvertedAll(v).size());
    }
    return;
  }
  const auto bound = static_cast<std::uint32_t>(count_);
  for (VertexId v = 0; v < n; ++v) {
    std::span<const std::uint32_t> all = arena_->InvertedAll(v);
    cut_[v] = static_cast<std::uint32_t>(
        std::lower_bound(all.begin(), all.end(), bound) - all.begin());
  }
}

double RrPrefixView::MeanSize() const {
  if (count_ == 0) return 0.0;
  const std::uint64_t entries = arena_->PrefixCounters(count_).sample_vertices;
  return static_cast<double>(entries) / static_cast<double>(count_);
}

}  // namespace soldist
