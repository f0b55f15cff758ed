// Prefix-reusable RR-set arena: sample ONCE at the largest sample number
// of a sweep ladder and serve every smaller sample number as a zero-copy
// prefix view. It is also the only RR-set store RisEstimator reads: a
// fresh RIS build samples a private arena, a reusing one borrows a
// shared arena's prefix.
//
// Why a prefix view is exact (not an approximation): RR sampling is
// prefix-closed in its master seed. The chunked engine streams
// (sim/sampling_engine.h) give chunk c its randomness from
// DeriveSeed(master, c) alone and draw the chunk's sets in order, so the
// first τ₁ sets of a τ₂-set build are byte-identical to a τ₁-set build
// (ctest rr_arena_test enforces this for worker counts 1/2/4, both
// models).
//
// Storage: the payload lives behind a pluggable store::RrStorage backend
// (store/arena_storage.h). Arenas always SAMPLE into the flat layout —
//
//   flat:          [ set 0 vertices | set 1 vertices | ... ]
//   set_offsets:   [0, |R₀|, |R₀|+|R₁|, ...]            (uint64)
//   index_ids:     [ ids of sets containing v=0, v=1, ... ] (uint32, asc)
//   index_offsets: n+1 cuts into index_ids               (uint32)
//   counters_:     PrefixCounterTable (WorldArena base), Prefix(i) = cost
//                  of sets [0,i)
//
// — and ConvertStorage() can then re-home the payload into the
// compressed (delta+varint, decode-on-demand) or mmap-spill backend.
// The raw zero-copy accessors (Set / InvertedAll / InvertedPrefix
// without a scratch) remain flat-only fast paths; backend-agnostic
// callers use the StorageScratch overloads, and RrPrefixView
// materializes the prefix for non-flat arenas so estimators and CELF
// stay identical across backends at every cut.
//
// A prefix view at τ resolves InvertedList(v) by cutting v's ascending id
// list at the first id >= τ (one binary search per vertex, cached in the
// view); the cut length doubles as the initial CELF cover count.

#ifndef SOLDIST_SIM_RR_ARENA_H_
#define SOLDIST_SIM_RR_ARENA_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "model/diffusion.h"
#include "sim/rr_sampler.h"
#include "sim/sampling_engine.h"
#include "sim/world_arena.h"
#include "store/arena_storage.h"
#include "util/status.h"

namespace soldist {

class RrPrefixView;

/// \brief An immutable, index-complete RR-set store sampled once at the
/// ladder maximum; all queries are const, so any number of threads may
/// serve prefix views from one arena concurrently (non-flat backends
/// need one store::StorageScratch per thread). The prefix-closed
/// lifecycle (capacity, prefix counter table, cache budgeting hooks)
/// lives in the shared WorldArena substrate; the payload bytes live
/// behind a store::RrStorage backend.
class RrArena : public WorldArena {
 public:
  /// Samples `capacity` RR sets of `instance`'s model (IC reverse BFS,
  /// LT backward walks; LT requires lt_weights) through the chunked
  /// engine streams, exactly as a fresh RisEstimator(instance, τ, seed,
  /// sampling) does for its private arena: for any τ <= capacity that
  /// build is the byte-identical prefix of this arena, at any worker
  /// count. A fired sampling.cancel truncates the arena to its completed
  /// prefix (capacity() tells).
  static RrArena SampleFor(const ModelInstance& instance, std::uint64_t seed,
                           std::uint64_t capacity,
                           const SamplingOptions& sampling);

  /// SampleFor on the IC model of `ig`.
  static RrArena SampleIc(const InfluenceGraph& ig, std::uint64_t seed,
                          std::uint64_t capacity,
                          const SamplingOptions& sampling);

  /// Rebuilds a FLAT arena from persisted parts (store/arena_io.h): the
  /// flat set array, per-set offsets, and per-set counter deltas. The
  /// inverted index is rebuilt deterministically, so a loaded arena is
  /// byte-identical to the arena that was saved.
  static RrArena FromParts(VertexId num_vertices,
                           std::vector<VertexId> flat,
                           std::vector<std::uint64_t> set_offsets,
                           const std::vector<TraversalCounters>& per_set);

  ArenaKind kind() const override { return ArenaKind::kRr; }

  std::uint64_t total_entries() const { return storage_->total_entries(); }

  /// Zero-copy FLAT fast path (traversal order). Non-flat arenas must use
  /// the StorageScratch overload.
  std::span<const VertexId> Set(std::uint64_t i) const {
    SOLDIST_DCHECK(flat_ != nullptr) << "raw Set() on non-flat arena";
    return flat_->Set(i);
  }

  /// Backend-agnostic set decode; encoded backends return it sorted
  /// ascending (membership identical to flat). The span is valid until
  /// the next call on the same scratch.
  std::span<const VertexId> Set(std::uint64_t i,
                                store::StorageScratch* scratch) const {
    return storage_->Set(i, scratch);
  }

  /// Ascending ids of ALL arena sets containing v (prefix views cut it).
  /// Zero-copy FLAT fast path; non-flat arenas use the scratch overload.
  std::span<const std::uint32_t> InvertedAll(VertexId v) const {
    SOLDIST_DCHECK(flat_ != nullptr) << "raw InvertedAll() on non-flat arena";
    return flat_->InvertedList(v);
  }

  /// Backend-agnostic inverted list — identical across backends.
  std::span<const std::uint32_t> InvertedAll(
      VertexId v, store::StorageScratch* scratch) const {
    return storage_->InvertedAll(v, scratch);
  }

  /// Lazy-cut inverted list: the ids < `count` of sets containing v,
  /// resolved with ONE binary search on demand. This is the point-query
  /// path's alternative to materializing an RrPrefixView, whose
  /// constructor cuts every vertex up front (O(n log capacity)) — a
  /// caller that only ever queries a handful of vertices pays
  /// O(log capacity) per queried vertex instead. `count == capacity()`
  /// short-circuits to InvertedAll with no search at all. FLAT only.
  std::span<const std::uint32_t> InvertedPrefix(VertexId v,
                                                std::uint64_t count) const;

  /// Backend-agnostic lazy-cut inverted list.
  std::span<const std::uint32_t> InvertedPrefix(
      VertexId v, std::uint64_t count, store::StorageScratch* scratch) const;

  /// Logical bytes of the arena payloads (flat + offsets + index +
  /// counters) regardless of residency.
  std::uint64_t MemoryBytes() const override;

  /// Bytes occupying RAM right now (backend-reported; == MemoryBytes for
  /// flat). serve/ArenaCache budgets against this.
  std::uint64_t ResidentBytes() const override;

  /// Backend-stable content hash: Checksum64 over the inverted lists (which
  /// are documented identical across flat/compressed/mmap and fully
  /// determine set membership — the thing every query answers from),
  /// plus the shape. Same sampled data => same checksum on any backend
  /// and across a save/load round-trip.
  std::uint64_t ContentChecksum() const override;

  bool is_flat() const { return flat_ != nullptr; }
  store::ArenaBackend backend() const { return storage_->backend(); }
  const store::RrStorage& storage() const { return *storage_; }
  store::StorageStats storage_stats() const { return storage_->stats(); }

  /// Re-homes the payload into `options.backend`. Only a flat arena can
  /// convert (sampling always produces flat); converting to the current
  /// backend is a no-op. Queries before and after answer identically.
  Status ConvertStorage(const store::StorageOptions& options);

  RrPrefixView Prefix(std::uint64_t count) const;

 private:
  RrArena() = default;
  /// Cuts the shards to their completed prefix when the engine carries a
  /// cancel token, records their per-set counters, and adopts their
  /// MergeRrShards payload (indexed on `engine`).
  void Finalize(std::vector<RrShard>&& shards, SamplingEngine* engine,
                std::uint64_t capacity);
  void AdoptPayload(store::RrFlatPayload&& payload);

  std::shared_ptr<const store::RrStorage> storage_;
  const store::RrFlatPayload* flat_ = nullptr;  // cached fast path, may be null
};

/// \brief A view of the first `count` sets of an arena.
///
/// Query-compatible with the coverage view of an indexed
/// store::RrFlatPayload (sim/max_coverage.h): Set / InvertedList / size /
/// num_vertices, plus the per-vertex cover counts (cut lengths) that seed
/// greedy state for free. Over a flat arena the view is zero-copy; over
/// an encoded backend the constructor materializes the prefix (sets + cut
/// inverted lists) into owned arrays, so estimators and CELF run the
/// identical access pattern — and produce identical results — on every
/// backend.
class RrPrefixView {
 public:
  RrPrefixView(const RrArena* arena, std::uint64_t count);

  std::uint64_t size() const { return count_; }
  VertexId num_vertices() const { return arena_->num_vertices(); }

  std::span<const VertexId> Set(std::uint64_t i) const {
    if (materialized_) {
      return {own_flat_.data() + own_set_offsets_[i],
              own_flat_.data() + own_set_offsets_[i + 1]};
    }
    return arena_->Set(i);
  }

  /// Ascending ids (< size()) of the viewed sets containing v.
  std::span<const std::uint32_t> InvertedList(VertexId v) const {
    if (materialized_) {
      return {own_ids_.data() + own_index_offsets_[v],
              own_ids_.data() + own_index_offsets_[v + 1]};
    }
    return arena_->InvertedAll(v).first(cut_[v]);
  }

  /// |InvertedList(v)|: the initial cover count / CELF gain of v.
  std::uint32_t CoverCount(VertexId v) const { return cut_[v]; }
  const std::vector<std::uint32_t>& CoverCounts() const { return cut_; }

  /// Sampling counters of exactly these sets (see
  /// RrArena::PrefixCounters).
  TraversalCounters Counters() const {
    return arena_->PrefixCounters(count_);
  }

  /// Mean RR-set size over the prefix (empirical EPT).
  double MeanSize() const;

  const RrArena& arena() const { return *arena_; }

 private:
  const RrArena* arena_;
  std::uint64_t count_;
  std::vector<std::uint32_t> cut_;  // per vertex: ids < count_
  // Materialized prefix (non-flat arenas only).
  bool materialized_ = false;
  std::vector<VertexId> own_flat_;
  std::vector<std::uint64_t> own_set_offsets_;
  std::vector<std::uint32_t> own_ids_;
  std::vector<std::uint32_t> own_index_offsets_;
};

}  // namespace soldist

#endif  // SOLDIST_SIM_RR_ARENA_H_
