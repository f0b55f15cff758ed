// Reverse-reachable (RR) set sampling (paper Definition 3.1): the
// primitive behind RIS and behind the shared influence oracle.
//
// An RR set for target z is the set of vertices that can reach z in a
// live-edge random graph; for a uniformly random z,
// Pr[R ∩ S != ∅] = Inf(S)/n (Borgs et al., Observation 3.2).

#ifndef SOLDIST_SIM_RR_SAMPLER_H_
#define SOLDIST_SIM_RR_SAMPLER_H_

#include <memory>
#include <span>
#include <vector>

#include "graph/traversal.h"
#include "model/influence_graph.h"
#include "random/rng.h"
#include "random/splitmix64.h"
#include "sim/counters.h"
#include "sim/sampling_engine.h"

namespace soldist {

/// \brief Generates RR sets by reverse BFS with per-in-edge coin flips.
///
/// Matches the paper's PRNG discipline (Section 4.1): one stream picks the
/// random target, a second stream drives the edge coins.
///
/// Each dequeued vertex's in-arcs are scanned in two passes. The first,
/// branch-free, collects the arcs whose source is not yet marked; the
/// second flips coins at exactly those arcs in arc order and re-checks
/// the mark first, because GraphBuilder keeps parallel arcs and an
/// earlier copy may just have marked the source. Coins, sets and
/// counters are those of a one-pass loop that tests the mark before
/// every coin (rr_sampler_test keeps it as the reference).
class RrSampler {
 public:
  /// CHECKs that the graph's largest in-degree fits in 32 bits.
  explicit RrSampler(const InfluenceGraph* ig);

  /// Samples one RR set for a uniformly random target into `*out`
  /// (cleared first; target is out->front()).
  ///
  /// Accounting (paper Section 3.5.2): every vertex added to R is scanned
  /// (+1 vertex) and all its in-edges are examined (+d−(v) edges); the RR
  /// set's weight w(R) = Σ_{v∈R} d−(v) is exactly the edge count. Stored
  /// entries are sample size (counters->sample_vertices += |R|).
  void Sample(Rng* target_rng, Rng* coin_rng, std::vector<VertexId>* out,
              TraversalCounters* counters);

  /// Samples an RR set for a *fixed* target (tests; oracle stratification).
  void SampleForTarget(VertexId target, Rng* coin_rng,
                       std::vector<VertexId>* out,
                       TraversalCounters* counters);

  const InfluenceGraph& influence_graph() const { return *ig_; }

 private:
  const InfluenceGraph* ig_;
  VisitedMarker visited_;
  /// First-pass output: offsets, from the vertex's first in-arc, of the
  /// arcs with an unmarked source. Sized to the largest in-degree.
  std::vector<std::uint32_t> unmarked_;
};

/// \brief One chunk's worth of RR sets in flat+offsets (CSR) form, ready
/// for a bulk RrCollection::Merge. Produced by SampleRrShards.
struct RrShard {
  std::vector<VertexId> flat;
  std::vector<std::uint64_t> offsets;  ///< local: offsets[0] = 0
  TraversalCounters counters;
  /// Per-set counter deltas (set i of this shard cost per_set[i]); filled
  /// only when the sampler was asked to record them (RrArena needs them to
  /// attribute exact costs to every prefix).
  std::vector<TraversalCounters> per_set;

  std::uint64_t num_sets() const {
    return offsets.empty() ? 0
                           : static_cast<std::uint64_t>(offsets.size()) - 1;
  }
};

/// Samples `count` RR sets through `engine` into engine->NumShards(count)
/// shards (one per chunk, or a single one for an inline run).
///
/// Chunk c derives its (target, coin) stream pair from the chunk seed
/// DeriveSeed(master_seed, c), so the shard concatenation — and therefore
/// the merged collection — is byte-identical for any worker count.
/// `record_per_set` additionally fills RrShard::per_set (never affects
/// the sampled content: recording draws nothing from the streams).
///
/// Cooperative cancel (engine->cancel()): once the token fires, later
/// chunks skip and the running chunk stops between sets — except before
/// the first set, which always lands. The shards then hold a contiguous
/// prefix of the full build up to the first short or empty shard.
std::vector<RrShard> SampleRrShards(const InfluenceGraph& ig,
                                    std::uint64_t master_seed,
                                    std::uint64_t count,
                                    SamplingEngine* engine,
                                    bool record_per_set = false);

namespace internal {

/// The body SampleRrShards and SampleLtRrShards share: `make_sampler()`
/// returns a std::unique_ptr to a sampler with RrSampler's Sample
/// signature, built at most once per worker slot and reused across
/// chunks (scratch never affects output — every chunk's randomness comes
/// from its own derived streams).
template <typename MakeSampler>
std::vector<RrShard> SampleRrShardsWith(const MakeSampler& make_sampler,
                                        std::uint64_t master_seed,
                                        std::uint64_t count,
                                        SamplingEngine* engine,
                                        bool record_per_set) {
  std::vector<RrShard> shards(engine->NumShards(count));
  std::vector<decltype(make_sampler())> samplers(engine->num_workers());
  // Per-slot running mean RR-set size: a fresh per-chunk shard pre-
  // reserves its flat buffer instead of growing it through doubling
  // reallocations (a single inline shard just grows geometrically). Slot
  // statistics are schedule-dependent scratch — capacity only, never
  // content.
  struct SlotStats {
    std::uint64_t sets = 0;
    std::uint64_t entries = 0;
  };
  std::vector<SlotStats> stats(engine->num_workers());
  const CancelToken* cancel = engine->cancel();
  engine->Run(master_seed, count,
              [&](const SamplingEngine::Chunk& chunk, std::size_t slot) {
    if (cancel != nullptr && chunk.index > 0 && cancel->cancelled()) return;
    if (samplers[slot] == nullptr) samplers[slot] = make_sampler();
    Rng target_rng(DeriveSeed(chunk.seed, 1));
    Rng coin_rng(DeriveSeed(chunk.seed, 2));
    RrShard& shard = shards[chunk.shard];
    SlotStats& st = stats[slot];
    if (shard.offsets.empty()) {
      shard.offsets.reserve(chunk.shard_size + 1);
      shard.offsets.push_back(0);
      if (record_per_set) shard.per_set.reserve(chunk.shard_size);
      if (st.sets > 0) {
        const double mean = static_cast<double>(st.entries) /
                            static_cast<double>(st.sets);
        shard.flat.reserve(static_cast<std::size_t>(
                               mean * static_cast<double>(chunk.shard_size) *
                               1.25) +
                           16);
      }
    }
    const std::size_t entries_before = shard.flat.size();
    std::vector<VertexId> rr_set;
    for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
      if (cancel != nullptr && (chunk.index > 0 || i > chunk.begin) &&
          cancel->cancelled()) {
        break;
      }
      const TraversalCounters before = shard.counters;
      samplers[slot]->Sample(&target_rng, &coin_rng, &rr_set,
                             &shard.counters);
      if (record_per_set) shard.per_set.push_back(shard.counters - before);
      shard.flat.insert(shard.flat.end(), rr_set.begin(), rr_set.end());
      shard.offsets.push_back(static_cast<std::uint64_t>(shard.flat.size()));
    }
    st.sets += chunk.end - chunk.begin;
    st.entries += shard.flat.size() - entries_before;
  });
  return shards;
}

}  // namespace internal

/// \brief A flattened collection of RR sets with an inverted index.
///
/// Storage: entries of set i are flat()[offsets()[i] .. offsets()[i+1]).
/// The inverted index maps vertex v to the ids of the RR sets containing
/// v, enabling O(Σ_v |index(v)|) coverage queries.
class RrCollection {
 public:
  explicit RrCollection(VertexId num_vertices);

  /// Appends one RR set (entries need not be sorted).
  void Add(const std::vector<VertexId>& rr_set);

  /// Bulk-appends shards in shard order: one flat+offsets (CSR-style)
  /// splice per shard instead of a per-set Add loop. Call BuildIndex()
  /// once afterwards.
  void Merge(std::span<const RrShard> shards);

  /// Move overload: when the collection is still empty, the first
  /// shard's flat buffer is adopted wholesale instead of copied (the
  /// single largest allocation of an engine-routed RIS/IMM build);
  /// remaining shards append as usual.
  void Merge(std::vector<RrShard>&& shards);

  std::uint64_t size() const { return static_cast<std::uint64_t>(offsets_.size()) - 1; }
  std::uint64_t total_entries() const {
    return static_cast<std::uint64_t>(flat_.size());
  }
  VertexId num_vertices() const { return num_vertices_; }

  std::span<const VertexId> Set(std::uint64_t i) const {
    return {flat_.data() + offsets_[i], flat_.data() + offsets_[i + 1]};
  }

  /// Builds the vertex -> set-ids index; call after the last Add/Merge and
  /// before InvertedList/CountCovered. Incremental: only sets appended
  /// since the previous build are counting-sorted in (their ids are larger
  /// than every indexed id, so per-vertex lists stay ascending and the
  /// already-indexed prefix is a bulk copy, not a scattered re-placement);
  /// a call with no new sets is a DCHECK-guarded no-op (IMM's
  /// Merge-then-select rounds hit both cases every run). The sort runs on
  /// `engine`'s workers (null = inline) and its output never depends on
  /// their number (sim/inverted_index.h). Set ids and offsets are 32-bit:
  /// a collection must stay under 2^32 entries (CHECKed; the paper-full
  /// grids top out at ~2^28).
  void BuildIndex(SamplingEngine* engine = nullptr);

  /// Ids of the RR sets containing v, ascending. Requires BuildIndex().
  std::span<const std::uint32_t> InvertedList(VertexId v) const;

  /// Number of RR sets intersecting `seeds` (requires BuildIndex()).
  std::uint64_t CountCovered(std::span<const VertexId> seeds) const;

  /// Mean RR-set size: the empirical EPT of Section 3.5.2.
  double MeanSize() const;

 private:
  VertexId num_vertices_;
  std::vector<VertexId> flat_;
  std::vector<std::uint64_t> offsets_;  // size() + 1 entries
  std::vector<std::uint32_t> index_flat_;
  std::vector<std::uint32_t> index_offsets_;  // n + 1 entries once built
  std::uint64_t indexed_sets_ = 0;  // sets covered by the current index
  bool index_built_ = false;
  // Scratch for CountCovered (mutable: queries are logically const).
  mutable std::vector<std::uint32_t> covered_stamp_;
  mutable std::uint32_t covered_epoch_ = 0;
};

}  // namespace soldist

#endif  // SOLDIST_SIM_RR_SAMPLER_H_
