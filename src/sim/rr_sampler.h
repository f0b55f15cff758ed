// Reverse-reachable (RR) set sampling (paper Definition 3.1): the
// primitive behind RIS and behind the shared influence oracle.
//
// An RR set for target z is the set of vertices that can reach z in a
// live-edge random graph; for a uniformly random z,
// Pr[R ∩ S != ∅] = Inf(S)/n (Borgs et al., Observation 3.2).

#ifndef SOLDIST_SIM_RR_SAMPLER_H_
#define SOLDIST_SIM_RR_SAMPLER_H_

#include <memory>
#include <vector>

#include "graph/traversal.h"
#include "model/influence_graph.h"
#include "random/rng.h"
#include "random/splitmix64.h"
#include "sim/counters.h"
#include "sim/sampling_engine.h"
#include "store/arena_storage.h"

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

/// \brief One chunk's worth of RR sets in flat+offsets (CSR) form.
/// Produced by SampleRrShards and SampleLtRrShards; MergeRrShards
/// concatenates a build's shards into one indexed RR payload.
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
/// the merged payload — is byte-identical for any worker count.
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

/// Concatenates `shards` in shard order into one flat RR payload and
/// counting-sorts its inverted index on `engine`'s workers (null =
/// inline; sim/inverted_index.h). The first shard's flat buffer is
/// adopted (an inline build's one shard is never copied), and every
/// shard is freed before the index is built. The payload is a pure function of the shards' contents,
/// whatever the engine's width. Set ids and index offsets are 32-bit, so
/// the shards must hold fewer than 2^32 sets and entries (CHECKed).
store::RrFlatPayload MergeRrShards(VertexId num_vertices,
                                   std::vector<RrShard> shards,
                                   SamplingEngine* engine);

}  // namespace soldist

#endif  // SOLDIST_SIM_RR_SAMPLER_H_
