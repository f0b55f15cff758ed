// Prefix-reusable arena of SCC-condensed sampled worlds: the Snapshot
// counterpart of RrArena, for IC and LT live-edge graphs alike. Sample
// ONCE at the largest τ of a sweep ladder and serve every smaller τ as a
// zero-copy prefix — plus point queries over the sampled worlds
// themselves (reachability probability, expected component size;
// serve/query_service.h).
//
// Why a prefix is exact: snapshot sampling is prefix-closed in the
// master seed. The chunked engine gives chunk c its randomness from
// DeriveSeed(master, c) alone and draws the chunk's snapshots in order,
// so the first τ₁ snapshots of a τ₂ build are byte-identical to a τ₁
// build. Each sampler draws a fixed number of engine words per world
// (DrawsPerWorld), so a build task may also enter a chunk's stream at
// any world by skipping the words of the chunk's earlier worlds: a
// build whose last round of chunks would leave workers idle cuts those
// chunks into pieces that do, and the cut never moves a drawn bit. This
// is the only code that samples condensed worlds: a fresh condensed
// SnapshotEstimator samples a private arena of exactly τ worlds, so an
// estimator borrowing a larger arena's prefix is byte-identical to a
// fresh one (ctest snapshot_arena_test enforces this for both models at
// worker counts 1/2/4/8, on whole chunks and on cut ones).
//
// Warmth: the condensed gain backend pre-seeds its cache and CELF bounds
// from bottom-k DAG sketches. Both the exactness test (len < k ⟺
// reachable count < k) and every bound value are *permutation-
// independent* — a pure function of the snapshot — so the arena
// precomputes warmth once at build, from one rank permutation, and every
// prefix estimator starts from byte-identical warm state whatever the
// arena's capacity.

#ifndef SOLDIST_SIM_SNAPSHOT_ARENA_H_
#define SOLDIST_SIM_SNAPSHOT_ARENA_H_

#include <cstdint>
#include <span>
#include <vector>

#include "model/diffusion.h"
#include "sim/condensed_snapshot.h"
#include "sim/sampling_engine.h"
#include "sim/world_arena.h"

namespace soldist {

/// Sketch width shared by the condensed Snapshot backend and the arena
/// warm pass: sketches saturating below k yield EXACT counts, so k trades
/// bound tightness (fewer CELF refreshes) against per-sketch merge cost.
/// 8 already bounds the long subcritical tail exactly.
inline constexpr int kSnapshotSketchK = 8;

/// Worlds per tile of a pass over sampled worlds: the condensed
/// backend's warm-state Init and a condensed greedy round. Tiles, not
/// sampling chunks (256 worlds), are the unit of parallelism there, so a
/// τ=512 build still spreads over every worker; each world's work is a
/// pure function of the world, so the value never changes a result. It
/// is also the smallest piece a SnapshotArena build cuts a chunk into.
inline constexpr std::uint64_t kSnapshotTileWorlds = 32;

/// `sampling` re-cut into tiles of kSnapshotTileWorlds worlds and never
/// cancelled: the engine options of a pass over sampled worlds.
inline SamplingOptions WorldTiles(SamplingOptions sampling) {
  sampling.chunk_size = kSnapshotTileWorlds;
  sampling.cancel = nullptr;
  return sampling;
}

/// \brief Precomputed warm state of one condensed snapshot: per
/// component, a sound CELF upper bound on its reachable count, and
/// whether that bound is EXACT (the sketch saturated below k — the gain
/// cache can then be pre-seeded with bound[c] as the exact value).
///
/// Pure function of the snapshot: exactness is len < k ⟺ reachable
/// count < k for ANY distinct-rank permutation, exact bounds are the
/// exact counts, and non-exact bounds derive only from exact ones via
/// the topologically capped successor-sum. ctest snapshot_arena_test
/// relies on this to match the warmth of an arena's prefix (one
/// permutation at capacity) against a τ-sized arena's (one permutation
/// at τ) byte for byte.
struct SnapshotWarmth {
  std::vector<std::uint32_t> bound;    ///< per component, sound and tight
  std::vector<std::uint8_t> is_exact;  ///< bound[c] is the exact count

  std::uint64_t MemoryBytes() const {
    return bound.capacity() * sizeof(std::uint32_t) +
           is_exact.capacity() * sizeof(std::uint8_t);
  }
};

/// \brief An immutable arena of `capacity` condensed sampled worlds with
/// precomputed warmth and exact per-prefix sampling-cost attribution.
/// All queries are const: any number of threads may serve estimator
/// prefixes and point queries from one arena concurrently.
class SnapshotArena : public WorldArena {
 public:
  /// Samples `capacity` live-edge graphs of `instance`'s model through
  /// the engine chunk streams every Snapshot backend draws (stream 1 of
  /// each chunk seed). Each build task samples, condenses and warms its
  /// worlds in one pass, the warmth from one rank permutation drawn
  /// first from DeriveSeed(seed, capacity + 1). A task is a whole chunk,
  /// or — for the chunks of a last round that would leave some of the
  /// engine's workers idle (every chunk, when the build has fewer chunks
  /// than workers) — a piece of one worker's share of those chunks'
  /// worlds, at least kSnapshotTileWorlds, which enters the chunk's
  /// stream at its first world by skipping the earlier worlds' draws
  /// (Rng::Discard). A cancel is polled before every world but world 0,
  /// skipped or sampled. Byte-identical at any worker count and cut,
  /// and the first τ worlds of any capacity are those of a τ-sized
  /// arena: a fresh condensed SnapshotEstimator(instance, τ, seed,
  /// kCondensed, sampling) samples exactly SampleFor(instance, seed, τ,
  /// sampling). A fired sampling.cancel truncates the arena to its
  /// completed prefix (capacity() tells; world 0 always lands). LT
  /// requires lt_weights.
  static SnapshotArena SampleFor(const ModelInstance& instance,
                                 std::uint64_t seed, std::uint64_t capacity,
                                 const SamplingOptions& sampling);

  /// SampleFor on the IC model of `ig`.
  static SnapshotArena Sample(const InfluenceGraph& ig, std::uint64_t seed,
                              std::uint64_t capacity,
                              const SamplingOptions& sampling);

  /// Rebuilds an arena from persisted parts (store/arena_io.h): the
  /// condensed worlds, their precomputed warmth (saved rather than
  /// recomputed — the loader has no InfluenceGraph), and per-snapshot
  /// counter deltas. max_components is recomputed; the result is
  /// byte-identical to the arena that was saved.
  static SnapshotArena Restore(VertexId num_vertices,
                               std::vector<CondensedSnapshot> snaps,
                               std::vector<SnapshotWarmth> warmth,
                               const std::vector<TraversalCounters>& per_snapshot);

  ArenaKind kind() const override { return ArenaKind::kSnapshot; }

  const CondensedSnapshot& World(std::uint64_t i) const { return snaps_[i]; }
  const SnapshotWarmth& Warmth(std::uint64_t i) const { return warmth_[i]; }

  /// The first `count` worlds / warmths, for prefix estimators.
  std::span<const CondensedSnapshot> Worlds(std::uint64_t count) const {
    return {snaps_.data(), count};
  }
  std::span<const SnapshotWarmth> Warmths(std::uint64_t count) const {
    return {warmth_.data(), count};
  }

  /// Moves the worlds out of a spent arena; the warmth and counter table
  /// die with it. A fresh condensed SnapshotEstimator keeps only these
  /// after its backend has read the whole arena.
  std::vector<CondensedSnapshot> TakeWorlds() &&;

  /// Largest component count over all worlds (scratch sizing).
  std::uint32_t max_components() const { return max_components_; }

  /// Heap bytes of the arena payloads (worlds + warmth + counters).
  std::uint64_t MemoryBytes() const override;

  /// Content hash over every world's condensation + warmth (Checksum64;
  /// see WorldArena::ContentChecksum). Stable across save/load.
  std::uint64_t ContentChecksum() const override;

 private:
  SnapshotArena() = default;

  std::vector<CondensedSnapshot> snaps_;
  std::vector<SnapshotWarmth> warmth_;
  std::uint32_t max_components_ = 0;
};

}  // namespace soldist

#endif  // SOLDIST_SIM_SNAPSHOT_ARENA_H_
