#include "sim/snapshot_arena.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "graph/reach_sketch.h"
#include "random/splitmix64.h"
#include "sim/lt_samplers.h"
#include "util/logging.h"

namespace soldist {
namespace {

/// A run of consecutive condensed snapshots, with each one's counter
/// delta (the arena's prefix counter table is built from these).
struct CondensedSnapshotShard {
  std::vector<CondensedSnapshot> snapshots;
  std::vector<TraversalCounters> per_snapshot;
};

/// The body both models share: `Sampler` is SnapshotSampler (IC, built
/// from the InfluenceGraph) or LtSnapshotSampler (LT, built from the
/// LtWeights); both fill a Snapshot through SampleInto.
template <typename Sampler, typename Source>
std::vector<CondensedSnapshotShard> SampleCondensedShardsWith(
    const Source* source, VertexId num_vertices, std::uint64_t master_seed,
    std::uint64_t count, SamplingEngine* engine) {
  std::vector<CondensedSnapshotShard> shards(engine->NumShards(count));
  // Per-worker-slot scratch (sampler, condenser, one reusable raw
  // snapshot): schedule-dependent but output-invisible — every chunk's
  // randomness comes from its own derived stream and condensation is a
  // pure function of the sampled snapshot.
  struct Slot {
    Sampler sampler;
    SnapshotCondenser condenser;
    Snapshot scratch;
    Slot(const Source* source, VertexId n) : sampler(source), condenser(n) {}
  };
  std::vector<std::unique_ptr<Slot>> slots(engine->num_workers());
  const CancelToken* cancel = engine->cancel();
  engine->Run(master_seed, count,
              [&](const SamplingEngine::Chunk& chunk, std::size_t slot) {
    // Cooperative cancel (see SampleRrShards): skip whole chunks past
    // chunk 0 once the token fires; a short or empty shard marks the cut.
    if (cancel != nullptr && chunk.index > 0 && cancel->cancelled()) {
      return;
    }
    if (slots[slot] == nullptr) {
      slots[slot] = std::make_unique<Slot>(source, num_vertices);
    }
    // Stream 1 of the chunk seed: byte-identical live-edge graphs to the
    // raw snapshot shards, so kCondensed condenses exactly the snapshots
    // kNaive and kResidual walk.
    Rng rng(DeriveSeed(chunk.seed, 1));
    CondensedSnapshotShard& shard = shards[chunk.shard];
    if (shard.snapshots.empty()) {
      shard.snapshots.reserve(chunk.shard_size);
      shard.per_snapshot.reserve(chunk.shard_size);
    }
    for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
      if (cancel != nullptr && (chunk.index > 0 || i > chunk.begin) &&
          cancel->cancelled()) {
        break;
      }
      TraversalCounters delta;
      slots[slot]->sampler.SampleInto(&rng, &delta, &slots[slot]->scratch);
      shard.per_snapshot.push_back(delta);
      shard.snapshots.push_back(
          slots[slot]->condenser.Condense(slots[slot]->scratch));
    }
  });
  return shards;
}

/// Samples `count` live-edge graphs of `instance`'s model through
/// `engine` (same chunk streams and shard layout as SampleSnapshotShards /
/// SampleLtSnapshotShards, so a condensed build sees byte-identical
/// live-edge graphs) and condenses each inside its chunk worker; the raw
/// CSR never outlives the sample. Shard concatenation is
/// worker-count-independent. Honors engine->cancel() like
/// SampleRrShards. LT requires instance.lt_weights.
std::vector<CondensedSnapshotShard> SampleCondensedSnapshotShards(
    const ModelInstance& instance, std::uint64_t master_seed,
    std::uint64_t count, SamplingEngine* engine) {
  const VertexId n = instance.ig->num_vertices();
  if (instance.model == DiffusionModel::kLt) {
    SOLDIST_CHECK(instance.lt_weights != nullptr)
        << "LT instance without LtWeights";
    return SampleCondensedShardsWith<LtSnapshotSampler>(
        instance.lt_weights, n, master_seed, count, engine);
  }
  return SampleCondensedShardsWith<SnapshotSampler>(instance.ig, n,
                                                    master_seed, count, engine);
}

/// Computes warmth for every snapshot: ONE distinct-rank permutation
/// drawn from Rng(perm_seed), bottom-k sketches per DAG, then the capped
/// successor-sum bounds. Runs on world tiles (WorldTiles(sampling)) with
/// per-slot sketcher scratch; each snapshot's warmth is a pure function
/// of that snapshot, so neither the tiles nor the worker count change a
/// byte.
std::vector<SnapshotWarmth> ComputeSnapshotWarmth(
    std::span<const CondensedSnapshot> snaps, VertexId num_vertices,
    std::uint64_t perm_seed, const SamplingOptions& sampling) {
  const VertexId n = num_vertices;
  // ONE random permutation of ranks (perm[v]+1)/n shared by all
  // sketches: only rank distinctness matters for exactness, and a fixed
  // assignment keeps the per-snapshot cost at the merges. (The stream
  // never touches results — see the permutation-independence note in the
  // header.)
  Rng rng(perm_seed);
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), VertexId{0});
  std::shuffle(perm.begin(), perm.end(), rng.engine());
  std::vector<double> ranks(n);
  std::vector<VertexId> by_rank(n);  // inverse permutation = rank order
  for (VertexId v = 0; v < n; ++v) {
    ranks[v] = static_cast<double>(perm[v] + 1) / static_cast<double>(n);
    by_rank[perm[v]] = v;
  }

  std::vector<SnapshotWarmth> warmth(snaps.size());
  struct Slot {
    DagSketcher sketcher;
    DagSketches sketches;
    Slot(VertexId n, int k) : sketcher(n, k) {}
  };
  auto warm_range = [&](std::uint64_t begin, std::uint64_t end, Slot* slot) {
    for (std::uint64_t i = begin; i < end; ++i) {
      const CondensedSnapshot& snap = snaps[i];
      SOLDIST_CHECK(!snap.comp_of.empty())
          << "snapshot " << i << " has no comp_of (already transposed?)";
      const std::uint32_t num_components = snap.num_components();
      slot->sketcher.Sketch(snap.comp_of, n, snap.dag, ranks, by_rank,
                            &slot->sketches);
      SnapshotWarmth& w = warmth[i];
      w.bound.resize(num_components);
      w.is_exact.assign(num_components, 0);
      std::uint64_t prefix = 0;  // Σ size over ids ≤ c ⊇ descendants
      for (std::uint32_t c = 0; c < num_components; ++c) {
        prefix += snap.comp_size[c];
        if (slot->sketches.IsExact(c)) {
          // Saturated below k: len IS the exact reachable count.
          w.bound[c] = slot->sketches.len[c];
          w.is_exact[c] = 1;
          continue;
        }
        std::uint64_t sum = snap.comp_size[c];
        for (std::uint32_t succ : snap.dag.Successors(c)) {
          sum += w.bound[succ];
          if (sum >= prefix) break;  // already at the cap
        }
        w.bound[c] = static_cast<std::uint32_t>(std::min(sum, prefix));
      }
    }
  };

  SamplingEngine engine(WorldTiles(sampling));
  std::vector<std::unique_ptr<Slot>> slots(engine.num_workers());
  engine.Run(/*master_seed=*/0, static_cast<std::uint64_t>(snaps.size()),
             [&](const SamplingEngine::Chunk& chunk, std::size_t idx) {
    if (slots[idx] == nullptr) {
      slots[idx] = std::make_unique<Slot>(n, kSnapshotSketchK);
    }
    warm_range(chunk.begin, chunk.end, slots[idx].get());
  });
  return warmth;
}

}  // namespace

SnapshotArena SnapshotArena::SampleFor(const ModelInstance& instance,
                                       std::uint64_t seed,
                                       std::uint64_t capacity,
                                       const SamplingOptions& sampling) {
  SOLDIST_CHECK(instance.ig != nullptr);
  SOLDIST_CHECK(capacity >= 1);
  SnapshotArena arena;
  arena.num_vertices_ = instance.ig->num_vertices();
  arena.snaps_.reserve(capacity);
  arena.counters_.Reserve(capacity);
  SamplingEngine engine(sampling);
  std::vector<CondensedSnapshotShard> shards =
      SampleCondensedSnapshotShards(instance, seed, capacity, &engine);
  const std::uint64_t actual =
      sampling.cancel == nullptr
          ? capacity
          : engine.TruncateToCompletedPrefix(
                &shards, capacity, [](const CondensedSnapshotShard& shard) {
                  return shard.snapshots.size();
                });
  for (CondensedSnapshotShard& shard : shards) {
    for (std::size_t j = 0; j < shard.snapshots.size(); ++j) {
      arena.counters_.Append(shard.per_snapshot[j]);
      arena.snaps_.push_back(std::move(shard.snapshots[j]));
    }
  }
  SOLDIST_CHECK(arena.capacity() == actual);
  for (const CondensedSnapshot& snap : arena.snaps_) {
    arena.max_components_ =
        std::max(arena.max_components_, snap.num_components());
  }
  // Warmth permutation stream: off the sampler chunk streams. Any
  // distinct-rank permutation yields the same warmth (header note), so
  // the capacity in the derivation cannot change a byte of a prefix.
  arena.warmth_ = ComputeSnapshotWarmth(
      arena.snaps_, arena.num_vertices_, DeriveSeed(seed, capacity + 1),
      sampling);
  return arena;
}

SnapshotArena SnapshotArena::Sample(const InfluenceGraph& ig,
                                    std::uint64_t seed,
                                    std::uint64_t capacity,
                                    const SamplingOptions& sampling) {
  return SampleFor(ModelInstance::Ic(&ig), seed, capacity, sampling);
}

SnapshotArena SnapshotArena::Restore(
    VertexId num_vertices, std::vector<CondensedSnapshot> snaps,
    std::vector<SnapshotWarmth> warmth,
    const std::vector<TraversalCounters>& per_snapshot) {
  SOLDIST_CHECK(!snaps.empty());
  SOLDIST_CHECK(snaps.size() == warmth.size());
  SOLDIST_CHECK(snaps.size() == per_snapshot.size());
  SnapshotArena arena;
  arena.num_vertices_ = num_vertices;
  arena.counters_.Reserve(per_snapshot.size());
  for (const TraversalCounters& delta : per_snapshot) {
    arena.counters_.Append(delta);
  }
  arena.snaps_ = std::move(snaps);
  arena.warmth_ = std::move(warmth);
  for (const CondensedSnapshot& snap : arena.snaps_) {
    arena.max_components_ =
        std::max(arena.max_components_, snap.num_components());
  }
  return arena;
}

std::vector<CondensedSnapshot> SnapshotArena::TakeWorlds() && {
  return std::move(snaps_);
}

std::uint64_t SnapshotArena::MemoryBytes() const {
  std::uint64_t bytes = counters_.MemoryBytes();
  for (const CondensedSnapshot& snap : snaps_) bytes += snap.MemoryBytes();
  for (const SnapshotWarmth& w : warmth_) bytes += w.MemoryBytes();
  return bytes;
}

std::uint64_t SnapshotArena::ContentChecksum() const {
  const std::uint64_t cap = capacity();
  const std::uint64_t n = num_vertices_;
  std::uint64_t hash = Fnv1a64(&cap, sizeof(cap));
  hash = Fnv1a64(&n, sizeof(n), hash);
  const auto mix = [&hash](const auto& vec) {
    const std::uint64_t len = vec.size();
    hash = Fnv1a64(&len, sizeof(len), hash);
    if (!vec.empty()) {
      hash = Fnv1a64(vec.data(), vec.size() * sizeof(vec[0]), hash);
    }
  };
  for (std::uint64_t i = 0; i < cap; ++i) {
    const CondensedSnapshot& snap = snaps_[i];
    mix(snap.comp_of);
    mix(snap.comp_size);
    mix(snap.dag.offsets);
    mix(snap.dag.targets);
    mix(snap.rev.offsets);
    mix(snap.rev.targets);
    mix(warmth_[i].bound);
    mix(warmth_[i].is_exact);
  }
  return hash;
}

}  // namespace soldist
