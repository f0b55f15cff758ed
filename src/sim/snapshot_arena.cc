#include "sim/snapshot_arena.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "graph/reach_sketch.h"
#include "random/splitmix64.h"
#include "sim/lt_samplers.h"
#include "util/checksum.h"
#include "util/logging.h"

namespace soldist {
namespace {

/// One build task: worlds [begin, end) of sampling chunk `chunk`.
struct WorldRange {
  std::uint64_t chunk;
  std::uint64_t begin;
  std::uint64_t end;
};

/// What one build task produced: its worlds, condensed and warmed, with
/// each world's counter delta (the arena's prefix counter table is built
/// from these). A run shorter than its task was cut by a cancel.
struct WorldRun {
  std::vector<CondensedSnapshot> worlds;
  std::vector<SnapshotWarmth> warmth;
  std::vector<TraversalCounters> per_world;
};

/// Cuts [0, count) into build tasks that never cross a sampling chunk.
/// Whole chunks fill the workers `engine` keeps busy round after round;
/// the chunks of a last, partial round (every chunk, when the build has
/// fewer chunks than workers) are cut into pieces of one worker's share
/// of their worlds, and at least kSnapshotTileWorlds (the last piece of
/// a chunk may be shorter). So a τ=512 build of two 256-world chunks
/// spreads over four workers, and a fifth chunk does not run alone. A
/// piece skips the draws of its chunk's earlier worlds; the skips add up
/// to about (workers − 1) / 2 times the draws of the chunks cut at most,
/// whatever the chunk size. An inline build, or one whose chunks fill
/// whole rounds, keeps whole chunks and skips no draws.
std::vector<WorldRange> CutBuildTasks(const SamplingEngine& engine,
                                      std::uint64_t count) {
  const std::uint64_t chunk_size = engine.chunk_size();
  const std::uint64_t num_chunks = engine.NumChunks(count);
  const std::uint64_t workers = engine.ActiveWorkers();
  const std::uint64_t first_cut = num_chunks - num_chunks % workers;
  const std::uint64_t cut_worlds =
      count - std::min(count, first_cut * chunk_size);
  const std::uint64_t piece =
      std::max(kSnapshotTileWorlds, (cut_worlds + workers - 1) / workers);
  std::vector<WorldRange> tasks;
  for (std::uint64_t c = 0; c < num_chunks; ++c) {
    const std::uint64_t chunk_begin = c * chunk_size;
    const std::uint64_t chunk_end = std::min(chunk_begin + chunk_size, count);
    const std::uint64_t step = c < first_cut ? chunk_size : piece;
    for (std::uint64_t b = chunk_begin; b < chunk_end; b += step) {
      tasks.push_back({c, b, std::min(b + step, chunk_end)});
    }
  }
  return tasks;
}

/// The rank order every world's warmth sketches share: ONE random
/// permutation of ranks (perm[v]+1)/n drawn from Rng(perm_seed). Only
/// rank distinctness matters for exactness, and a fixed assignment keeps
/// the per-world cost at the merges. (The stream never touches results —
/// see the permutation-independence note in the header.)
struct WarmthRanks {
  std::vector<double> ranks;
  std::vector<VertexId> by_rank;  // inverse permutation = rank order

  WarmthRanks(VertexId n, std::uint64_t perm_seed) : ranks(n), by_rank(n) {
    Rng rng(perm_seed);
    std::vector<VertexId> perm(n);
    std::iota(perm.begin(), perm.end(), VertexId{0});
    std::shuffle(perm.begin(), perm.end(), rng.engine());
    for (VertexId v = 0; v < n; ++v) {
      ranks[v] = static_cast<double>(perm[v] + 1) / static_cast<double>(n);
      by_rank[perm[v]] = v;
    }
  }
};

/// Warmth of one world: bottom-k sketches of its DAG under `ranks`, then
/// the capped successor-sum bounds. A pure function of the world.
SnapshotWarmth WarmWorld(const CondensedSnapshot& snap, VertexId n,
                         const WarmthRanks& ranks, DagSketcher* sketcher,
                         DagSketches* sketches) {
  const std::uint32_t num_components = snap.num_components();
  sketcher->Sketch(snap.comp_of, n, snap.dag, ranks.ranks, ranks.by_rank,
                   sketches);
  SnapshotWarmth w;
  w.bound.resize(num_components);
  w.is_exact.assign(num_components, 0);
  std::uint64_t prefix = 0;  // Σ size over ids ≤ c ⊇ descendants
  for (std::uint32_t c = 0; c < num_components; ++c) {
    prefix += snap.comp_size[c];
    if (sketches->IsExact(c)) {
      // Saturated below k: len IS the exact reachable count.
      w.bound[c] = sketches->len[c];
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
  return w;
}

/// The body both models share: `Sampler` is SnapshotSampler (IC, built
/// from the InfluenceGraph) or LtSnapshotSampler (LT, built from the
/// LtWeights); both fill a Snapshot through SampleInto and draw
/// DrawsPerWorld() engine words per world. Returns the runs of the
/// completed prefix, in world order.
template <typename Sampler, typename Source>
std::vector<WorldRun> SampleWorldsWith(const Source* source,
                                       VertexId num_vertices,
                                       std::uint64_t master_seed,
                                       std::uint64_t count,
                                       const WarmthRanks& ranks,
                                       SamplingEngine* engine) {
  const std::vector<WorldRange> tasks = CutBuildTasks(*engine, count);
  std::vector<WorldRun> runs(tasks.size());
  // Per-worker-slot scratch (sampler, condenser, one reusable raw
  // snapshot, sketcher): schedule-dependent but output-invisible — every
  // world's draws come from its chunk's stream, and condensing and
  // warming are pure functions of the sampled world.
  struct Slot {
    Sampler sampler;
    SnapshotCondenser condenser;
    Snapshot scratch;
    DagSketcher sketcher;
    DagSketches sketches;
    Slot(const Source* source, VertexId n)
        : sampler(source), condenser(n), sketcher(n, kSnapshotSketchK) {}
  };
  std::vector<std::unique_ptr<Slot>> slots(engine->num_workers());
  // Cooperative cancel (see SampleRrShards): every world but world 0
  // polls the token first, so at least one world always lands and a
  // short run marks the cut.
  const CancelToken* cancel = engine->cancel();
  const auto stopped = [cancel](std::uint64_t world) {
    return world > 0 && cancel != nullptr && cancel->cancelled();
  };
  engine->RunTasks(tasks.size(), [&](std::uint64_t t, std::size_t s) {
    const WorldRange& task = tasks[t];
    if (stopped(task.begin)) return;
    if (slots[s] == nullptr) {
      slots[s] = std::make_unique<Slot>(source, num_vertices);
    }
    Slot& slot = *slots[s];
    // Stream 1 of the chunk seed: byte-identical live-edge graphs to the
    // raw snapshot shards, so kCondensed condenses exactly the snapshots
    // kNaive and kResidual walk. A piece enters it at its first world by
    // skipping the words the chunk's earlier worlds draw, one world at a
    // time so that a cancel still lands during the skip.
    Rng rng(DeriveSeed(DeriveSeed(master_seed, task.chunk), 1));
    for (std::uint64_t i = task.chunk * engine->chunk_size(); i < task.begin;
         ++i) {
      if (stopped(i)) return;
      rng.Discard(slot.sampler.DrawsPerWorld());
    }
    WorldRun& run = runs[t];
    run.worlds.reserve(task.end - task.begin);
    run.warmth.reserve(task.end - task.begin);
    run.per_world.reserve(task.end - task.begin);
    for (std::uint64_t i = task.begin; i < task.end; ++i) {
      if (i > task.begin && stopped(i)) break;
      TraversalCounters delta;
      slot.sampler.SampleInto(&rng, &delta, &slot.scratch);
      run.per_world.push_back(delta);
      run.worlds.push_back(slot.condenser.Condense(slot.scratch));
      run.warmth.push_back(WarmWorld(run.worlds.back(), num_vertices, ranks,
                                     &slot.sketcher, &slot.sketches));
    }
  });
  // Tasks run in world order: the first short run ends the prefix whose
  // worlds all landed. Because every world draws only from its chunk's
  // stream, the survivors equal a direct build at their count.
  std::size_t kept = 0;
  while (kept < runs.size()) {
    const WorldRange& task = tasks[kept];
    const bool complete = runs[kept].worlds.size() == task.end - task.begin;
    ++kept;
    if (!complete) break;
  }
  runs.resize(kept);
  return runs;
}

}  // namespace

SnapshotArena SnapshotArena::SampleFor(const ModelInstance& instance,
                                       std::uint64_t seed,
                                       std::uint64_t capacity,
                                       const SamplingOptions& sampling) {
  SOLDIST_CHECK(instance.ig != nullptr);
  SOLDIST_CHECK(capacity >= 1);
  const VertexId n = instance.ig->num_vertices();
  // Warmth permutation stream: off the sampler chunk streams, drawn
  // before any world. Any distinct-rank permutation yields the same
  // warmth (header note), so the capacity in the derivation cannot
  // change a byte of a prefix.
  const WarmthRanks ranks(n, DeriveSeed(seed, capacity + 1));
  SamplingEngine engine(sampling);
  std::vector<WorldRun> runs;
  if (instance.model == DiffusionModel::kLt) {
    SOLDIST_CHECK(instance.lt_weights != nullptr)
        << "LT instance without LtWeights";
    runs = SampleWorldsWith<LtSnapshotSampler>(instance.lt_weights, n, seed,
                                               capacity, ranks, &engine);
  } else {
    runs = SampleWorldsWith<SnapshotSampler>(instance.ig, n, seed, capacity,
                                             ranks, &engine);
  }
  std::uint64_t kept = 0;
  for (const WorldRun& run : runs) kept += run.worlds.size();
  SOLDIST_CHECK(kept == capacity || sampling.cancel != nullptr);
  SnapshotArena arena;
  arena.num_vertices_ = n;
  arena.snaps_.reserve(kept);
  arena.warmth_.reserve(kept);
  arena.counters_.Reserve(kept);
  for (WorldRun& run : runs) {
    for (std::size_t j = 0; j < run.worlds.size(); ++j) {
      arena.counters_.Append(run.per_world[j]);
      arena.max_components_ =
          std::max(arena.max_components_, run.worlds[j].num_components());
      arena.snaps_.push_back(std::move(run.worlds[j]));
      arena.warmth_.push_back(std::move(run.warmth[j]));
    }
  }
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
  Checksum64 sum;
  sum.Update(&cap, sizeof(cap));
  sum.Update(&n, sizeof(n));
  const auto mix = [&sum](const auto& vec) {
    const std::uint64_t len = vec.size();
    sum.Update(&len, sizeof(len));
    sum.Update(vec.data(), vec.size() * sizeof(vec[0]));
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
  return sum.Digest();
}

}  // namespace soldist
