#include "sim/condensed_snapshot.h"

#include <memory>

#include "random/splitmix64.h"
#include "sim/lt_samplers.h"

namespace soldist {

std::uint64_t CondensedSnapshot::MemoryBytes() const {
  auto vec_bytes = [](const auto& v) {
    return static_cast<std::uint64_t>(v.capacity() * sizeof(v[0]));
  };
  return vec_bytes(comp_of) + vec_bytes(comp_size) + vec_bytes(dag.offsets) +
         vec_bytes(dag.targets) + vec_bytes(rev.offsets) +
         vec_bytes(rev.targets);
}

std::uint32_t CondensedSnapshot::CountReachable(VertexId v) const {
  std::vector<std::uint8_t> visited(num_components(), 0);
  std::vector<std::uint32_t> queue;
  const std::uint32_t start = comp_of[v];
  visited[start] = 1;
  queue.push_back(start);
  std::uint64_t total = 0;
  std::size_t head = 0;
  while (head < queue.size()) {
    std::uint32_t c = queue[head++];
    total += comp_size[c];
    for (std::uint32_t succ : dag.Successors(c)) {
      if (!visited[succ]) {
        visited[succ] = 1;
        queue.push_back(succ);
      }
    }
  }
  return static_cast<std::uint32_t>(total);
}

CondensedSnapshot CondenseSnapshot(const Snapshot& snapshot,
                                   VertexId num_vertices) {
  return SnapshotCondenser(num_vertices).Condense(snapshot);
}

SnapshotCondenser::SnapshotCondenser(VertexId num_vertices)
    : num_vertices_(num_vertices), solver_(num_vertices) {}

CondensedSnapshot SnapshotCondenser::Condense(const Snapshot& snapshot) {
  solver_.Solve(num_vertices_, snapshot.out_offsets, snapshot.out_targets,
                &scc_);
  CondensedSnapshot out;
  CondenseCsrInto(scc_, num_vertices_, snapshot.out_offsets,
                  snapshot.out_targets, &scratch_, &out.dag);

  // Reverse DAG (counting sort by target) straight into the output.
  const std::uint32_t num_components = scc_.num_components();
  const auto num_dag_edges =
      static_cast<std::uint32_t>(out.dag.targets.size());
  out.rev.offsets.assign(static_cast<std::size_t>(num_components) + 1, 0);
  for (std::uint32_t i = 0; i < num_dag_edges; ++i) {
    ++out.rev.offsets[out.dag.targets[i] + 1];
  }
  for (std::uint32_t c = 0; c < num_components; ++c) {
    out.rev.offsets[c + 1] += out.rev.offsets[c];
  }
  out.rev.targets.resize(num_dag_edges);
  rev_cursor_.assign(out.rev.offsets.begin(), out.rev.offsets.end() - 1);
  for (std::uint32_t c = 0; c < num_components; ++c) {
    for (std::uint32_t target : out.dag.Successors(c)) {
      out.rev.targets[rev_cursor_[target]++] = c;
    }
  }

  out.comp_of = scc_.component;  // copy: scc_ scratch persists
  out.comp_size = scc_.size;
  return out;
}

namespace {

/// The body both models share: `Sampler` is SnapshotSampler (IC, built
/// from the InfluenceGraph) or LtSnapshotSampler (LT, built from the
/// LtWeights); both fill a Snapshot through SampleInto.
template <typename Sampler, typename Source>
std::vector<CondensedSnapshotShard> SampleCondensedShardsWith(
    const Source* source, VertexId num_vertices, std::uint64_t master_seed,
    std::uint64_t count, SamplingEngine* engine, bool record_per_snapshot) {
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
      if (record_per_snapshot) shard.per_snapshot.reserve(chunk.shard_size);
    }
    for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
      if (cancel != nullptr && (chunk.index > 0 || i > chunk.begin) &&
          cancel->cancelled()) {
        break;
      }
      const TraversalCounters before = shard.counters;
      slots[slot]->sampler.SampleInto(&rng, &shard.counters,
                                      &slots[slot]->scratch);
      if (record_per_snapshot) {
        shard.per_snapshot.push_back(shard.counters - before);
      }
      shard.snapshots.push_back(
          slots[slot]->condenser.Condense(slots[slot]->scratch));
    }
  });
  return shards;
}

}  // namespace

std::vector<CondensedSnapshotShard> SampleCondensedSnapshotShards(
    const ModelInstance& instance, std::uint64_t master_seed,
    std::uint64_t count, SamplingEngine* engine, bool record_per_snapshot) {
  SOLDIST_CHECK(instance.ig != nullptr);
  const VertexId n = instance.ig->num_vertices();
  if (instance.model == DiffusionModel::kLt) {
    SOLDIST_CHECK(instance.lt_weights != nullptr)
        << "LT instance without LtWeights";
    return SampleCondensedShardsWith<LtSnapshotSampler>(
        instance.lt_weights, n, master_seed, count, engine,
        record_per_snapshot);
  }
  return SampleCondensedShardsWith<SnapshotSampler>(
      instance.ig, n, master_seed, count, engine, record_per_snapshot);
}

}  // namespace soldist
