#include "core/snapshot.h"

#include <algorithm>
#include <cctype>
#include <memory>
#include <numeric>

#include "graph/traversal.h"
#include "random/splitmix64.h"
#include "sim/condensed_snapshot.h"
#include "sim/lt_samplers.h"
#include "sim/snapshot_arena.h"

namespace soldist {
namespace {

template <typename Vec>
std::uint64_t VecBytes(const Vec& v) {
  return static_cast<std::uint64_t>(v.capacity() * sizeof(v[0]));
}

}  // namespace

/// \brief Per-mode reachability backend. Build consumes the SAME sampler
/// streams in every mode, so backends differ only in how (and how fast)
/// they answer reachability — never in what they answer.
class SnapshotEstimator::Backend {
 public:
  virtual ~Backend() = default;
  virtual void Build() = 0;
  /// Σ_i r_i(residual, v) as an exact integer (the caller divides by τ).
  virtual std::uint64_t EstimateTotal(VertexId v) = 0;
  /// totals[j] = EstimateTotal(candidates[j]) for every j, converted to
  /// double exactly as Estimate converts it. The default asks one
  /// candidate at a time, in order.
  virtual void EstimateTotals(std::span<const VertexId> candidates,
                              std::span<double> totals) {
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      totals[j] = static_cast<double>(EstimateTotal(candidates[j]));
    }
  }
  virtual void Update(VertexId v) = 0;
  /// Σ_i bound_i(v); only the condensed backend implements it.
  virtual std::uint64_t InitialBoundTotal(VertexId v) {
    (void)v;
    SOLDIST_CHECK(false) << "backend has no initial bounds";
    return 0;
  }
  virtual std::uint64_t MemoryBytes() const = 0;
};

namespace {

/// kNaive / kResidual: the pre-condensation code, verbatim — full
/// snapshots in CSR form, per-candidate BFS on the (residual) live-edge
/// graphs. The BFS never looks at the model: IC and LT differ only in
/// the sampler that draws the live edges.
class FullSnapshotBackend : public SnapshotEstimator::Backend {
 public:
  FullSnapshotBackend(const ModelInstance& instance, std::uint64_t tau,
                      std::uint64_t seed, SnapshotEstimator::Mode mode,
                      const SamplingOptions& sampling,
                      TraversalCounters* counters)
      : instance_(instance),
        n_(instance.ig->num_vertices()),
        tau_(tau),
        seed_(seed),
        mode_(mode),
        sampling_(sampling),
        sampler_(instance.ig),
        counters_(counters),
        visited_(n_) {
    queue_.reserve(n_);
  }

  void Build() override {
    snapshots_.reserve(tau_);
    SamplingEngine engine(sampling_);
    std::vector<SnapshotShard> shards =
        SampleSnapshotShardsFor(instance_, seed_, tau_, &engine);
    for (SnapshotShard& shard : shards) {
      *counters_ += shard.counters;
      for (Snapshot& snap : shard.snapshots) {
        snapshots_.push_back(std::move(snap));
      }
    }
    if (mode_ == SnapshotEstimator::Mode::kNaive) {
      base_reach_.assign(tau_, 0);  // r_i(∅) = 0
    } else {
      removed_.assign(tau_ * static_cast<std::uint64_t>(n_), 0);
    }
  }

  std::uint64_t EstimateTotal(VertexId v) override {
    std::uint64_t total = 0;
    if (mode_ == SnapshotEstimator::Mode::kNaive) {
      scratch_.assign(seeds_.begin(), seeds_.end());
      scratch_.push_back(v);
      for (std::size_t i = 0; i < snapshots_.size(); ++i) {
        total += sampler_.CountReachable(snapshots_[i], scratch_,
                                         counters_) -
                 base_reach_[i];
      }
    } else {
      const VertexId source[1] = {v};
      for (std::size_t i = 0; i < snapshots_.size(); ++i) {
        total += ResidualReach(i, source, /*mark_removed=*/false);
      }
    }
    return total;
  }

  void Update(VertexId v) override {
    seeds_.push_back(v);
    if (mode_ == SnapshotEstimator::Mode::kNaive) {
      for (std::size_t i = 0; i < snapshots_.size(); ++i) {
        base_reach_[i] = static_cast<std::uint32_t>(
            sampler_.CountReachable(snapshots_[i], seeds_, counters_));
      }
    } else {
      const VertexId source[1] = {v};
      for (std::size_t i = 0; i < snapshots_.size(); ++i) {
        ResidualReach(i, source, /*mark_removed=*/true);
      }
    }
  }

  std::uint64_t MemoryBytes() const override {
    std::uint64_t bytes = VecBytes(base_reach_) + VecBytes(removed_) +
                          VecBytes(seeds_) + VecBytes(queue_) +
                          VecBytes(scratch_) +
                          static_cast<std::uint64_t>(visited_.size()) * 4;
    for (const Snapshot& snap : snapshots_) {
      bytes += VecBytes(snap.out_offsets) + VecBytes(snap.out_targets);
    }
    return bytes;
  }

 private:
  /// Reachable-count from `sources` in snapshot i, skipping vertices
  /// already removed from the residual graph (residual mode only; in
  /// naive mode nothing is ever removed).
  std::uint32_t ResidualReach(std::size_t i,
                              std::span<const VertexId> sources,
                              bool mark_removed) {
    const Snapshot& snap = snapshots_[i];
    const std::uint8_t* removed =
        removed_.data() + i * static_cast<std::uint64_t>(n_);
    visited_.NextEpoch();
    queue_.clear();
    for (VertexId s : sources) {
      if (removed[s]) continue;
      if (visited_.Mark(s)) queue_.push_back(s);
    }
    std::size_t head = 0;
    while (head < queue_.size()) {
      VertexId u = queue_[head++];
      counters_->vertices += 1;
      const EdgeId begin = snap.out_offsets[u];
      const EdgeId end = snap.out_offsets[u + 1];
      counters_->edges += end - begin;
      for (EdgeId e = begin; e < end; ++e) {
        VertexId w = snap.out_targets[e];
        if (removed[w] || visited_.IsMarked(w)) continue;
        visited_.Mark(w);
        queue_.push_back(w);
      }
    }
    if (mark_removed) {
      auto* removed_mut =
          removed_.data() + i * static_cast<std::uint64_t>(n_);
      for (VertexId u : queue_) removed_mut[u] = 1;
    }
    return static_cast<std::uint32_t>(queue_.size());
  }

  ModelInstance instance_;
  VertexId n_;
  std::uint64_t tau_;
  std::uint64_t seed_;
  SnapshotEstimator::Mode mode_;
  SamplingOptions sampling_;
  SnapshotSampler sampler_;  // its model-agnostic reachability BFS only
  TraversalCounters* counters_;
  std::vector<Snapshot> snapshots_;
  /// Naive mode: r_i(S) for the current seed set S.
  std::vector<std::uint32_t> base_reach_;
  std::vector<VertexId> seeds_;
  /// Residual mode: removed_[i * n + v] = 1 when v was deleted from H_i.
  std::vector<std::uint8_t> removed_;
  VisitedMarker visited_;
  std::vector<VertexId> queue_;
  std::vector<VertexId> scratch_;
};

/// kCondensed: SCC DAGs with incrementally maintained marginal gains.
///
/// Exactness argument, component by component:
///  * Condensation preserves reachability, so r_i(v) = Σ sizes of the
///    DAG components reachable from comp(v).
///  * Every set removed by Update is a reachability set — closed under
///    successors and a union of whole components (reaching one member of
///    an SCC reaches all of it). Hence "removed" is component-granular
///    and successor-closed, and a residual walk may skip removed
///    components without missing live ones (a live component reachable
///    only through removed ones would itself be removed).
///  * Gains are cached per (snapshot, component); Update invalidates a
///    conservative superset of the stale entries — the live DAG
///    *ancestors* of the newly removed components (precise reverse walk)
///    or, when the removal is large, every entry of the snapshot (O(1)
///    generation bump). Invalidation can only cause recomputation, never
///    change a value.
///
/// Layout, tuned for the access pattern (τ up to 2^16 snapshots means
/// every per-snapshot indirection in Estimate is a cache miss):
///  * comp_of is TRANSPOSED after Build into one vertex-major array —
///    Estimate(v) streams its τ component ids sequentially;
///  * per-component state is one packed 8-byte {value, gen} record in a
///    single flat array (removed = sentinel generation), so the state
///    lookup is one cache line, not three.
///
/// Greedy rounds (EstimateTotals) cut the τ worlds into tiles of
/// kSnapshotTileWorlds and run them as SamplingEngine chunks on the
/// estimator's own SamplingOptions: on the build's pool, or inline when
/// there is no pool or the caller already runs on a pool worker. A tile
/// streams every candidate through its worlds only, so one tile's slice
/// of the gain cache stays hot, and only the tile that owns a world reads
/// or writes that world's cache entries — each world sees the same
/// queries in the same candidate order as a per-vertex loop. Every worker
/// slot keeps its own BFS scratch, partial totals and counters, summed
/// after the run; totals and counters are integer sums, so values and
/// counters are byte-identical at every width. Single-vertex
/// EstimateTotal runs the same tile kernel over [0, τ).
///
/// The worlds come from one of two places: a fresh build samples and
/// owns them (and frees each world's comp_of once it is transposed); a
/// borrowing build serves the first τ worlds of a SnapshotArena with the
/// arena's precomputed warmth (sim/snapshot_arena.h). Init is
/// deterministic and counter-free — the warm cache entries and CELF
/// bound totals are pure functions of the worlds (order-independent
/// integer sums) — so the same worlds + warmth yield byte-identical state
/// no matter who owns the worlds or how they were chunked.
class CondensedBackend : public SnapshotEstimator::Backend {
 public:
  /// A null `arena` means a fresh build of `instance`.
  CondensedBackend(const ModelInstance& instance, const SnapshotArena* arena,
                   std::uint64_t tau, std::uint64_t seed,
                   const SamplingOptions& sampling,
                   TraversalCounters* counters)
      : instance_(instance),
        arena_(arena),
        tau_(tau),
        seed_(seed),
        sampling_(sampling),
        counters_(counters) {}

  void Build() override {
    if (arena_ != nullptr) {
      // The sampling cost of exactly the first τ worlds — identical to
      // what a fresh build at τ would have accumulated.
      *counters_ = arena_->PrefixCounters(tau_);
      Init(arena_->Worlds(tau_), arena_->num_vertices(),
           arena_->Warmths(tau_));
      return;
    }
    // Sampling, warmth and every greedy round share one pool: the
    // caller's, or for a width without one a private pool that lives as
    // long as the backend.
    SOLDIST_CHECK(sampling_.num_threads >= 0);
    if (sampling_.pool == nullptr && sampling_.num_threads != 1) {
      owned_pool_ = std::make_unique<ThreadPool>(
          static_cast<std::size_t>(sampling_.num_threads));
      sampling_.pool = owned_pool_.get();
    }
    owned_.reserve(tau_);
    // Same chunk streams as kNaive/kResidual, condensed sample by sample
    // so the raw CSR never accumulates.
    SamplingEngine engine(sampling_);
    std::vector<CondensedSnapshotShard> shards =
        SampleCondensedSnapshotShards(instance_, seed_, tau_, &engine);
    for (CondensedSnapshotShard& shard : shards) {
      *counters_ += shard.counters;
      for (CondensedSnapshot& snap : shard.snapshots) {
        owned_.push_back(std::move(snap));
      }
    }
    // Warmth (sketch exact counts + CELF bounds) is a pure function of
    // each snapshot — the permutation stream below only orders the
    // sketch internals, never the results — so this matches a
    // SnapshotArena's precomputed warmth byte for byte.
    const VertexId n = instance_.ig->num_vertices();
    const std::vector<SnapshotWarmth> warmth = ComputeSnapshotWarmth(
        owned_, n, DeriveSeed(seed_, tau_ + 1), sampling_);
    Init(owned_, n, warmth);
    // comp_of now lives transposed in comp_of_by_vertex_; free the
    // per-snapshot copies (a transpose, not a second copy).
    for (CondensedSnapshot& snap : owned_) {
      std::vector<std::uint32_t>().swap(snap.comp_of);
    }
  }

  std::uint64_t EstimateTotal(VertexId v) override {
    TileScratch& scratch = slots_[0];
    scratch.totals.assign(1, 0);
    SweepTile(0, snaps_.size(), std::span<const VertexId>(&v, 1), &scratch);
    *counters_ += scratch.counters;
    scratch.counters.Reset();
    return scratch.totals[0];
  }

  void EstimateTotals(std::span<const VertexId> candidates,
                      std::span<double> totals) override {
    for (TileScratch& scratch : slots_) {
      scratch.totals.assign(candidates.size(), 0);
    }
    // The seed is unused: a tile draws no randomness.
    sweep_->Run(/*master_seed=*/0, snaps_.size(),
                [&](const SamplingEngine::Chunk& tile, std::size_t slot) {
                  SweepTile(tile.begin, tile.end, candidates, &slots_[slot]);
                });
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      std::uint64_t total = 0;
      for (const TileScratch& scratch : slots_) total += scratch.totals[j];
      totals[j] = static_cast<double>(total);
    }
    for (TileScratch& scratch : slots_) {
      *counters_ += scratch.counters;
      scratch.counters.Reset();
    }
  }

  void Update(VertexId v) override {
    VisitedMarker& visited = slots_[0].visited;
    std::vector<std::uint32_t>& queue = slots_[0].queue;
    const std::uint32_t* comps = comp_of_by_vertex_.data() +
                                 static_cast<std::uint64_t>(v) * snaps_.size();
    for (std::size_t i = 0; i < snaps_.size(); ++i) {
      const CondensedSnapshot& snap = snaps_[i];
      CompState* state = state_.data() + state_offset_[i];
      const std::uint32_t c = comps[i];
      if (state[c].gen == kRemovedGen) continue;  // r_i gains nothing

      // Forward walk over the live DAG: the components the new seed
      // removes from snapshot i.
      visited.NextEpoch();
      queue.clear();
      visited.Mark(c);
      queue.push_back(c);
      std::size_t head = 0;
      while (head < queue.size()) {
        std::uint32_t u = queue[head++];
        counters_->vertices += 1;
        auto successors = snap.dag.Successors(u);
        counters_->edges += successors.size();
        for (std::uint32_t w : successors) {
          if (state[w].gen == kRemovedGen || visited.IsMarked(w)) continue;
          visited.Mark(w);
          queue.push_back(w);
        }
      }
      for (std::uint32_t u : queue) state[u].gen = kRemovedGen;
      live_[i] -= static_cast<std::uint32_t>(queue.size());

      // Cached gains are now stale exactly for the live ANCESTORS of the
      // newly removed components. For a big removal (the typical first
      // seed wipes the hub region, whose ancestors are most of the DAG)
      // a generation bump invalidates everything in O(1) — cheaper than
      // walking ancestors that cover the DAG anyway. For small removals
      // a precise reverse walk preserves the untouched caches.
      // Previously removed components cannot sit on a path INTO the
      // newly removed set (their successors were removed with them), so
      // the reverse walk skips them without losing an ancestor.
      if (queue.size() * 4 > live_[i]) {
        ++generation_[i];
        continue;
      }
      const std::uint32_t stale = generation_[i] - 1;  // != generation
      rqueue_.assign(queue.begin(), queue.end());
      head = 0;
      while (head < rqueue_.size()) {
        std::uint32_t u = rqueue_[head++];
        counters_->vertices += 1;
        auto predecessors = snap.rev.Successors(u);
        counters_->edges += predecessors.size();
        for (std::uint32_t p : predecessors) {
          if (state[p].gen == kRemovedGen || visited.IsMarked(p)) continue;
          visited.Mark(p);
          state[p].gen = stale;
          rqueue_.push_back(p);
        }
      }
    }
  }

  std::uint64_t InitialBoundTotal(VertexId v) override {
    return bound_total_[v];
  }

  /// Bookkeeping bytes, every worker slot's sweep scratch, and the worlds
  /// a fresh build owns (a borrowing build's worlds belong to the arena
  /// and are not counted).
  std::uint64_t MemoryBytes() const override {
    std::uint64_t bytes =
        VecBytes(bound_total_) + VecBytes(rqueue_) + VecBytes(state_) +
        VecBytes(state_offset_) + VecBytes(generation_) + VecBytes(live_) +
        VecBytes(comp_of_by_vertex_);
    for (const TileScratch& scratch : slots_) {
      bytes += VecBytes(scratch.queue) + VecBytes(scratch.totals) +
               static_cast<std::uint64_t>(scratch.visited.size()) * 4;
    }
    for (const CondensedSnapshot& snap : owned_) bytes += snap.MemoryBytes();
    return bytes;
  }

 private:
  /// One worker slot's scratch for a tiled sweep (slot 0 also serves
  /// single-vertex estimates and Update). A slot runs one tile at a time,
  /// so nothing here needs a lock; each slot has cache lines of its own.
  struct alignas(64) TileScratch {
    VisitedMarker visited{0};           // component ids, max-C sized
    std::vector<std::uint32_t> queue;
    std::vector<std::uint64_t> totals;  // per candidate, this slot's tiles
    TraversalCounters counters;
  };

  /// Sizes the packed state, pre-seeds the gain cache from warmth's
  /// exact entries, accumulates the per-vertex CELF bound totals, and
  /// transposes comp_of vertex-major (comp_of_by_vertex_[v·τ + i]) so
  /// the Estimate/Update hot loops stream their per-vertex component ids
  /// sequentially instead of taking one cache miss per snapshot. A
  /// fresh build frees each world's comp_of afterwards; an arena keeps
  /// them for point queries.
  void Init(std::span<const CondensedSnapshot> snaps, VertexId n,
            std::span<const SnapshotWarmth> warmth) {
    SOLDIST_CHECK(warmth.size() == snaps.size());
    snaps_ = snaps;
    std::uint32_t max_components = 0;
    state_offset_.resize(snaps_.size() + 1);
    for (std::size_t i = 0; i < snaps_.size(); ++i) {
      const std::uint32_t c = snaps_[i].num_components();
      state_offset_[i + 1] = state_offset_[i] + c;
      max_components = std::max(max_components, c);
    }
    // gen 0 != generation 1: everything starts stale (then the warmth
    // pass below pre-seeds the saturated components).
    state_.assign(state_offset_.back(), CompState{0, 0});
    generation_.assign(snaps_.size(), 1);
    live_.resize(snaps_.size());
    for (std::size_t i = 0; i < snaps_.size(); ++i) {
      live_[i] = snaps_[i].num_components();
    }
    // The round sweep's engine, on the same pool as the build (a
    // borrowing build has none and sweeps inline). Rounds are never
    // cancelled, so it keeps no pointer to the build's cancel token.
    sweep_ = std::make_unique<SamplingEngine>(WorldTiles(sampling_));
    // Component-granular scratch: sized to the largest DAG, not to n
    // (the scratch-per-mode contract MemoryBytes reports on).
    slots_.resize(sweep_->num_workers());
    for (TileScratch& scratch : slots_) {
      scratch.visited.Resize(max_components);
      scratch.queue.reserve(max_components);
    }
    rqueue_.reserve(max_components);
    const std::uint64_t stride = snaps_.size();  // vertex-major rows
    comp_of_by_vertex_.resize(static_cast<std::uint64_t>(n) * stride);
    bound_total_.assign(n, 0);
    for (std::size_t i = 0; i < snaps_.size(); ++i) {
      const CondensedSnapshot& snap = snaps_[i];
      const SnapshotWarmth& w = warmth[i];
      CompState* state = state_.data() + state_offset_[i];
      const std::uint32_t num_components = snap.num_components();
      for (std::uint32_t c = 0; c < num_components; ++c) {
        if (w.is_exact[c]) {
          // Exact warmth IS the reachable count: pre-seed the gain
          // cache so the first greedy iteration is a lookup for the
          // long small-reach tail.
          state[c].value = w.bound[c];
          state[c].gen = 1;  // == the initial generation: warm
        }
      }
      const std::uint32_t* comp_of = snap.comp_of.data();
      std::uint32_t* transposed = comp_of_by_vertex_.data() + i;
      for (VertexId v = 0; v < n; ++v) {
        bound_total_[v] += w.bound[comp_of[v]];
        transposed[static_cast<std::uint64_t>(v) * stride] = comp_of[v];
      }
    }
  }

  /// Packed per-(snapshot, component) state: one 8-byte record, one
  /// cache line per lookup. gen == kRemovedGen marks the component
  /// removed; otherwise value is valid iff gen == generation_[snapshot].
  struct CompState {
    std::uint32_t value;
    std::uint32_t gen;
  };
  static constexpr std::uint32_t kRemovedGen = ~0u;

  /// The tile kernel: adds each candidate's gain summed over worlds
  /// [begin, end) to scratch->totals[j], refreshing stale cache entries
  /// of those worlds only. Candidates go through the worlds in order, so
  /// every world sees its queries in candidate order.
  void SweepTile(std::size_t begin, std::size_t end,
                 std::span<const VertexId> candidates, TileScratch* scratch) {
    const std::uint64_t stride = snaps_.size();
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      const std::uint32_t* comps =
          comp_of_by_vertex_.data() +
          static_cast<std::uint64_t>(candidates[j]) * stride;
      std::uint64_t total = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t c = comps[i];
        CompState& cs = state_[state_offset_[i] + c];
        if (cs.gen == kRemovedGen) continue;
        if (cs.gen != generation_[i]) {
          cs.value = ResidualDagReach(i, c, scratch);
          cs.gen = generation_[i];
        }
        total += cs.value;
      }
      scratch->totals[j] += total;
    }
  }

  /// Exact residual reach of component c in snapshot i: BFS over the live
  /// DAG summing member counts. Counter accounting is component-granular
  /// — that reduction (DAG nodes/arcs instead of live vertices/edges) is
  /// precisely what bench_snapshot_backends records.
  std::uint32_t ResidualDagReach(std::size_t i, std::uint32_t c,
                                 TileScratch* scratch) {
    const CondensedSnapshot& snap = snaps_[i];
    const CompState* state = state_.data() + state_offset_[i];
    VisitedMarker& visited = scratch->visited;
    std::vector<std::uint32_t>& queue = scratch->queue;
    visited.NextEpoch();
    queue.clear();
    visited.Mark(c);
    queue.push_back(c);
    std::uint64_t total = 0;
    std::size_t head = 0;
    while (head < queue.size()) {
      std::uint32_t u = queue[head++];
      scratch->counters.vertices += 1;
      total += snap.comp_size[u];
      auto successors = snap.dag.Successors(u);
      scratch->counters.edges += successors.size();
      for (std::uint32_t w : successors) {
        if (state[w].gen == kRemovedGen || visited.IsMarked(w)) continue;
        visited.Mark(w);
        queue.push_back(w);
      }
    }
    return static_cast<std::uint32_t>(total);
  }

  ModelInstance instance_;  // fresh build only
  const SnapshotArena* arena_;  // borrowing build only
  std::uint64_t tau_;
  std::uint64_t seed_;
  SamplingOptions sampling_;
  std::unique_ptr<ThreadPool> owned_pool_;  // a width without a pool
  TraversalCounters* counters_;
  std::vector<CondensedSnapshot> owned_;  // a fresh build's worlds
  std::span<const CondensedSnapshot> snaps_;  // owned_ or the arena prefix
  /// comp_of_by_vertex_[v·τ + i] = component of v in snapshot i.
  std::vector<std::uint32_t> comp_of_by_vertex_;
  std::vector<CompState> state_;            // flat, all snapshots
  std::vector<std::uint64_t> state_offset_; // per snapshot, into state_
  std::vector<std::uint32_t> generation_;   // per snapshot
  std::vector<std::uint32_t> live_;         // live components per snapshot
  std::vector<std::uint64_t> bound_total_;  // per vertex, Σ_i bound_i
  std::unique_ptr<SamplingEngine> sweep_;   // tiles of a greedy round
  std::vector<TileScratch> slots_;          // one per sweep worker slot
  std::vector<std::uint32_t> rqueue_;       // Update's reverse walk
};

}  // namespace

SnapshotEstimator::SnapshotEstimator(const ModelInstance& instance,
                                     std::uint64_t tau, std::uint64_t seed,
                                     Mode mode,
                                     const SamplingOptions& sampling)
    : instance_(instance),
      tau_(tau),
      seed_(seed),
      mode_(mode),
      sampling_(sampling) {
  SOLDIST_CHECK(instance_.ig != nullptr);
  SOLDIST_CHECK(tau_ >= 1);
}

SnapshotEstimator::SnapshotEstimator(const SnapshotArena* arena,
                                     std::uint64_t tau)
    : arena_(arena), tau_(tau), mode_(Mode::kCondensed) {
  SOLDIST_CHECK(arena_ != nullptr);
  SOLDIST_CHECK(tau_ >= 1);
  SOLDIST_CHECK(tau_ <= arena_->capacity())
      << "prefix " << tau_ << " exceeds arena capacity "
      << arena_->capacity();
}

SnapshotEstimator::~SnapshotEstimator() = default;

void SnapshotEstimator::Build() {
  SOLDIST_CHECK(!built_) << "Build() must be called exactly once";
  built_ = true;
  // Scratch and residual state are owned (and sized) by the mode's
  // backend: the condensed backend keeps component-granular state only
  // and never allocates the O(n)-per-snapshot arrays of the full modes.
  if (mode_ == Mode::kCondensed) {
    backend_ = std::make_unique<CondensedBackend>(
        instance_, arena_, tau_, seed_, sampling_, &counters_);
  } else {
    backend_ = std::make_unique<FullSnapshotBackend>(
        instance_, tau_, seed_, mode_, sampling_, &counters_);
  }
  backend_->Build();
}

double SnapshotEstimator::Estimate(VertexId v) {
  SOLDIST_CHECK(built_);
  return static_cast<double>(backend_->EstimateTotal(v)) /
         static_cast<double>(tau_);
}

void SnapshotEstimator::EstimateAll(std::span<const VertexId> candidates,
                                    std::span<double> out) {
  SOLDIST_CHECK(built_);
  SOLDIST_CHECK(out.size() == candidates.size());
  backend_->EstimateTotals(candidates, out);
  for (double& total : out) total /= static_cast<double>(tau_);
}

void SnapshotEstimator::Update(VertexId v) {
  SOLDIST_CHECK(built_);
  backend_->Update(v);
}

double SnapshotEstimator::InitialBound(VertexId v) {
  SOLDIST_CHECK(built_);
  SOLDIST_CHECK(mode_ == Mode::kCondensed);
  return static_cast<double>(backend_->InitialBoundTotal(v)) /
         static_cast<double>(tau_);
}

std::uint64_t SnapshotEstimator::MemoryBytes() const {
  return backend_ == nullptr ? 0 : backend_->MemoryBytes();
}

std::string SnapshotModeName(SnapshotEstimator::Mode mode) {
  switch (mode) {
    case SnapshotEstimator::Mode::kNaive:
      return "naive";
    case SnapshotEstimator::Mode::kResidual:
      return "residual";
    case SnapshotEstimator::Mode::kCondensed:
      return "condensed";
  }
  return "?";
}

StatusOr<SnapshotEstimator::Mode> ParseSnapshotMode(
    const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "naive") return SnapshotEstimator::Mode::kNaive;
  if (lower == "residual") return SnapshotEstimator::Mode::kResidual;
  if (lower == "condensed") return SnapshotEstimator::Mode::kCondensed;
  return Status::InvalidArgument(
      "unknown snapshot mode: '" + name +
      "' (expected naive, residual, or condensed)");
}

}  // namespace soldist
