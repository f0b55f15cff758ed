#include "core/snapshot.h"

#include <algorithm>
#include <cctype>
#include <memory>
#include <numeric>

#include "graph/traversal.h"
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
///    or, when the removal is large, every live entry of the snapshot
///    (one O(C) marking pass). Invalidation can only cause
///    recomputation, never change a value.
///  * total_[v] keeps Σ_i (cached gain of v's live component in snapshot
///    i): Update subtracts a removed component's gain from each member,
///    and a refresh adds (new − old) to each member. Once the stale
///    components holding v are refreshed, total_[v] = Σ_i r_i(v).
///
/// Layout, tuned for the access pattern (τ up to 2^16 snapshots means
/// every per-snapshot indirection in Estimate is a cache miss):
///  * comp_of is TRANSPOSED after Build into one vertex-major array —
///    Estimate(v) streams its τ component ids sequentially;
///  * per-component state is one packed 4-byte word in a single flat
///    array: the cached gain, a stale bit, and an all-ones removed
///    sentinel;
///  * one u32 member reference per component — the vertex itself for a
///    singleton, otherwise an offset into the snapshot's list of the
///    members of non-singleton components — lets a refresh or removal
///    reach the members' totals;
///  * each snapshot has kDirtySlots slots for its stale components; a
///    snapshot whose stale set outgrows them, was invalidated wholesale,
///    or was never scored is flagged for a full scan of its components.
///
/// Greedy rounds (EstimateTotals) cut the τ worlds into tiles of
/// kSnapshotTileWorlds and run them as SamplingEngine chunks on the
/// estimator's own SamplingOptions: on the build's pool, or inline when
/// there is no pool or the caller already runs on a pool worker. A tile
/// visits each of its worlds' dirty slots (all components when flagged)
/// and refreshes the stale live components that hold a candidate; only
/// the tile that owns a world reads or writes its state. Every worker
/// slot keeps its own BFS scratch, counters and per-vertex deltas, summed
/// into total_ after the run, and each score is read from total_. The
/// removed set is fixed within a round, so a refresh costs the same walk
/// in any order, and the per-vertex loop refreshes exactly the same
/// components: values and counters are byte-identical at every width. A
/// round costs the walks it counts plus O(n). Single-vertex
/// EstimateTotal keeps the lazy path: it refreshes v's stale components
/// world by world, pushing the same deltas, and sums v's gains directly
/// — the loop tests hold the totals against.
///
/// The worlds always come from a SnapshotArena (sim/snapshot_arena.h):
/// Build serves its first τ worlds with their precomputed warmth. A
/// borrowing build leaves them in the shared arena; a fresh build
/// samples a private arena of exactly τ worlds, then KeepWorlds takes
/// the worlds out of it and frees each world's comp_of, which Init has
/// transposed. Init is deterministic and counter-free — the warm cache
/// entries and CELF bound totals are pure functions of the worlds
/// (order-independent integer sums) — so the same worlds + warmth yield
/// byte-identical state whatever the arena's capacity or chunking, and
/// whatever the width its per-world work runs at (the rounds' tiles and
/// pool). Init sizes every array the backend uses; rounds and updates
/// grow none of them.
class CondensedBackend : public SnapshotEstimator::Backend {
 public:
  /// `arena` must hold at least τ worlds and outlive Build — and the
  /// backend, unless KeepWorlds takes its worlds.
  CondensedBackend(const SnapshotArena* arena, std::uint64_t tau,
                   const SamplingOptions& sampling,
                   TraversalCounters* counters)
      : arena_(arena), tau_(tau), sampling_(sampling), counters_(counters) {}

  void Build() override {
    // The sampling cost of exactly the first τ worlds — identical to
    // what a τ-sized arena accumulated.
    *counters_ = arena_->PrefixCounters(tau_);
    Init(arena_->Worlds(tau_), arena_->num_vertices(), arena_->Warmths(tau_));
  }

  /// Adopts `worlds`, the τ worlds Build read, moved out of the private
  /// arena (a moved vector keeps its buffer, so snaps_ still views
  /// them), and frees their comp_of: it lives on transposed in
  /// comp_of_by_vertex_ (a transpose, not a second copy).
  void KeepWorlds(std::vector<CondensedSnapshot> worlds) {
    SOLDIST_CHECK(worlds.data() == snaps_.data() &&
                  worlds.size() == snaps_.size());
    owned_ = std::move(worlds);
    arena_ = nullptr;
    for (CondensedSnapshot& snap : owned_) {
      std::vector<std::uint32_t>().swap(snap.comp_of);
    }
  }

  std::uint64_t EstimateTotal(VertexId v) override {
    TileScratch& scratch = slots_[0];
    const std::uint32_t* comps = comp_of_by_vertex_.data() +
                                 static_cast<std::uint64_t>(v) * snaps_.size();
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < snaps_.size(); ++i) {
      const std::uint32_t c = comps[i];
      std::uint32_t word = state_[state_offset_[i] + c];
      if (word == kRemoved) continue;
      if (word >= kStale) word = Refresh(i, c, &scratch, total_.data());
      total += word;
    }
    *counters_ += scratch.counters;
    scratch.counters.Reset();
    return total;
  }

  void EstimateTotals(std::span<const VertexId> candidates,
                      std::span<double> totals) override {
    for (VertexId v : candidates) is_candidate_[v] = 1;
    // The seed is unused: a tile draws no randomness.
    sweep_->Run(/*master_seed=*/0, snaps_.size(),
                [&](const SamplingEngine::Chunk& tile, std::size_t slot) {
                  RefreshTile(tile.begin, tile.end, &slots_[slot]);
                });
    for (VertexId v : candidates) is_candidate_[v] = 0;
    for (TileScratch& scratch : slots_) {
      *counters_ += scratch.counters;
      scratch.counters.Reset();
      for (std::size_t u = 0; u < total_.size(); ++u) {
        total_[u] += scratch.deltas[u];
        scratch.deltas[u] = 0;
      }
    }
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      totals[j] = static_cast<double>(total_[candidates[j]]);
    }
  }

  void Update(VertexId v) override {
    VisitedMarker& visited = slots_[0].visited;
    std::vector<std::uint32_t>& queue = slots_[0].queue;
    const std::uint32_t* comps = comp_of_by_vertex_.data() +
                                 static_cast<std::uint64_t>(v) * snaps_.size();
    for (std::size_t i = 0; i < snaps_.size(); ++i) {
      const CondensedSnapshot& snap = snaps_[i];
      std::uint32_t* state = state_.data() + state_offset_[i];
      const std::uint32_t c = comps[i];
      if (state[c] == kRemoved) continue;  // r_i gains nothing

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
          if (state[w] == kRemoved || visited.IsMarked(w)) continue;
          visited.Mark(w);
          queue.push_back(w);
        }
      }
      // A removed component's cached gain leaves its members' totals.
      for (std::uint32_t u : queue) {
        const std::uint32_t gain = state[u] & ~kStale;
        state[u] = kRemoved;
        if (gain == 0) continue;
        for (VertexId member : Members(i, u)) total_[member] -= gain;
      }
      live_[i] -= static_cast<std::uint32_t>(queue.size());

      // Cached gains are now stale exactly for the live ANCESTORS of the
      // newly removed components. For a big removal (the typical first
      // seed wipes the hub region, whose ancestors are most of the DAG)
      // one pass over the snapshot's components marks every live entry
      // stale — cheaper than walking ancestors that cover the DAG anyway.
      // The pass runs even when the snapshot is already flagged for a
      // full scan: per-vertex Estimate calls may have refreshed entries
      // since. For small removals a precise reverse walk preserves the
      // untouched caches. Previously removed components cannot sit on a
      // path INTO the newly removed set (their successors were removed
      // with them), so the reverse walk skips them without losing an
      // ancestor.
      if (queue.size() * 4 > live_[i]) {
        for (std::uint32_t& word :
             std::span<std::uint32_t>(state, snap.num_components())) {
          if (word != kRemoved) word |= kStale;
        }
        dirty_count_[i] = kFullScan;
        continue;
      }
      rqueue_.assign(queue.begin(), queue.end());
      head = 0;
      while (head < rqueue_.size()) {
        std::uint32_t u = rqueue_[head++];
        counters_->vertices += 1;
        auto predecessors = snap.rev.Successors(u);
        counters_->edges += predecessors.size();
        for (std::uint32_t p : predecessors) {
          if (state[p] == kRemoved || visited.IsMarked(p)) continue;
          visited.Mark(p);
          rqueue_.push_back(p);
          if (state[p] >= kStale) continue;  // already queued or flagged
          state[p] |= kStale;
          std::uint32_t& count = dirty_count_[i];
          if (count < kDirtySlots) {
            dirty_[i * kDirtySlots + count++] = p;
          } else {
            count = kFullScan;
          }
        }
      }
    }
  }

  std::uint64_t InitialBoundTotal(VertexId v) override {
    return bound_total_[v];
  }

  /// Bookkeeping bytes (state words, member references and lists, dirty
  /// slots, running totals), every worker slot's sweep scratch, and the
  /// worlds a fresh build owns. A borrowing build's worlds belong to the
  /// arena and are not counted.
  std::uint64_t MemoryBytes() const override {
    std::uint64_t bytes =
        VecBytes(bound_total_) + VecBytes(rqueue_) + VecBytes(state_) +
        VecBytes(state_offset_) + VecBytes(member_ref_) +
        VecBytes(members_) + VecBytes(member_offset_) + VecBytes(dirty_) +
        VecBytes(dirty_count_) + VecBytes(live_) + VecBytes(total_) +
        VecBytes(is_candidate_) + VecBytes(comp_of_by_vertex_);
    for (const TileScratch& scratch : slots_) {
      bytes += VecBytes(scratch.queue) + VecBytes(scratch.deltas) +
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
    VisitedMarker visited{0};  // component ids, max-C sized
    std::vector<std::uint32_t> queue;
    /// Per vertex: this slot's refresh deltas of the current round
    /// (wrapping sums), folded into total_ after the sweep.
    std::vector<std::uint64_t> deltas;
    TraversalCounters counters;
  };

  /// State word: the cached gain in the low 31 bits; kStale set when the
  /// gain must be recomputed before use; kRemoved (all ones) when the
  /// component is removed. Init checks n < 2^31 − 1, so no stale gain
  /// spells kRemoved.
  static constexpr std::uint32_t kStale = 1u << 31;
  static constexpr std::uint32_t kRemoved = ~0u;
  /// Dirty slots per snapshot; dirty_count_ == kFullScan flags a scan
  /// of every component instead.
  static constexpr std::uint32_t kDirtySlots = 32;
  static constexpr std::uint32_t kFullScan = ~0u;

  /// Sizes every array, pre-seeds the gain cache and the running totals
  /// from warmth's exact entries, accumulates the per-vertex CELF bound
  /// totals, lists each snapshot's component members, and transposes
  /// comp_of vertex-major (comp_of_by_vertex_[v·τ + i]) so the
  /// Estimate/Update hot loops stream their per-vertex component ids
  /// sequentially instead of taking one cache miss per snapshot. A
  /// fresh build frees each world's comp_of afterwards (KeepWorlds); a
  /// shared arena keeps them for point queries. The per-world work runs
  /// on the round sweep's tiles and pool; each slot sums its bound and
  /// gain totals apart, folded in afterwards (integer sums, so neither
  /// the order nor the width shows).
  void Init(std::span<const CondensedSnapshot> snaps, VertexId n,
            std::span<const SnapshotWarmth> warmth) {
    SOLDIST_CHECK(warmth.size() == snaps.size());
    SOLDIST_CHECK(n < (kRemoved & ~kStale)) << "too many vertices: " << n;
    snaps_ = snaps;
    std::uint32_t max_components = 0;
    state_offset_.resize(snaps_.size() + 1);
    member_offset_.resize(snaps_.size() + 1);
    for (std::size_t i = 0; i < snaps_.size(); ++i) {
      const std::uint32_t c = snaps_[i].num_components();
      state_offset_[i + 1] = state_offset_[i] + c;
      std::uint64_t grouped = 0;  // members of non-singleton components
      for (std::uint32_t size : snaps_[i].comp_size) {
        if (size > 1) grouped += size;
      }
      member_offset_[i + 1] = member_offset_[i] + grouped;
      max_components = std::max(max_components, c);
    }
    state_.resize(state_offset_.back());
    member_ref_.resize(state_offset_.back());
    members_.resize(member_offset_.back());
    // No snapshot has been scored yet: each starts flagged for a full
    // scan.
    dirty_.resize(snaps_.size() * kDirtySlots);
    dirty_count_.assign(snaps_.size(), kFullScan);
    live_.resize(snaps_.size());
    // The round sweep's engine, on the same pool as the build (a
    // borrowing build has none and sweeps inline).
    sweep_ = std::make_unique<SamplingEngine>(WorldTiles(sampling_));
    // Component-granular scratch: sized to the largest DAG, not to n
    // (the scratch-per-mode contract MemoryBytes reports on).
    slots_.resize(sweep_->num_workers());
    for (TileScratch& scratch : slots_) {
      scratch.visited.Resize(max_components);
      scratch.queue.reserve(max_components);
      scratch.deltas.assign(n, 0);
    }
    rqueue_.reserve(max_components);
    comp_of_by_vertex_.resize(static_cast<std::uint64_t>(n) * snaps_.size());
    bound_total_.assign(n, 0);
    total_.assign(n, 0);
    is_candidate_.assign(n, 0);
    // Each slot's gain sums go to its (zeroed) round deltas, its bound
    // sums to a buffer that lives only for this call.
    std::vector<std::vector<std::uint64_t>> bound_sums(
        slots_.size(), std::vector<std::uint64_t>(n, 0));
    sweep_->Run(/*master_seed=*/0, snaps_.size(),
                [&](const SamplingEngine::Chunk& tile, std::size_t slot) {
                  InitWorlds(tile.begin, tile.end, warmth,
                             bound_sums[slot].data(),
                             slots_[slot].deltas.data());
                });
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
      std::vector<std::uint64_t>& deltas = slots_[slot].deltas;
      for (VertexId v = 0; v < n; ++v) {
        bound_total_[v] += bound_sums[slot][v];
        total_[v] += deltas[v];
        deltas[v] = 0;
      }
    }
  }

  /// Init's per-world work for snapshots [begin, end): state words,
  /// member lists, the comp_of transpose and the live counts; each
  /// vertex's bound and warm gain over these snapshots are added to
  /// bound_sums[v] and gain_sums[v].
  void InitWorlds(std::size_t begin, std::size_t end,
                  std::span<const SnapshotWarmth> warmth,
                  std::uint64_t* bound_sums, std::uint64_t* gain_sums) {
    const VertexId n = static_cast<VertexId>(bound_total_.size());
    const std::uint64_t stride = snaps_.size();  // vertex-major rows
    for (std::size_t i = begin; i < end; ++i) {
      const CondensedSnapshot& snap = snaps_[i];
      const SnapshotWarmth& w = warmth[i];
      std::uint32_t* state = state_.data() + state_offset_[i];
      std::uint32_t* member_ref = member_ref_.data() + state_offset_[i];
      VertexId* members = members_.data() + member_offset_[i];
      live_[i] = snap.num_components();
      std::uint32_t grouped = 0;
      for (std::uint32_t c = 0; c < snap.num_components(); ++c) {
        // Exact warmth IS the reachable count: pre-seed the gain cache
        // so the first greedy iteration is a lookup for the long
        // small-reach tail. Every other gain starts stale at 0.
        state[c] = w.is_exact[c] ? w.bound[c] : kStale;
        if (snap.comp_size[c] > 1) {
          // The group's end; the member pass counts it down to its start.
          grouped += snap.comp_size[c];
          member_ref[c] = grouped;
        }
      }
      const std::uint32_t* comp_of = snap.comp_of.data();
      std::uint32_t* transposed = comp_of_by_vertex_.data() + i;
      for (VertexId v = 0; v < n; ++v) {
        const std::uint32_t c = comp_of[v];
        bound_sums[v] += w.bound[c];
        gain_sums[v] += state[c] & ~kStale;
        transposed[static_cast<std::uint64_t>(v) * stride] = c;
        if (snap.comp_size[c] == 1) {
          member_ref[c] = v;
        } else {
          members[--member_ref[c]] = v;
        }
      }
    }
  }

  /// The vertices of component c in snapshot i.
  std::span<const VertexId> Members(std::size_t i, std::uint32_t c) const {
    const std::uint32_t* ref = member_ref_.data() + state_offset_[i] + c;
    const std::uint32_t size = snaps_[i].comp_size[c];
    if (size == 1) return {ref, 1};
    return {members_.data() + member_offset_[i] + *ref, size};
  }

  /// Recomputes the stale gain of live component c in snapshot i, adds
  /// (new − old) to each member's entry of `totals` (wrapping: a gain
  /// that shrank subtracts), and returns the new gain.
  std::uint32_t Refresh(std::size_t i, std::uint32_t c, TileScratch* scratch,
                        std::uint64_t* totals) {
    std::uint32_t& word = state_[state_offset_[i] + c];
    const std::uint32_t old_gain = word & ~kStale;
    const std::uint32_t gain = ResidualDagReach(i, c, scratch);
    word = gain;
    const std::uint64_t delta = static_cast<std::uint64_t>(gain) - old_gain;
    if (delta != 0) {
      for (VertexId member : Members(i, c)) totals[member] += delta;
    }
    return gain;
  }

  /// The tile kernel of a greedy round: in each snapshot of [begin, end),
  /// refreshes the stale live components that hold a candidate (pushing
  /// their deltas into scratch->deltas) and keeps the others in the
  /// snapshot's dirty slots — or its full-scan flag, once they overflow —
  /// for a later round.
  void RefreshTile(std::size_t begin, std::size_t end, TileScratch* scratch) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t* state = state_.data() + state_offset_[i];
      std::uint32_t* dirty = dirty_.data() + i * kDirtySlots;
      std::uint32_t kept = 0;
      const auto visit = [&](std::uint32_t c) {
        if (state[c] < kStale || state[c] == kRemoved) return;
        const std::span<const VertexId> members = Members(i, c);
        if (std::any_of(members.begin(), members.end(),
                        [&](VertexId u) { return is_candidate_[u] != 0; })) {
          Refresh(i, c, scratch, scratch->deltas.data());
          return;
        }
        // Compacts in place: kept never passes the slot being read.
        if (kept < kDirtySlots) dirty[kept] = c;
        ++kept;
      };
      if (dirty_count_[i] == kFullScan) {
        for (std::uint32_t c = 0; c < snaps_[i].num_components(); ++c) {
          visit(c);
        }
      } else {
        for (std::uint32_t k = 0; k < dirty_count_[i]; ++k) visit(dirty[k]);
      }
      dirty_count_[i] = kept <= kDirtySlots ? kept : kFullScan;
    }
  }

  /// Exact residual reach of component c in snapshot i: BFS over the live
  /// DAG summing member counts. Counter accounting is component-granular
  /// — that reduction (DAG nodes/arcs instead of live vertices/edges) is
  /// precisely what bench_snapshot_backends records.
  std::uint32_t ResidualDagReach(std::size_t i, std::uint32_t c,
                                 TileScratch* scratch) {
    const CondensedSnapshot& snap = snaps_[i];
    const std::uint32_t* state = state_.data() + state_offset_[i];
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
        if (state[w] == kRemoved || visited.IsMarked(w)) continue;
        visited.Mark(w);
        queue.push_back(w);
      }
    }
    return static_cast<std::uint32_t>(total);
  }

  const SnapshotArena* arena_;  // null once KeepWorlds took the worlds
  std::uint64_t tau_;
  SamplingOptions sampling_;
  TraversalCounters* counters_;
  std::vector<CondensedSnapshot> owned_;  // a fresh build's worlds
  std::span<const CondensedSnapshot> snaps_;  // owned_ or the arena prefix
  /// comp_of_by_vertex_[v·τ + i] = component of v in snapshot i.
  std::vector<std::uint32_t> comp_of_by_vertex_;
  std::vector<std::uint32_t> state_;         // state words, all snapshots
  std::vector<std::uint64_t> state_offset_;  // per snapshot, into state_
  /// Per (snapshot, component), at state_ positions: the vertex of a
  /// singleton, else the offset of its group in the snapshot's members.
  std::vector<std::uint32_t> member_ref_;
  std::vector<VertexId> members_;  // non-singleton members, all snapshots
  std::vector<std::uint64_t> member_offset_;  // per snapshot, into members_
  std::vector<std::uint32_t> dirty_;        // kDirtySlots per snapshot
  std::vector<std::uint32_t> dirty_count_;  // per snapshot, or kFullScan
  std::vector<std::uint32_t> live_;         // live components per snapshot
  std::vector<std::uint64_t> total_;  // per vertex, Σ_i cached gain
  std::vector<std::uint8_t> is_candidate_;  // per vertex, during a round
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
  SOLDIST_CHECK(sampling_.cancel == nullptr)
      << "a fresh estimator build never stops";
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
  if (mode_ != Mode::kCondensed) {
    backend_ = std::make_unique<FullSnapshotBackend>(
        instance_, tau_, seed_, mode_, sampling_, &counters_);
    backend_->Build();
    return;
  }
  if (arena_ != nullptr) {
    backend_ =
        std::make_unique<CondensedBackend>(arena_, tau_, sampling_, &counters_);
    backend_->Build();
    return;
  }
  // Sampling, warmth and every greedy round share one pool: the
  // caller's, or for a width without one a private pool that lives as
  // long as the estimator.
  SOLDIST_CHECK(sampling_.num_threads >= 0);
  if (sampling_.pool == nullptr && sampling_.num_threads != 1) {
    owned_pool_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(sampling_.num_threads));
    sampling_.pool = owned_pool_.get();
  }
  SnapshotArena arena =
      SnapshotArena::SampleFor(instance_, seed_, tau_, sampling_);
  auto backend =
      std::make_unique<CondensedBackend>(&arena, tau_, sampling_, &counters_);
  backend->Build();
  backend->KeepWorlds(std::move(arena).TakeWorlds());
  backend_ = std::move(backend);
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
