// The influence-query service: microsecond point queries over immutable
// sampled-world arenas — the ROADMAP's serving layer.
//
// Shape: QueryService (on top of api::Session) resolves a workload to a
// per-(kind, network, prob, model, seed, chunk size) WorldArena held
// in one byte-budgeted ArenaCache — the cache key's leading component is
// the arena KIND, so RR-set arenas (View) and condensed-snapshot arenas
// (SnapshotView) share the budget without ever aliasing — then hands out
// immutable views. Both view kinds acquire their arena through ONE
// routine (admission, deadline, retry, persistence, build); only the
// load/sample/save calls and the RR-only storage conversion depend on
// the kind. It is also the one place a storage backend
// (SessionOptions::arena_storage) is applied. A QueryView answers Spread(S), MarginalGain(S, v),
// and TopK(k) directly from an RrArena's 32-bit vertex-major inverted
// index; a SnapshotQueryView answers those plus the sampled-world
// analytics RIS sketches cannot express — ReachProbability(src, dst) and
// ExpectedReach(v) — by walking condensed per-snapshot DAGs. No
// re-solve, no locks: every view method is const over shared immutable
// data, so any number of threads query concurrently (each thread brings
// its own QueryScratch/WorldScratch; convenience overloads use a
// thread_local one).
//
// The query kernel keeps sim/max_coverage.cc's word-packed covered
// bitmap (uint64 words, one bit per RR set) but resolves point queries
// with per-entry bit tests instead of the greedy engine's run-grouped
// popcount masks: at point-query densities (~1 inverted-list entry per
// word) the grouping machinery costs more than it amortizes — measured
// in bench/micro_kernels.cc, whose coverage_popcount kernels also show
// the packed bitmap beating GreeDIMM's
// TransposeRRRSets::calculateInfluence shape (per-vertex std::vectors +
// a byte-per-set marker array) by the layout alone. Clearing is
// adaptive: small marks are re-walked and zeroed entry by entry, large
// marks cleared with one contiguous fill — so the scratch never
// allocates after warm-up and tiny queries never pay a bitmap-sized
// wipe.
//
// Spread estimates follow RIS scaling: Spread(S) = n · |covered(S)| / τ,
// exactly the estimate a fresh RisEstimator at τ would produce for the
// same seeds — ctest query_service_test enforces the cross-check, and
// TopK(k) is byte-identical to GreedyMaxCoverage on a fresh build
// (prefix-closed streams, sim/rr_arena.h).

#ifndef SOLDIST_SERVE_QUERY_SERVICE_H_
#define SOLDIST_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "api/session.h"
#include "api/spec.h"
#include "serve/arena_cache.h"
#include "serve/resilience.h"
#include "serve/scrubber.h"
#include "sim/rr_arena.h"
#include "sim/snapshot_arena.h"
#include "store/arena_storage.h"
#include "store/recovery.h"
#include "util/status.h"

namespace soldist {
namespace serve {

/// What stands behind a QueryView: RR-set count, sampling seed, and the
/// sampling knobs (Session::SamplingFor). Defaults match the paper-scale
/// τ = 2^16.
struct QuerySpec {
  /// RR sets the view answers from (τ). More sets = tighter estimates;
  /// the arena behind it is cached at the LARGEST τ requested so far and
  /// smaller τ are served as exact prefixes.
  std::uint64_t sample_number = std::uint64_t{1} << 16;
  /// Sampling master seed (the arena content is a pure function of it).
  std::uint64_t seed = 1;
  /// Worker count for the arena build (0 = shared pool at full width,
  /// 1 = inline on the calling thread, N >= 2 = dedicated pool). Only
  /// speed: every width builds the same arena, so it is not part of the
  /// cache key.
  std::int64_t sample_threads = 1;
  /// Chunk size of the deterministic engine streams (part of the key:
  /// it decides which stream draws which sample).
  std::uint64_t chunk_size = 256;
  /// Per-request deadline in milliseconds; 0 = use the session's
  /// default_deadline_ms (which defaults to unlimited). A request whose
  /// deadline expires mid-build is answered DEGRADED from the largest
  /// already-resident τ prefix (see QueryView::degraded) instead of
  /// blocking — serve/resilience.h documents the contract.
  std::uint64_t deadline_ms = 0;

  Status Validate() const;
};

/// \brief Per-thread query scratch: the covered bitmap, all-zero between
/// queries (QueryView clears exactly what it marked), so NO query
/// allocates after warm-up. Also carries the storage decode buffer for
/// non-flat arena backends (store/arena_storage.h) — compressed / mmap
/// inverted lists decode into it, so point queries on those backends
/// stay allocation-free after warm-up too.
class QueryScratch {
 public:
  QueryScratch() = default;
  QueryScratch(const QueryScratch&) = delete;
  QueryScratch& operator=(const QueryScratch&) = delete;

 private:
  friend class QueryView;
  std::vector<std::uint64_t> words_;  ///< covered bitmap, 1 bit/RR set
  store::StorageScratch storage_;     ///< decode buffer (non-flat backends)
};

/// TopK(k) output: greedy seeds with the per-seed marginal spread
/// estimates observed at selection time (RunGreedy's estimates column).
struct TopKResult {
  std::vector<VertexId> seeds;
  std::vector<double> estimates;
  std::uint64_t covered = 0;
  double spread = 0.0;
  /// False when a deadline CancelToken stopped CELF between rounds:
  /// seeds holds the completed prefix (>= 1 seed), byte-identical to a
  /// direct smaller-k solve — a DEGRADED answer in the serve/resilience.h
  /// sense, exact for the k it actually answers.
  bool completed = true;
};

/// \brief An immutable point-query view over the first `sample_number`
/// sets of a shared arena. Copyable (it co-owns the arena); every method
/// is const and lock-free — concurrency-safe by immutability.
class QueryView {
 public:
  /// Views are normally minted by QueryService::View; the public ctor
  /// exists for benches/tests that bring their own arena.
  /// `requested_tau` (0 = same as `count`) records what the caller asked
  /// for: when count < requested_tau the view is DEGRADED — an exact
  /// answer at the smaller τ it actually serves (prefix-closed streams),
  /// tagged so callers can tell a full answer from a best-effort one.
  QueryView(std::shared_ptr<const RrArena> arena, std::uint64_t count,
            std::uint64_t requested_tau = 0);

  /// Empty placeholder (StatusOr's error arm); querying one is a
  /// programmer error caught by SOLDIST_DCHECK.
  QueryView() = default;

  VertexId num_vertices() const { return arena_->num_vertices(); }
  std::uint64_t sample_number() const { return count_; }
  const RrArena& arena() const { return *arena_; }

  /// True when this view serves fewer sets than the request asked for
  /// (deadline miss or shed — see serve/resilience.h). Its answers are
  /// still exact RIS estimates at served_tau().
  bool degraded() const { return degraded_; }
  /// The τ the view actually answers at (== sample_number()).
  std::uint64_t served_tau() const { return count_; }
  /// The τ the request asked for (>= served_tau()).
  std::uint64_t requested_tau() const { return requested_tau_; }

  /// RIS spread estimate n · |covered(seeds)| / τ. O(Σ|list(v)| / 64)
  /// words touched; a single-seed query is O(log capacity) — the covered
  /// count is just the inverted-prefix length.
  double Spread(std::span<const VertexId> seeds, QueryScratch* scratch) const;
  double Spread(std::span<const VertexId> seeds) const;

  /// Marginal spread of adding v to seeds: n · |covered(S∪{v})−covered(S)|
  /// / τ — the quantity greedy maximizes at each step.
  double MarginalGain(std::span<const VertexId> seeds, VertexId v,
                      QueryScratch* scratch) const;
  double MarginalGain(std::span<const VertexId> seeds, VertexId v) const;

  /// RR sets covered by `seeds` (the un-scaled numerator of Spread).
  std::uint64_t CoveredCount(std::span<const VertexId> seeds,
                             QueryScratch* scratch) const;

  /// Greedy top-k seed selection over the view via the bucket-CELF
  /// word-packed engine (GreedyMaxCoverage), byte-identical to a fresh
  /// solve at τ. O(view) — reach for it when the ANSWER is a seed set;
  /// point queries stay on Spread/MarginalGain. `cancel` (usually armed
  /// from the request Deadline) is checked between CELF rounds: a fired
  /// token returns the completed seed prefix with completed = false —
  /// byte-identical to a direct smaller-k solve, never a partial round.
  TopKResult TopK(int k, const CancelToken* cancel = nullptr) const;

 private:
  /// The lazily cut inverted list of v (satellite: no O(n log capacity)
  /// RrPrefixView materialization on the point-query path; the
  /// full-arena case bypasses even the single binary search). Flat
  /// arenas return a zero-copy span; compressed/mmap backends decode
  /// into the caller's scratch (valid until its next List call — every
  /// use below finishes with one list before fetching the next).
  std::span<const std::uint32_t> List(VertexId v,
                                      QueryScratch* scratch) const {
    if (arena_->is_flat()) {
      return full_ ? arena_->InvertedAll(v)
                   : arena_->InvertedPrefix(v, count_);
    }
    return full_ ? arena_->InvertedAll(v, &scratch->storage_)
                 : arena_->InvertedPrefix(v, count_, &scratch->storage_);
  }

  /// Marks seeds' RR sets in the scratch bitmap, returning how many were
  /// newly covered. Accumulates across calls until ClearMarks.
  std::uint64_t MarkAndCount(std::span<const VertexId> seeds,
                             QueryScratch* scratch) const;
  /// Restores the all-zero invariant after MarkAndCount(seeds): re-walks
  /// small mark sets entry by entry, wipes the whole (view-sized) bitmap
  /// in one fill when the walk would touch a comparable word count.
  void ClearMarks(std::span<const VertexId> seeds,
                  QueryScratch* scratch) const;

  std::shared_ptr<const RrArena> arena_;
  std::uint64_t count_ = 0;
  std::uint64_t requested_tau_ = 0;
  bool full_ = false;      ///< count_ == arena capacity: no cut needed
  bool degraded_ = false;  ///< count_ < requested_tau_
};

/// \brief Per-thread scratch for sampled-world DAG walks: a generation-
/// stamped visited marker over component ids plus the BFS frontier.
/// Stamping makes per-world resets O(1) — one generation bump instead of
/// a clear — so a τ-world query pays traversal, never wiping.
class WorldScratch {
 public:
  WorldScratch() = default;
  WorldScratch(const WorldScratch&) = delete;
  WorldScratch& operator=(const WorldScratch&) = delete;

 private:
  friend class SnapshotQueryView;

  /// Ensures capacity and starts a fresh visit generation.
  void NextVisit(std::uint32_t num_components) {
    if (stamp_.size() < num_components) stamp_.resize(num_components, 0);
    if (++gen_ == 0) {  // wrapped: all stamps are stale, restart at 1
      std::fill(stamp_.begin(), stamp_.end(), 0);
      gen_ = 1;
    }
    queue_.clear();
  }
  bool Visit(std::uint32_t c) {
    if (stamp_[c] == gen_) return false;
    stamp_[c] = gen_;
    return true;
  }
  bool Visited(std::uint32_t c) const { return stamp_[c] == gen_; }

  std::vector<std::uint32_t> stamp_;
  std::uint32_t gen_ = 0;
  std::vector<std::uint32_t> queue_;  ///< BFS frontier of component ids
};

/// \brief An immutable sampled-world analytics view over the first
/// `sample_number` condensed snapshots of a shared SnapshotArena.
/// Copyable (it co-owns the arena); every method is const and lock-free.
///
/// Estimates follow Snapshot scaling: Spread(S) = (1/τ) Σ_i |R_i(S)|
/// where R_i(S) is the set of vertices reachable from S in sampled world
/// i — exactly the estimate a fresh condensed SnapshotEstimator at τ
/// would produce for the same seeds (ctest snapshot_arena_test enforces
/// the cross-check). ReachProbability and ExpectedReach are the
/// per-world analytics an RR-set collection cannot answer: they need the
/// worlds themselves, which only this arena kind retains.
class SnapshotQueryView {
 public:
  /// Views are normally minted by QueryService::SnapshotView; the public
  /// ctor exists for benches/tests that bring their own arena.
  /// `requested_tau` as in QueryView: 0 = same as `count`, and a view
  /// with count < requested_tau is tagged degraded.
  SnapshotQueryView(std::shared_ptr<const SnapshotArena> arena,
                    std::uint64_t count, std::uint64_t requested_tau = 0);

  /// Empty placeholder (StatusOr's error arm); querying one is a
  /// programmer error caught by SOLDIST_DCHECK.
  SnapshotQueryView() = default;

  VertexId num_vertices() const { return arena_->num_vertices(); }
  std::uint64_t sample_number() const { return count_; }
  const SnapshotArena& arena() const { return *arena_; }

  /// Degraded-answer tags; same contract as QueryView.
  bool degraded() const { return degraded_; }
  std::uint64_t served_tau() const { return count_; }
  std::uint64_t requested_tau() const { return requested_tau_; }

  /// Expected reached-vertex count of seed set S: (1/τ) Σ_i |R_i(S)|.
  /// One multi-source DAG BFS per world, component-granular.
  double Spread(std::span<const VertexId> seeds, WorldScratch* scratch) const;
  double Spread(std::span<const VertexId> seeds) const;

  /// Marginal spread of adding v to seeds:
  /// (1/τ) Σ_i (|R_i(S ∪ {v})| − |R_i(S)|).
  double MarginalGain(std::span<const VertexId> seeds, VertexId v,
                      WorldScratch* scratch) const;
  double MarginalGain(std::span<const VertexId> seeds, VertexId v) const;

  /// Expected size of v's reachable set: (1/τ) Σ_i |R_i(v)| — the REPL's
  /// `compsize` query. Equals Spread({v}).
  double ExpectedReach(VertexId v, WorldScratch* scratch) const;
  double ExpectedReach(VertexId v) const;

  /// Fraction of sampled worlds in which dst is reachable from src — the
  /// IC probability P[src influences dst], estimated over τ worlds.
  /// Per world: same-component is an O(1) hit; Tarjan's reverse-
  /// topological numbering (successor ids < component id) rejects
  /// comp(dst) > comp(src) without walking; otherwise an early-exit DAG
  /// BFS. The REPL's `reach` query.
  double ReachProbability(VertexId src, VertexId dst,
                          WorldScratch* scratch) const;
  double ReachProbability(VertexId src, VertexId dst) const;

  /// Greedy top-k seed selection over the view's worlds via a
  /// SnapshotEstimator borrowing the arena + RunGreedy — byte-identical
  /// to a fresh condensed SnapshotEstimator solve at τ with the same tie
  /// seed.
  /// TopKResult::covered holds Σ_i |R_i(S)| (the un-scaled numerator).
  TopKResult TopK(int k, std::uint64_t tie_seed = 1) const;

 private:
  /// Reached-vertex count of `seeds` in world i, marking visited
  /// components under the scratch's current generation (so a follow-up
  /// walk in the SAME generation counts only newly reached components).
  std::uint64_t ReachedInWorld(std::uint64_t i,
                               std::span<const VertexId> seeds,
                               WorldScratch* scratch) const;

  std::shared_ptr<const SnapshotArena> arena_;
  std::uint64_t count_ = 0;
  std::uint64_t requested_tau_ = 0;
  bool degraded_ = false;  ///< count_ < requested_tau_
};

/// \brief The service: Session-resolved workloads → cached arenas →
/// QueryViews. Thread-safe; see ArenaCache for the eviction contract
/// and serve/resilience.h for the deadline / degraded-answer / shedding
/// contract this service implements:
///
///  * A request whose deadline expires (or that is shed by admission
///    control) while its arena is not yet resident is answered DEGRADED
///    from the largest already-resident prefix of the same stream when
///    one exists — exact at served_tau(), tagged degraded() — and only
///    fails (kDeadlineExceeded / kUnavailable) when NOTHING is resident.
///  * A deadline that expires mid-build cancels the build cooperatively
///    (sim/ CancelToken); the truncated prefix is admitted to the cache
///    at its actual τ and served degraded. Partial arenas are never
///    persisted to disk.
///  * Persistence IO (arena load/save) retries transient kIoError under
///    a bounded-backoff RetryPolicy before degrading to resample /
///    serve-unpersisted.
class QueryService {
 public:
  /// The cache budget comes from the session's
  /// SessionOptions::arena_budget_bytes (0 = unlimited); admission
  /// bounds and the default deadline come from max_inflight_builds /
  /// max_queued_builds / default_deadline_ms. The session must outlive
  /// the service.
  explicit QueryService(api::Session* session);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Resolves the workload (Status on unknown network / invalid model
  /// combination — never a CHECK) and returns a view of τ =
  /// spec.sample_number RR sets. The cache key deliberately EXCLUDES τ:
  /// prefix-closed streams mean one arena at the largest τ seen serves
  /// every smaller τ as a byte-identical prefix, so repeat views are
  /// pure cache hits.
  StatusOr<QueryView> View(const api::WorkloadSpec& workload,
                           const QuerySpec& spec = {});

  /// Sampled-world analytics view over τ = spec.sample_number condensed
  /// snapshots. Served for IC workloads only — an LT workload is a
  /// Status, never an abort. Same acquisition path and τ-excluding key
  /// as View; the kind prefix keeps the two arena families from ever
  /// aliasing in the shared cache.
  StatusOr<SnapshotQueryView> SnapshotView(const api::WorkloadSpec& workload,
                                           const QuerySpec& spec = {});

  ArenaCache::Stats cache_stats() const { return cache_.stats(); }

  /// Snapshot of the degraded/shed/retry/deadline counters (REPL
  /// `stats` surfaces these next to cache_stats).
  ResilienceStats resilience_stats() const;

  /// What the crash-consistency startup sweep (store/recovery.h) found
  /// and did in the session's arena_dir when this service came up. An
  /// all-zero report when arena_dir is unset or the sweep itself failed
  /// (the failure is logged — serving proceeds either way; persistence
  /// never fails a query).
  const store::RecoveryReport& recovery_report() const {
    return recovery_report_;
  }

  /// Monotone counters of the background integrity scrubber
  /// (serve/scrubber.h; cadence = SessionOptions::scrub_interval_ms,
  /// 0 = time-driven scrubbing off).
  ScrubStats scrub_stats() const;

  /// One full synchronous scrub rotation — every resident arena re-
  /// hashed, every persisted entry re-verified (REPL `scrub`; tests).
  void RunScrubCycle();

 private:
  /// One key format for both arena kinds: kind # workload label # seed #
  /// engine/<chunk size>. τ is deliberately absent (see View).
  static std::string CacheKey(ArenaKind kind,
                              const api::WorkloadSpec& workload,
                              const QuerySpec& spec);

  /// The request deadline: spec.deadline_ms, else the session default,
  /// else unlimited.
  Deadline DeadlineFor(const QuerySpec& spec) const;

  /// The one acquisition path behind View and SnapshotView: the arena of
  /// `kind` for the workload, at capacity >= spec.sample_number unless
  /// the request was degraded (the caller serves min(τ, capacity)).
  /// Cache hit, else admission (shed / queue timeout → the resident
  /// prefix, or the Status when none), then a deadline-cancellable
  /// GetOrBuild whose builder loads from arena_dir, else samples and
  /// saves, under one request-shared RetryBudget.
  StatusOr<ArenaCache::ArenaPtr> Acquire(ArenaKind kind,
                                         const ModelInstance& instance,
                                         const api::WorkloadSpec& workload,
                                         const QuerySpec& spec);

  api::Session* session_;
  ArenaCache cache_;
  AdmissionController admission_;
  RetryPolicy retry_policy_;
  /// Startup-sweep outcome (empty when arena_dir is unset).
  store::RecoveryReport recovery_report_;
  /// Always constructed (the resident pass needs no directory); its
  /// timer thread only starts when scrub_interval_ms > 0. Declared after
  /// cache_ so it is destroyed FIRST — no scrub touches a dead cache.
  std::unique_ptr<Scrubber> scrubber_;
  std::atomic<std::uint64_t> degraded_answers_{0};
  std::atomic<std::uint64_t> shed_requests_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> deadline_misses_{0};
  /// Serializes pool-routed arena builds: the session pools have a
  /// single-waiter contract, so two concurrent pooled builds may not
  /// fan out at once. Inline (sample_threads == 1) builds skip it.
  std::mutex build_mu_;
};

}  // namespace serve
}  // namespace soldist

#endif  // SOLDIST_SERVE_QUERY_SERVICE_H_
