#include "serve/query_service.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <string>
#include <utility>

#include "core/greedy.h"
#include "core/snapshot.h"
#include "random/rng.h"
#include "sim/max_coverage.h"
#include "store/arena_io.h"
#include "util/logging.h"

namespace soldist {
namespace serve {
namespace {

/// The scratch behind the convenience overloads: one per querying
/// thread, reused across queries (the whole point — no allocation on
/// the hot path after warm-up).
QueryScratch* LocalScratch() {
  thread_local QueryScratch scratch;
  return &scratch;
}

WorldScratch* LocalWorldScratch() {
  thread_local WorldScratch scratch;
  return &scratch;
}

/// The manifest's stream name — the same component CacheKey appends, so
/// a persisted arena's identity mirrors its cache key. Every build draws
/// the engine's chunked streams, so the chunk size is the only sampling
/// knob that shapes arena content.
std::string StreamName(std::uint64_t chunk_size) {
  return "engine/" + std::to_string(chunk_size);
}

/// The persistence directory of one cache key under the session's
/// arena_dir ("" = persistence off). Key characters outside
/// [A-Za-z0-9._-] become '_' so the key is a safe single path segment;
/// collisions are harmless — the manifest identity check catches them
/// and the loser simply resamples.
std::string ArenaDirFor(const std::string& root, const std::string& key) {
  if (root.empty()) return "";
  std::string segment;
  segment.reserve(key.size());
  for (char c : key) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    segment.push_back(safe ? c : '_');
  }
  return root + "/" + segment;
}

/// A failed load is a rebuild, never an error — but say why when the
/// file existed and did not serve (corruption, version skew, identity
/// mismatch). A clean miss (kNotFound) stays silent.
void WarnUnlessNotFound(const char* what, const Status& status) {
  if (status.code() == StatusCode::kNotFound) return;
  SOLDIST_LOG(Warning) << what << ": " << status.ToString();
}

/// Moves a loaded arena into the builder's kind-erased slot (the load
/// step of QueryService::Acquire, for either arena kind).
template <typename Arena>
Status Take(StatusOr<std::shared_ptr<Arena>> loaded,
            std::shared_ptr<WorldArena>* out) {
  if (!loaded.ok()) return loaded.status();
  *out = std::move(loaded).value();
  return Status::OK();
}

/// Wraps an acquired arena in its view: τ = the request's sample number,
/// served at min(τ, capacity) — a short arena yields a degraded view.
/// The kind-prefixed cache key guarantees what stands behind the pointer.
template <typename View, typename Arena>
StatusOr<View> Wrap(StatusOr<ArenaCache::ArenaPtr> acquired,
                    std::uint64_t tau) {
  if (!acquired.ok()) return acquired.status();
  auto arena =
      std::static_pointer_cast<const Arena>(std::move(acquired).value());
  const std::uint64_t served = std::min(tau, arena->capacity());
  return View(std::move(arena), served, tau);
}

}  // namespace

Status QuerySpec::Validate() const {
  if (sample_number < 1) {
    return Status::InvalidArgument("QuerySpec: sample_number must be >= 1");
  }
  if (sample_number > std::uint64_t{std::numeric_limits<std::uint32_t>::max()}) {
    return Status::InvalidArgument(
        "QuerySpec: sample_number exceeds the arena's 32-bit set ids");
  }
  if (chunk_size < 1) {
    return Status::InvalidArgument("QuerySpec: chunk_size must be >= 1");
  }
  return Status::OK();
}

QueryView::QueryView(std::shared_ptr<const RrArena> arena,
                     std::uint64_t count, std::uint64_t requested_tau)
    : arena_(std::move(arena)),
      count_(count),
      requested_tau_(requested_tau == 0 ? count : requested_tau) {
  SOLDIST_CHECK(arena_ != nullptr);
  SOLDIST_CHECK(count_ >= 1);
  SOLDIST_CHECK(count_ <= arena_->capacity())
      << "view of " << count_ << " sets exceeds arena capacity "
      << arena_->capacity();
  SOLDIST_CHECK(requested_tau_ >= count_)
      << "requested_tau " << requested_tau_ << " below served count "
      << count_;
  full_ = count_ == arena_->capacity();
  degraded_ = count_ < requested_tau_;
}

std::uint64_t QueryView::MarkAndCount(std::span<const VertexId> seeds,
                                      QueryScratch* scratch) const {
  std::vector<std::uint64_t>& words = scratch->words_;
  const std::size_t need = static_cast<std::size_t>((count_ + 63) / 64);
  if (words.size() < need) words.resize(need, 0);
  std::uint64_t newly_covered = 0;
  for (VertexId v : seeds) {
    SOLDIST_DCHECK(v < num_vertices());
    // Per-entry bit test on the packed bitmap. The greedy engine's
    // run-grouped mask+popcount idiom loses here: real inverted lists
    // run ~1 entry per 64-set word at point-query densities, so the
    // grouping loop costs more than the popcounts it saves (measured in
    // bench/micro_kernels.cc, coverage_popcount).
    for (std::uint32_t id : List(v, scratch)) {
      std::uint64_t& word = words[id >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (id & 63);
      newly_covered += static_cast<std::uint64_t>((word & bit) == 0);
      word |= bit;
    }
  }
  return newly_covered;
}

void QueryView::ClearMarks(std::span<const VertexId> seeds,
                           QueryScratch* scratch) const {
  const std::size_t need = static_cast<std::size_t>((count_ + 63) / 64);
  std::uint64_t entries = 0;
  for (VertexId v : seeds) entries += List(v, scratch).size();
  if (entries >= static_cast<std::uint64_t>(need / 8)) {
    // Dense mark: one contiguous fill of the view-sized bitmap beats
    // scattered stores (a fill retires many words per cycle).
    std::fill_n(scratch->words_.begin(), need, std::uint64_t{0});
    return;
  }
  // Sparse mark on a large bitmap (big τ, short lists): re-walk exactly
  // the words the mark pass wrote instead of wiping the whole bitmap.
  for (VertexId v : seeds) {
    for (std::uint32_t id : List(v, scratch)) scratch->words_[id >> 6] = 0;
  }
}

std::uint64_t QueryView::CoveredCount(std::span<const VertexId> seeds,
                                      QueryScratch* scratch) const {
  if (seeds.empty()) return 0;
  if (seeds.size() == 1) {
    // The commonest point query needs no bitmap at all: one vertex's
    // covered count IS its inverted-prefix length.
    SOLDIST_DCHECK(seeds[0] < num_vertices());
    return static_cast<std::uint64_t>(List(seeds[0], scratch).size());
  }
  const std::uint64_t covered = MarkAndCount(seeds, scratch);
  ClearMarks(seeds, scratch);
  return covered;
}

double QueryView::Spread(std::span<const VertexId> seeds,
                         QueryScratch* scratch) const {
  return static_cast<double>(num_vertices()) *
         static_cast<double>(CoveredCount(seeds, scratch)) /
         static_cast<double>(count_);
}

double QueryView::Spread(std::span<const VertexId> seeds) const {
  return Spread(seeds, LocalScratch());
}

double QueryView::MarginalGain(std::span<const VertexId> seeds, VertexId v,
                               QueryScratch* scratch) const {
  std::uint64_t gain;
  if (seeds.empty()) {
    SOLDIST_DCHECK(v < num_vertices());
    gain = static_cast<std::uint64_t>(List(v, scratch).size());
  } else {
    SOLDIST_DCHECK(v < num_vertices());
    MarkAndCount(seeds, scratch);
    // Count v's not-yet-covered sets read-only — nothing new is marked,
    // so the clear pass only has to undo `seeds`.
    gain = 0;
    for (std::uint32_t id : List(v, scratch)) {
      gain += static_cast<std::uint64_t>(
          (scratch->words_[id >> 6] >> (id & 63) & 1) == 0);
    }
    ClearMarks(seeds, scratch);
  }
  return static_cast<double>(num_vertices()) * static_cast<double>(gain) /
         static_cast<double>(count_);
}

double QueryView::MarginalGain(std::span<const VertexId> seeds,
                               VertexId v) const {
  return MarginalGain(seeds, v, LocalScratch());
}

TopKResult QueryView::TopK(int k, const CancelToken* cancel) const {
  SOLDIST_CHECK(k >= 1);
  // Selection runs the production bucket-CELF engine over a prefix view
  // (its ctor seeds the queue from the cut lengths / CoverCounts).
  MaxCoverageResult mc = GreedyMaxCoverage(arena_->Prefix(count_), k, cancel);
  TopKResult result;
  result.completed = mc.completed;
  result.covered = mc.covered;
  result.spread = static_cast<double>(num_vertices()) *
                  static_cast<double>(mc.covered) /
                  static_cast<double>(count_);
  result.seeds = std::move(mc.seeds);
  // Replay the selection on the scratch bitmap to recover the per-seed
  // marginal estimates greedy observed (RunGreedy's estimates column):
  // estimate_i = n · (sets newly covered by seed i) / τ.
  QueryScratch* scratch = LocalScratch();
  result.estimates.reserve(result.seeds.size());
  std::uint64_t replayed = 0;
  for (VertexId seed : result.seeds) {
    const std::uint64_t gain = MarkAndCount({&seed, 1}, scratch);
    replayed += gain;
    result.estimates.push_back(static_cast<double>(num_vertices()) *
                               static_cast<double>(gain) /
                               static_cast<double>(count_));
  }
  ClearMarks(result.seeds, scratch);
  SOLDIST_DCHECK(replayed == result.covered);
  return result;
}

SnapshotQueryView::SnapshotQueryView(
    std::shared_ptr<const SnapshotArena> arena, std::uint64_t count,
    std::uint64_t requested_tau)
    : arena_(std::move(arena)),
      count_(count),
      requested_tau_(requested_tau == 0 ? count : requested_tau) {
  SOLDIST_CHECK(arena_ != nullptr);
  SOLDIST_CHECK(count_ >= 1);
  SOLDIST_CHECK(count_ <= arena_->capacity())
      << "view of " << count_ << " worlds exceeds arena capacity "
      << arena_->capacity();
  SOLDIST_CHECK(requested_tau_ >= count_)
      << "requested_tau " << requested_tau_ << " below served count "
      << count_;
  degraded_ = count_ < requested_tau_;
}

std::uint64_t SnapshotQueryView::ReachedInWorld(
    std::uint64_t i, std::span<const VertexId> seeds,
    WorldScratch* scratch) const {
  const CondensedSnapshot& world = arena_->World(i);
  std::uint64_t reached = 0;
  // Process only what THIS walk enqueues: a caller that re-walks under
  // the same generation (MarginalGain) extends the frontier from here.
  std::size_t head = scratch->queue_.size();
  for (VertexId s : seeds) {
    SOLDIST_DCHECK(s < num_vertices());
    const std::uint32_t c = world.comp_of[s];
    if (scratch->Visit(c)) {
      scratch->queue_.push_back(c);
      reached += world.comp_size[c];
    }
  }
  while (head < scratch->queue_.size()) {
    const std::uint32_t c = scratch->queue_[head++];
    for (std::uint32_t succ : world.dag.Successors(c)) {
      if (scratch->Visit(succ)) {
        scratch->queue_.push_back(succ);
        reached += world.comp_size[succ];
      }
    }
  }
  return reached;
}

double SnapshotQueryView::Spread(std::span<const VertexId> seeds,
                                 WorldScratch* scratch) const {
  if (seeds.empty()) return 0.0;
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < count_; ++i) {
    scratch->NextVisit(arena_->max_components());
    total += ReachedInWorld(i, seeds, scratch);
  }
  return static_cast<double>(total) / static_cast<double>(count_);
}

double SnapshotQueryView::Spread(std::span<const VertexId> seeds) const {
  return Spread(seeds, LocalWorldScratch());
}

double SnapshotQueryView::MarginalGain(std::span<const VertexId> seeds,
                                       VertexId v,
                                       WorldScratch* scratch) const {
  SOLDIST_DCHECK(v < num_vertices());
  std::uint64_t gain = 0;
  for (std::uint64_t i = 0; i < count_; ++i) {
    scratch->NextVisit(arena_->max_components());
    // Mark S's reachable components, then count only what v adds — the
    // second walk runs under the SAME generation, so already-reached
    // components contribute nothing.
    ReachedInWorld(i, seeds, scratch);
    gain += ReachedInWorld(i, {&v, 1}, scratch);
  }
  return static_cast<double>(gain) / static_cast<double>(count_);
}

double SnapshotQueryView::MarginalGain(std::span<const VertexId> seeds,
                                       VertexId v) const {
  return MarginalGain(seeds, v, LocalWorldScratch());
}

double SnapshotQueryView::ExpectedReach(VertexId v,
                                        WorldScratch* scratch) const {
  return Spread({&v, 1}, scratch);
}

double SnapshotQueryView::ExpectedReach(VertexId v) const {
  return ExpectedReach(v, LocalWorldScratch());
}

double SnapshotQueryView::ReachProbability(VertexId src, VertexId dst,
                                           WorldScratch* scratch) const {
  SOLDIST_DCHECK(src < num_vertices());
  SOLDIST_DCHECK(dst < num_vertices());
  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < count_; ++i) {
    const CondensedSnapshot& world = arena_->World(i);
    const std::uint32_t cs = world.comp_of[src];
    const std::uint32_t cd = world.comp_of[dst];
    if (cs == cd) {
      ++hits;
      continue;
    }
    // Tarjan numbering is reverse-topological: ids strictly DECREASE
    // along every DAG path, so cd > cs is unreachable without a walk,
    // and any intermediate component on a cs→cd path lies in (cd, cs] —
    // successors below cd are dead ends and are never enqueued.
    if (cd > cs) continue;
    scratch->NextVisit(arena_->max_components());
    scratch->Visit(cs);
    scratch->queue_.push_back(cs);
    std::size_t head = 0;
    bool found = false;
    while (!found && head < scratch->queue_.size()) {
      const std::uint32_t c = scratch->queue_[head++];
      for (std::uint32_t succ : world.dag.Successors(c)) {
        if (succ == cd) {
          found = true;
          break;
        }
        if (succ < cd) continue;
        if (scratch->Visit(succ)) scratch->queue_.push_back(succ);
      }
    }
    if (found) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(count_);
}

double SnapshotQueryView::ReachProbability(VertexId src, VertexId dst) const {
  return ReachProbability(src, dst, LocalWorldScratch());
}

TopKResult SnapshotQueryView::TopK(int k, std::uint64_t tie_seed) const {
  SOLDIST_CHECK(k >= 1);
  // An estimator borrowing the arena + the production greedy loop:
  // byte-identical seed sets to a fresh condensed SnapshotEstimator solve
  // at τ with the same tie seed (it serves warm state from the arena).
  SnapshotEstimator estimator(arena_.get(), count_);
  Rng tie_rng(tie_seed);
  GreedyRunResult run =
      RunGreedy(&estimator, num_vertices(), k, &tie_rng);
  TopKResult result;
  result.seeds = std::move(run.seeds);
  result.estimates = std::move(run.estimates);
  // The un-scaled numerator Σ_i |R_i(S)| and the scaled spread.
  WorldScratch* scratch = LocalWorldScratch();
  std::uint64_t covered = 0;
  for (std::uint64_t i = 0; i < count_; ++i) {
    scratch->NextVisit(arena_->max_components());
    covered += ReachedInWorld(i, result.seeds, scratch);
  }
  result.covered = covered;
  result.spread =
      static_cast<double>(covered) / static_cast<double>(count_);
  return result;
}

QueryService::QueryService(api::Session* session)
    : session_(session),
      cache_(session->options().arena_budget_bytes),
      admission_(session->options().max_inflight_builds,
                 session->options().max_queued_builds) {
  SOLDIST_CHECK(session_ != nullptr);
  const std::string& arena_dir = session_->options().arena_dir;
  if (!arena_dir.empty()) {
    // Crash-consistency startup sweep: clear interrupted-save debris and
    // quarantine corrupt entries BEFORE the first load can see them. A
    // failed sweep is logged, never fatal — persistence cannot fail a
    // query, and every load still verifies what it reads.
    StatusOr<store::RecoveryReport> swept = store::RecoverArenaDir(arena_dir);
    if (swept.ok()) {
      recovery_report_ = std::move(swept).value();
    } else {
      SOLDIST_LOG(Warning) << "arena-dir recovery sweep failed: "
                           << swept.status().ToString();
    }
  }
  scrubber_ = std::make_unique<Scrubber>(
      &cache_, arena_dir, session_->options().scrub_interval_ms);
  scrubber_->Start();
}

ScrubStats QueryService::scrub_stats() const { return scrubber_->stats(); }

void QueryService::RunScrubCycle() { scrubber_->ScrubAll(); }

Deadline QueryService::DeadlineFor(const QuerySpec& spec) const {
  const std::uint64_t ms = spec.deadline_ms != 0
                               ? spec.deadline_ms
                               : session_->options().default_deadline_ms;
  return ms == 0 ? Deadline() : Deadline::AfterMillis(ms);
}

ResilienceStats QueryService::resilience_stats() const {
  ResilienceStats stats;
  stats.degraded_answers = degraded_answers_.load(std::memory_order_relaxed);
  stats.shed_requests = shed_requests_.load(std::memory_order_relaxed);
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  return stats;
}

StatusOr<QueryView> QueryService::View(const api::WorkloadSpec& workload,
                                       const QuerySpec& spec) {
  SOLDIST_RETURN_IF_ERROR(spec.Validate());
  StatusOr<ModelInstance> instance = session_->ResolveWorkload(workload);
  if (!instance.ok()) return instance.status();
  return Wrap<QueryView, RrArena>(
      Acquire(ArenaKind::kRr, instance.value(), workload, spec),
      spec.sample_number);
}

StatusOr<SnapshotQueryView> QueryService::SnapshotView(
    const api::WorkloadSpec& workload, const QuerySpec& spec) {
  SOLDIST_RETURN_IF_ERROR(spec.Validate());
  StatusOr<ModelInstance> instance = session_->ResolveWorkload(workload);
  if (!instance.ok()) return instance.status();
  if (instance.value().model != DiffusionModel::kIc) {
    return Status::InvalidArgument(
        "sampled-world views are served for the IC model only (workload " +
        workload.Label() + " is LT)");
  }
  return Wrap<SnapshotQueryView, SnapshotArena>(
      Acquire(ArenaKind::kSnapshot, instance.value(), workload, spec),
      spec.sample_number);
}

StatusOr<ArenaCache::ArenaPtr> QueryService::Acquire(
    ArenaKind kind, const ModelInstance& instance,
    const api::WorkloadSpec& workload, const QuerySpec& spec) {
  // The key is everything that shapes arena CONTENT except its capacity:
  // arena KIND (the shared cache holds RR-set and snapshot arenas side
  // by side), workload label (network/prob/model), seed, and the chunk
  // size of the engine streams (sim/rr_arena.h) — never the worker
  // count. Capacity is a lower bound, not an identity, so one arena at
  // the largest τ seen serves every smaller τ as a prefix.
  const std::string key = CacheKey(kind, workload, spec);
  // Fast path: fully resident at τ — no admission, no deadline machinery.
  if (ArenaCache::ArenaPtr hit = cache_.TryGet(key, spec.sample_number)) {
    return hit;
  }
  const Deadline deadline = DeadlineFor(spec);
  // A build is needed: admission-control it so overload sheds instead of
  // stacking builder threads. A shed or queue-timeout request still
  // answers DEGRADED when any prefix of this stream is already resident.
  StatusOr<AdmissionController::Ticket> ticket = admission_.Admit(deadline);
  if (!ticket.ok()) {
    if (ticket.status().code() == StatusCode::kUnavailable) {
      shed_requests_.fetch_add(1, std::memory_order_relaxed);
    } else {
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
    }
    ArenaCache::ArenaPtr resident = cache_.LookupResident(key);
    if (resident == nullptr) return ticket.status();
    if (resident->capacity() < spec.sample_number) {
      degraded_answers_.fetch_add(1, std::memory_order_relaxed);
    }
    return resident;
  }
  SamplingOptions sampling =
      session_->SamplingFor(spec.sample_threads, spec.chunk_size);
  // Deadline-bound cooperative cancel: an RR build checks the token at
  // chunk granularity, a snapshot build before every world, and a
  // cancelled build truncates to its completed prefix — a byte-identical
  // direct smaller build (sim/rr_arena.h, sim/snapshot_arena.h).
  CancelToken cancel([deadline] { return deadline.expired(); });
  if (!deadline.unlimited()) sampling.cancel = &cancel;
  // One request-shared IO attempt pool: the builder's load AND save draw
  // from it, so the request's worst-case IO stall is bounded once, not
  // per operation (RetryPolicy::request_budget).
  RetryBudget io_budget(retry_policy_.request_budget);
  RetryBudget* const budget =
      retry_policy_.request_budget > 0 ? &io_budget : nullptr;
  const bool rr = kind == ArenaKind::kRr;
  const ArenaCache::Builder builder =
      [&](std::uint64_t capacity) -> ArenaCache::ArenaPtr {
    // Persistence (session arena_dir set): load a saved arena whose
    // identity matches this key, else sample and save for the next
    // process. Load/save failures degrade to sampling/serving —
    // persistence can never fail a query — but transient IO errors
    // (kIoError) retry under backoff first, clipped to the deadline.
    const std::string dir = ArenaDirFor(session_->options().arena_dir, key);
    store::ArenaManifest expected;
    expected.kind = ArenaKindName(kind);
    expected.workload = workload.Label();
    expected.seed = spec.seed;
    expected.stream = StreamName(spec.chunk_size);
    expected.capacity = capacity;
    std::shared_ptr<WorldArena> built;
    if (!dir.empty()) {
      Status load = RetryWithBackoff(
          retry_policy_, deadline,
          [&] {
            return rr ? Take(store::LoadRrArena(dir, expected), &built)
                      : Take(store::LoadSnapshotArena(dir, expected), &built);
          },
          &retries_, /*sleep=*/{}, budget);
      if (!load.ok()) {
        WarnUnlessNotFound("arena load failed (resampling)", load);
      }
    }
    if (built == nullptr) {
      {
        // Pool-routed builds respect the pools' single-waiter contract.
        std::unique_lock<std::mutex> lock(build_mu_, std::defer_lock);
        if (sampling.pool != nullptr) lock.lock();
        if (rr) {
          built = std::make_shared<RrArena>(
              RrArena::SampleFor(instance, spec.seed, capacity, sampling));
        } else {
          built = std::make_shared<SnapshotArena>(SnapshotArena::SampleFor(
              instance, spec.seed, capacity, sampling));
        }
      }
      // Persist only COMPLETE builds: a deadline-truncated prefix on
      // disk would shadow the full arena for every later process.
      if (!dir.empty() && built->capacity() == capacity) {
        Status saved = RetryWithBackoff(
            retry_policy_, deadline,
            [&] {
              return rr ? store::SaveRrArena(
                              static_cast<const RrArena&>(*built), expected,
                              dir)
                        : store::SaveSnapshotArena(
                              static_cast<const SnapshotArena&>(*built),
                              expected, dir);
            },
            &retries_, /*sleep=*/{}, budget);
        if (!saved.ok()) {
          SOLDIST_LOG(Warning) << "arena save failed (serving "
                                  "unpersisted): " << saved.ToString();
        }
      }
    }
    // RR arenas convert AFTER save: payloads persist flat, backends
    // reshape in RAM (snapshot arenas have no alternate backends).
    // Conversion never changes an answer; failure keeps flat.
    const store::StorageOptions& storage = session_->options().arena_storage;
    if (rr && storage.backend != store::ArenaBackend::kFlat) {
      Status converted =
          static_cast<RrArena&>(*built).ConvertStorage(storage);
      if (!converted.ok()) {
        SOLDIST_LOG(Warning)
            << "cached arena stays flat: " << converted.ToString();
      }
    }
    return built;
  };
  // Two attempts: a caller can rendezvous on ANOTHER request's build
  // that was cancelled at ITS deadline; when this caller's own deadline
  // still has time, the partial entry (admitted at its actual τ) is
  // upgraded by a second build instead of answering short for no reason.
  ArenaCache::ArenaPtr arena;
  for (int attempt = 0; attempt < 2; ++attempt) {
    arena = cache_.GetOrBuild(key, spec.sample_number, builder);
    if (arena->capacity() >= spec.sample_number || deadline.expired()) break;
  }
  if (arena->capacity() < spec.sample_number) {
    degraded_answers_.fetch_add(1, std::memory_order_relaxed);
    deadline_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return arena;
}

std::string QueryService::CacheKey(ArenaKind kind,
                                   const api::WorkloadSpec& workload,
                                   const QuerySpec& spec) {
  return std::string(ArenaKindName(kind)) + "#" + workload.Label() +
         "#seed=" + std::to_string(spec.seed) + "#" +
         StreamName(spec.chunk_size);
}

}  // namespace serve
}  // namespace soldist
