// Session: the long-lived, thread-safe entry point of the soldist query
// facade. One Session owns everything that should be built once and
// shared across queries — the instance registry (graphs, influence
// graphs, LT weight tables), the per-instance RR-set influence oracles,
// and the worker thread pools — and answers WorkloadSpec/SolveSpec
// queries with StatusOr<SolveResult>: invalid input (unknown network,
// LT-invalid probability setting, k > n, unreadable edge-list file)
// surfaces as a Status with an actionable message, never a CHECK-abort.
//
// Concurrency model: resolution (graph building, oracle construction,
// pool creation) is serialized under an internal mutex (an oracle build
// waits on the shared pool while holding it); the solver and the oracle
// evaluation of its seeds run lock-free on stable, immutable instance
// data and oracles, so any number of threads may call Solve
// concurrently. SolveBatch additionally fans independent
// runs out across the shared pool — batches are serialized against each
// other (the pool has a single-waiter contract) but results are ALWAYS
// byte-identical to issuing the same specs sequentially through Solve:
// every run builds its own estimator through MakeEstimator and is a pure
// function of its spec and the resolved workload (see
// sim/sampling_engine.h for the chunked deterministic streams). Shared,
// cached arenas are the serving layer's job (serve::QueryService).

#ifndef SOLDIST_API_SESSION_H_
#define SOLDIST_API_SESSION_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "api/spec.h"
#include "exp/instance_registry.h"
#include "oracle/rr_oracle.h"
#include "store/arena_storage.h"
#include "util/thread_pool.h"

namespace soldist {
namespace api {

/// Options fixed for the lifetime of a Session.
struct SessionOptions {
  /// Master seed: synthetic dataset generation, trivalency probability
  /// draws, and per-instance oracle seed derivation all flow from it.
  std::uint64_t seed = 42;
  /// RR sets per shared influence oracle (paper Section 5.2 uses 10^7;
  /// the default is the harness-scale 10^5). At most 2^32 − 1: the
  /// oracle's set ids are 32-bit.
  std::uint64_t oracle_rr = 100000;
  /// Shared worker-pool width (0 = hardware concurrency). The pool runs
  /// SolveBatch fan-outs, sample_threads=0 solves and every oracle build;
  /// no result depends on its width.
  std::int64_t threads = 0;
  /// Vertex-count override for the ⋆ proxy networks (0 = defaults).
  VertexId star_n = 0;
  /// Byte budget for the serving layer's arena cache
  /// (serve::QueryService): the total RrArena::MemoryBytes the cache
  /// keeps resident before evicting least-recently-used arenas. Evicted
  /// arenas are rebuilt on demand, byte-identically — arena content is a
  /// pure function of its cache key (prefix-closed streams) — so the
  /// budget trades rebuild latency for memory, never correctness.
  /// 0 = unlimited.
  std::uint64_t arena_budget_bytes = 0;
  /// How serve::QueryService stores the RR arenas it caches: flat (the
  /// default — today's zero-copy layout), compressed (delta+varint,
  /// decode-on-demand) or mmap (chunk-granular spill to disk). Solve and
  /// SolveBatch never read it. Every backend answers byte-identically
  /// (store/arena_storage.h), so this only trades decode latency for
  /// resident memory. For the mmap backend, arena_storage.spill_dir must
  /// name a writable directory.
  store::StorageOptions arena_storage;
  /// When non-empty: the session-lifetime arena persistence root
  /// (store/arena_io.h). serve::QueryService saves every arena it
  /// samples under a key-derived subdirectory and reloads it on later
  /// builds — including in LATER PROCESSES — so one sampling pass serves
  /// many runs. Empty = no persistence. Safe to share across sessions:
  /// files are identity-checked (workload/seed/stream/τ + checksum)
  /// before use, and any mismatch or corruption is a plain rebuild.
  std::string arena_dir;
  /// Serving-layer resilience budgets (serve/resilience.h):
  /// default deadline applied to QuerySpecs that do not set their own
  /// (milliseconds, 0 = unlimited) ...
  std::uint64_t default_deadline_ms = 0;
  /// ... maximum concurrent arena builds in serve::QueryService (0 =
  /// unlimited; admission control off) ...
  std::int64_t max_inflight_builds = 0;
  /// ... and how many further requests may QUEUE for a build slot
  /// (bounded by their deadline) before the service sheds with
  /// kUnavailable. Only meaningful when max_inflight_builds > 0;
  /// 0 = no queue, shed immediately once all slots are busy.
  std::int64_t max_queued_builds = 0;
  /// Cadence of serve::QueryService's background integrity scrubber
  /// (serve/scrubber.h): every scrub_interval_ms one resident arena is
  /// re-hashed against its admitted checksum (mismatch = evict and
  /// rebuild) and one persisted arena_dir entry is re-verified (failure
  /// = quarantine). 0 = time-driven scrubbing off; the REPL `scrub`
  /// command still runs a full rotation on demand.
  std::uint64_t scrub_interval_ms = 0;

  /// Validation for flag-derived options (the struct defaults are valid).
  Status Validate() const;
};

/// \brief The facade: WorkloadSpec → Session → Solve.
///
/// \code
///   api::Session session;
///   auto workload = api::WorkloadSpec::Dataset("Karate")
///                       .Probability(ProbabilityModel::kIwc);
///   auto result = session.Solve(
///       workload, api::SolveSpec{}.WithSampleNumber(4096).WithK(4));
///   if (!result.ok()) { /* result.status().ToString() says why */ }
/// \endcode
class Session {
 public:
  explicit Session(const SessionOptions& options = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Runs one greedy seed selection for `solve` on `workload`.
  /// Deterministic: the result is a pure function of the two specs and
  /// the session's seed (see SolveSpec's determinism contract).
  StatusOr<SolveResult> Solve(const WorkloadSpec& workload,
                              const SolveSpec& solve);

  /// Runs every spec on the one workload, fanning independent runs out
  /// across the shared pool (runs with engine-routed sampling execute in
  /// order instead, each spreading its own sampling chunks — never both
  /// parallelism levels at once). Results are byte-identical to calling
  /// Solve(workload, specs[i]) sequentially, for any pool width and any
  /// sampling.num_threads. Fails fast: the first invalid spec fails the
  /// whole batch before any run starts. Runs share nothing but the
  /// resolved instance and its oracle: each samples its own estimator.
  StatusOr<std::vector<SolveResult>> SolveBatch(
      const WorkloadSpec& workload, const std::vector<SolveSpec>& specs);

  /// Resolves the workload to its (graph, model) instance, building and
  /// caching graphs/weights on first use. The pointers inside stay valid
  /// for the session's lifetime.
  StatusOr<ModelInstance> ResolveWorkload(const WorkloadSpec& workload);

  /// The workload's shared influence oracle (built on first use, then
  /// reused for every query on the instance — paper Section 5.2). Keyed
  /// by (network, prob, model): LT oracles draw backward-walk RR sets.
  /// The first call samples and indexes the oracle on the shared pool at
  /// full width; its sets and values are byte-identical to an inline
  /// build at any `threads`. Any number of threads may query the
  /// returned oracle at once.
  StatusOr<const RrOracle*> ResolveOracle(const WorkloadSpec& workload);

  /// SamplingOptions with the session's pools attached: 0 = the shared
  /// pool at full width, N >= 2 = a cached dedicated N-worker pool, 1 =
  /// inline on the calling thread (no pool). Negative widths fall back to
  /// 1. The width never changes a sampled byte.
  SamplingOptions SamplingFor(std::int64_t sample_threads,
                              std::uint64_t chunk_size = 256);

  ThreadPool* pool() { return pool_.get(); }
  const SessionOptions& options() const { return options_; }
  /// The underlying registry. NOT thread-safe — only touch it while no
  /// other thread is resolving (exp-layer benches build up front).
  InstanceRegistry* registry() { return &registry_; }

 private:
  /// One fully resolved, immutable run: safe to execute lock-free.
  struct ResolvedSolve {
    SolveSpec spec;
    ModelInstance instance;
    const RrOracle* oracle = nullptr;  // null when influence is skipped
  };

  /// Loads file/in-memory networks into the registry once (mu_ held).
  Status EnsureNetworkLocked(const WorkloadSpec& workload);
  StatusOr<ModelInstance> ResolveWorkloadLocked(const WorkloadSpec& workload);
  StatusOr<const RrOracle*> ResolveOracleLocked(const WorkloadSpec& workload);
  SamplingOptions SamplingLocked(const SamplingOptions& requested);
  StatusOr<ResolvedSolve> ResolveSolveLocked(const WorkloadSpec& workload,
                                             const SolveSpec& solve);
  SolveResult RunResolved(const ResolvedSolve& resolved);

  SessionOptions options_;
  /// Guards all mutable session state below. ResolveOracleLocked waits on
  /// pool_ chunks while holding it, so no task running on pool_ may lock
  /// mu_ (it could hold up the very chunks the lock holder waits for).
  /// None does: trials, arena chunks and batch runs never call back into
  /// the Session.
  std::mutex mu_;
  std::mutex batch_mu_;  ///< serializes SolveBatch pool fan-outs
  InstanceRegistry registry_;
  std::unique_ptr<ThreadPool> pool_;
  /// Names already loaded from a file / in-memory edge list.
  std::set<std::string> registered_networks_;
  /// Names resolved from the bundled catalog — a later file/edges
  /// workload may not reuse them (it would invalidate live instances).
  std::set<std::string> dataset_networks_;
  /// Dedicated sample pools, one per requested width N >= 2.
  std::map<std::size_t, std::unique_ptr<ThreadPool>> sample_pools_;
  /// Oracles keyed by WorkloadSpec::Label().
  std::map<std::string, std::unique_ptr<RrOracle>> oracles_;
};

}  // namespace api
}  // namespace soldist

#endif  // SOLDIST_API_SESSION_H_
