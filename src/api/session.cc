#include "api/session.h"

#include <functional>
#include <limits>
#include <utility>

#include "core/factory.h"
#include "core/greedy.h"
#include "graph/builder.h"
#include "graph/io.h"
#include "random/splitmix64.h"
#include "util/timer.h"

namespace soldist {
namespace api {

Status SessionOptions::Validate() const {
  if (oracle_rr < 1) {
    return Status::InvalidArgument(
        "SessionOptions: oracle_rr must be >= 1 (RR sets per shared "
        "oracle)");
  }
  if (oracle_rr > std::uint64_t{std::numeric_limits<std::uint32_t>::max()}) {
    return Status::InvalidArgument(
        "SessionOptions: oracle_rr exceeds the oracle's 32-bit set ids");
  }
  if (threads < 0) {
    return Status::InvalidArgument(
        "SessionOptions: threads must be >= 0 (0 = hardware concurrency)");
  }
  if (max_inflight_builds < 0) {
    return Status::InvalidArgument(
        "SessionOptions: max_inflight_builds must be >= 0 (0 = unlimited)");
  }
  if (max_queued_builds < 0) {
    return Status::InvalidArgument(
        "SessionOptions: max_queued_builds must be >= 0 (0 = no queue)");
  }
  return arena_storage.Validate();
}

Session::Session(const SessionOptions& options)
    : options_(options),
      registry_(options.seed, options.star_n),
      pool_(std::make_unique<ThreadPool>(
          options.threads > 0 ? static_cast<std::size_t>(options.threads)
                              : 0)) {}

Session::~Session() = default;

Status Session::EnsureNetworkLocked(const WorkloadSpec& workload) {
  // Catalog names and loaded names live in one registry namespace;
  // reusing a name across sources (either order) would silently serve
  // the wrong graph or invalidate live instances — reject both ways.
  if (workload.source == WorkloadSpec::Source::kDataset) {
    if (registered_networks_.count(workload.network) > 0) {
      return Status::InvalidArgument(
          "network name '" + workload.network +
          "' was loaded from a file/edge list in this session; a bundled "
          "dataset workload cannot reuse it");
    }
    return Status::OK();
  }
  if (registered_networks_.count(workload.network) > 0) return Status::OK();
  // Registering over an already-resolved catalog name would erase its
  // cached influence graphs while cached oracles (and any outstanding
  // ModelInstance) still point into them — reject the collision instead.
  if (dataset_networks_.count(workload.network) > 0) {
    return Status::InvalidArgument(
        "network name '" + workload.network +
        "' is already in use by a resolved bundled dataset; give the "
        "file/edge-list workload a distinct name");
  }
  EdgeList edges;
  if (workload.source == WorkloadSpec::Source::kFile) {
    StatusOr<EdgeList> loaded = GraphIo::LoadEdgeList(workload.path);
    if (!loaded.ok()) return loaded.status();
    edges = std::move(loaded).value();
  } else {
    edges = *workload.edges;
  }
  registry_.RegisterGraph(workload.network,
                          GraphBuilder::FromEdgeList(edges));
  registered_networks_.insert(workload.network);
  return Status::OK();
}

StatusOr<ModelInstance> Session::ResolveWorkloadLocked(
    const WorkloadSpec& workload) {
  SOLDIST_RETURN_IF_ERROR(options_.Validate());
  SOLDIST_RETURN_IF_ERROR(workload.Validate());
  SOLDIST_RETURN_IF_ERROR(EnsureNetworkLocked(workload));
  StatusOr<ModelInstance> instance = registry_.GetModelInstance(
      workload.network, workload.prob, workload.model);
  if (instance.ok() &&
      workload.source == WorkloadSpec::Source::kDataset) {
    dataset_networks_.insert(workload.network);
  }
  return instance;
}

StatusOr<ModelInstance> Session::ResolveWorkload(
    const WorkloadSpec& workload) {
  std::lock_guard<std::mutex> lock(mu_);
  return ResolveWorkloadLocked(workload);
}

StatusOr<const RrOracle*> Session::ResolveOracleLocked(
    const WorkloadSpec& workload) {
  // Resolve (and so validate) the workload BEFORE consulting the cache:
  // a mismatched workload that merely shares a label must hit the
  // collision rejection, not silently receive another workload's oracle.
  StatusOr<ModelInstance> instance = ResolveWorkloadLocked(workload);
  if (!instance.ok()) return instance.status();
  // The label doubles as the cache key; it also feeds the oracle seed via
  // hash, matching the pre-facade experiment harness so migrated benches
  // keep their exact influence values.
  std::string key = workload.Label();
  auto it = oracles_.find(key);
  if (it != oracles_.end()) return it->second.get();
  std::uint64_t oracle_seed =
      DeriveSeed(options_.seed, std::hash<std::string>{}(key));
  // Sampled and indexed on the session pool at full width, still holding
  // mu_ (no pool task ever locks it; see mu_). The width never changes a
  // set, so the oracle's values are those of an inline build.
  SamplingOptions sampling;
  sampling.pool = pool_.get();
  auto oracle =
      workload.model == DiffusionModel::kLt
          ? std::make_unique<RrOracle>(instance.value().lt_weights,
                                       options_.oracle_rr, oracle_seed,
                                       sampling)
          : std::make_unique<RrOracle>(instance.value().ig,
                                       options_.oracle_rr, oracle_seed,
                                       sampling);
  const RrOracle* ptr = oracle.get();
  oracles_[key] = std::move(oracle);
  return ptr;
}

StatusOr<const RrOracle*> Session::ResolveOracle(
    const WorkloadSpec& workload) {
  std::lock_guard<std::mutex> lock(mu_);
  return ResolveOracleLocked(workload);
}

SamplingOptions Session::SamplingLocked(const SamplingOptions& requested) {
  SamplingOptions sampling = requested;
  if (sampling.num_threads < 0) {
    sampling.num_threads = 1;  // nonsense width: fall back to inline
  }
  if (sampling.pool != nullptr || sampling.num_threads == 1) {
    return sampling;  // caller-supplied pool, or inline sampling
  }
  if (sampling.num_threads == 0) {
    sampling.pool = pool_.get();  // shared pool, full width
  } else {
    // A pool's width caps the engine's parallelism, so honor the exact
    // requested count with a cached dedicated pool instead of the shared
    // pool (whose width is configured independently).
    auto width = static_cast<std::size_t>(sampling.num_threads);
    auto& sample_pool = sample_pools_[width];
    if (sample_pool == nullptr) {
      sample_pool = std::make_unique<ThreadPool>(width);
    }
    sampling.pool = sample_pool.get();
  }
  return sampling;
}

SamplingOptions Session::SamplingFor(std::int64_t sample_threads,
                                     std::uint64_t chunk_size) {
  SamplingOptions requested;
  requested.num_threads = static_cast<int>(sample_threads);
  requested.chunk_size = chunk_size;
  std::lock_guard<std::mutex> lock(mu_);
  return SamplingLocked(requested);
}

StatusOr<Session::ResolvedSolve> Session::ResolveSolveLocked(
    const WorkloadSpec& workload, const SolveSpec& solve) {
  SOLDIST_RETURN_IF_ERROR(solve.Validate());
  ResolvedSolve resolved;
  resolved.spec = solve;
  StatusOr<ModelInstance> instance = ResolveWorkloadLocked(workload);
  if (!instance.ok()) return instance.status();
  resolved.instance = instance.value();
  const VertexId n = resolved.instance.ig->num_vertices();
  if (static_cast<VertexId>(solve.k) > n) {
    return Status::InvalidArgument(
        "SolveSpec: k=" + std::to_string(solve.k) + " exceeds the " +
        std::to_string(n) + " vertices of " + workload.Label());
  }
  if (solve.evaluate_influence) {
    StatusOr<const RrOracle*> oracle = ResolveOracleLocked(workload);
    if (!oracle.ok()) return oracle.status();
    resolved.oracle = oracle.value();
  }
  resolved.spec.sampling = SamplingLocked(solve.sampling);
  return resolved;
}

SolveResult Session::RunResolved(const ResolvedSolve& resolved) {
  const SolveSpec& spec = resolved.spec;
  // Exactly trial 0 of the exp-layer RunTrials with master_seed =
  // spec.seed: stream 0 drives the estimator, stream 1 the tie-break
  // shuffle (the facade and the harness stay byte-comparable).
  std::unique_ptr<InfluenceEstimator> estimator =
      MakeEstimator(resolved.instance, spec.approach, spec.sample_number,
                    DeriveSeed(spec.seed, 0), spec.snapshot_mode,
                    spec.sampling);
  Rng tie_rng(DeriveSeed(spec.seed, 1));
  WallTimer timer;
  GreedyRunResult run =
      RunGreedy(estimator.get(), resolved.instance.ig->num_vertices(),
                spec.k, &tie_rng);
  const double greedy_seconds = timer.Seconds();
  SolveResult result;
  result.seeds = run.seeds;
  result.estimates = run.estimates;
  result.seed_set = run.SortedSeedSet();
  result.counters = estimator->counters();
  result.build_seconds = run.build_seconds;
  result.select_seconds = greedy_seconds - run.build_seconds;
  result.solve_seconds = result.build_seconds + result.select_seconds;
  if (resolved.oracle != nullptr) {
    timer.Restart();
    // Lock-free: the oracle's queries keep no scratch, so batch fan-outs
    // and concurrent Solve callers evaluate on it at once.
    result.influence = resolved.oracle->EstimateInfluence(result.seed_set);
    result.oracle_ci99 = resolved.oracle->ConfidenceInterval99();
    result.evaluate_seconds = timer.Seconds();
  }
  return result;
}

StatusOr<SolveResult> Session::Solve(const WorkloadSpec& workload,
                                     const SolveSpec& solve) {
  StatusOr<ResolvedSolve> resolved = [&]() -> StatusOr<ResolvedSolve> {
    std::lock_guard<std::mutex> lock(mu_);
    return ResolveSolveLocked(workload, solve);
  }();
  if (!resolved.ok()) return resolved.status();
  return RunResolved(resolved.value());
}

StatusOr<std::vector<SolveResult>> Session::SolveBatch(
    const WorkloadSpec& workload, const std::vector<SolveSpec>& specs) {
  if (specs.empty()) {
    return Status::InvalidArgument("SolveBatch: empty spec list");
  }
  // Resolve everything up front (fail fast, and keep the run loop free of
  // registry mutation so it can fan out).
  std::vector<ResolvedSolve> resolved;
  resolved.reserve(specs.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      StatusOr<ResolvedSolve> r = ResolveSolveLocked(workload, specs[i]);
      if (!r.ok()) {
        return Status(r.status().code(),
                      "SolveBatch spec " + std::to_string(i) + ": " +
                          r.status().message());
      }
      resolved.push_back(std::move(r).value());
    }
  }
  // Sample-parallel specs own the pool for their chunks, so those runs
  // execute in order (same rule as the exp-layer trial runner: one
  // parallelism level at a time). Either way each run is a pure function
  // of its spec, so the schedule cannot change the results.
  bool any_sample_parallel = false;
  for (const ResolvedSolve& r : resolved) {
    if (r.spec.sampling.SampleParallel()) any_sample_parallel = true;
  }
  std::vector<SolveResult> results(resolved.size());
  if (any_sample_parallel || resolved.size() == 1 ||
      pool_->num_threads() <= 1) {
    for (std::size_t i = 0; i < resolved.size(); ++i) {
      results[i] = RunResolved(resolved[i]);
    }
  } else {
    // The pool's single-waiter contract: one batch fan-out at a time.
    std::lock_guard<std::mutex> lock(batch_mu_);
    ParallelFor(pool_.get(), resolved.size(), [&](std::uint64_t i) {
      results[i] = RunResolved(resolved[i]);
    });
  }
  return results;
}

}  // namespace api
}  // namespace soldist
