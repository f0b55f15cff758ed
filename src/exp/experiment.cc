#include "exp/experiment.h"

#include "gen/datasets.h"
#include "store/fault_injection.h"

namespace soldist {

api::SessionOptions ExperimentOptions::SessionConfig() const {
  api::SessionOptions session;
  session.seed = seed;
  session.oracle_rr = oracle_rr;
  session.threads = threads;
  session.star_n = star_n;
  session.arena_budget_bytes = arena_budget_bytes;
  session.arena_storage.backend = arena_backend;
  session.arena_dir = arena_dir;
  // The persistence root doubles as the spill home so one flag places
  // every arena byte that leaves RAM; mmap with neither falls back to a
  // tmp directory rather than failing Validate.
  session.arena_storage.spill_dir =
      !arena_dir.empty() ? arena_dir : std::string("/tmp/soldist-arena");
  session.default_deadline_ms = deadline_ms;
  session.max_inflight_builds = max_inflight_builds;
  session.scrub_interval_ms = scrub_interval_ms;
  return session;
}

void AddExperimentFlags(ArgParser* args) {
  args->AddInt64("trials", 200, "trials T per (algorithm, sample number)");
  args->AddInt64("star-trials", 20, "trials T for the ⋆ networks");
  args->AddInt64("seed", 42, "master PRNG seed");
  args->AddInt64("oracle-rr", 100000,
                 "RR sets per shared influence oracle (paper: 10^7)");
  args->AddInt64("star-n", 0,
                 "vertex count for com-Youtube/soc-Pokec proxies "
                 "(0 = defaults 60k/80k; paper-scale: 1134889/1632802)");
  args->AddBool("full", false,
                "run the paper-scale sample-number grids (very slow)");
  args->AddString("model", "ic",
                  "diffusion model: ic | lt (lt needs an LT-valid "
                  "probability setting, e.g. iwc; IC-only benches reject "
                  "lt instead of silently running ic)");
  args->AddString("out", "", "also write results as CSV to this path");
  args->AddInt64("threads", 0, "worker threads (0 = hardware concurrency)");
  args->AddInt64("sample-threads", 1,
                 "sample-level parallelism: 1 = each trial samples inline, "
                 "trials in parallel; 0/N = sampling chunks on the shared "
                 "pool, trials sequential (results are identical)");
  args->AddInt64("chunk-size", 256,
                 "samples per deterministic RNG chunk (affects which "
                 "streams produce which samples, NOT the results' "
                 "dependence on thread count)");
  args->AddString("sweep-reuse", "on",
                  "sample-number-ladder reuse for RIS and condensed "
                  "Snapshot sweeps: on = one arena per trial serves every "
                  "sample number as a prefix view; off = same "
                  "prefix-closed streams with fresh per-cell sampling "
                  "(byte-identical to on, ~2x the sampling work)");
  args->AddString("arena-backend", "flat",
                  "arena storage backend: flat | compressed (delta+varint "
                  "decode-on-demand) | mmap (chunk-granular disk spill). "
                  "Results are byte-identical across backends; the flag "
                  "trades decode latency for resident memory.");
  args->AddString("arena-dir", "",
                  "arena persistence root: sampled arenas save here and "
                  "reload across processes (identity-checked manifests); "
                  "also the mmap backend's spill home. Empty = no "
                  "persistence.");
  args->AddInt64("deadline-ms", 0,
                 "per-request deadline in milliseconds for serve-layer "
                 "views: a build that outruns it is cancelled and the "
                 "request answers DEGRADED from the largest resident "
                 "τ prefix. Omit for unlimited (an explicit 0 is an "
                 "error).");
  args->AddInt64("max-inflight-builds", 0,
                 "admission control: max concurrent serve-layer arena "
                 "builds; excess requests shed with UNAVAILABLE (or "
                 "answer degraded from a resident prefix). 0 = "
                 "unlimited.");
  args->AddInt64("scrub-interval-ms", 0,
                 "background integrity scrubber cadence: every interval "
                 "one resident arena is re-hashed against its admitted "
                 "checksum (mismatch = evict and rebuild) and one "
                 "persisted --arena-dir entry re-verified (failure = "
                 "quarantine). 0 = off; the REPL `scrub` command still "
                 "runs a full rotation on demand.");
  args->AddString("fault-spec", "",
                  "deterministic IO fault injection for every store/ IO "
                  "boundary, e.g. 'error-rate=0.1,seed=7', "
                  "'torn-write,error-every=3', or 'crash-at=rename:2' "
                  "(keys: error-rate, error-every, seed, torn-write, "
                  "short-read, slow-read-us, crash-at). Empty = off.");
}

namespace {

Status RequireAtLeast(const ArgParser& args, const std::string& flag,
                      std::int64_t min) {
  std::int64_t value = args.GetInt64(flag);
  if (value < min) {
    return Status::InvalidArgument(
        "--" + flag + " must be >= " + std::to_string(min) + ", got " +
        std::to_string(value));
  }
  return Status::OK();
}

}  // namespace

StatusOr<ExperimentOptions> ParseExperimentFlags(const ArgParser& args) {
  // Validate the raw int64 values BEFORE the unsigned casts: "--trials -5"
  // must be an error, not a 2^64-ish trial count.
  SOLDIST_RETURN_IF_ERROR(RequireAtLeast(args, "trials", 1));
  SOLDIST_RETURN_IF_ERROR(RequireAtLeast(args, "star-trials", 1));
  SOLDIST_RETURN_IF_ERROR(RequireAtLeast(args, "seed", 0));
  SOLDIST_RETURN_IF_ERROR(RequireAtLeast(args, "oracle-rr", 1));
  SOLDIST_RETURN_IF_ERROR(RequireAtLeast(args, "star-n", 0));
  SOLDIST_RETURN_IF_ERROR(RequireAtLeast(args, "threads", 0));
  SOLDIST_RETURN_IF_ERROR(RequireAtLeast(args, "sample-threads", 0));
  SOLDIST_RETURN_IF_ERROR(RequireAtLeast(args, "chunk-size", 1));
  StatusOr<DiffusionModel> model =
      ParseDiffusionModel(args.GetString("model"));
  if (!model.ok()) return model.status();
  StatusOr<SweepReuse> sweep_reuse =
      ParseSweepReuse(args.GetString("sweep-reuse"));
  if (!sweep_reuse.ok()) return sweep_reuse.status();
  StatusOr<store::ArenaBackend> arena_backend =
      store::ParseArenaBackend(args.GetString("arena-backend"));
  if (!arena_backend.ok()) return arena_backend.status();
  // An EXPLICIT --deadline-ms 0 is almost certainly a confused attempt
  // at "no deadline" — make the unlimited spelling (omit the flag)
  // unambiguous instead of silently accepting both.
  if (args.Provided("deadline-ms") && args.GetInt64("deadline-ms") == 0) {
    return Status::InvalidArgument(
        "--deadline-ms 0 is ambiguous: omit the flag for an unlimited "
        "deadline, or pass a value >= 1");
  }
  SOLDIST_RETURN_IF_ERROR(RequireAtLeast(args, "deadline-ms", 0));
  SOLDIST_RETURN_IF_ERROR(RequireAtLeast(args, "max-inflight-builds", 0));
  SOLDIST_RETURN_IF_ERROR(RequireAtLeast(args, "scrub-interval-ms", 0));
  // Validate AND install the fault spec here: the injector hooks sit
  // below any session object, so flag handling is the one place every
  // binary passes before its first IO.
  const std::string fault_spec = args.GetString("fault-spec");
  SOLDIST_RETURN_IF_ERROR(store::InstallFaultInjector(fault_spec));

  ExperimentOptions options;
  options.trials = static_cast<std::uint64_t>(args.GetInt64("trials"));
  options.star_trials =
      static_cast<std::uint64_t>(args.GetInt64("star-trials"));
  options.seed = static_cast<std::uint64_t>(args.GetInt64("seed"));
  options.oracle_rr = static_cast<std::uint64_t>(args.GetInt64("oracle-rr"));
  options.star_n = static_cast<VertexId>(args.GetInt64("star-n"));
  options.full = args.GetBool("full");
  options.model = model.value();
  options.out_csv = args.GetString("out");
  options.threads = args.GetInt64("threads");
  options.sample_threads = args.GetInt64("sample-threads");
  options.chunk_size = args.GetInt64("chunk-size");
  options.sweep_reuse = sweep_reuse.value();
  options.arena_backend = arena_backend.value();
  options.arena_dir = args.GetString("arena-dir");
  options.deadline_ms =
      static_cast<std::uint64_t>(args.GetInt64("deadline-ms"));
  options.max_inflight_builds = args.GetInt64("max-inflight-builds");
  options.scrub_interval_ms =
      static_cast<std::uint64_t>(args.GetInt64("scrub-interval-ms"));
  options.fault_spec = fault_spec;
  return options;
}

GridCaps ScaledGridCaps(const std::string& network, bool full) {
  if (full) return {16, 16, 24};  // the paper's grid (Section 5 preamble)
  if (network == "Karate") return {12, 12, 16};
  if (network == "Physicians") return {10, 10, 14};
  if (network == "BA_s") return {10, 10, 14};
  // BA_d under uc0.1 percolates a ~0.37n giant component: every Oneshot
  // simulation scans a third of the graph, so its grids stay shallower.
  if (network == "BA_d") return {6, 7, 12};
  if (network == "ca-GrQc") return {5, 6, 13};
  // Wiki-Vote Oneshot resimulates through hub out-degrees (~750): keep
  // its β grid tighter than the others.
  if (network == "Wiki-Vote") return {4, 6, 13};
  // ⋆ proxies: every Snapshot Estimate sweep is n BFS runs per snapshot,
  // so the τ grid stays tiny.
  if (network == "com-Youtube") return {1, 2, 9};
  if (network == "soc-Pokec") return {1, 2, 9};
  return {8, 8, 12};
}

ExperimentContext::ExperimentContext(const ExperimentOptions& options)
    : options_(options), session_(options.SessionConfig()) {}

api::WorkloadSpec ExperimentContext::Workload(const std::string& network,
                                              ProbabilityModel prob) const {
  return api::WorkloadSpec::Dataset(network)
      .Probability(prob)
      .Diffusion(options_.model);
}

StatusOr<ModelInstance> ExperimentContext::TryModel(
    const std::string& network, ProbabilityModel prob) {
  return session_.ResolveWorkload(Workload(network, prob));
}

StatusOr<const RrOracle*> ExperimentContext::TryOracle(
    const std::string& network, ProbabilityModel prob) {
  return session_.ResolveOracle(Workload(network, prob));
}

const InfluenceGraph& ExperimentContext::Instance(const std::string& network,
                                                  ProbabilityModel prob) {
  // The influence graph is model-independent: resolve under IC so IC-only
  // benches never require an LT-valid probability setting.
  StatusOr<ModelInstance> instance = session_.ResolveWorkload(
      Workload(network, prob).Diffusion(DiffusionModel::kIc));
  SOLDIST_CHECK(instance.ok()) << instance.status().ToString();
  return *instance.value().ig;
}

ModelInstance ExperimentContext::Model(const std::string& network,
                                       ProbabilityModel prob) {
  StatusOr<ModelInstance> instance = TryModel(network, prob);
  SOLDIST_CHECK(instance.ok()) << instance.status().ToString();
  return instance.value();
}

const RrOracle& ExperimentContext::Oracle(const std::string& network,
                                          ProbabilityModel prob) {
  StatusOr<const RrOracle*> oracle = TryOracle(network, prob);
  SOLDIST_CHECK(oracle.ok()) << oracle.status().ToString();
  return *oracle.value();
}

std::uint64_t ExperimentContext::TrialsFor(const std::string& network) const {
  return Datasets::IsStarNetwork(network) ? options_.star_trials
                                          : options_.trials;
}

SamplingOptions ExperimentContext::SamplingFor(std::int64_t sample_threads) {
  return session_.SamplingFor(
      sample_threads, static_cast<std::uint64_t>(options_.chunk_size));
}

}  // namespace soldist
