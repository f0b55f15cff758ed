// soldist_experiment: the generic experiment harness. Runs the paper's
// T-trial methodology for one (network, probability setting, diffusion
// model) instance across the three approaches and a sample-number grid,
// printing per-cell entropy, influence statistics, traversal costs, and
// the modal seed set.
//
// The harness runs on the api/ facade: flags build a WorkloadSpec, an
// api::Session (via ExperimentContext) resolves and caches the instance
// and its shared oracle, and every invalid flag combination — unknown
// network, --model lt with an LT-invalid probability setting, k > n —
// comes back as a Status printed to stderr with exit code 1, never a
// CHECK-abort.
//
// --json switches stdout to machine-readable JSON lines: one SolveResult
// record per trial (seed set + oracle influence) and one summary record
// per sweep cell, for jq / pandas consumption.
//
// --verify-threads "1,2,4" re-runs the whole experiment once per listed
// --sample-threads value and requires that every trial's seed set and
// every distribution statistic is byte-identical across the runs — the
// "parallelism must never silently change the experiment" invariant,
// executable end-to-end. It holds for ANY list under either model: every
// estimator draws through the chunked deterministic streams, so only
// --chunk-size can change a result.
//
// --query switches the binary into the serving REPL: one arena for the
// (network, prob, model, seed) workload is built through
// serve::QueryService at τ = --tau (cache budget --arena-budget-mb),
// then stdin lines are answered as JSON lines on stdout:
//   spread v1,v2,...   RIS spread estimate of the seed set
//   gain v s1,s2,...   marginal gain of v on top of {s1,...} (base opt.)
//   topk k             greedy top-k seeds with per-seed estimates
//   stats              arena-cache + resilience + recovery/scrub stats
//   scrub              full synchronous scrub rotation, then totals
// Bad input is a {"type":"error"} line, never an abort. Under
// --deadline-ms / --max-inflight-builds / --fault-spec the REPL serves
// the resilience contract (serve/resilience.h): deadline-missed builds
// answer DEGRADED from the largest resident τ prefix (tagged
// degraded/served_tau), deadline-bounded `topk` returns the completed
// CELF prefix (tagged completed=false/served_k), and `stats` exposes the
// degraded_answers / shed_requests / retries / deadline_misses counters
// plus the startup RecoveryReport and scrubber totals
// (--scrub-interval-ms drives the background cadence; `scrub` runs a
// rotation on demand).
//
// Usage:
//   soldist_experiment --network Karate --prob iwc --model lt --k 2
//                      --sample-threads 4
//   soldist_experiment --verify-threads 1,2,4              # determinism
//   soldist_experiment --json | jq .influence              # JSON records
//   echo "spread 0,33" | soldist_experiment --query        # point query

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "serve/query_service.h"
#include "store/arena_storage.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/string_util.h"

namespace soldist {
namespace {

struct HarnessParams {
  std::string network;
  ProbabilityModel prob = ProbabilityModel::kIwc;
  int k = 1;
  int min_exp = 0;
  int max_exp = -1;  // -1: use the network's scaled grid cap
  bool json = false;
  /// Snapshot reachability backend under either model (--snapshot-mode).
  /// Backends return byte-identical seed sets and estimates — the flag
  /// selects a cost profile, never a result.
  SnapshotEstimator::Mode snapshot_mode = SnapshotEstimator::Mode::kCondensed;
};

/// Exponents feed 1ULL << e, so keep them far from the shift-width UB
/// edge (the paper's largest grid is 2^24).
constexpr int kMaxExponent = 40;

/// Serializes everything the determinism contract covers: every trial's
/// seed set plus the derived distribution statistics of every cell.
void SerializeCell(Approach approach, const SweepCell& cell,
                   std::string* out) {
  out->append(ApproachName(approach));
  out->append(" s=" + std::to_string(cell.sample_number) + "\n");
  for (const auto& seeds : cell.result.seed_sets) {
    for (VertexId v : seeds) out->append(std::to_string(v) + ",");
    out->push_back('\n');
  }
  char stats[256];
  std::snprintf(stats, sizeof(stats),
                "H=%.17g distinct=%llu inf_mean=%.17g inf_min=%.17g "
                "inf_max=%.17g cost_v=%llu cost_e=%llu sample=%llu\n",
                cell.entropy,
                static_cast<unsigned long long>(
                    cell.result.distribution.num_distinct_sets()),
                cell.result.influence.Mean(), cell.result.influence.Min(),
                cell.result.influence.Max(),
                static_cast<unsigned long long>(
                    cell.result.total_counters.vertices),
                static_cast<unsigned long long>(
                    cell.result.total_counters.edges),
                static_cast<unsigned long long>(
                    cell.result.total_counters.TotalSampleSize()));
  out->append(stats);
}

/// One JSON line per trial (the SolveResult-shaped record) plus one
/// summary line per cell.
void PrintCellJson(const ExperimentOptions& options,
                   const HarnessParams& params, Approach approach,
                   const SweepCell& cell) {
  const auto& influence = cell.result.influence.values();
  for (std::size_t t = 0; t < cell.result.seed_sets.size(); ++t) {
    JsonObject record;
    record.Str("type", "trial")
        .Str("model", DiffusionModelName(options.model))
        .Str("network", params.network)
        .Str("prob", ProbabilityModelName(params.prob))
        .Str("approach", ApproachName(approach))
        .UInt("sample_number", cell.sample_number)
        .Int("k", params.k)
        .UInt("trial", t)
        .UIntArray("seed_set", cell.result.seed_sets[t])
        .Real("influence", t < influence.size() ? influence[t] : 0.0);
    std::printf("%s\n", record.ToString().c_str());
  }
  JsonObject summary;
  summary.Str("type", "cell")
      .Str("model", DiffusionModelName(options.model))
      .Str("network", params.network)
      .Str("prob", ProbabilityModelName(params.prob))
      .Str("approach", ApproachName(approach))
      .UInt("sample_number", cell.sample_number)
      .Int("k", params.k)
      .Real("entropy", cell.entropy)
      .UInt("distinct_sets", cell.result.distribution.num_distinct_sets())
      .Real("mean_influence", cell.summary.mean_influence)
      .Real("mean_vertex_cost",
            cell.result.MeanVertexCost(cell.result.seed_sets.size()))
      .Real("mean_edge_cost",
            cell.result.MeanEdgeCost(cell.result.seed_sets.size()))
      .Real("mean_sample_size",
            cell.result.MeanSampleSize(cell.result.seed_sets.size()));
  std::printf("%s\n", summary.ToString().c_str());
}

/// Runs the full experiment on `context` with sample-level parallelism
/// `sample_threads` and returns the serialized results; prints tables (or
/// JSON records) and fills `csv` when `print` is set. The context (and
/// with it the dataset and the RR-set oracle) is shared across calls —
/// only the sampling width varies, which by the determinism contract must
/// not matter.
StatusOr<std::string> RunExperiment(ExperimentContext* context,
                                    std::int64_t sample_threads,
                                    const HarnessParams& params, bool print,
                                    CsvWriter* csv) {
  const ExperimentOptions& options = context->options();
  StatusOr<ModelInstance> instance =
      context->TryModel(params.network, params.prob);
  if (!instance.ok()) return instance.status();
  StatusOr<const RrOracle*> oracle =
      context->TryOracle(params.network, params.prob);
  if (!oracle.ok()) return oracle.status();
  const VertexId n = instance.value().ig->num_vertices();
  if (static_cast<VertexId>(params.k) > n) {
    return Status::InvalidArgument(
        "--k " + std::to_string(params.k) + " exceeds the " +
        std::to_string(n) + " vertices of " + params.network);
  }
  GridCaps caps = ScaledGridCaps(params.network, options.full);

  std::string serialized;
  for (Approach approach :
       {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
    SweepConfig config;
    config.sampling = context->SamplingFor(sample_threads);
    config.approach = approach;
    config.snapshot_mode = params.snapshot_mode;
    config.reuse = options.sweep_reuse;
    config.k = params.k;
    config.trials = context->TrialsFor(params.network);
    config.master_seed = options.seed;
    config.min_exponent = params.min_exp;
    config.max_exponent =
        params.max_exp >= 0
            ? params.max_exp
            : TrimExpForK(caps.MaxExp(approach), params.k, approach);
    if (config.max_exponent < config.min_exponent) {
      config.max_exponent = config.min_exponent;
    }
    WallTimer timer;
    std::vector<SweepCell> cells =
        RunSweep(instance.value(), *oracle.value(), config, context->pool());
    if (print && params.json) {
      for (const SweepCell& cell : cells) {
        PrintCellJson(options, params, approach, cell);
      }
    }
    if (print) {
      SOLDIST_LOG(Info) << ApproachName(approach) << " sweep in "
                        << timer.HumanElapsed();
      TextTable table({"sample number", "entropy", "distinct", "mean inf",
                       "vertex cost", "edge cost", "sample size",
                       "modal set"});
      for (const SweepCell& cell : cells) {
        std::string modal;
        for (VertexId v : cell.result.distribution.ModalSet()) {
          if (!modal.empty()) modal += " ";
          modal += std::to_string(v);
        }
        table.AddRow({FormatPowerOfTwo(cell.sample_number),
                      FormatDouble(cell.entropy, 3),
                      std::to_string(
                          cell.result.distribution.num_distinct_sets()),
                      FormatDouble(cell.summary.mean_influence, 4),
                      FormatCost(cell.result.MeanVertexCost(config.trials)),
                      FormatCost(cell.result.MeanEdgeCost(config.trials)),
                      FormatCost(cell.result.MeanSampleSize(config.trials)),
                      "{" + modal + "}"});
        if (csv != nullptr) {
          csv->Row()
              .Str(DiffusionModelName(options.model))
              .Str(ApproachName(approach))
              .UInt(cell.sample_number)
              .Real(cell.entropy, 4)
              .UInt(cell.result.distribution.num_distinct_sets())
              .Real(cell.summary.mean_influence, 4)
              .Real(cell.result.MeanVertexCost(config.trials), 2)
              .Real(cell.result.MeanEdgeCost(config.trials), 2)
              .Real(cell.result.MeanSampleSize(config.trials), 2)
              .Done();
        }
      }
      if (!params.json) {
        PrintTable(params.network + " (" +
                       ProbabilityModelName(params.prob) + ", " +
                       DiffusionModelName(options.model) +
                       ", k=" + std::to_string(params.k) + ") — " +
                       ApproachName(approach),
                   table);
      }
    }
    for (const SweepCell& cell : cells) {
      SerializeCell(approach, cell, &serialized);
    }
  }
  return serialized;
}

/// Parses "v1,v2,..." into vertex ids, validating against n. Returns a
/// Status (user input, never a CHECK).
Status ParseVertexList(const std::string& text, VertexId n,
                       std::vector<VertexId>* out) {
  out->clear();
  for (const std::string& field : Split(text, ',')) {
    const std::string trimmed(Trim(field));
    if (trimmed.empty()) continue;
    std::int64_t v = 0;
    if (!ParseInt64(trimmed, &v)) {
      return Status::InvalidArgument("bad vertex id '" + trimmed + "'");
    }
    if (v < 0 || static_cast<VertexId>(v) >= n) {
      return Status::InvalidArgument(
          "vertex " + trimmed + " out of range [0, " + std::to_string(n) +
          ")");
    }
    out->push_back(static_cast<VertexId>(v));
  }
  return Status::OK();
}

void PrintErrorLine(const Status& status) {
  JsonObject err;
  err.Str("type", "error").Str("error", status.message());
  std::printf("%s\n", err.ToString().c_str());
  std::fflush(stdout);
}

/// The serving REPL behind --query: stdin lines in, JSON lines out.
/// Every answer comes from one immutable QueryView minted by
/// serve::QueryService — microsecond point queries, no re-solve.
int RunQueryRepl(ExperimentContext* context, const HarnessParams& params,
                 std::uint64_t tau) {
  const ExperimentOptions& options = context->options();
  serve::QueryService service(context->session());
  serve::QuerySpec spec;
  spec.sample_number = tau;
  spec.seed = options.seed;
  spec.sample_threads = options.sample_threads;
  spec.chunk_size = static_cast<std::uint64_t>(options.chunk_size);
  const api::WorkloadSpec workload =
      context->Workload(params.network, params.prob);
  StatusOr<serve::QueryView> view = service.View(workload, spec);
  if (!view.ok()) return ExitWithError(view.status());
  const VertexId n = view.value().num_vertices();

  // The sampled-world view behind `reach`/`compsize` is minted lazily on
  // first use: RR-only sessions never pay a snapshot arena build, and an
  // LT workload answers those commands with a JSON error line (the
  // service returns Status — never an abort).
  serve::SnapshotQueryView world_view;
  bool have_world_view = false;
  auto mint_world_view = [&]() -> Status {
    if (have_world_view) return Status::OK();
    StatusOr<serve::SnapshotQueryView> minted =
        service.SnapshotView(workload, spec);
    if (!minted.ok()) return minted.status();
    world_view = minted.value();
    have_world_view = true;
    return Status::OK();
  };

  JsonObject ready;
  ready.Str("type", "ready")
      .Str("network", params.network)
      .Str("prob", ProbabilityModelName(params.prob))
      .Str("model", DiffusionModelName(options.model))
      .UInt("tau", tau)
      .UInt("n", n)
      .UInt("arena_bytes", view.value().arena().MemoryBytes());
  // A deadline that expired mid-build leaves a DEGRADED view: exact
  // answers at the smaller served τ (serve/resilience.h). Tag the
  // session so scripted consumers can tell.
  if (view.value().degraded()) {
    ready.Bool("degraded", true).UInt("served_tau", view.value().served_tau());
  }
  std::printf("%s\n", ready.ToString().c_str());
  std::fflush(stdout);

  // Every answer minted from a degraded view — the RR view or the
  // sampled-world view — carries the tag, so a consumer never mistakes
  // a τ' < τ estimate for the full-τ one.
  auto tag_degraded = [](const auto& answered_from, JsonObject* record) {
    if (answered_from.degraded()) {
      record->Bool("degraded", true)
          .UInt("served_tau", answered_from.served_tau());
    }
  };

  std::vector<VertexId> seeds;
  std::string line;
  while (std::getline(std::cin, line)) {
    const std::string input(Trim(line));
    if (input.empty()) continue;
    if (input == "quit" || input == "exit") break;
    const std::size_t space = input.find(' ');
    const std::string cmd = input.substr(0, space);
    const std::string rest(
        space == std::string::npos ? "" : Trim(input.substr(space + 1)));
    if (cmd == "spread") {
      Status parsed = ParseVertexList(rest, n, &seeds);
      if (!parsed.ok()) {
        PrintErrorLine(parsed);
        continue;
      }
      JsonObject record;
      record.Str("type", "spread")
          .UIntArray("seeds", seeds)
          .Real("spread", view.value().Spread(seeds));
      tag_degraded(view.value(), &record);
      std::printf("%s\n", record.ToString().c_str());
    } else if (cmd == "gain") {
      // "gain v s1,s2,...": v first, then the (optional) base seed set.
      const std::size_t gap = rest.find(' ');
      const std::string vertex_text(
          Trim(gap == std::string::npos ? rest : rest.substr(0, gap)));
      std::vector<VertexId> vertex;
      Status parsed = ParseVertexList(vertex_text, n, &vertex);
      if (parsed.ok() && vertex.size() != 1) {
        parsed = Status::InvalidArgument(
            "usage: gain <vertex> [s1,s2,...]");
      }
      if (parsed.ok()) {
        parsed = ParseVertexList(
            gap == std::string::npos
                ? std::string()
                : std::string(Trim(rest.substr(gap + 1))),
            n, &seeds);
      }
      if (!parsed.ok()) {
        PrintErrorLine(parsed);
        continue;
      }
      JsonObject record;
      record.Str("type", "gain")
          .UInt("vertex", vertex[0])
          .UIntArray("seeds", seeds)
          .Real("gain", view.value().MarginalGain(seeds, vertex[0]));
      tag_degraded(view.value(), &record);
      std::printf("%s\n", record.ToString().c_str());
    } else if (cmd == "topk") {
      std::int64_t k = 0;
      if (!ParseInt64(rest, &k) || k < 1 ||
          static_cast<VertexId>(k) > n) {
        PrintErrorLine(Status::InvalidArgument(
            "usage: topk <k> with k in [1, " + std::to_string(n) + "]"));
        continue;
      }
      // Deadline-aware CELF: the same per-request deadline that governs
      // builds also bounds selection — a fired token returns the
      // completed seed prefix (= a direct smaller-k solve), tagged.
      const serve::Deadline topk_deadline =
          options.deadline_ms == 0
              ? serve::Deadline()
              : serve::Deadline::AfterMillis(options.deadline_ms);
      CancelToken topk_cancel([topk_deadline] {
        return topk_deadline.expired();
      });
      serve::TopKResult top = view.value().TopK(
          static_cast<int>(k),
          topk_deadline.unlimited() ? nullptr : &topk_cancel);
      JsonObject record;
      record.Str("type", "topk")
          .Int("k", k)
          .UIntArray("seeds", top.seeds)
          .RealArray("estimates", top.estimates)
          .UInt("covered", top.covered)
          .Real("spread", top.spread);
      if (!top.completed) {
        record.Bool("completed", false)
            .UInt("served_k", top.seeds.size());
      }
      tag_degraded(view.value(), &record);
      std::printf("%s\n", record.ToString().c_str());
    } else if (cmd == "reach") {
      // "reach <src> <dst>": fraction of sampled worlds in which dst is
      // reachable from src (IC influence probability over τ worlds).
      const std::size_t gap = rest.find(' ');
      std::vector<VertexId> src, dst;
      Status parsed =
          gap == std::string::npos
              ? Status::InvalidArgument("usage: reach <src> <dst>")
              : ParseVertexList(std::string(Trim(rest.substr(0, gap))), n,
                                &src);
      if (parsed.ok()) {
        parsed = ParseVertexList(std::string(Trim(rest.substr(gap + 1))), n,
                                 &dst);
      }
      if (parsed.ok() && (src.size() != 1 || dst.size() != 1)) {
        parsed = Status::InvalidArgument("usage: reach <src> <dst>");
      }
      if (parsed.ok()) parsed = mint_world_view();
      if (!parsed.ok()) {
        PrintErrorLine(parsed);
        continue;
      }
      JsonObject record;
      record.Str("type", "reach")
          .UInt("src", src[0])
          .UInt("dst", dst[0])
          .Real("probability", world_view.ReachProbability(src[0], dst[0]));
      tag_degraded(world_view, &record);
      std::printf("%s\n", record.ToString().c_str());
    } else if (cmd == "compsize") {
      // "compsize <v>": expected reachable-set size of v over the
      // sampled worlds, (1/τ) Σ |R_i(v)|.
      std::vector<VertexId> vertex;
      Status parsed = ParseVertexList(rest, n, &vertex);
      if (parsed.ok() && vertex.size() != 1) {
        parsed = Status::InvalidArgument("usage: compsize <vertex>");
      }
      if (parsed.ok()) parsed = mint_world_view();
      if (!parsed.ok()) {
        PrintErrorLine(parsed);
        continue;
      }
      JsonObject record;
      record.Str("type", "compsize")
          .UInt("vertex", vertex[0])
          .Real("expected_reach", world_view.ExpectedReach(vertex[0]));
      tag_degraded(world_view, &record);
      std::printf("%s\n", record.ToString().c_str());
    } else if (cmd == "stats") {
      serve::ArenaCache::Stats stats = service.cache_stats();
      serve::ResilienceStats res = service.resilience_stats();
      // Storage-backend telemetry of the REPL's own RR arena: resident
      // vs logical bytes (the gap is what compression/spilling saves)
      // and the decode-side cache counters.
      const RrArena& arena = view.value().arena();
      const store::StorageStats storage = arena.storage_stats();
      const std::uint64_t hot_probes = storage.hot_hits + storage.hot_misses;
      JsonObject record;
      record.Str("type", "stats")
          .Str("backend", store::ArenaBackendName(arena.backend()))
          .UInt("hits", stats.hits)
          .UInt("builds", stats.builds)
          .UInt("evictions", stats.evictions)
          .UInt("resident_arenas", stats.resident_arenas)
          .UInt("resident_bytes", stats.resident_bytes)
          .UInt("total_bytes", stats.total_bytes)
          .UInt("budget_bytes", stats.budget_bytes)
          .UInt("arena_total_bytes", arena.MemoryBytes())
          .UInt("arena_resident_bytes", arena.ResidentBytes())
          .UInt("hot_hits", storage.hot_hits)
          .UInt("hot_misses", storage.hot_misses)
          .Real("hot_hit_rate",
                hot_probes == 0
                    ? 0.0
                    : static_cast<double>(storage.hot_hits) /
                          static_cast<double>(hot_probes))
          .UInt("chunk_loads", storage.chunk_loads)
          .UInt("partial_arenas", stats.partial_arenas)
          .UInt("invalidations", stats.invalidations)
          .UInt("degraded_answers", res.degraded_answers)
          .UInt("shed_requests", res.shed_requests)
          .UInt("retries", res.retries)
          .UInt("deadline_misses", res.deadline_misses);
      // Crash-consistency telemetry: what the startup sweep found in
      // --arena-dir and what the scrubber has verified since.
      const store::RecoveryReport& recovery = service.recovery_report();
      const serve::ScrubStats scrub = service.scrub_stats();
      record.Raw("recovery", recovery.ToJson())
          .UInt("scrub_cycles", scrub.cycles)
          .UInt("scrub_resident_checked", scrub.resident_checked)
          .UInt("scrub_resident_corruptions", scrub.resident_corruptions)
          .UInt("scrub_disk_checked", scrub.disk_checked)
          .UInt("scrub_disk_corruptions", scrub.disk_corruptions)
          .UInt("scrub_quarantined", scrub.quarantined);
      std::printf("%s\n", record.ToString().c_str());
    } else if (cmd == "scrub") {
      // One full synchronous rotation: every resident arena re-hashed,
      // every persisted entry re-verified. The JSON line reports the
      // monotone totals after the pass.
      service.RunScrubCycle();
      const serve::ScrubStats scrub = service.scrub_stats();
      JsonObject record;
      record.Str("type", "scrub")
          .UInt("cycles", scrub.cycles)
          .UInt("resident_checked", scrub.resident_checked)
          .UInt("resident_corruptions", scrub.resident_corruptions)
          .UInt("invalidations", scrub.invalidations)
          .UInt("disk_checked", scrub.disk_checked)
          .UInt("disk_corruptions", scrub.disk_corruptions)
          .UInt("quarantined", scrub.quarantined);
      std::printf("%s\n", record.ToString().c_str());
    } else {
      PrintErrorLine(Status::InvalidArgument(
          "unknown command '" + cmd +
          "' (expected spread | gain | topk | reach | compsize | stats | "
          "scrub | quit)"));
      continue;
    }
    std::fflush(stdout);
  }
  return 0;
}

int Run(int argc, const char* const* argv) {
  ArgParser args("soldist_experiment",
                 "Run the T-trial solution-distribution methodology for one "
                 "(network, probability, diffusion model) instance across "
                 "the three approaches.");
  AddExperimentFlags(&args);
  args.AddString("network", "Karate", "network name (see gen/datasets)");
  args.AddString("prob", "iwc",
                 "edge-probability setting: uc0.1|uc0.01|iwc|owc|tv "
                 "(--model lt needs an LT-valid setting, e.g. iwc)");
  args.AddInt64("k", 1, "seed-set size");
  args.AddString("snapshot-mode", "condensed",
                 "Snapshot reachability backend (IC and LT): condensed "
                 "(SCC-condensed DAGs with incrementally maintained "
                 "gains; cost counts DAG components and arcs) | residual "
                 "(the paper's Section 3.4.3 reduction; cost counts "
                 "vertices and edges, as in Tables 8/9). Seed sets and "
                 "estimates are byte-identical across backends; only "
                 "the cost changes.");
  args.AddInt64("min-exp", 0, "first sample number 2^min-exp");
  args.AddInt64("max-exp", -1,
                "last sample number 2^max-exp (-1 = the network's scaled "
                "grid cap)");
  args.AddBool("json", false,
               "machine-readable output: one JSON line per trial "
               "(SolveResult records) plus one per sweep cell");
  args.AddString("verify-threads", "",
                 "comma-separated --sample-threads values; re-runs the "
                 "experiment per value and requires byte-identical seed "
                 "sets and stats (any values, either model)");
  args.AddBool("query", false,
               "serving REPL: build one arena for the workload via "
               "serve::QueryService, answer stdin lines (spread v1,v2,... "
               "| gain v s1,... | topk k | stats | scrub) as JSON lines");
  args.AddInt64("tau", 65536,
                "--query: RR sets behind the view (the paper-scale "
                "default 2^16)");
  args.AddInt64("arena-budget-mb", 0,
                "--query: arena-cache byte budget in MiB (0 = unlimited)");
  int exit_code = 0;
  ExperimentOptions options;
  if (ShouldExitAfterParse(&args, argc, argv, &exit_code, &options)) {
    return exit_code;
  }
  if (!args.Provided("trials")) options.trials = 50;

  HarnessParams params;
  params.network = args.GetString("network");
  StatusOr<ProbabilityModel> prob =
      ParseProbabilityModel(args.GetString("prob"));
  if (!prob.ok()) return ExitWithError(prob.status());
  params.prob = prob.value();
  params.json = args.GetBool("json");
  if (args.GetInt64("k") < 1) {
    return ExitWithError(Status::InvalidArgument("--k must be >= 1"));
  }
  params.k = static_cast<int>(args.GetInt64("k"));
  StatusOr<SnapshotEstimator::Mode> snapshot_mode =
      ParseSnapshotMode(args.GetString("snapshot-mode"));
  if (!snapshot_mode.ok()) return ExitWithError(snapshot_mode.status());
  params.snapshot_mode = snapshot_mode.value();
  if (args.GetInt64("min-exp") < 0 ||
      args.GetInt64("min-exp") > kMaxExponent) {
    return ExitWithError(Status::InvalidArgument(
        "--min-exp must be in [0, " + std::to_string(kMaxExponent) + "]"));
  }
  if (args.GetInt64("max-exp") < -1 ||
      args.GetInt64("max-exp") > kMaxExponent) {
    return ExitWithError(Status::InvalidArgument(
        "--max-exp must be in [-1, " + std::to_string(kMaxExponent) + "]"));
  }
  params.min_exp = static_cast<int>(args.GetInt64("min-exp"));
  params.max_exp = static_cast<int>(args.GetInt64("max-exp"));

  if (args.GetBool("query")) {
    const std::int64_t tau = args.GetInt64("tau");
    if (tau < 1) {
      return ExitWithError(Status::InvalidArgument("--tau must be >= 1"));
    }
    const std::int64_t budget_mb = args.GetInt64("arena-budget-mb");
    if (budget_mb < 0) {
      return ExitWithError(
          Status::InvalidArgument("--arena-budget-mb must be >= 0"));
    }
    ExperimentOptions query_options = options;
    query_options.arena_budget_bytes =
        static_cast<std::uint64_t>(budget_mb) << 20;
    ExperimentContext query_context(query_options);
    return RunQueryRepl(&query_context, params,
                        static_cast<std::uint64_t>(tau));
  }

  if (!params.json) {
    PrintBanner("soldist_experiment: " + params.network + " (" +
                    ProbabilityModelName(params.prob) + "), model=" +
                    DiffusionModelName(options.model) +
                    ", k=" + std::to_string(params.k),
                options);
  }

  CsvWriter csv({"model", "approach", "sample_number", "entropy",
                 "distinct_sets", "mean_influence", "mean_vertex_cost",
                 "mean_edge_cost", "mean_sample_size"});

  ExperimentContext context(options);

  const std::string verify_list = args.GetString("verify-threads");
  if (verify_list.empty()) {
    StatusOr<std::string> run = RunExperiment(
        &context, options.sample_threads, params, /*print=*/true, &csv);
    if (!run.ok()) return ExitWithError(run.status());
    MaybeWriteCsv(csv, options.out_csv);
    return 0;
  }

  // Determinism verification: one full run per sample-thread count on the
  // ONE context (the dataset and oracle are width-independent, so they
  // are built once); the first run prints, every later run must
  // serialize identically.
  std::vector<std::int64_t> counts;
  for (const std::string& field : Split(verify_list, ',')) {
    std::int64_t n = 0;
    if (!ParseInt64(Trim(field), &n) || n < 0) {
      return ExitWithError(Status::InvalidArgument(
          "bad --verify-threads entry: '" + field +
          "' (expected a comma-separated list of counts >= 0)"));
    }
    counts.push_back(n);
  }
  if (counts.empty()) {
    return ExitWithError(
        Status::InvalidArgument("--verify-threads list is empty"));
  }
  std::string reference;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    StatusOr<std::string> serialized = RunExperiment(
        &context, counts[i], params, /*print=*/i == 0,
        i == 0 ? &csv : nullptr);
    if (!serialized.ok()) return ExitWithError(serialized.status());
    if (i == 0) {
      reference = std::move(serialized).value();
    } else if (serialized.value() != reference) {
      std::fprintf(stderr,
                   "FAIL: --sample-threads %lld changed the experiment "
                   "(seed sets or stats differ from --sample-threads "
                   "%lld)\n",
                   static_cast<long long>(counts[i]),
                   static_cast<long long>(counts[0]));
      return 1;
    } else {
      std::fprintf(stderr,
                   "--sample-threads %lld: byte-identical to %lld\n",
                   static_cast<long long>(counts[i]),
                   static_cast<long long>(counts[0]));
    }
  }
  std::fprintf(stderr,
               "determinism verified: seed sets and distribution stats "
               "byte-identical across sample-thread counts {%s}\n",
               verify_list.c_str());
  MaybeWriteCsv(csv, options.out_csv);
  return 0;
}

}  // namespace
}  // namespace soldist

int main(int argc, char** argv) { return soldist::Run(argc, argv); }
