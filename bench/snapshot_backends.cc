// Snapshot backend shoot-out (the condensed-DAG perf claim, recorded):
// runs the SAME Snapshot greedy — same sampler streams, same driver,
// same seeds out — under each reachability backend and records
// wall-clock seconds, traversal counters, estimator memory, and peak
// RSS as machine-readable JSON (BENCH_snapshot.json). Byte-identical
// seed sets across backends are CHECKed on every run, so the artifact
// can never record a speedup obtained by changing the answer.
//
// CI runs this on the bundled Physicians network and fails when the
// condensed backend stops beating residual (--check-speedup).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/celf.h"
#include "core/greedy.h"
#include "core/snapshot.h"
#include "random/splitmix64.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/string_util.h"

namespace soldist {
namespace {

struct ModeRecord {
  SnapshotEstimator::Mode mode;
  std::vector<double> seconds;     // per rep, driver total (build+select)
  double best_seconds = 0.0;
  double build_seconds = 0.0;      // dedicated Build-only instance
  std::uint64_t estimate_calls = 0;
  TraversalCounters counters;
  std::uint64_t estimator_bytes = 0;
  std::vector<VertexId> seeds;
};

int Run(int argc, const char* const* argv) {
  ArgParser args("bench_snapshot_backends",
                 "Wall-clock + traversal-cost comparison of the Snapshot "
                 "reachability backends (naive | residual | condensed) on "
                 "one instance; emits BENCH_snapshot.json.");
  AddExperimentFlags(&args);
  args.AddString("network", "Physicians", "network name (see gen/datasets)");
  args.AddString("prob", "iwc", "edge-probability setting");
  args.AddInt64("tau", 1 << 16,
                "snapshots per build (paper-scale Snapshot grid tops at "
                "2^16)");
  args.AddInt64("k", 4, "seed-set size");
  args.AddInt64("reps", 1, "timed repetitions per backend (best counts)");
  args.AddString("modes", "residual,condensed",
                 "comma-separated backends to time");
  args.AddString("driver", "celf",
                 "greedy driver: celf (lazy; condensed seeds the queue "
                 "with DAG-sketch bounds) | greedy (full sweeps)");
  args.AddString("json-out", "BENCH_snapshot.json",
                 "write the JSON record here (empty = stdout only)");
  args.AddString("check-speedup", "",
                 "fail (exit 1) unless condensed is at least this many "
                 "times faster than residual (e.g. 1.0, 3.0)");
  int exit_code = 0;
  ExperimentOptions options;
  if (ShouldExitAfterParse(&args, argc, argv, &exit_code, &options)) {
    return exit_code;
  }
  RequireIcModel(options, "bench_snapshot_backends");

  StatusOr<ProbabilityModel> prob =
      ParseProbabilityModel(args.GetString("prob"));
  if (!prob.ok()) return ExitWithError(prob.status());
  auto tau = static_cast<std::uint64_t>(args.GetInt64("tau"));
  const int k = static_cast<int>(args.GetInt64("k"));
  const auto reps =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.GetInt64("reps")));
  const std::string driver = args.GetString("driver");
  if (driver != "celf" && driver != "greedy") {
    return ExitWithError(Status::InvalidArgument(
        "--driver must be celf or greedy, got '" + driver + "'"));
  }
  double check_speedup = 0.0;
  if (!args.GetString("check-speedup").empty() &&
      !ParseDouble(args.GetString("check-speedup"), &check_speedup)) {
    return ExitWithError(Status::InvalidArgument(
        "bad --check-speedup value: '" + args.GetString("check-speedup") +
        "'"));
  }

  std::vector<SnapshotEstimator::Mode> modes;
  for (const std::string& field : Split(args.GetString("modes"), ',')) {
    StatusOr<SnapshotEstimator::Mode> mode =
        ParseSnapshotMode(std::string(Trim(field)));
    if (!mode.ok()) return ExitWithError(mode.status());
    modes.push_back(mode.value());
  }
  if (modes.empty()) {
    return ExitWithError(Status::InvalidArgument("--modes list is empty"));
  }

  PrintBanner("Snapshot backend shoot-out: " + args.GetString("network") +
                  " (" + ProbabilityModelName(prob.value()) + "), τ=" +
                  std::to_string(tau) + ", k=" + std::to_string(k) +
                  ", driver=" + driver,
              options);

  ExperimentContext context(options);
  const InfluenceGraph& ig =
      context.Instance(args.GetString("network"), prob.value());
  SamplingOptions sampling = context.sampling();
  // One stream pair for every backend: estimator stream 0, tie-break
  // shuffle stream 1 (trial 0 of the harness convention).
  const std::uint64_t estimator_seed = DeriveSeed(options.seed, 0);
  const std::uint64_t shuffle_seed = DeriveSeed(options.seed, 1);

  std::vector<ModeRecord> records;
  for (SnapshotEstimator::Mode mode : modes) {
    ModeRecord record;
    record.mode = mode;
    {
      // Dedicated instance for the build-only figure (sampling [+
      // condensation]); the timed driver runs below rebuild from the
      // same streams.
      SnapshotEstimator estimator(ModelInstance::Ic(&ig), tau,
                                  estimator_seed, mode, sampling);
      WallTimer timer;
      estimator.Build();
      record.build_seconds = timer.Seconds();
    }
    for (std::size_t rep = 0; rep < reps; ++rep) {
      SnapshotEstimator estimator(ModelInstance::Ic(&ig), tau,
                                  estimator_seed, mode, sampling);
      Rng tie_rng(shuffle_seed);
      WallTimer timer;
      GreedyRunResult greedy;
      std::uint64_t calls = 0;
      if (driver == "celf") {
        CelfRunResult celf =
            RunCelfGreedy(&estimator, ig.num_vertices(), k, &tie_rng);
        greedy = std::move(celf.greedy);
        calls = celf.estimate_calls;
      } else {
        greedy = RunGreedy(&estimator, ig.num_vertices(), k, &tie_rng);
        // RunGreedy sweeps every not-yet-selected vertex each round.
        for (int round = 0; round < k; ++round) {
          calls += static_cast<std::uint64_t>(ig.num_vertices() - round);
        }
      }
      record.seconds.push_back(timer.Seconds());
      if (rep == 0) {
        record.seeds = greedy.seeds;
        record.estimate_calls = calls;
        record.counters = estimator.counters();
        record.estimator_bytes = estimator.MemoryBytes();
      }
    }
    record.best_seconds =
        *std::min_element(record.seconds.begin(), record.seconds.end());
    // The hard contract this bench rides on: backends may only change
    // cost, never the selection.
    if (!records.empty()) {
      SOLDIST_CHECK(record.seeds == records[0].seeds)
          << "backend " << SnapshotModeName(mode)
          << " changed the seed set — refusing to record a bogus speedup";
    }
    records.push_back(std::move(record));
  }

  TextTable table({"backend", "best s", "build s", "estimate calls",
                   "vertex cost", "edge cost", "estimator MiB"});
  double residual_best = 0.0, condensed_best = 0.0;
  std::string records_json;
  for (const ModeRecord& record : records) {
    if (record.mode == SnapshotEstimator::Mode::kResidual) {
      residual_best = record.best_seconds;
    }
    if (record.mode == SnapshotEstimator::Mode::kCondensed) {
      condensed_best = record.best_seconds;
    }
    table.AddRow(
        {SnapshotModeName(record.mode), FormatDouble(record.best_seconds, 3),
         FormatDouble(record.build_seconds, 3),
         WithThousands(record.estimate_calls),
         FormatCost(static_cast<double>(record.counters.vertices)),
         FormatCost(static_cast<double>(record.counters.edges)),
         FormatDouble(static_cast<double>(record.estimator_bytes) /
                          (1024.0 * 1024.0),
                      2)});
    JsonObject obj;
    obj.Str("mode", SnapshotModeName(record.mode))
        .Real("seconds", record.best_seconds)
        .RealArray("rep_seconds", record.seconds)
        .Real("build_seconds", record.build_seconds)
        .UInt("estimate_calls", record.estimate_calls)
        .UInt("vertices_traversed", record.counters.vertices)
        .UInt("edges_traversed", record.counters.edges)
        .UInt("sample_edges", record.counters.sample_edges)
        .UInt("estimator_bytes", record.estimator_bytes)
        .UIntArray("seeds", record.seeds);
    if (!records_json.empty()) records_json += ",";
    records_json += obj.ToString();
  }
  PrintTable("Snapshot backends (identical seed sets CHECKed; τ=" +
                 std::to_string(tau) + ")",
             table);

  const double speedup =
      residual_best > 0.0 && condensed_best > 0.0
          ? residual_best / condensed_best
          : 0.0;
  JsonObject summary;
  summary.Str("bench", "snapshot_backends")
      .Str("network", args.GetString("network"))
      .Str("prob", ProbabilityModelName(prob.value()))
      .Str("model", DiffusionModelName(options.model))
      .Str("driver", driver)
      .UInt("tau", tau)
      .Int("k", k)
      .UInt("seed", options.seed)
      .Int("sample_threads", options.sample_threads)
      .UInt("n", ig.num_vertices())
      .UInt("m", ig.graph().num_edges())
      .Raw("records", "[" + records_json + "]")
      // Process-wide high-water mark over the whole run: ru_maxrss is
      // monotone, so a per-backend figure would just inherit the largest
      // earlier backend. Per-backend memory is estimator_bytes.
      .UInt("peak_rss_kb", PeakRssKb())
      .Real("speedup_condensed_vs_residual", speedup);
  const std::string json = summary.ToString();
  std::printf("%s\n", json.c_str());
  const std::string json_out = args.GetString("json-out");
  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      return ExitWithError(
          Status::Internal("cannot write --json-out " + json_out));
    }
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", json_out.c_str());
  }
  if (check_speedup > 0.0) {
    if (speedup < check_speedup) {
      std::fprintf(stderr,
                   "FAIL: condensed/residual speedup %.2fx is below the "
                   "required %.2fx\n",
                   speedup, check_speedup);
      return 1;
    }
    std::fprintf(stderr, "speedup %.2fx >= required %.2fx\n", speedup,
                 check_speedup);
  }
  return 0;
}

}  // namespace
}  // namespace soldist

int main(int argc, char** argv) { return soldist::Run(argc, argv); }
