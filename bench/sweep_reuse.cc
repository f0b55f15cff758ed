// The sweep-reuse shoot-out (the prefix-arena perf claim, recorded): runs
// the SAME sample-number ladder — same prefix-closed streams, same
// trials, same oracle — once with --sweep-reuse off (fresh sampling +
// index per cell, the pre-arena cost profile) and once with on (one
// arena per trial, every cell a prefix view), and records per-cell
// seconds, arena bytes, and sampling-work saved as machine-readable JSON
// (BENCH_sweep.json). The fig* configs ladder RIS over an RrArena; the
// snap-* configs ladder the condensed Snapshot approach over a
// SnapshotArena of SCC-condensed sampled worlds. Byte-identical seed
// sets across the two runs are CHECKed cell by cell before anything is
// recorded, so the artifact can never show a speedup obtained by
// changing the answer.
//
// Ladder shape: the paper's sweeps are powers of two, for which
// Σ τ ≈ 2·τ_max caps the reuse win at 2x by arithmetic alone. Reuse's
// real payoff is that DENSER ladders stop costing more sampling: with
// --half-steps (default on, the Table-5 least-sufficient-sample-number
// resolution) the ladder carries √2-spaced intermediate points,
// Σ τ ≈ 3.4·τ_max, and the arena still pays τ_max once. The recorded
// configurations are the Figure 2 / Figure 5 instances on their
// half-stepped RIS grids.
//
// Both diffusion models: --model lt ladders the same configurations over
// LT RR arenas and LT condensed-world arenas (LT needs in-weights summing
// to at most 1, so the uc0.1/owc configurations are rejected with a
// Status under LT).
//
// CI runs this scaled down and fails when reuse-on stops beating
// reuse-off (--check-speedup 1.0); an LT run without a speedup gate
// exercises the on/off identity CHECK for the LT arenas.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/rr_arena.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/string_util.h"

namespace soldist {
namespace {

struct SweepInstance {
  std::string name;      // figure tag
  std::string network;
  ProbabilityModel prob;
  int k;
  /// kRis ladders reuse an RrArena; kSnapshot ladders (forced to
  /// Mode::kCondensed) reuse a SnapshotArena of condensed worlds.
  Approach approach = Approach::kRis;
};

struct CellRecord {
  std::uint64_t tau = 0;
  double seconds_on = 0.0;
  double seconds_off = 0.0;
  TraversalCounters counters;  // identical on/off (CHECKed)
};

int Run(int argc, const char* const* argv) {
  ArgParser args("bench_sweep_reuse",
                 "Wall-clock comparison of a RIS sample-number ladder "
                 "with --sweep-reuse on (per-trial RR arena, prefix "
                 "views) vs off (fresh per-cell sampling); emits "
                 "BENCH_sweep.json.");
  AddExperimentFlags(&args);
  args.AddString("configs", "fig2-karate,fig2-physicians,fig5-uc,fig5-owc",
                 "comma-separated instances: fig2-karate (Karate iwc "
                 "k=4), fig2-physicians (Physicians iwc k=1), fig5-uc "
                 "(ca-GrQc uc0.1 k=1), fig5-owc (ca-GrQc owc k=1), "
                 "snap-karate (Karate iwc k=4, condensed Snapshot "
                 "ladder), snap-physicians (Physicians iwc k=1, "
                 "condensed Snapshot ladder)");
  args.AddInt64("min-exp", 0, "smallest ladder exponent");
  args.AddInt64("max-exp", -1,
                "largest ladder exponent (-1 = the network's RIS grid "
                "cap, ScaledGridCaps)");
  args.AddBool("half-steps", true,
               "interleave √2-spaced sample numbers between the powers "
               "of two (denser ladder, same arena cost)");
  args.AddString("json-out", "BENCH_sweep.json",
                 "write the JSON record here (empty = stdout only)");
  args.AddString("check-speedup", "",
                 "fail (exit 1) unless the overall on-vs-off speedup is "
                 "at least this (e.g. 1.0, 2.5)");
  int exit_code = 0;
  ExperimentOptions options;
  if (ShouldExitAfterParse(&args, argc, argv, &exit_code, &options)) {
    return exit_code;
  }
  if (!args.Provided("trials")) options.trials = 40;
  double check_speedup = 0.0;
  if (!args.GetString("check-speedup").empty() &&
      !ParseDouble(args.GetString("check-speedup"), &check_speedup)) {
    return ExitWithError(Status::InvalidArgument(
        "bad --check-speedup value: '" + args.GetString("check-speedup") +
        "'"));
  }
  const bool half_steps = args.GetBool("half-steps");
  const int min_exp = static_cast<int>(args.GetInt64("min-exp"));

  std::vector<SweepInstance> catalog = {
      {"fig2-karate", "Karate", ProbabilityModel::kIwc, 4},
      {"fig2-physicians", "Physicians", ProbabilityModel::kIwc, 1},
      {"fig5-uc", "ca-GrQc", ProbabilityModel::kUc01, 1},
      {"fig5-owc", "ca-GrQc", ProbabilityModel::kOwc, 1},
      {"snap-karate", "Karate", ProbabilityModel::kIwc, 4,
       Approach::kSnapshot},
      {"snap-physicians", "Physicians", ProbabilityModel::kIwc, 1,
       Approach::kSnapshot},
  };
  std::vector<SweepInstance> instances;
  for (const std::string& field : Split(args.GetString("configs"), ',')) {
    const std::string name(Trim(field));
    bool found = false;
    for (const SweepInstance& inst : catalog) {
      if (inst.name == name) {
        instances.push_back(inst);
        found = true;
      }
    }
    if (!found) {
      return ExitWithError(Status::InvalidArgument(
          "unknown --configs entry '" + name +
          "' (expected fig2-karate | fig2-physicians | fig5-uc | "
          "fig5-owc | snap-karate | snap-physicians)"));
    }
  }
  if (instances.empty()) {
    return ExitWithError(Status::InvalidArgument("--configs list is empty"));
  }

  PrintBanner("Sweep-reuse shoot-out: RIS ladder, arena prefix views vs "
              "fresh per-cell sampling",
              options);

  ExperimentContext context(options);
  double total_on = 0.0, total_off = 0.0;
  std::string config_json;
  std::uint64_t max_arena_bytes = 0;

  for (const SweepInstance& inst : instances) {
    StatusOr<ModelInstance> resolved = context.TryModel(inst.network,
                                                        inst.prob);
    if (!resolved.ok()) return ExitWithError(resolved.status());
    const ModelInstance model = resolved.value();
    StatusOr<const RrOracle*> resolved_oracle =
        context.TryOracle(inst.network, inst.prob);
    if (!resolved_oracle.ok()) return ExitWithError(resolved_oracle.status());
    const RrOracle& oracle = *resolved_oracle.value();
    GridCaps caps = ScaledGridCaps(inst.network, options.full);
    int max_exp = static_cast<int>(args.GetInt64("max-exp"));
    if (max_exp < 0) max_exp = caps.MaxExp(inst.approach);
    if (max_exp < min_exp) max_exp = min_exp;

    TrialLadderConfig ladder;
    ladder.approach = inst.approach;
    // Snapshot ladders reuse through the condensed-world arena: force
    // the one mode with an arena form (sim/snapshot_arena.h).
    if (inst.approach == Approach::kSnapshot) {
      ladder.snapshot_mode = SnapshotEstimator::Mode::kCondensed;
    }
    for (int e = min_exp; e <= max_exp; ++e) {
      const std::uint64_t tau = 1ULL << e;
      if (ladder.sample_numbers.empty() ||
          tau > ladder.sample_numbers.back()) {
        ladder.sample_numbers.push_back(tau);
      }
      if (half_steps && e < max_exp) {
        const auto half = static_cast<std::uint64_t>(
            std::floor(std::sqrt(2.0) * static_cast<double>(tau)));
        if (half > ladder.sample_numbers.back() && half < 2 * tau) {
          ladder.sample_numbers.push_back(half);
        }
      }
    }
    ladder.k = inst.k;
    ladder.trials = context.TrialsFor(inst.network);
    ladder.master_seed = options.seed + inst.k;
    ladder.sampling = context.sampling();

    // off first, then on: a warm page cache can only help the BASELINE.
    ladder.reuse = false;
    WallTimer timer;
    std::vector<TrialResult> off = RunTrialLadder(model, ladder,
                                                  context.pool());
    for (TrialResult& cell : off) EvaluateInfluence(oracle, &cell);
    const double off_seconds = timer.Seconds();

    ladder.reuse = true;
    std::uint64_t arena_bytes = 0;  // trial 0's arena, reported below
    // The one-off arena builds are timed separately so no cell's figure
    // absorbs them (the τ_max cell used to, hiding its real serving
    // cost); they remain inside on_seconds / the overall speedup.
    double arena_build_seconds = 0.0;
    ladder.arena_bytes_out = &arena_bytes;
    ladder.arena_seconds_out = &arena_build_seconds;
    timer.Restart();
    std::vector<TrialResult> on = RunTrialLadder(model, ladder,
                                                 context.pool());
    for (TrialResult& cell : on) EvaluateInfluence(oracle, &cell);
    const double on_seconds = timer.Seconds();
    ladder.arena_bytes_out = nullptr;
    ladder.arena_seconds_out = nullptr;

    // The hard contract this bench rides on: reuse may only change cost,
    // never the selection (nor the per-cell cost attribution).
    SOLDIST_CHECK(on.size() == off.size());
    std::vector<CellRecord> cells(on.size());
    std::uint64_t sum_tau = 0;
    for (std::size_t l = 0; l < on.size(); ++l) {
      SOLDIST_CHECK(on[l].seed_sets == off[l].seed_sets)
          << inst.name << " cell " << l
          << ": reuse changed the seed sets — refusing to record a bogus "
             "speedup";
      SOLDIST_CHECK(on[l].total_counters.sample_vertices ==
                        off[l].total_counters.sample_vertices &&
                    on[l].total_counters.sample_edges ==
                        off[l].total_counters.sample_edges)
          << inst.name << " cell " << l << ": counter attribution differs";
      cells[l].tau = ladder.sample_numbers[l];
      cells[l].seconds_on = on[l].seconds;
      cells[l].seconds_off = off[l].seconds;
      cells[l].counters = on[l].total_counters;
      sum_tau += ladder.sample_numbers[l];
    }

    max_arena_bytes = std::max(max_arena_bytes, arena_bytes);

    const double speedup = on_seconds > 0.0 ? off_seconds / on_seconds : 0.0;
    total_on += on_seconds;
    total_off += off_seconds;
    const std::uint64_t tau_max = ladder.sample_numbers.back();

    TextTable table({"τ", "off s", "on s", "speedup"});
    std::string cells_json;
    for (const CellRecord& cell : cells) {
      table.AddRow({WithThousands(cell.tau),
                    FormatDouble(cell.seconds_off, 3),
                    FormatDouble(cell.seconds_on, 3),
                    FormatDouble(cell.seconds_on > 0.0
                                     ? cell.seconds_off / cell.seconds_on
                                     : 0.0,
                                 2) +
                        "x"});
      JsonObject cell_obj;
      cell_obj.UInt("tau", cell.tau)
          .Real("seconds_off", cell.seconds_off)
          .Real("seconds_on", cell.seconds_on)
          .UInt("sample_vertices", cell.counters.sample_vertices)
          .UInt("vertices_traversed", cell.counters.vertices)
          .UInt("edges_traversed", cell.counters.edges);
      if (!cells_json.empty()) cells_json += ",";
      cells_json += cell_obj.ToString();
    }
    PrintTable(inst.name + ": " + inst.network + " (" +
                   ProbabilityModelName(inst.prob) + ", k=" +
                   std::to_string(inst.k) + "), T=" +
                   std::to_string(ladder.trials) + ", ladder Στ=" +
                   WithThousands(sum_tau) + " vs arena τ=" +
                   WithThousands(tau_max) + " — " +
                   FormatDouble(speedup, 2) + "x (seeds identical CHECKed; "
                   "arena build " +
                   FormatDouble(arena_build_seconds, 3) + "s separate)",
               table);

    JsonObject obj;
    obj.Str("config", inst.name)
        .Str("network", inst.network)
        .Str("prob", ProbabilityModelName(inst.prob))
        .Str("approach", ApproachName(inst.approach))
        .Str("snapshot_mode", inst.approach == Approach::kSnapshot
                                  ? SnapshotModeName(ladder.snapshot_mode)
                                  : "")
        .Int("k", inst.k)
        .UInt("trials", ladder.trials)
        .UInt("tau_max", tau_max)
        .UInt("ladder_sum_tau", sum_tau)
        .UInt("sets_sampled_per_trial_off", sum_tau)
        .UInt("sets_sampled_per_trial_on", tau_max)
        .UInt("arena_bytes", arena_bytes)
        .Real("arena_build_seconds", arena_build_seconds)
        .Real("seconds_off", off_seconds)
        .Real("seconds_on", on_seconds)
        .Real("speedup", speedup)
        .Raw("cells", "[" + cells_json + "]");
    if (!config_json.empty()) config_json += ",";
    config_json += obj.ToString();
  }

  const double overall = total_on > 0.0 ? total_off / total_on : 0.0;
  JsonObject summary;
  summary.Str("bench", "sweep_reuse")
      .Str("model", DiffusionModelName(options.model))
      .UInt("seed", options.seed)
      .Int("sample_threads", options.sample_threads)
      .Int("min_exp", min_exp)
      .Bool("half_steps", half_steps)
      .Real("seconds_off_total", total_off)
      .Real("seconds_on_total", total_on)
      .Real("speedup_overall", overall)
      .UInt("max_arena_bytes", max_arena_bytes)
      .UInt("peak_rss_kb", PeakRssKb())
      .Raw("configs", "[" + config_json + "]");
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
    if (overall < check_speedup) {
      std::fprintf(stderr,
                   "FAIL: sweep-reuse on/off speedup %.2fx is below the "
                   "required %.2fx\n",
                   overall, check_speedup);
      return 1;
    }
    std::fprintf(stderr, "speedup %.2fx >= required %.2fx\n", overall,
                 check_speedup);
  }
  return 0;
}

}  // namespace
}  // namespace soldist

int main(int argc, char** argv) { return soldist::Run(argc, argv); }
