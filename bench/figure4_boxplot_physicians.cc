// Figure 4 (paper Section 5.2.1): the influence distribution of
// Physicians (uc0.1, k=16) as notched box plots, one panel per approach.
// Expected shape: mean and median increase monotonically with the sample
// number and concentrate toward the unique limit influence.

#include "bench_common.h"
#include "stats/box_stats.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace soldist {
namespace {

int Run(int argc, const char* const* argv) {
  ArgParser args("figure4_boxplot_physicians",
                 "Reproduces paper Figure 4: influence distributions in "
                 "notched box plots, Physicians (uc0.1, k=16).");
  AddExperimentFlags(&args);
  args.AddInt64("k", 16, "seed-set size (paper: 16)");
  int exit_code = 0;
  ExperimentOptions options;
  if (ShouldExitAfterParse(&args, argc, argv, &exit_code, &options)) {
    return exit_code;
  }
  RequireIcModel(options, "figure4_boxplot_physicians");
  // Oneshot with k=16 re-simulates 16-seed cascades: the priciest cell of
  // the harness. Keep the default T modest unless the user overrides.
  if (!args.Provided("trials")) options.trials = 60;
  PrintBanner("Figure 4: influence distribution box plots", options);

  ExperimentContext context(options);
  const int k = static_cast<int>(args.GetInt64("k"));
  const InfluenceGraph& ig =
      context.Instance("Physicians", ProbabilityModel::kUc01);
  const RrOracle& oracle =
      context.Oracle("Physicians", ProbabilityModel::kUc01);
  GridCaps caps = ScaledGridCaps("Physicians", options.full);

  CsvWriter csv({"approach", "sample_number", "mean", "median", "q1", "q3",
                 "p1", "p99", "notch_low", "notch_high"});

  for (Approach approach :
       {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
    SweepConfig config;
    config.sampling = context.sampling();
    config.reuse = options.sweep_reuse;
    config.approach = approach;
    config.k = k;
    config.trials = context.TrialsFor("Physicians");
    config.master_seed = options.seed;
    config.max_exponent = TrimExpForK(caps.MaxExp(approach), k, approach);
    WallTimer timer;
    auto cells = RunSweep(ig, oracle, config, context.pool());
    SOLDIST_LOG(Info) << ApproachName(approach) << " sweep in "
                      << timer.HumanElapsed();

    TextTable table({"sample number", "p1", "q1", "median", "q3", "p99",
                     "mean", "notch (95% CI of median)"});
    for (const SweepCell& cell : cells) {
      NotchedBoxStats box = ComputeBoxStats(cell.result.influence);
      // Appended to a named string: `"[" + std::string&&` draws a
      // spurious GCC 12 -Wrestrict from the inlined insert.
      std::string notch = "[";
      notch += FormatDouble(box.notch_low, 2);
      notch += ", ";
      notch += FormatDouble(box.notch_high, 2);
      notch += ']';
      table.AddRow({FormatPowerOfTwo(cell.sample_number),
                    FormatDouble(box.p1, 2), FormatDouble(box.q1, 2),
                    FormatDouble(box.median, 2), FormatDouble(box.q3, 2),
                    FormatDouble(box.p99, 2), FormatDouble(box.mean, 2),
                    notch});
      csv.Row()
          .Str(ApproachName(approach))
          .UInt(cell.sample_number)
          .Real(box.mean, 4)
          .Real(box.median, 4)
          .Real(box.q1, 4)
          .Real(box.q3, 4)
          .Real(box.p1, 4)
          .Real(box.p99, 4)
          .Real(box.notch_low, 4)
          .Real(box.notch_high, 4)
          .Done();
    }
    PrintTable("Figure 4 panel: " + ApproachName(approach) +
                   " on Physicians (uc0.1, k=" + std::to_string(k) + ")",
               table);
  }
  MaybeWriteCsv(csv, options.out_csv);
  ReportPeakRss();
  return 0;
}

}  // namespace
}  // namespace soldist

int main(int argc, char** argv) { return soldist::Run(argc, argv); }
