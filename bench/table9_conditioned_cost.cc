// Table 9 (paper Section 6): traversal cost at k=1 when the sample
// numbers are conditioned so the three approaches are of identical
// accuracy — β = cr1·γ, τ = γ, θ = cr2·γ, where cr1/cr2 are the
// comparable number ratios of Oneshot/RIS to Snapshot (Tables 6-7).
// Each cell is (per-sample vertex+edge cost) × comparable ratio, the
// coefficient of γ. Expected shape: Oneshot is almost always the least
// time-efficient; RIS beats Snapshot on the large networks, Snapshot
// wins on small/low-probability instances (e.g. BA_s uc0.01).

#include <algorithm>

#include "bench_common.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace soldist {
namespace {

int Run(int argc, const char* const* argv) {
  ArgParser args("table9_conditioned_cost",
                 "Reproduces paper Table 9: traversal cost conditioned on "
                 "identical accuracy.");
  AddExperimentFlags(&args);
  args.AddString("networks",
                 "ca-GrQc,Wiki-Vote,com-Youtube,soc-Pokec,BA_s,BA_d",
                 "networks to run (paper Table 9 rows)");
  int exit_code = 0;
  ExperimentOptions options;
  if (ShouldExitAfterParse(&args, argc, argv, &exit_code, &options)) {
    return exit_code;
  }
  RequireIcModel(options, "table9_conditioned_cost");
  if (!args.Provided("trials")) options.trials = 25;
  PrintBanner("Table 9: traversal cost at identical accuracy (γ "
              "coefficients)",
              options);

  ExperimentContext context(options);
  TextTable table({"network", "algorithm", "uc0.1", "uc0.01", "iwc", "owc"});
  CsvWriter csv({"network", "setting", "approach", "per_sample_cost",
                 "comparable_ratio", "conditioned_cost"});

  for (const std::string& network : Split(args.GetString("networks"), ',')) {
    GridCaps caps = ScaledGridCaps(network, options.full);
    bool star = Datasets::IsStarNetwork(network);
    std::map<Approach, std::vector<std::string>> rows;
    for (Approach approach :
         {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
      rows[approach] = {star ? "* " + network : network,
                        ApproachName(approach)};
    }
    for (ProbabilityModel model : PaperProbabilityModels()) {
      bool skip_setting = model == ProbabilityModel::kUc01 &&
                          (network == "Wiki-Vote" || star);
      if (skip_setting) {
        for (auto& [approach, row] : rows) row.push_back("-");
        continue;
      }
      const InfluenceGraph& ig = context.Instance(network, model);
      const RrOracle& oracle = context.Oracle(network, model);
      std::uint64_t trials = context.TrialsFor(network);

      // Per-sample traversal cost (vertex + edge) at sample number 1.
      auto per_sample_cost = [&](Approach approach) {
        TrialConfig config;
        config.sampling = context.sampling();
        config.approach = approach;
        config.sample_number = 1;
        config.k = 1;
        config.trials = trials;
        config.master_seed = options.seed + 91;
        // The paper's cost model: the residual backend counts vertices
        // and live edges (condensed counts DAG components and arcs).
        config.snapshot_mode = SnapshotEstimator::Mode::kResidual;
        TrialResult result = RunTrials(ig, config, context.pool());
        return result.MeanVertexCost(trials) + result.MeanEdgeCost(trials);
      };

      // Comparable ratios at k=1 from fresh sweeps. The ratios are
      // stable across the grid (Figure 7), so shallow sweeps (caps − 2)
      // keep the giant-component Oneshot cells tractable.
      SweepConfig snap_config;
      snap_config.reuse = options.sweep_reuse;
      snap_config.approach = Approach::kSnapshot;
      snap_config.k = 1;
      snap_config.trials = trials;
      snap_config.master_seed = options.seed + 5;
      snap_config.max_exponent = std::max(0, caps.snapshot_max_exp - 2);
      auto snap_cells = RunSweep(ig, oracle, snap_config, context.pool());

      SweepConfig ris_config = snap_config;
      ris_config.approach = Approach::kRis;
      ris_config.max_exponent = std::max(0, caps.ris_max_exp - 2);
      auto ris_cells = RunSweep(ig, oracle, ris_config, context.pool());
      auto cr2 = MedianNumberRatio(
          ComputeComparablePairs(CurveOf(snap_cells), CurveOf(ris_cells)));

      std::optional<double> cr1;
      if (!star) {
        SweepConfig one_config = snap_config;
        one_config.approach = Approach::kOneshot;
        one_config.max_exponent = std::max(0, caps.oneshot_max_exp - 2);
        auto one_cells = RunSweep(ig, oracle, one_config, context.pool());
        cr1 = MedianNumberRatio(
            ComputeComparablePairs(CurveOf(snap_cells), CurveOf(one_cells)));
      }
      SOLDIST_LOG(Info) << network << " " << ProbabilityModelName(model)
                        << " ratios done";

      struct Cell {
        Approach approach;
        std::optional<double> ratio;
      };
      for (const Cell& cell :
           {Cell{Approach::kOneshot, star ? std::optional<double>() : cr1},
            Cell{Approach::kSnapshot, std::optional<double>(1.0)},
            Cell{Approach::kRis, cr2}}) {
        if (star && cell.approach == Approach::kOneshot) {
          rows[cell.approach].push_back("-");
          continue;
        }
        if (!cell.ratio) {
          rows[cell.approach].push_back("-");
          continue;
        }
        double base = per_sample_cost(cell.approach);
        double conditioned = base * (*cell.ratio);
        rows[cell.approach].push_back(FormatCost(conditioned) + "γ");
        csv.Row()
            .Str(network)
            .Str(ProbabilityModelName(model))
            .Str(ApproachName(cell.approach))
            .Real(base, 2)
            .Real(*cell.ratio, 3)
            .Real(conditioned, 2)
            .Done();
      }
    }
    for (Approach approach :
         {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
      table.AddRow(std::move(rows[approach]));
    }
  }
  PrintTable("Table 9: traversal cost at k=1 conditioned on identical "
             "accuracy",
             table);
  MaybeWriteCsv(csv, options.out_csv);
  ReportPeakRss();
  return 0;
}

}  // namespace
}  // namespace soldist

int main(int argc, char** argv) { return soldist::Run(argc, argv); }
