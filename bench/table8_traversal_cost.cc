// Table 8 (paper Section 5.3): average vertex and edge traversal cost at
// k = 1 and sample number 1 for each (network, setting, approach).
// Expected relations (Section 5.3.2):
//   vertex cost:  Oneshot ≈ Snapshot ≈ n · RIS
//   edge cost:    Oneshot ≈ (m/m̃) · Snapshot ≈ n · RIS
// and uc0.1 on dense graphs is the most expensive (giant component).

#include "bench_common.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace soldist {
namespace {

int Run(int argc, const char* const* argv) {
  ArgParser args("table8_traversal_cost",
                 "Reproduces paper Table 8: per-sample traversal cost at "
                 "k=1 and sample number 1.");
  AddExperimentFlags(&args);
  args.AddString("networks",
                 "Karate,Physicians,ca-GrQc,Wiki-Vote,com-Youtube,"
                 "soc-Pokec,BA_s,BA_d",
                 "networks to run");
  int exit_code = 0;
  ExperimentOptions options;
  if (ShouldExitAfterParse(&args, argc, argv, &exit_code, &options)) {
    return exit_code;
  }
  RequireIcModel(options, "table8_traversal_cost");
  PrintBanner("Table 8: traversal cost at k=1, sample number 1", options);

  ExperimentContext context(options);
  TextTable table({"network", "algorithm", "uc0.1 vertex", "uc0.1 edge",
                   "uc0.01 vertex", "uc0.01 edge", "iwc vertex", "iwc edge",
                   "owc vertex", "owc edge"});
  CsvWriter csv({"network", "setting", "approach", "vertex_cost",
                 "edge_cost", "sample_size"});

  for (const std::string& network : Split(args.GetString("networks"), ',')) {
    bool star = Datasets::IsStarNetwork(network);
    std::map<Approach, std::vector<std::string>> rows;
    for (Approach approach :
         {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
      // Paper's Table 8 omits Oneshot on the ⋆ networks and uc0.1 on
      // Wiki-Vote and the ⋆ networks; mirror those "-" cells.
      rows[approach] = {star ? "* " + network : network,
                        ApproachName(approach)};
    }
    for (ProbabilityModel model : PaperProbabilityModels()) {
      bool skip_setting = model == ProbabilityModel::kUc01 &&
                          (network == "Wiki-Vote" || star);
      for (Approach approach :
           {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
        bool skip = skip_setting || (star && approach == Approach::kOneshot);
        if (skip) {
          rows[approach].push_back("-");
          rows[approach].push_back("-");
          continue;
        }
        const InfluenceGraph& ig = context.Instance(network, model);
        TrialConfig config;
        config.sampling = context.sampling();
        config.approach = approach;
        config.sample_number = 1;
        config.k = 1;
        config.trials = context.TrialsFor(network);
        config.master_seed = options.seed;
        // The paper's cost model: the residual backend counts vertices
        // and live edges (condensed counts DAG components and arcs).
        config.snapshot_mode = SnapshotEstimator::Mode::kResidual;
        WallTimer timer;
        TrialResult result = RunTrials(ig, config, context.pool());
        SOLDIST_LOG(Info) << network << " " << ProbabilityModelName(model)
                          << " " << ApproachName(approach) << " in "
                          << timer.HumanElapsed();
        double vertex_cost = result.MeanVertexCost(config.trials);
        double edge_cost = result.MeanEdgeCost(config.trials);
        rows[approach].push_back(FormatCost(vertex_cost));
        rows[approach].push_back(FormatCost(edge_cost));
        csv.Row()
            .Str(network)
            .Str(ProbabilityModelName(model))
            .Str(ApproachName(approach))
            .Real(vertex_cost, 2)
            .Real(edge_cost, 2)
            .Real(result.MeanSampleSize(config.trials), 2)
            .Done();
      }
    }
    for (Approach approach :
         {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
      table.AddRow(std::move(rows[approach]));
    }
  }
  PrintTable("Table 8: traversal cost at k=1 and sample number 1", table);
  MaybeWriteCsv(csv, options.out_csv);
  ReportPeakRss();
  return 0;
}

}  // namespace
}  // namespace soldist

int main(int argc, char** argv) { return soldist::Run(argc, argv); }
