// Viral marketing scenario (the paper's motivating application): a brand
// wants to gift k products so that word-of-mouth reaches as many users as
// possible. Compares the three algorithmic approaches plus cheap
// heuristics on a scale-free social-network proxy, reporting oracle
// influence and traversal cost for each — a miniature of the paper's
// efficiency-vs-quality trade-off.
//
// Facade tour: the network is a generator-produced edge list handed to
// WorkloadSpec::Edges, and the three approaches run as ONE
// Session::SolveBatch fanned out across the session's worker pool
// (byte-identical to solving them one by one).
//
//   ./viral_marketing [--n 20000] [--k 8] [--budget-exp 10]

#include <cstdio>

#include "api/session.h"
#include "core/baselines.h"
#include "gen/datasets.h"
#include "util/args.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "util/table.h"

namespace soldist {
namespace {

int Run(int argc, const char* const* argv) {
  ArgParser args("viral_marketing",
                 "Compare Oneshot/Snapshot/RIS and heuristics for a "
                 "viral-marketing seed selection.");
  args.AddInt64("n", 20000, "social-network size (com-Youtube-style proxy)");
  args.AddInt64("k", 8, "marketing budget (number of seeded users)");
  args.AddInt64("budget-exp", 10,
                "sample-number exponent: Snapshot/RIS use 2^e, Oneshot "
                "2^(e-4) (Oneshot resimulates per estimate)");
  args.AddInt64("seed", 42, "PRNG seed");
  if (!args.Parse(argc, argv).ok()) return 1;

  if (args.GetInt64("n") < 8 || args.GetInt64("k") < 1 ||
      args.GetInt64("budget-exp") < 0 || args.GetInt64("budget-exp") > 40) {
    return ExitWithError(Status::InvalidArgument(
        "need --n >= 8 (the proxy generator's minimum), --k >= 1, "
        "--budget-exp in [0, 40]"));
  }
  auto n = static_cast<VertexId>(args.GetInt64("n"));
  auto k = static_cast<int>(args.GetInt64("k"));
  auto exp = static_cast<int>(args.GetInt64("budget-exp"));
  auto seed = static_cast<std::uint64_t>(args.GetInt64("seed"));

  // The workload: a generator-built social-network proxy handed straight
  // to the facade as an in-memory edge list.
  std::printf("building a %u-user social-network proxy...\n", n);
  api::WorkloadSpec workload =
      api::WorkloadSpec::Edges("youtube-proxy",
                               Datasets::ComYoutube(seed, n))
          .Probability(ProbabilityModel::kIwc);

  api::SessionOptions session_options;
  session_options.seed = seed;
  session_options.oracle_rr = 200000;
  api::Session session(session_options);

  // The three principled approaches as one batch on the session pool.
  std::vector<api::SolveSpec> specs;
  for (Approach approach :
       {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
    int e = approach == Approach::kOneshot ? std::max(0, exp - 4) : exp;
    specs.push_back(api::SolveSpec{}
                        .WithApproach(approach)
                        .WithSampleNumber(1ULL << e)
                        .WithK(k)
                        .WithSeed(seed + 9));
  }
  StatusOr<std::vector<api::SolveResult>> batch =
      session.SolveBatch(workload, specs);
  if (!batch.ok()) return ExitWithError(batch.status());

  TextTable table({"strategy", "sample number", "oracle influence",
                   "vertex traversals", "edge traversals"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const api::SolveResult& result = batch.value()[i];
    table.AddRow({ApproachName(specs[i].approach),
                  WithThousands(specs[i].sample_number),
                  FormatDouble(result.influence, 1),
                  WithThousands(result.counters.vertices),
                  WithThousands(result.counters.edges)});
    std::printf("  %s done: build %.2fs, select %.2fs\n",
                ApproachName(specs[i].approach).c_str(),
                result.build_seconds, result.select_seconds);
  }

  // Cheap heuristics (paper Section 3.6: fast but less influential) —
  // scored against the SAME shared session oracle.
  StatusOr<ModelInstance> instance = session.ResolveWorkload(workload);
  if (!instance.ok()) return ExitWithError(instance.status());
  StatusOr<const RrOracle*> oracle = session.ResolveOracle(workload);
  if (!oracle.ok()) return ExitWithError(oracle.status());
  const InfluenceGraph& ig = *instance.value().ig;
  auto max_degree = MaxDegreeSeeds(ig.graph(), k);
  table.AddRow({"MaxDegree heuristic", "-",
                FormatDouble(oracle.value()->EstimateInfluence(max_degree), 1),
                "-", "-"});
  auto discount = DegreeDiscountSeeds(ig.graph(), k, 0.01);
  table.AddRow({"DegreeDiscount heuristic", "-",
                FormatDouble(oracle.value()->EstimateInfluence(discount), 1),
                "-", "-"});
  Rng random_rng(seed + 2);
  auto random = RandomSeeds(ig.num_vertices(), k, &random_rng);
  table.AddRow({"Random seeds", "-",
                FormatDouble(oracle.value()->EstimateInfluence(random), 1),
                "-", "-"});

  std::printf("\n%s\n", table.ToMarkdown().c_str());
  std::printf("Reading guide: the three principled approaches land within "
              "a few percent of each other (same greedy, different "
              "estimators) and beat the heuristics; their traversal costs "
              "differ by orders of magnitude — the paper's trade-off.\n");
  return 0;
}

}  // namespace
}  // namespace soldist

int main(int argc, char** argv) { return soldist::Run(argc, argv); }
