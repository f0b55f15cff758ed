// Quickstart: pick k influential seeds with RIS through the api/ facade —
// the most common end-to-end use of the library in four steps: describe
// the workload (WorkloadSpec), open a Session, Solve, read the result.
// Bad input (missing file, unknown probability setting, --model lt on an
// LT-invalid instance) comes back as a Status, printed and exited with 1.
//
//   ./quickstart [--graph edges.txt] [--k 4] [--theta 16384] [--prob iwc]
//                [--model ic|lt]

#include <cstdio>

#include "api/session.h"
#include "util/args.h"
#include "util/cli.h"

namespace soldist {
namespace {

int Run(int argc, const char* const* argv) {
  ArgParser args("quickstart", "Pick influential seeds with RIS.");
  args.AddString("graph", "", "edge-list file (empty = karate club)");
  args.AddInt64("k", 4, "number of seeds");
  args.AddInt64("theta", 16384, "number of RR sets");
  args.AddString("prob", "iwc", "edge probabilities: uc0.1|uc0.01|iwc|owc|tv");
  args.AddString("model", "ic",
                 "diffusion model: ic (independent cascade) or lt (linear "
                 "threshold; needs in-weights <= 1, e.g. iwc)");
  args.AddInt64("seed", 1, "PRNG seed");
  if (!args.Parse(argc, argv).ok()) return 1;

  // 1. Describe the workload: network source + probabilities + model.
  auto prob = ParseProbabilityModel(args.GetString("prob"));
  if (!prob.ok()) return ExitWithError(prob.status());
  auto model = ParseDiffusionModel(args.GetString("model"));
  if (!model.ok()) return ExitWithError(model.status());
  api::WorkloadSpec workload =
      args.GetString("graph").empty()
          ? api::WorkloadSpec::Dataset("Karate")
          : api::WorkloadSpec::File(args.GetString("graph"));
  workload.Probability(prob.value()).Diffusion(model.value());
  if (args.GetString("graph").empty()) {
    std::printf("using the bundled karate-club network\n");
  }

  // 2. Open a session (owns the graph cache, the shared influence
  //    oracle, and the worker pool) and describe the solve.
  api::SessionOptions session_options;
  session_options.seed = static_cast<std::uint64_t>(args.GetInt64("seed"));
  api::Session session(session_options);
  if (args.GetInt64("theta") < 1 || args.GetInt64("k") < 1) {
    return ExitWithError(
        Status::InvalidArgument("--theta and --k must be >= 1"));
  }
  api::SolveSpec solve =
      api::SolveSpec{}
          .WithApproach(Approach::kRis)
          .WithSampleNumber(static_cast<std::uint64_t>(args.GetInt64("theta")))
          .WithK(static_cast<int>(args.GetInt64("k")))
          .WithSeed(2024);

  // 3. Solve: one greedy seed selection, validated end to end.
  StatusOr<api::SolveResult> result = session.Solve(workload, solve);
  if (!result.ok()) return ExitWithError(result.status());

  // 4. Read the result: seeds with their selection-time estimates, and
  //    the independent shared-oracle influence value.
  std::printf("selected %d seeds with θ=%llu RR sets (%s model):\n",
              solve.k,
              static_cast<unsigned long long>(solve.sample_number),
              DiffusionModelName(workload.model).c_str());
  for (std::size_t i = 0; i < result.value().seeds.size(); ++i) {
    std::printf("  seed %zu: vertex %u (marginal estimate %.2f)\n", i + 1,
                result.value().seeds[i], result.value().estimates[i]);
  }
  std::printf("oracle influence estimate: %.2f (±%.2f at 99%% confidence)\n",
              result.value().influence, result.value().oracle_ci99);
  std::printf("time: build %.1f ms, select %.1f ms, evaluate %.1f ms\n",
              result.value().build_seconds * 1e3,
              result.value().select_seconds * 1e3,
              result.value().evaluate_seconds * 1e3);
  return 0;
}

}  // namespace
}  // namespace soldist

int main(int argc, char** argv) { return soldist::Run(argc, argv); }
