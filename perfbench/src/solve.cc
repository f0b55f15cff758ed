// solve-grqc: repeated paper-scale api::Session::Solve calls on ca-GrQc
// uc0.1 (n=5242) at k=50, sample-level parallelism on the shared pool
// (sample_threads=0) and oracle evaluation on. RR sampling plus the
// inverted-index build dominate a RIS solve, and Snapshot gain
// maintenance a Snapshot solve; the exp/ trial fan-out never runs here.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "paths.h"
#include "random/splitmix64.h"
#include "trace.h"

namespace perfbench {
namespace {

using soldist::Approach;

/// One solve class: heavy, medium, light (the metric slots).
struct SolveClass {
  const char* name;  ///< issue-facing name, printed with the metric
  const char* root;  ///< root span of the traced solve
  SolveSpans spans;
  Approach approach;
  std::uint64_t sample_number;
  double min_share;  ///< influence floor, as a share of the medium solve's
  int repeats;       ///< solves per round (divides the largest), so cheap
                     ///< classes get more samples
};

struct Sizes {
  int k;
  std::uint64_t oracle_rr;
  SolveClass classes[3];
};

constexpr Sizes kFull = {
    50,
    1u << 15,
    {{"solve_snapshot_s", "bench.solve.snapshot",
      {"core.build.snapshot", "core.select.snapshot"}, Approach::kSnapshot, 1u << 9,
      0.97, 1},
     {"solve_ris_s", "bench.solve.ris", {"core.build.ris", "core.select.ris"},
      Approach::kRis, 1u << 16, 1.0, 2},
     {"solve_ris_small_s", "bench.solve.ris_small",
      {"core.build.ris_small", "core.select.ris_small"}, Approach::kRis, 1u << 12,
      0.9, 8}}};
constexpr Sizes kSmoke = {
    5,
    1u << 12,
    {{"solve_snapshot_s", "bench.solve.snapshot",
      {"core.build.snapshot", "core.select.snapshot"}, Approach::kSnapshot, 1u << 4,
      0.5, 1},
     {"solve_ris_s", "bench.solve.ris", {"core.build.ris", "core.select.ris"},
      Approach::kRis, 1u << 10, 1.0, 2},
     {"solve_ris_small_s", "bench.solve.ris_small",
      {"core.build.ris_small", "core.select.ris_small"}, Approach::kRis, 1u << 6,
      0.5, 8}}};

struct Setup {
  std::unique_ptr<soldist::api::Session> session;
  soldist::api::WorkloadSpec workload;
};

Setup MakeSetup(const Options& options, const Sizes& sizes) {
  Setup setup;
  soldist::api::SessionOptions session_options;
  session_options.threads = options.threads;
  session_options.oracle_rr = sizes.oracle_rr;
  setup.session = std::make_unique<soldist::api::Session>(session_options);
  setup.workload = soldist::api::WorkloadSpec::Dataset("ca-GrQc")
                       .Probability(soldist::ProbabilityModel::kUc01);
  ScopedSpan span("bench.setup");
  {
    ScopedSpan resolve("api.resolve");
    (void)setup.session->ResolveWorkload(setup.workload).value();
  }
  {
    ScopedSpan build("oracle.build");
    (void)setup.session->ResolveOracle(setup.workload).value();
  }
  return setup;
}

/// The spec of class `i`'s `repeat`-th solve in a round. Each repeat has
/// a seed of its own, so a class's median spans several sampled inputs.
soldist::api::SolveSpec Spec(const Sizes& sizes, int i, int repeat,
                             std::uint64_t seed, int sample_threads = 0) {
  const SolveClass& c = sizes.classes[i];
  return soldist::api::SolveSpec{}
      .WithApproach(c.approach)
      .WithSampleNumber(c.sample_number)
      .WithK(sizes.k)
      .WithSeed(soldist::DeriveSeed(seed, 16 * i + repeat))
      .WithSnapshotMode(soldist::SnapshotEstimator::Mode::kCondensed)
      .WithSampleThreads(sample_threads);
}

struct Solved {
  soldist::api::SolveResult result;  ///< the class's last solve this round
  std::vector<double> seconds;       ///< one per repeat
  std::uint64_t digest = 0xcbf29ce484222325ull;  ///< every repeat's seeds
};

/// One round: each class `repeats` times, interleaved so that every class
/// samples the whole round rather than one stretch of it (with repeats
/// 1, 2, 8: heavy medium light light light light medium light ...).
std::vector<Solved> Round(Setup* setup, const Sizes& sizes, std::uint64_t seed,
                          bool decomposed, Report* report) {
  std::vector<Solved> out(3);
  int steps = 1;
  for (const SolveClass& c : sizes.classes) steps = std::max(steps, c.repeats);
  for (int step = 0; step < steps; ++step) {
    for (int i = 0; i < 3; ++i) {
      const SolveClass& c = sizes.classes[i];
      const int stride = steps / c.repeats;
      if (step % stride != 0) continue;
      const soldist::api::SolveSpec spec = Spec(sizes, i, step / stride, seed);
      Solved& solved = out[i];
      const auto start = std::chrono::steady_clock::now();
      soldist::StatusOr<soldist::api::SolveResult> result =
          soldist::Status::Internal("not run");
      {
        ScopedSpan root(c.root);
        result = decomposed
                     ? DecomposedSolve(setup->session.get(), setup->workload,
                                       spec, c.spans)
                     : setup->session->Solve(setup->workload, spec);
      }
      solved.seconds.push_back(SecondsSince(start));
      report->attempted += 1;
      if (!result.ok()) {
        report->failed += 1;
        continue;
      }
      solved.result = std::move(result).value();
      solved.digest = HashSeeds(solved.result.seeds, solved.digest);
    }
  }
  return out;
}

void CheckQuality(const Sizes& sizes, const std::vector<Solved>& round,
                  Report* report) {
  const double ref = round[1].result.influence;  // the paper-scale RIS solve
  for (int i = 0; i < 3; ++i) {
    const double inf = round[i].result.influence;
    char what[160];
    std::snprintf(what, sizeof(what),
                  "%s influence %.1f >= %.2f x RIS theta=%llu influence %.1f "
                  "(%.3f)",
                  sizes.classes[i].name, inf, sizes.classes[i].min_share,
                  static_cast<unsigned long long>(
                      sizes.classes[1].sample_number),
                  ref, inf / ref);
    report->Check(inf >= sizes.classes[i].min_share * ref, what);
  }
}

double Total(const std::vector<Solved>& round) {
  double s = 0.0;
  for (const auto& x : round) {
    for (double t : x.seconds) s += t;
  }
  return s;
}

}  // namespace

void RunSolveWorkload(const Options& options, Report* report) {
  const Sizes& sizes = options.smoke ? kSmoke : kFull;
  std::printf("solve-grqc: k=%d snapshot tau=%llu ris theta=%llu and %llu\n",
              sizes.k,
              static_cast<unsigned long long>(sizes.classes[0].sample_number),
              static_cast<unsigned long long>(sizes.classes[1].sample_number),
              static_cast<unsigned long long>(sizes.classes[2].sample_number));

  if (options.trace) {
    Tracer::Enable(true);
    Setup setup = MakeSetup(options, sizes);
    Tracer::Enable(false);
    // Session::Solve once, as the reference for the decomposition; then
    // the decomposed path, alternating rounds with the tracer off and on.
    const std::vector<Solved> reference =
        Round(&setup, sizes, options.seed, false, report);
    std::vector<double> round_s[2];
    bool equal = true;
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < 2 || SecondsSince(start) < options.seconds; ++r) {
      const bool on = TracedRound(r);
      Tracer::Enable(on);
      const std::vector<Solved> round =
          Round(&setup, sizes, options.seed, true, report);
      Tracer::Enable(false);
      round_s[on].push_back(Total(round));
      for (int i = 0; i < 3; ++i) {
        equal = equal && round[i].digest == reference[i].digest;
      }
    }
    report->Check(equal, "every decomposed solve's seeds equal Session::Solve's");
    // Engine determinism: the RIS solve at 2 and 4 sampling workers (the
    // spec of the round's last RIS repeat, whose seeds `reference` holds).
    const int last = sizes.classes[1].repeats - 1;
    auto two = setup.session->Solve(setup.workload,
                                    Spec(sizes, 1, last, options.seed, 2));
    auto four = setup.session->Solve(setup.workload,
                                     Spec(sizes, 1, last, options.seed, 4));
    report->attempted += 2;
    report->Check(two.ok() && four.ok() &&
                      two.value().seeds == four.value().seeds &&
                      four.value().seeds == reference[1].result.seeds,
                  "RIS seeds identical at 2 and 4 sampling workers");
    CheckQuality(sizes, reference, report);
    Tracer::Enable(true);
    RunLayerProbes(options, setup.session.get(), setup.workload, report);
    Tracer::Enable(false);
    FinishTrace(options, Median(round_s[0]), Median(round_s[1]), report);
    return;
  }

  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < 5; ++i) {
    setup = Setup{};
    const auto start = std::chrono::steady_clock::now();
    setup = MakeSetup(options, sizes);
    setup_s.push_back(SecondsSince(start));
  }

  std::vector<double> seconds[3];
  std::uint64_t digest = 0;
  bool stable = true;
  std::vector<Solved> last;
  double busy_s = 0.0;
  std::uint64_t rounds = 0, solves = 0;
  const auto start = std::chrono::steady_clock::now();
  while (rounds < 2 || SecondsSince(start) < options.seconds) {
    last = Round(&setup, sizes, options.seed, false, report);
    std::uint64_t round_digest = 0xcbf29ce484222325ull;
    for (int i = 0; i < 3; ++i) {
      seconds[i].insert(seconds[i].end(), last[i].seconds.begin(),
                        last[i].seconds.end());
      solves += last[i].seconds.size();
      round_digest = (round_digest ^ last[i].digest) * 0x100000001b3ull;
    }
    if (rounds == 0) digest = round_digest;
    stable = stable && digest == round_digest;
    busy_s += Total(last);
    ++rounds;
  }
  std::printf("measured %llu rounds in %.2f s; result digest %s\n",
              static_cast<unsigned long long>(rounds), SecondsSince(start),
              Hex(digest).c_str());
  report->Check(stable, "every round reproduces the first round's seeds");
  CheckQuality(sizes, last, report);

  for (int i = 0; i < 3; ++i) {
    PrintMetric(sizes.classes[i].name, Median(seconds[i]), "s",
                "(n=" + std::to_string(seconds[i].size()) + ")");
  }
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  report->Set("ops_per_s", static_cast<double>(solves) / busy_s, "1/s");
  report->Set("heavy_p50_ms", 1e3 * Median(seconds[0]), "ms");
  report->Set("medium_p50_ms", 1e3 * Median(seconds[1]), "ms");
  report->Set("light_p50_ms", 1e3 * Median(seconds[2]), "ms");
}

}  // namespace perfbench
