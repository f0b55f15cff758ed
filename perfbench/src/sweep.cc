// sweep-physicians: the paper's methodology through exp/ RunSweep — all
// three approaches on Physicians iwc at k=4 over powers-of-two ladders,
// T trials per cell, condensed Snapshot, sweep reuse on, trials fanned
// out over the shared pool. Oneshot forward simulation and the exp/
// trial fan-out do most of the work; serve/ and store/ do nothing, so
// this is the bypass workload for serving changes.

#include <cstdio>
#include <memory>

#include "bench.h"
#include "paths.h"
#include "random/splitmix64.h"
#include "trace.h"

namespace perfbench {
namespace {

using soldist::Approach;

struct Sizes {
  int k;
  std::uint64_t trials;
  int max_exponent[3];  // Oneshot, Snapshot, RIS (Approach order)
  std::uint64_t reference_theta;
  double min_share[3];  // of the RIS reference influence, per approach
};

// Full size: the largest cells are the paper-style ladder tops (2^7,
// 2^10, 2^16). T=8 keeps one round under a second, so a run samples each
// ladder many times across the host's speed swings. The shares are the
// floor each approach's top cell must reach; measured means sit a few
// percent above them.
constexpr Sizes kFull = {4, 8, {7, 10, 16}, 1u << 16, {0.90, 0.95, 0.97}};
constexpr Sizes kSmoke = {2, 4, {3, 5, 8}, 1u << 12, {0.5, 0.5, 0.5}};

constexpr Approach kApproaches[3] = {Approach::kOneshot, Approach::kSnapshot,
                                     Approach::kRis};

struct Setup {
  std::unique_ptr<soldist::api::Session> session;
  soldist::api::WorkloadSpec workload;
  soldist::ModelInstance instance;
  const soldist::RrOracle* oracle = nullptr;
};

Setup MakeSetup(const Options& options) {
  Setup setup;
  soldist::api::SessionOptions session_options;
  session_options.threads = options.threads;
  setup.session = std::make_unique<soldist::api::Session>(session_options);
  setup.workload = soldist::api::WorkloadSpec::Dataset("Physicians")
                       .Probability(soldist::ProbabilityModel::kIwc);
  ScopedSpan span("bench.setup");
  {
    ScopedSpan resolve("api.resolve");
    setup.instance = setup.session->ResolveWorkload(setup.workload).value();
  }
  {
    ScopedSpan build("oracle.build");
    setup.oracle = setup.session->ResolveOracle(setup.workload).value();
  }
  return setup;
}

LadderSpec Spec(const Sizes& sizes, Approach approach, std::uint64_t seed) {
  LadderSpec spec;
  spec.approach = approach;
  spec.max_exponent = sizes.max_exponent[static_cast<int>(approach)];
  spec.k = sizes.k;
  spec.trials = sizes.trials;
  spec.master_seed = soldist::DeriveSeed(seed, static_cast<int>(approach));
  return spec;
}

/// One sweep round: the three ladders in order. Returns each ladder.
std::vector<LadderOutcome> Round(const Setup& setup, const Sizes& sizes,
                                 std::uint64_t seed, bool decomposed) {
  static const char* const kRoots[3] = {"bench.ladder.oneshot",
                                        "bench.ladder.snapshot",
                                        "bench.ladder.ris"};
  std::vector<LadderOutcome> out;
  for (Approach a : kApproaches) {
    ScopedSpan root(kRoots[static_cast<int>(a)]);
    out.push_back(RunLadder(setup.instance, *setup.oracle,
                            Spec(sizes, a, seed), setup.session->pool(),
                            decomposed));
  }
  return out;
}

double RoundSeconds(const std::vector<LadderOutcome>& round) {
  double s = 0.0;
  for (const auto& l : round) s += l.wall_s;
  return s;
}

/// Each approach's top cell against an in-run RIS reference solve.
void CheckQuality(Setup* setup, const Sizes& sizes, std::uint64_t seed,
                  const std::vector<LadderOutcome>& round, Report* report) {
  auto reference = setup->session->Solve(
      setup->workload, soldist::api::SolveSpec{}
                           .WithApproach(Approach::kRis)
                           .WithSampleNumber(sizes.reference_theta)
                           .WithK(sizes.k)
                           .WithSeed(soldist::DeriveSeed(seed, 99))
                           .WithSampleThreads(0));
  report->Check(reference.ok(), "RIS reference solve succeeds");
  if (!reference.ok()) return;
  const double ref = reference.value().influence;
  for (Approach a : kApproaches) {
    const int i = static_cast<int>(a);
    const double mean = round[i].cells.back().result.influence.Mean();
    char what[160];
    std::snprintf(what, sizeof(what),
                  "%s top cell mean influence %.2f >= %.2f x RIS reference "
                  "%.2f (%.3f)",
                  soldist::ApproachName(a).c_str(), mean, sizes.min_share[i],
                  ref, mean / ref);
    report->Check(mean >= sizes.min_share[i] * ref, what);
  }
}

}  // namespace

void RunSweepWorkload(const Options& options, Report* report) {
  const Sizes& sizes = options.smoke ? kSmoke : kFull;
  std::printf("sweep-physicians: k=%d T=%llu ladders <=2^%d/2^%d/2^%d\n",
              sizes.k, static_cast<unsigned long long>(sizes.trials),
              sizes.max_exponent[0], sizes.max_exponent[1],
              sizes.max_exponent[2]);
  std::uint64_t cells_per_round = 0;
  for (int e : sizes.max_exponent) cells_per_round += (e + 1) * sizes.trials;

  if (options.trace) {
    Tracer::Enable(true);
    Setup setup = MakeSetup(options);
    Tracer::Enable(false);
    // RunSweep once, as the reference for the decomposition; then the
    // decomposed path, alternating rounds with the tracer off and on.
    const std::vector<LadderOutcome> reference =
        Round(setup, sizes, options.seed, false);
    report->attempted += 3;
    std::vector<double> round_s[2];
    bool equal = true;
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < 2 || SecondsSince(start) < options.seconds; ++r) {
      const bool on = TracedRound(r);
      Tracer::Enable(on);
      const std::vector<LadderOutcome> round =
          Round(setup, sizes, options.seed, true);
      Tracer::Enable(false);
      round_s[on].push_back(RoundSeconds(round));
      report->attempted += 3;
      for (int i = 0; i < 3; ++i) {
        equal = equal && round[i].digest == reference[i].digest;
      }
    }
    report->Check(equal, "every decomposed ladder's seeds equal RunSweep's (" +
                             Hex(reference[0].digest) + "/" +
                             Hex(reference[1].digest) + "/" +
                             Hex(reference[2].digest) + ")");
    Tracer::Enable(true);
    RunLayerProbes(options, setup.session.get(), setup.workload, report);
    Tracer::Enable(false);
    CheckQuality(&setup, sizes, options.seed, reference, report);
    FinishTrace(options, Median(round_s[0]), Median(round_s[1]), report);
    return;
  }

  // Set-up takes ~50 ms here: timed once before the rounds and once more
  // (on a throwaway copy) after each, so its median covers the same
  // stretch of the host's speed swings as the rounds do.
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const auto start = std::chrono::steady_clock::now();
    Setup timed = MakeSetup(options);
    setup_s.push_back(SecondsSince(start));
    return timed;
  };
  Setup setup = timed_setup();

  std::vector<double> ladder_s[3];
  std::uint64_t digest[3] = {0, 0, 0};
  bool stable = true;
  std::vector<LadderOutcome> last;
  double busy_s = 0.0;
  std::uint64_t rounds = 0;
  const auto start = std::chrono::steady_clock::now();
  while (rounds < 2 || SecondsSince(start) < options.seconds) {
    last = Round(setup, sizes, options.seed, false);
    for (int i = 0; i < 3; ++i) {
      ladder_s[i].push_back(last[i].wall_s);
      if (rounds == 0) digest[i] = last[i].digest;
      stable = stable && digest[i] == last[i].digest;
    }
    busy_s += RoundSeconds(last);
    (void)timed_setup();
    ++rounds;
    report->attempted += 3;
  }
  std::printf("measured %llu rounds in %.2f s; result digest %s/%s/%s\n",
              static_cast<unsigned long long>(rounds), SecondsSince(start),
              Hex(digest[0]).c_str(), Hex(digest[1]).c_str(),
              Hex(digest[2]).c_str());
  report->Check(stable, "every round reproduces the first round's seed sets");
  CheckQuality(&setup, sizes, options.seed, last, report);

  const double ops_per_s =
      static_cast<double>(rounds * cells_per_round) / busy_s;
  const std::string n = "(n=" + std::to_string(rounds) + ")";
  PrintMetric("sweep_oneshot_s", Median(ladder_s[0]), "s", n);
  PrintMetric("sweep_snapshot_s", Median(ladder_s[1]), "s", n);
  PrintMetric("sweep_ris_s", Median(ladder_s[2]), "s", n);
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  report->Set("ops_per_s", ops_per_s, "1/s");
  report->Set("heavy_p50_ms", 1e3 * Median(ladder_s[0]), "ms");
  report->Set("medium_p50_ms", 1e3 * Median(ladder_s[1]), "ms");
  report->Set("light_p50_ms", 1e3 * Median(ladder_s[2]), "ms");
}

}  // namespace perfbench
