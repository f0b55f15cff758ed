// Shared pieces of the benchmark: run options, the reported metrics and
// correctness checks, timing helpers, and the three workloads.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/session.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke size: tiny inputs, a fraction of a second of measurement.
  bool smoke = false;
  /// Scratch directory inside the checkout (arena persistence, traces).
  std::string work_dir = ".bench_build/work";
  /// Concurrency of the process: pool width and serve client count.
  int threads = 4;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports.
struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a correctness check; a false `ok` fails the run.
  void Check(bool ok, const std::string& what);
  bool correct() const { return check_failures.empty() && failed == 0; }
};

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);

inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// FNV-1a over a seed set, chained into `hash` (result digests).
std::uint64_t HashSeeds(const std::vector<soldist::VertexId>& seeds,
                        std::uint64_t hash);
std::string Hex(std::uint64_t value);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Prints "  <name> = <value> <unit>  (<note>)" — the human-readable
/// form of one metric.
void PrintMetric(const std::string& name, double value,
                 const std::string& unit, const std::string& note = "");

/// Whether round `r` of a traced run's comparison runs with the tracer
/// on: off, on, on, off, off, on, ... so that a steady drift of the
/// host's speed falls on both sides alike.
inline bool TracedRound(int r) { return r % 4 == 1 || r % 4 == 2; }

/// The end of a traced run: prints the ledger of the workload's own span
/// trees ("bench.*"), writes every span to the work directory, and
/// derives every per-layer metric from the spans and notes, including
/// trace.overhead_frac from the median round times of one path run with
/// the tracer off and on.
void FinishTrace(const Options& options, double untraced_round_s,
                 double traced_round_s, Report* report);

/// Per-layer metrics that direct calls into each layer produce (the
/// "layer probe"): every layer whose spans the workload's own path did
/// not already record is driven here on the workload's instance, so each
/// per-layer metric exists on every workload.
void RunLayerProbes(const Options& options, soldist::api::Session* session,
                    const soldist::api::WorkloadSpec& workload,
                    Report* report);

// The workloads. Each fills `report` with its end-to-end metrics (or,
// traced, its per-layer metrics) and records its correctness checks.
void RunSweepWorkload(const Options& options, Report* report);
void RunSolveWorkload(const Options& options, Report* report);
void RunServeWorkload(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
