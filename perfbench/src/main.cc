// perfbench: the repository benchmark.
//
//   perfbench --workload sweep-physicians|solve-grqc|serve-mixed
//             --seed N --seconds S --trace 0|1 [--smoke]
//             [--work-dir DIR] [--commit SHA]
//
// --trace 0 measures the workload's end-to-end metrics with tracing off;
// --trace 1 runs the same path with spans around every call into a
// layer and reports the per-layer metrics and the per-layer ledger.
// Either way every answer is checked, and a failed check exits 1. The
// last line of standard output is one JSON object: correct, attempted,
// failed, metrics.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"

namespace perfbench {
namespace {

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();  // drop trailing NULs
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sweep-physicians|solve-grqc|serve-mixed --seed N "
               "--seconds S --trace 0|1 [--smoke] [--work-dir DIR] "
               "[--commit SHA]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options.seconds <= 0.0) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  void (*run)(const Options&, Report*) = nullptr;
  if (options.workload == "sweep-physicians") run = RunSweepWorkload;
  if (options.workload == "solve-grqc") run = RunSolveWorkload;
  if (options.workload == "serve-mixed") run = RunServeWorkload;
  if (run == nullptr) return Usage("unknown --workload");

  const int nproc = Nproc();
  options.threads = std::min(4, nproc);
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage(("cannot create --work-dir " + options.work_dir).c_str());

  std::printf(
      "# env {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"smoke\":%s,\"threads\":%d,\"nproc\":%d,\"hardware_concurrency\":%u,"
      "\"cpu_model\":\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"git_commit\":\"%s\"}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, options.smoke ? "true" : "false",
      options.threads, nproc, std::thread::hardware_concurrency(),
      JsonEscape(CpuModel()).c_str(), JsonEscape(PERFBENCH_COMPILER).c_str(),
      PERFBENCH_BUILD_TYPE, JsonEscape(commit).c_str());
  std::fflush(stdout);

  Report report;
  run(options, &report);
  report.Check(report.attempted > 0, "the run attempted at least one operation");

  std::printf("%s metrics:\n", options.trace ? "per-layer" : "end-to-end");
  for (const auto& [name, metric] : report.metrics) {
    PrintMetric(name, metric.value, metric.unit);
  }
  std::printf("verdict: %s (%llu attempted, %llu failed, %zu failed checks)\n",
              report.correct() ? "PASS" : "FAIL",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.check_failures.size());
  std::string metrics;
  for (const auto& [name, metric] : report.metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), metric.value,
                  metric.unit.c_str());
    metrics += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct() ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
