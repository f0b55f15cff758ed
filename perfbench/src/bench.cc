#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {

void Report::Check(bool ok, const std::string& what) {
  std::printf("  check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) check_failures.push_back(what);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::uint64_t HashSeeds(const std::vector<soldist::VertexId>& seeds,
                        std::uint64_t hash) {
  for (soldist::VertexId v : seeds) {
    for (int b = 0; b < 4; ++b) {
      hash ^= (static_cast<std::uint64_t>(v) >> (8 * b)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  }
  hash ^= 0xff;  // set separator
  return hash * 0x100000001b3ull;
}

std::string Hex(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PrintMetric(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  std::printf("  %-30s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

}  // namespace perfbench
