// In-memory span tracing for the benchmark's traced run.
//
// Spans are recorded in the benchmark's own code, around each call into a
// layer's public functions — never inside src/. A span's name is
// "<layer>.<what>" ("core.build.ris", "serve.topk"); the layer is the
// part before the first dot and names a src/ directory, or "bench" for
// the benchmark's own glue (the root span of each operation).
//
// Each thread records into its own buffer, so concurrent serve clients
// never contend; the buffers are merged when the run ends. With tracing
// disabled, opening a span is one relaxed atomic load.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  double start_s = 0.0;  ///< seconds since the tracer's epoch
  double end_s = 0.0;
  std::uint64_t id = 0;      ///< unique, never 0
  std::uint64_t parent = 0;  ///< enclosing span on the same thread; 0 = root
  std::uint64_t request = 0; ///< request id shared by one operation's spans
  std::uint64_t count = 1;   ///< work items the span covers (for per-item means)

  double seconds() const { return end_s - start_s; }
  /// "core" for "core.build.ris".
  std::string layer() const;
};

/// Process-wide span recorder.
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Every span recorded so far, from all threads, ordered by start.
  static std::vector<Span> Collect();

  /// Records a named value measured at a layer boundary that is not a
  /// duration (a pool efficiency, an exact work count).
  static void Note(const std::string& name, double value);
  /// Every value noted under `name`, in recording order.
  static std::vector<double> Notes(const std::string& name);

 private:
  static std::atomic<bool> enabled_;
};

/// Records one span from construction to destruction (no-op when the
/// tracer is disabled). The name must outlive the tracer (a literal).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0,
                      std::uint64_t count = 1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int64_t index_ = -1;  ///< slot in this thread's buffer; -1 = off
  std::uint64_t count_;
};

/// Per-span self time: duration minus the part of it covered by the
/// span's children. Indexed like `spans`.
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

/// One ledger row: a layer's summed self time and its share of the total.
struct LedgerRow {
  std::string layer;
  double self_s = 0.0;
  double share = 0.0;
  std::uint64_t spans = 0;
};

/// The per-layer ledger over the span trees whose root name starts with
/// `root_prefix` ("bench." = the workload's own operations, not the layer
/// probes). Shares are of the summed root durations.
std::vector<LedgerRow> Ledger(const std::vector<Span>& spans,
                              const std::string& root_prefix);

/// Writes one JSON object per span (name, start, end, id, parent,
/// request, count) to `path`. Returns false on an IO error.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

/// Spans named exactly `name`.
std::vector<const Span*> Named(const std::vector<Span>& spans,
                               const std::string& name);
/// Median duration in seconds of spans named `name`; 0 when none.
double MedianSeconds(const std::vector<Span>& spans, const std::string& name);
/// Summed duration over summed count of spans named `name`: the mean
/// seconds per work item; 0 when none.
double SecondsPerItem(const std::vector<Span>& spans, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
