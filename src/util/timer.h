// Wall-clock timer for coarse experiment timing (not for benchmarks; the
// google-benchmark binaries own their own timing).

#ifndef SOLDIST_UTIL_TIMER_H_
#define SOLDIST_UTIL_TIMER_H_

#include <chrono>
#include <string>

namespace soldist {

/// Monotonic wall-clock stopwatch, started on construction.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// "1.23s" / "45ms" style human-readable elapsed time.
  std::string HumanElapsed() const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace soldist

#endif  // SOLDIST_UTIL_TIMER_H_
