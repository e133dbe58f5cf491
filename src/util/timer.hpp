// Wall-clock timing helper for benchmarks and examples.
#pragma once

#include <chrono>

namespace parspan {

/// Simple monotonic stopwatch. Starts on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last reset().
  double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds since construction or last reset().
  double elapsed_ms() const { return elapsed_s() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace parspan
