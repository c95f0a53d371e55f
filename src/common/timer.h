// Wall-clock timing helper for benches and progress logging.
#pragma once

#include <chrono>

namespace mlqr {

/// Stopwatch measuring wall-clock seconds since construction or reset().
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Elapsed seconds as a double.
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace mlqr
