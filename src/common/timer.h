#ifndef XCRYPT_COMMON_TIMER_H_
#define XCRYPT_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace xcrypt {

/// Monotonic stopwatch for wall-clock intervals: hosting, daemon
/// housekeeping, benchmarks. A query's phases reach QueryCosts only as
/// obs::Trace spans.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Microseconds since construction or the last Restart().
  double ElapsedMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - start_)
        .count();
  }

  double ElapsedMillis() const { return ElapsedMicros() / 1000.0; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace xcrypt

#endif  // XCRYPT_COMMON_TIMER_H_
