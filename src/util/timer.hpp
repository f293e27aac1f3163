// Wall-clock primitives: the process-wide monotonic clock, short thread
// ids, and a stopwatch. Named, accumulated timings live in
// obs::profiling::PerfProfiler (per-kernel slots, and trace spans when the
// tracer is on); this header only reads the clock.
#pragma once

#include <chrono>

namespace mpas {

/// Seconds since the process-wide monotonic epoch (fixed at first use).
/// The logger and the trace recorder both stamp with this clock, so log
/// lines and Chrome-trace timestamps line up on one timeline.
double monotonic_seconds();

/// Small dense id for the calling thread (0 for the first thread that asks,
/// then 1, 2, ...). Stable for the thread's lifetime; used to correlate log
/// lines with trace lanes.
int thread_short_id();

class WallTimer {
 public:
  WallTimer() { reset(); }

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mpas
