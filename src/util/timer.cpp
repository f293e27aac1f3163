#include "util/timer.hpp"

#include <atomic>

namespace mpas {

namespace {

std::chrono::steady_clock::time_point process_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

double monotonic_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       process_epoch())
      .count();
}

int thread_short_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace mpas
