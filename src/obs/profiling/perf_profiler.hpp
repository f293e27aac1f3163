// PerfProfiler: always-on streaming collection of measured per-(pattern,
// kernel, device, mesh-level) kernel costs — the measured counterpart of
// everything the machine model predicts.
//
// Design rules, in the MetricsRegistry Counter* idiom:
//   * hot paths pre-resolve a ProfileHandle once (one registry mutex
//     acquisition), then every ProfileScope costs two clock reads plus a
//     handful of relaxed atomics — no map lookup, no string formatting;
//   * ProfileScope is the one timing scope: when the global TraceRecorder
//     is also on, it records its region as a complete span named after
//     the slot ("kernel:<kernel>/<pattern>@<device>", built once when the
//     slot is created), from the same two clock reads;
//   * disabled (the default without MPAS_PROFILE) the entire per-scope
//     cost is one relaxed atomic load, the same discipline the tracer and
//     event log follow; the <2% steady-state budget is asserted by
//     tests/test_profiling.cpp on the *enabled* path;
//   * per-call durations stream into the PR-7 log-scale Histogram (in
//     microseconds), so quantiles come for free and two profiles merge
//     bucket-by-bucket;
//   * every sample_every-th call through a slot additionally brackets the
//     region with the thread-local hardware-counter group (cycles,
//     instructions, LLC misses, stalled cycles), turning bench-only
//     roofline attribution into live achieved-vs-peak — silently skipped
//     when perf_event is unavailable (containers/CI).
//
// Zero-code-change capture: MPAS_PROFILE=<file> enables the global
// profiler and writes the ProfileStore JSON (and, when a trace session is
// also active, the measured-vs-modeled overlay track) at process exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/profiling/hw_counters.hpp"
#include "obs/profiling/profile_store.hpp"
#include "util/annotations.hpp"
#include "util/lock_ranks.hpp"
#include "util/mutex.hpp"
#include "util/timer.hpp"

namespace mpas::obs {
class TraceRecorder;
}

namespace mpas::obs::profiling {

class PerfProfiler;

/// Pre-resolved pointer to one profiled slot; cheap to copy, valid for the
/// owning profiler's lifetime. Default-constructed handles are inert.
class ProfileHandle {
 public:
  ProfileHandle() = default;
  [[nodiscard]] bool valid() const { return slot_ != nullptr; }

 private:
  friend class PerfProfiler;
  friend class ProfileScope;
  struct Slot;
  explicit ProfileHandle(Slot* slot) : slot_(slot) {}
  Slot* slot_ = nullptr;
};

class PerfProfiler {
 public:
  /// The process-wide profiler behind the MPAS_PROFILE hook.
  static PerfProfiler& global();

  PerfProfiler() = default;
  PerfProfiler(const PerfProfiler&) = delete;
  PerfProfiler& operator=(const PerfProfiler&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Sample hardware counters every Nth call per slot (default 16;
  /// 0 disables counter sampling entirely).
  void set_sample_every(std::uint32_t n) {
    sample_every_.store(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// Find-or-create the slot for `key`; the handle stays valid for the
  /// profiler's lifetime. Resolve once, outside the hot loop.
  ProfileHandle handle(const ProfileKey& key);

  /// Attach the machine model's prediction for one call through the slot
  /// (what ModelDriftMonitor and the profile artifact compare against).
  void set_prediction(const ProfileKey& key, double seconds_per_call);

  /// Number of recorded calls through `h` (0 for invalid handles).
  [[nodiscard]] std::uint64_t calls(const ProfileHandle& h) const;
  /// Accumulated measured seconds through `h`.
  [[nodiscard]] double total_seconds(const ProfileHandle& h) const;

  /// Snapshot everything into a persistable Profile. `backend` and
  /// `threads` annotate the artifact; env is stamped from
  /// bench_harness::current_fingerprint() (mesh_level left as passed).
  [[nodiscard]] Profile to_profile(const std::string& backend, int threads,
                                   int mesh_level = -1) const;

  /// Drop all recorded data (slots and handles stay valid).
  void reset();

 private:
  friend class ProfileScope;

  ProfileHandle::Slot* find_or_create(const ProfileKey& key);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> sample_every_{16};
  mutable util::Mutex mutex_{"obs.profiler", util::lockrank::kPerfProfiler};
  std::map<std::string, std::unique_ptr<ProfileHandle::Slot>> slots_
      MPAS_GUARDED_BY(mutex_);
};

/// One profiled slot. All fields past `key` are relaxed atomics so the
/// record path never takes a lock (the registry mutex only guards the
/// slot map's structure).
struct ProfileHandle::Slot {
  ProfileKey key;
  std::string span_name;  // trace span name, fixed when the slot is made
  Histogram micros;  // per-call duration in microseconds
  std::atomic<std::uint64_t> calls{0};
  std::atomic<double> total_s{0};
  std::atomic<double> min_s{0};
  std::atomic<double> max_s{0};
  std::atomic<double> predicted_s{0};  // per call; 0 = unknown
  // Hardware-counter aggregates over the sampled calls.
  std::atomic<std::uint64_t> counter_samples{0};
  std::atomic<double> cycles{0};
  std::atomic<double> instructions{0};
  std::atomic<double> llc_misses{0};
  std::atomic<double> stalled_cycles{0};

  void record(double seconds);
  void add_counters(const HwCounterSample& s);
};

/// RAII measurement of one region against a pre-resolved handle. With the
/// profiler disabled construction is one relaxed load; enabled, it is a
/// steady-clock read at each end plus the slot's atomic accumulation, and
/// on sampled calls a hardware-counter bracket. With the global tracer
/// also enabled, the region is recorded as a span named after the slot.
class ProfileScope {
 public:
  ProfileScope(PerfProfiler& profiler, const ProfileHandle& handle);
  ~ProfileScope();

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  [[nodiscard]] bool active() const { return slot_ != nullptr; }

 private:
  ProfileHandle::Slot* slot_ = nullptr;
  TraceRecorder* tracer_ = nullptr;  // non-null: also record a span
  bool sampling_ = false;
  double start_s_ = 0;
};

// ---- environment/file session ---------------------------------------------

/// Enable the global profiler and arrange for its ProfileStore JSON to be
/// written to `path` at process exit (and on write_profile_now()). When a
/// trace session is active at exit, the measured-vs-modeled overlay track
/// is recorded into it first. Called automatically when MPAS_PROFILE is
/// set.
void start_profile_file(std::string path);

/// Path of the active profile session ("" when none).
std::string profile_file_path();

/// Flush the global profiler to the session file immediately. No-op
/// without an active session.
void write_profile_now();

}  // namespace mpas::obs::profiling
