// Low-overhead tracing substrate shared by every layer of the stack.
//
// A TraceRecorder collects timestamped events — scoped spans, instants, and
// counter samples — into per-thread buffers (one uncontended mutex each, so
// recording never serializes the pool workers against each other). Events
// carry a (track, lane) address in Chrome-trace terms (pid, tid): track 0
// is the *measured* process (lanes are real threads), further tracks are
// allocated for *modeled* timelines (schedule_sim lanes: host / accel /
// PCIe / network, see core/trace_bridge). One exported file therefore
// overlays predicted and actual schedules.
//
// Overhead discipline: every instrumentation site first reads one relaxed
// atomic (enabled()); with tracing off that is the entire cost, asserted
// against a < 2% budget by tests/test_obs.cpp. String formatting for names
// and args happens only on the enabled path.
//
// Zero-code-change capture: if the MPAS_TRACE environment variable names a
// file, the global recorder starts enabled and the Chrome-trace JSON is
// written at process exit — any test, bench, or example emits a trace.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/annotations.hpp"
#include "util/lock_ranks.hpp"
#include "util/mutex.hpp"

namespace mpas::obs {

/// The measured process: lanes are real threads, timestamps wall-clock.
inline constexpr int kMeasuredTrack = 0;

struct TraceEvent {
  enum class Kind : std::uint8_t { Complete, Instant, Counter };
  Kind kind = Kind::Complete;
  std::string name;
  std::string args;    // pre-rendered JSON object members, may be empty
  double ts_us = 0;    // microseconds on the track's timeline
  double dur_us = 0;   // Complete only
  double value = 0;    // Counter only
  int track = kMeasuredTrack;  // Chrome-trace pid
  int lane = 0;                // Chrome-trace tid
};

class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The process-wide recorder behind the MPAS_TRACE_* macros. Created on
  /// first use; honours the MPAS_TRACE environment variable (see above).
  static TraceRecorder& global();

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Microseconds on the shared monotonic timeline (util monotonic_seconds
  /// epoch — the same clock the logger stamps with).
  [[nodiscard]] double now_us() const;

  // ---- recording on the calling thread's measured lane -----------------
  void complete(std::string name, double ts_us, double dur_us,
                std::string args = {});
  void instant(std::string name, std::string args = {});
  void counter(std::string name, double value);

  /// Label the calling thread's lane ("pool-worker-3", "rank-1", ...).
  void set_thread_name(std::string name);

  // ---- explicit-address recording (modeled timelines) ------------------
  /// Reserve a fresh track (Chrome pid) with the given display name.
  int allocate_track(std::string name);
  void set_lane_name(int track, int lane, std::string name);
  /// Record an event with an explicit (track, lane) address.
  void record(TraceEvent event);

  // ---- inspection / export ---------------------------------------------
  /// All events merged across threads, sorted by (track, ts).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  [[nodiscard]] std::size_t event_count() const;

  struct TrackInfo {
    int track = 0;
    std::string name;
  };
  struct LaneInfo {
    int track = 0;
    int lane = 0;
    std::string name;
  };
  [[nodiscard]] std::vector<TrackInfo> tracks() const;
  [[nodiscard]] std::vector<LaneInfo> lanes() const;

  /// Drop all recorded events (track/lane registrations survive).
  void clear();

 private:
  struct ThreadBuffer {
    // Uncontended except during snapshot/clear; ranked above the registry
    // mutex because snapshot() nests registry -> buffer.
    mutable util::Mutex mutex{"obs.trace_buffer",
                              util::lockrank::kTraceBuffer};
    std::vector<TraceEvent> events MPAS_GUARDED_BY(mutex);
    int lane = 0;  // write-once at registration, read-only afterwards
  };

  ThreadBuffer& local_buffer() MPAS_EXCLUDES(registry_mutex_);

  const std::uint64_t id_;  // process-unique, for the thread-local cache
  std::atomic<bool> enabled_{false};

  mutable util::Mutex registry_mutex_{"obs.trace_registry",
                                      util::lockrank::kTraceRegistry};
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_
      MPAS_GUARDED_BY(registry_mutex_);
  ThreadBuffer shared_;  // explicit-address events (record())
  int next_track_ MPAS_GUARDED_BY(registry_mutex_) = kMeasuredTrack + 1;
  std::vector<TrackInfo> tracks_ MPAS_GUARDED_BY(registry_mutex_);
  std::vector<LaneInfo> lanes_ MPAS_GUARDED_BY(registry_mutex_);
};

// ---- environment/file session ---------------------------------------------

/// Enable the global recorder and arrange for the Chrome-trace JSON to be
/// written to `path` at process exit (and on write_trace_now()). Called
/// automatically when MPAS_TRACE is set; examples call it for their
/// `trace=` config switch.
void start_trace_file(std::string path);

/// Path of the active trace session ("" when none).
std::string trace_file_path();

/// Flush the global recorder to the session file immediately. No-op
/// without an active session.
void write_trace_now();

// ---- RAII span --------------------------------------------------------------

class TraceSpan {
 public:
  TraceSpan() = default;  // inert
  TraceSpan(TraceRecorder& rec, const char* name)
      : rec_(rec.enabled() ? &rec : nullptr) {
    if (rec_ != nullptr) {
      name_ = name;
      start_us_ = rec_->now_us();
    }
  }
  TraceSpan(TraceRecorder& rec, std::string name)
      : rec_(rec.enabled() ? &rec : nullptr) {
    if (rec_ != nullptr) {
      name_ = std::move(name);
      start_us_ = rec_->now_us();
    }
  }
  ~TraceSpan() {
    if (rec_ != nullptr)
      rec_->complete(std::move(name_), start_us_, rec_->now_us() - start_us_,
                     std::move(args_));
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// True when the span is actually recording — guard arg formatting.
  [[nodiscard]] bool active() const { return rec_ != nullptr; }
  /// Attach pre-rendered JSON members ("\"bytes\":42,\"dir\":\"up\"").
  void set_args(std::string json_members) {
    if (rec_ != nullptr) args_ = std::move(json_members);
  }

 private:
  TraceRecorder* rec_ = nullptr;
  std::string name_;
  std::string args_;
  double start_us_ = 0;
};

// ---- args helpers -----------------------------------------------------------

/// JSON-escape a string (quotes, backslashes, control characters).
std::string json_escape(const std::string& text);
/// The one JSON number format: the shortest text that reads back to the
/// same double bit for bit (std::to_chars). JSON has no NaN or Inf;
/// non-finite values render as 0.
std::string json_number(double value);

std::string trace_arg(const char* key, double value);
std::string trace_arg(const char* key, std::int64_t value);
std::string trace_arg(const char* key, std::uint64_t value);
std::string trace_arg(const char* key, const std::string& value);
std::string trace_arg(const char* key, const char* value);

}  // namespace mpas::obs

// ---- macros -----------------------------------------------------------------

#define MPAS_OBS_CONCAT_IMPL(a, b) a##b
#define MPAS_OBS_CONCAT(a, b) MPAS_OBS_CONCAT_IMPL(a, b)

/// Scoped span on the global recorder: MPAS_TRACE_SCOPE("distributed:step").
/// `name` may be a literal or a std::string expression; a std::string is
/// only constructed after the enabled check when passed as a literal.
#define MPAS_TRACE_SCOPE(name)                              \
  ::mpas::obs::TraceSpan MPAS_OBS_CONCAT(mpas_trace_span_,  \
                                         __LINE__)(         \
      ::mpas::obs::TraceRecorder::global(), name)

/// Instant event on the global recorder (cheap enabled check first).
#define MPAS_TRACE_INSTANT(name)                                   \
  do {                                                             \
    auto& mpas_trace_rec_ = ::mpas::obs::TraceRecorder::global();  \
    if (mpas_trace_rec_.enabled()) mpas_trace_rec_.instant(name);  \
  } while (0)

#define MPAS_TRACE_INSTANT_ARGS(name, args)                              \
  do {                                                                   \
    auto& mpas_trace_rec_ = ::mpas::obs::TraceRecorder::global();        \
    if (mpas_trace_rec_.enabled()) mpas_trace_rec_.instant(name, args);  \
  } while (0)

/// Counter sample on the global recorder.
#define MPAS_TRACE_COUNTER(name, value)                                   \
  do {                                                                    \
    auto& mpas_trace_rec_ = ::mpas::obs::TraceRecorder::global();         \
    if (mpas_trace_rec_.enabled()) mpas_trace_rec_.counter(name, value);  \
  } while (0)
