// Structured wide-event log: one JSONL line per service fact — each
// decision and session state change — under one fixed schema, so CI
// scripts and humans query the service's behaviour the same way
// (examples/obs_query).
//
//   {"ts":<monotonic s>,"tenant":"gold","session":7,"kind":"admit",
//    "attrs":{...}}
//
// WideEvent is the one record of a service fact and to_jsonl its one
// format. The event log, the session journal (an append-mode EventLog),
// the per-session flight ring and its dumps all hold and write the same
// WideEvent, so one parser reads every one of them.
//
// `ts` is the shared monotonic timeline every other observability layer
// stamps with (logger lines, Chrome-trace timestamps), so an event-log
// line, a log line, and a trace instant for the same decision line up.
// `attrs` carries the fact's payload as typed values, appended with the
// add() overloads and nested under one key in the line so attr names can
// never collide with the envelope schema. They are rendered only when a
// sink writes text, so a fact that reaches only a flight ring formats
// nothing. Doubles render through obs::json_number, so every attr reads
// back to the bits it was built from.
//
// Zero-code-change capture, mirroring MPAS_TRACE/MPAS_METRICS: if the
// MPAS_EVENTS environment variable names a file, the global log opens it
// on first use and every instrumented layer appends. Each line is flushed
// as written — the log is a postmortem artifact and must survive a crash.
//
// Overhead discipline: enabled() is one relaxed atomic load.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <fstream>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "util/annotations.hpp"
#include "util/lock_ranks.hpp"
#include "util/mutex.hpp"

namespace mpas::obs::telemetry {

/// One typed attr of a fact.
struct Attr {
  const char* key;  // a string literal: it must outlive the fact
  std::variant<double, std::int64_t, std::uint64_t, bool, std::string> value;
};

/// One service fact. `ts_s < 0` means "stamp me at emit time".
struct WideEvent {
  double ts_s = -1;
  std::string tenant;          // may be empty for service-scope events
  std::uint64_t session = 0;   // 0 = not tied to one session
  std::string kind;
  std::vector<Attr> attrs;     // in add() order, may be empty

  WideEvent() = default;
  WideEvent(std::string kind_, std::string tenant_, std::uint64_t session_)
      : tenant(std::move(tenant_)),
        session(session_),
        kind(std::move(kind_)) {}

  /// Append one attr; `key` must be a string literal. It renders as a
  /// `"key":value` member: a bool as a JSON bool, a string JSON-escaped,
  /// a double through obs::json_number.
  WideEvent& add(const char* key, double value) &;
  WideEvent& add(const char* key, std::int64_t value) &;
  WideEvent& add(const char* key, std::uint64_t value) &;
  WideEvent& add(const char* key, bool value) &;
  WideEvent& add(const char* key, std::string value) &;
  WideEvent& add(const char* key, const char* value) &;
  /// Every other integer type widens to 64 bits.
  template <std::integral T>
  WideEvent& add(const char* key, T value) & {
    if constexpr (std::is_signed_v<T>) {
      return add(key, static_cast<std::int64_t>(value));
    } else {
      return add(key, static_cast<std::uint64_t>(value));
    }
  }
  /// On a temporary the chain stays a temporary, so
  /// `record_fact(WideEvent(...).add(...))` moves the fact into its sinks
  /// instead of copying it.
  template <typename T>
  WideEvent&& add(const char* key, T&& value) && {
    return std::move(add(key, std::forward<T>(value)));
  }
};

class EventLog {
 public:
  /// Truncate: one run's log. Append: the session journal, whose history
  /// spans process restarts.
  enum class Mode { Truncate, Append };

  EventLog() = default;
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// The process-wide log the service layers emit into. Opens the file
  /// named by MPAS_EVENTS (if any) on the first call.
  static EventLog& global();

  /// Open `path` and start accepting events. Replaces any previously open
  /// sink.
  void open(const std::string& path, Mode mode = Mode::Truncate);
  /// Flush and stop accepting events.
  void close();

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Append one event (no-op while disabled). Stamps `ts_s` with the
  /// shared monotonic clock when the caller left it negative; each line
  /// is flushed immediately.
  void emit(const WideEvent& event);

  /// Convenience overload taking attrs already rendered as JSON members.
  void emit(const std::string& kind, const std::string& tenant,
            std::uint64_t session, const std::string& attrs = {});

  [[nodiscard]] std::string path() const;
  [[nodiscard]] std::uint64_t events_written() const;

 private:
  void write_line(const std::string& line);

  std::atomic<bool> enabled_{false};
  // Leaf-rank mutex that exists to serialize the JSONL sink; the one
  // blocking write under it (emit) is the log's entire purpose.
  mutable util::Mutex mutex_{"obs.event_log", util::lockrank::kEventLog};
  std::ofstream out_ MPAS_GUARDED_BY(mutex_);
  std::string path_ MPAS_GUARDED_BY(mutex_);
  std::uint64_t written_ MPAS_GUARDED_BY(mutex_) = 0;
};

/// Render one event as its JSONL line (no trailing newline).
std::string to_jsonl(const WideEvent& event);
/// Render `event.attrs` as JSON members, `"k":v,...` without braces: what
/// to_jsonl nests under "attrs", and what a trace instant takes as args.
std::string attrs_json(const WideEvent& event);

}  // namespace mpas::obs::telemetry
