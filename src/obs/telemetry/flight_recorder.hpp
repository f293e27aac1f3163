// Per-session flight recorder: a fixed-size ring of the service facts that
// explain a session's fate — admission verdict with its arithmetic,
// every retry/backoff, health transitions observed while the session ran,
// replan swaps, cancellation and deadline checks. The ring holds the same
// WideEvents the event log writes (see event_log.hpp); recording is O(1),
// and while a session is healthy the recorder produces no output at all.
//
// The payoff is the dump: on terminal failure, quarantine involvement, or
// MPAS_FLIGHT_DUMP=all, the ring is written as one JSONL file — the black
// box that makes "why did session 7 die at step 4000?" answerable after
// the process has moved on. Its first line is the `flight_dump` fact
// (trigger, path, the resolved MPAS_* configuration, capacity, recorded,
// dropped); the held facts follow,
// oldest first, each byte-identical to its event-log line, so obs_query
// reads a dump like any event log. FlightDumpPolicy holds the env grammar:
//
//   MPAS_FLIGHT_DUMP unset     -> disarmed (no dumps ever)
//   MPAS_FLIGHT_DUMP=all       -> dump every session into ./flight_dumps
//   MPAS_FLIGHT_DUMP=all:<dir> -> dump every session into <dir>
//   MPAS_FLIGHT_DUMP=<dir>     -> dump failures/quarantines into <dir>
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/telemetry/event_log.hpp"
#include "util/annotations.hpp"
#include "util/lock_ranks.hpp"
#include "util/mutex.hpp"

namespace mpas::obs::telemetry {

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Append one fact; overwrites the oldest once the ring is full.
  void record(WideEvent fact);

  /// Facts currently held, oldest first.
  [[nodiscard]] std::vector<WideEvent> events() const;
  /// Total facts ever recorded (including overwritten ones).
  [[nodiscard]] std::uint64_t recorded() const;
  /// Facts currently held (<= capacity).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// How many held facts are of `kind`.
  [[nodiscard]] std::size_t count(const std::string& kind) const;

  /// Add the ring's `capacity`, `recorded` and `dropped` to `header`, then
  /// write it and every held fact, oldest first, one to_jsonl line each.
  /// Counts and facts come from one snapshot. False when the file cannot
  /// be written.
  bool dump_to_file(const std::string& path, WideEvent& header) const;

 private:
  [[nodiscard]] std::vector<WideEvent> held_locked() const
      MPAS_REQUIRES(mutex_);

  std::size_t capacity_;
  mutable util::Mutex mutex_{"obs.flight_recorder",
                             util::lockrank::kFlightRecorder};
  std::vector<WideEvent> ring_ MPAS_GUARDED_BY(mutex_);
  std::size_t head_ MPAS_GUARDED_BY(mutex_) = 0;  // next slot once full
  std::uint64_t recorded_ MPAS_GUARDED_BY(mutex_) = 0;
};

struct FlightDumpPolicy {
  bool dump_all = false;
  std::string dir;  // empty = disarmed

  [[nodiscard]] bool armed() const { return !dir.empty(); }
  /// True when a session with the given fate should be dumped.
  [[nodiscard]] bool should_dump(bool failed, bool quarantine_involved)
      const {
    return armed() && (dump_all || failed || quarantine_involved);
  }

  /// Parse MPAS_FLIGHT_DUMP per the grammar in the header comment.
  [[nodiscard]] static FlightDumpPolicy from_env();
  [[nodiscard]] static FlightDumpPolicy parse(const std::string& spec);
};

}  // namespace mpas::obs::telemetry
