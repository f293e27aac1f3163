// Measured pattern-cost profiles as a persistent artifact: what the
// profiler observed, keyed by the environment that produced it — the
// warm-start tuning database of ROADMAP item 4.
//
// A Profile is EnvFingerprint x (mesh level, threads, backend) plus one
// ProfileEntry per (pattern, kernel, device, mesh-level) slot: call count,
// total/min/max and interpolated quantiles of the per-call seconds, the
// machine model's predicted seconds-per-call when known, and aggregated
// hardware counters when perf_event was available. JSON serialization uses
// %.17g doubles and sorted entries, so to_json(from_json(s)) == s holds
// exactly (asserted by tests and the CI profile smoke).
//
// calibrate() closes the loop back into src/machine: per kernel group, the
// ratio of measured to predicted total seconds becomes a correction
// coefficient (machine::Calibration) the model can apply.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_harness/env_fingerprint.hpp"
#include "machine/calibration.hpp"
#include "util/types.hpp"

namespace mpas::obs::profiling {

/// Identity of one profiled code region. `pattern` is the data-flow node
/// label ("A2", "X3"); `kernel` the Algorithm-1 kernel function group;
/// `device` "host" / "accel", the side the schedule ran that part of the
/// node on; `mesh_level` the subdivision level (-1 when unknown). Every
/// SwModel on the same mesh level (serial, pooled, or one rank of a
/// distributed run) records into the same slot per key.
struct ProfileKey {
  std::string pattern;
  std::string kernel;
  std::string device;
  int mesh_level = -1;

  [[nodiscard]] std::string flat() const;  // "pattern|kernel|device|L3"
  [[nodiscard]] bool operator<(const ProfileKey& other) const {
    return flat() < other.flat();
  }
  [[nodiscard]] bool operator==(const ProfileKey& other) const = default;
};

/// Aggregated hardware-counter totals for a slot. `samples` counts how
/// many calls actually carried a counter read (the profiler samples every
/// Nth call); totals are sums over those sampled calls.
struct CounterTotals {
  std::uint64_t samples = 0;
  double cycles = 0;
  double instructions = 0;
  double llc_misses = 0;
  double stalled_cycles = 0;

  [[nodiscard]] double ipc() const {
    return cycles > 0 ? instructions / cycles : 0.0;
  }
};

struct ProfileEntry {
  ProfileKey key;
  std::uint64_t calls = 0;
  double total_s = 0;
  double min_s = 0;
  double max_s = 0;
  double p50_s = 0;
  double p95_s = 0;
  double p99_s = 0;
  /// Machine-model prediction for one call (0 = no prediction wired).
  double predicted_s_per_call = 0;
  CounterTotals counters;

  [[nodiscard]] double mean_s() const {
    return calls > 0 ? total_s / static_cast<double>(calls) : 0.0;
  }
  /// Raw measured-over-predicted ratio (0 when either side is missing).
  /// Machine-dependent: the prediction prices Table-II hardware, the
  /// measurement is this machine — compare *shares* for a scale-free view.
  [[nodiscard]] double drift_ratio() const {
    return predicted_s_per_call > 0 && calls > 0
               ? mean_s() / predicted_s_per_call
               : 0.0;
  }
};

struct Profile {
  bench_harness::EnvFingerprint env;
  int threads = 0;
  std::string backend;  // "serial", "host", "hybrid", ...
  bool counters_available = false;
  std::vector<ProfileEntry> entries;

  /// Entries sorted by key (serialization order; call before comparing).
  void sort_entries();

  /// Canonical JSON (sorted entries, %.17g doubles). Exact round-trip:
  /// Profile::from_json(p.to_json()).to_json() == p.to_json().
  [[nodiscard]] std::string to_json() const;
  static Profile from_json(const std::string& text);
};

/// Write/read a profile file. write returns false (and logs a warning) on
/// I/O failure; read throws util Error on missing/unparsable files.
bool write_profile_file(const Profile& profile, const std::string& path);
Profile read_profile_file(const std::string& path);

/// Corrected machine-model coefficients from measured truth: per kernel
/// group, scale = sum(measured total) / sum(predicted total) over every
/// entry that carries a prediction; default_scale aggregates across all of
/// them. Entries without predictions are ignored; an empty or prediction-
/// free profile yields the identity calibration.
machine::Calibration calibrate(const Profile& profile);

}  // namespace mpas::obs::profiling
