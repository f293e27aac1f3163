// Environment fingerprint stamped into every BENCH_<suite>.json and every
// MPAS_PROFILE artifact so a perf number can never be read without knowing
// what produced it: git revision (configure-time, via the MPAS_GIT_SHA
// compile definition), compiler and build flags, host parallelism, the
// machine-model preset the modeled series were computed against, and the
// resolved MPAS_* configuration. Two reports are only comparable as a
// like-for-like perf diff when comparable() holds; bench_compare downgrades
// to structural checks otherwise.
#pragma once

#include <map>
#include <string>

#include "obs/json.hpp"

namespace mpas::bench_harness {

struct EnvFingerprint {
  std::string git_sha;         // "unknown" outside a git checkout
  std::string compiler;        // e.g. "gcc 13.2.0"
  std::string build_type;      // CMAKE_BUILD_TYPE
  std::string flags;           // compiler flags the build used
  std::string os;
  int hardware_threads = 0;
  std::string machine_preset;  // machine-model preset driving modeled series
  int mesh_level = -1;         // -1: bench not tied to one built mesh
  /// Every declared MPAS_* variable with its effective value
  /// (env::resolved()). Empty when read from a file that predates it.
  std::map<std::string, std::string> config;

  /// Same compiler + build type + machine preset: modeled numbers are
  /// expected to agree within floating-point noise.
  [[nodiscard]] bool comparable(const EnvFingerprint& other) const {
    return compiler == other.compiler && build_type == other.build_type &&
           machine_preset == other.machine_preset;
  }

  /// One JSON object, members in declaration order. The one codec both
  /// the bench report and the profile artifact embed.
  [[nodiscard]] std::string to_json() const;
  /// Inverse of to_json; a missing "config" member reads as empty.
  static EnvFingerprint from_json(const obs::json::Value& doc);
};

/// Fingerprint of the running binary (machine_preset/mesh_level left for
/// the bench to fill in).
EnvFingerprint current_fingerprint();

}  // namespace mpas::bench_harness
