// Trace-side rendering of a measured profile: one extra track in the
// Chrome-trace export with the measured per-pattern cost, the machine
// model's prediction, and their divergence on adjacent lanes — so a single
// Perfetto file answers "where does the model disagree with reality".
//
// The comparison is *share-normalized* (each side divided by its own
// total) because predictions price Table-II hardware while measurements
// come from the build machine: absolute ratios carry the machine-speed
// difference, shares isolate the operation-mix disagreement — the same
// comparison bench/model_validation makes per kernel group.
#pragma once

#include <string>
#include <vector>

#include "obs/profiling/profile_store.hpp"
#include "obs/trace.hpp"

namespace mpas::obs::profiling {

/// Share-normalized measured-vs-predicted comparison for one entry. Both
/// shares are taken over the predicted entries only (the same universe),
/// so unpredicted slots — typically nested scopes double-counting the same
/// wall time — cannot skew the comparison.
struct ShareDrift {
  ProfileKey key;
  double measured_share = 0;   // entry mean / sum of predicted entries' means
  double predicted_share = 0;  // entry prediction / sum of predictions
  /// measured_share / predicted_share (0 when the entry lacks either side).
  double ratio = 0;
  /// Symmetric divergence max(ratio, 1/ratio) >= 1; 1 = perfect agreement.
  [[nodiscard]] double divergence() const {
    return ratio > 0 ? (ratio >= 1 ? ratio : 1.0 / ratio) : 1.0;
  }
};

/// Per-entry share drift over every entry with calls > 0. Entries without
/// predictions appear with every field zero (nothing to compare).
std::vector<ShareDrift> share_drift(const Profile& profile);

/// Worst symmetric share divergence across the profile (1 when no entry
/// carries a prediction — nothing to diverge from).
double worst_share_drift(const Profile& profile);

/// Record the measured-vs-modeled overlay as a fresh track on `recorder`:
/// lane 0 the measured per-call mean, lane 1 the predicted per-call cost,
/// lane 2 a drift-ratio counter series (share-normalized). Entries are
/// laid out sequentially; returns the allocated track id.
int record_profile_overlay(const Profile& profile, TraceRecorder& recorder,
                           const std::string& track_name);

}  // namespace mpas::obs::profiling
