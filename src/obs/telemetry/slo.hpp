// Per-tenant service-level objectives as rolling windows with error
// budgets and burn rates.
//
// Each (tenant, dimension) pair keeps a ring of the last `window` boolean
// outcomes ("did this sample meet the objective"). Attainment is the
// success fraction over that window; the error budget is 1 - target; and
//
//   burn_rate = (1 - attainment) / (1 - target)
//
// so burn < 1 means the tenant is inside its budget, 1 means it burns
// exactly as fast as the budget refills, and >1 means the objective will
// be breached if nothing changes. The four dimensions mirror the service
// contract: admission-decision latency, deadline misses, degraded-fidelity
// admissions, and session errors.
//
// The tracker is pure bookkeeping — thread-safe, deterministic, no
// metrics or I/O — so admission control can consume burn rates directly
// (a tenant burning its budget gets guarantee-priority before borrowers)
// and the SessionManager decides what to publish. Recording is O(1).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/annotations.hpp"
#include "util/lock_ranks.hpp"
#include "util/mutex.hpp"
#include "util/types.hpp"

namespace mpas::obs::telemetry {

enum class SloDimension : int {
  AdmissionLatency = 0,  // admission decision within the wall-time budget
  DeadlineMiss = 1,      // session ran and did not time out
  DegradedFidelity = 2,  // admitted at full fidelity
  ErrorRate = 3,         // session ran and did not fail
};

inline constexpr int kSloDimensions = 4;

const char* to_string(SloDimension dimension);

struct SloPolicy {
  /// Rolling-window length in samples per (tenant, dimension).
  std::size_t window = 64;
  /// Attainment targets per dimension (indexed by SloDimension).
  std::array<Real, kSloDimensions> target = {0.95, 0.95, 0.90, 0.95};
  /// Wall-clock budget for one admission decision (the latency SLO's
  /// per-sample pass/fail threshold).
  Real admission_latency_budget_us = 250000;
};

/// What one record() call did to the window it landed in.
struct SloSample {
  Real attainment = 1;
  Real burn_rate = 0;
  /// True when this sample moved (or kept) attainment below target —
  /// the edge the caller records as an slo_breach fact.
  bool breach = false;
};

class SloTracker {
 public:
  explicit SloTracker(SloPolicy policy = {});

  /// Fold one outcome into the tenant's rolling window. O(1).
  SloSample record(const std::string& tenant, SloDimension dimension,
                   bool ok);

  /// Success fraction over the current window (1 when empty).
  [[nodiscard]] Real attainment(const std::string& tenant,
                                SloDimension dimension) const;
  /// Error-budget burn rate over the current window (0 when empty).
  [[nodiscard]] Real burn_rate(const std::string& tenant,
                               SloDimension dimension) const;
  /// Max burn rate across all dimensions — the admission ladder input.
  [[nodiscard]] Real worst_burn_rate(const std::string& tenant) const;
  [[nodiscard]] std::uint64_t samples(const std::string& tenant,
                                      SloDimension dimension) const;
  [[nodiscard]] std::vector<std::string> tenants() const;
  [[nodiscard]] const SloPolicy& policy() const { return policy_; }

 private:
  struct Window {
    std::vector<char> ring;  // 1 = ok; sized lazily to policy.window
    std::size_t head = 0;
    std::size_t count = 0;
    std::size_t successes = 0;
  };

  // Helpers assume mutex_ is held.
  [[nodiscard]] Real attainment_of(const Window& w) const
      MPAS_REQUIRES(mutex_);
  [[nodiscard]] Real burn_of(const Window& w, SloDimension d) const
      MPAS_REQUIRES(mutex_);

  SloPolicy policy_;
  mutable util::Mutex mutex_{"obs.slo", util::lockrank::kSlo};
  std::map<std::string, std::array<Window, kSloDimensions>> tenants_
      MPAS_GUARDED_BY(mutex_);
};

}  // namespace mpas::obs::telemetry
