// Admission control for the session service.
//
// Every request is priced in *modeled* seconds before it touches a mesh:
// the three step graphs are built structure-only once, scheduled at the
// request's icosahedral entity counts with the same pattern-level
// scheduler the runs use, and one step's makespans (setup + 3 early +
// final), plus the modeled output transfers, are multiplied out to the
// full run. The price is deterministic, so every admission verdict is too.
//
// Capacity is a budget of outstanding (queued + running) modeled seconds.
// Tenants get weighted guaranteed shares of it; spare capacity is lent
// work-conservingly, and borrowed queue slots are the first reclaimed
// when an under-guarantee tenant shows up. The full overload ladder, most
// polite rung first:
//
//   backpressure -> fit within guarantee -> borrow spare -> reclaim
//   borrowed slots -> shed lower-priority queued work -> degrade fidelity
//   (coarser level, halved output cadence) -> reject with reason
//
// A verdict depends only on the request and the load snapshot in
// AdmissionInput. SLO attainment is not an input: it is judged offline
// from the fact log (service::fold_slo), never fed back into the ladder.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/schedule.hpp"
#include "machine/machine_model.hpp"
#include "service/request.hpp"
#include "util/annotations.hpp"
#include "util/lock_ranks.hpp"
#include "util/mutex.hpp"

namespace mpas::service {

/// Modeled cost of a request (memoized per mesh level; thread-safe).
class CostModel {
 public:
  explicit CostModel(core::SimOptions sim = core::SimOptions{
                         machine::paper_platform()});

  /// Modeled seconds of one RK-4 step at `mesh_level` under the
  /// pattern-level hybrid schedule.
  [[nodiscard]] Real step_seconds(int mesh_level) const;
  /// Modeled seconds of one output write: the state download over the
  /// platform link (H on cells + U on edges).
  [[nodiscard]] Real output_seconds(int mesh_level) const;
  /// Full-run price: steps + the outputs its cadence implies.
  [[nodiscard]] Real price(const SessionRequest& request) const;

 private:
  struct LevelCost {
    Real step_seconds = 0;
    Real output_seconds = 0;
  };
  [[nodiscard]] const LevelCost& level_cost(int mesh_level) const
      MPAS_EXCLUDES(mutex_);

  core::SimOptions sim_;
  mutable util::Mutex mutex_{"service.cost_model",
                             util::lockrank::kAdmission};
  mutable std::map<int, LevelCost> cache_ MPAS_GUARDED_BY(mutex_);
};

struct AdmissionPolicy {
  /// Outstanding (queued + running) modeled seconds the service accepts.
  Real capacity_modeled_s = 1.0;
  /// Backpressure bound: queued sessions per tenant before submits bounce.
  std::size_t max_queued_per_tenant = 16;
  /// Degraded-fidelity floor: never coarsen below this level.
  int degrade_min_level = 1;
};

/// A queued session the controller may evict to make room.
struct ShedCandidate {
  std::uint64_t id = 0;
  std::string tenant;
  int priority = 0;
  Real cost = 0;
  bool borrowed = false;   // admitted above its tenant's guarantee
  std::uint64_t seq = 0;   // submission order; youngest evicted first
};

/// Everything the controller needs to know about the current load; the
/// SessionManager snapshots this under its own lock.
struct AdmissionInput {
  Real outstanding_total = 0;
  std::map<std::string, Real> outstanding_by_tenant;
  std::size_t queued_of_tenant = 0;
  std::vector<ShedCandidate> queued;
};

/// A queued session the verdict evicts, with both reason forms.
struct ShedOutcome {
  std::uint64_t id = 0;
  std::string reason;
  ReasonCode code = ReasonCode::None;
};

struct AdmissionOutcome {
  enum class Action { Admit, AdmitDegraded, Reject } action = Action::Reject;
  /// The request as it will actually run (degraded fields rewritten).
  SessionRequest effective;
  Real cost = 0;
  bool borrowed = false;
  std::string reason;
  ReasonCode reason_code = ReasonCode::None;
  /// Queued sessions evicted to make room, each with its explicit reason.
  std::vector<ShedOutcome> shed;
};

class AdmissionController {
 public:
  AdmissionController(AdmissionPolicy policy, const CostModel* costs);

  /// Declare a tenant's scheduling weight (default 1). Guaranteed share =
  /// capacity * weight / sum of weights over declared tenants.
  void set_tenant_weight(const std::string& tenant, Real weight);
  [[nodiscard]] Real tenant_weight(const std::string& tenant) const;
  /// The tenant's guaranteed modeled-seconds budget under current weights.
  [[nodiscard]] Real tenant_budget(const std::string& tenant) const;

  /// Walk the overload ladder. Pure decision: the caller applies the
  /// outcome (enqueue, mark shed sessions, update accounting).
  [[nodiscard]] AdmissionOutcome decide(const SessionRequest& request,
                                        const AdmissionInput& input) const;

  [[nodiscard]] const AdmissionPolicy& policy() const { return policy_; }

 private:
  AdmissionPolicy policy_;
  const CostModel* costs_;
  std::map<std::string, Real> weights_;
};

}  // namespace mpas::service
