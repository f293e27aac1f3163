// SelfHealingHybrid: the closed loop that ties the pieces of the health
// subsystem together around one SwModel —
//
//   signals   per-step modeled device times, offload transfer retries, and
//             hard transfer escalations feed the HealthMonitor;
//   decision  a changed monitor generation triggers the ReplanEngine, which
//             rebuilds all three step graphs' schedules from the surviving
//             devices' calibrated costs and validates them with the
//             analysis verifier;
//   actuation the validated plan is swapped in at the next step boundary
//             (pool drained, device residency invalidated when the
//             accelerator is quarantined, the model's per-node predictions
//             republished to the profiler), and probation probes go out
//             on the real offload link when the monitor's backoff elapses.
//
// The numerics are schedule-invariant by construction (SwModel reproduces
// the reference integrator bit for bit under any dependency-respecting
// split), so a mid-campaign quarantine/replan/recovery cycle leaves the
// solution bitwise identical to the fault-free run — the property the
// chaos campaigns assert.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "exec/offload.hpp"
#include "exec/thread_pool.hpp"
#include "mesh/mesh.hpp"
#include "resilience/fault.hpp"
#include "resilience/health/monitor.hpp"
#include "resilience/health/replan.hpp"
#include "sw/model.hpp"

namespace mpas::resilience::health {

class SelfHealingHybrid {
 public:
  struct Options {
    HealthPolicy health;
    /// Platform + opt levels used for schedule construction and for the
    /// modeled per-device step times fed back to the monitor.
    core::SimOptions sim{machine::paper_platform()};
    RetryPolicy retry;
    /// Non-owning; faults on the offload link (nullptr = clean link).
    FaultInjector* injector = nullptr;
    std::size_t probe_bytes = std::size_t{1} << 16;
    /// Worker threads for the numerics pool (0 = run inline).
    int threads = 0;
    /// Prefix for the health metrics this instance publishes (e.g.
    /// "service.session7."), so concurrent instances write distinguishable
    /// series. Empty keeps the historical process-global names.
    std::string metric_scope;
  };

  SelfHealingHybrid(const mesh::VoronoiMesh& mesh, sw::SwParams params,
                    Options opts);

  /// Register offload buffers, build + validate the initial hybrid plan,
  /// upload the resident mesh, and initialize the model's diagnostics.
  void initialize();

  /// One RK-4 step under the closed loop (see file comment for the order:
  /// swap pending plan, probe, offload traffic, numerics, feed monitor,
  /// end_step, replan on generation change).
  void step();
  void run(int steps);

  /// Gray-failure hook for chaos campaigns: the returned factor scales the
  /// modeled accelerator step time the monitor observes (the modeled stand-
  /// in for a thermally-throttled or flaky device). Empty = 1.
  void set_accel_slowdown_hook(std::function<Real()> hook) {
    accel_slowdown_hook_ = std::move(hook);
  }

  [[nodiscard]] sw::SwModel& model() { return model_; }
  [[nodiscard]] const sw::SwModel& model() const { return model_; }
  [[nodiscard]] HealthMonitor& monitor() { return monitor_; }
  [[nodiscard]] const ReplanEngine& engine() const { return engine_; }
  [[nodiscard]] exec::OffloadRuntime& offload() { return offload_; }
  [[nodiscard]] std::int64_t step_index() const { return step_; }
  /// Modeled seconds of one full step under the *current* plan
  /// (setup + 3 x early + final makespans).
  [[nodiscard]] Real modeled_step_seconds() const;
  /// Plans swapped in after the initial one.
  [[nodiscard]] int replans() const { return replans_; }
  /// The availability the current plan was built for.
  [[nodiscard]] const DeviceAvailability& availability() const {
    return avail_;
  }
  /// Current per-graph plans (for tests: verifier cleanliness, placement).
  [[nodiscard]] const ReplanResult& setup_plan() const { return current_[0]; }
  [[nodiscard]] const ReplanResult& early_plan() const { return current_[1]; }
  [[nodiscard]] const ReplanResult& final_plan() const { return current_[2]; }

 private:
  [[nodiscard]] DeviceAvailability current_availability() const;
  /// Replan all three graphs under `avail`; returns true when every plan
  /// passed verification (only then may the caller swap).
  bool replan_all(const DeviceAvailability& avail, ReplanResult out[3]) const;
  void swap_in(ReplanResult plans[3], const DeviceAvailability& avail);
  void offload_step_traffic();
  [[nodiscard]] bool plan_uses_accel() const;

  const mesh::VoronoiMesh& mesh_;
  Options opts_;
  sw::SwModel model_;
  std::unique_ptr<exec::ThreadPool> pool_;
  exec::OffloadRuntime offload_;
  HealthMonitor monitor_;
  ReplanEngine engine_;

  exec::BufferId buf_mesh_ = -1;
  exec::BufferId buf_state_ = -1;
  exec::BufferId buf_halo_ = -1;

  ReplanResult current_[3];  // setup / early / final
  ReplanResult pending_[3];
  bool pending_valid_ = false;
  DeviceAvailability avail_;
  DeviceAvailability pending_avail_;

  std::int64_t step_ = 0;
  int replans_ = 0;
  std::uint64_t seen_generation_ = 0;
  std::uint64_t seen_retries_ = 0;
  std::function<Real()> accel_slowdown_hook_;
};

}  // namespace mpas::resilience::health
