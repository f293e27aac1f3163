#include "resilience/health/hybrid.hpp"

#include <algorithm>

#include "analysis/lock_order.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace mpas::resilience::health {

SelfHealingHybrid::SelfHealingHybrid(const mesh::VoronoiMesh& mesh,
                                     sw::SwParams params, Options opts)
    : mesh_(mesh),
      opts_(opts),
      model_(mesh, params),
      offload_(opts.sim.platform.link, exec::TransferPolicy::ResidentMesh,
               // Capacity is not under test here; size it to fit with room.
               2 * (mesh.mesh_data_bytes() + std::size_t{64} * 1024 * 1024)),
      monitor_(opts.health),
      engine_(core::MeshSizes{mesh.num_cells, mesh.num_edges,
                              mesh.num_vertices},
              opts.sim) {
  // Arm the lock-order detector when MPAS_LOCK_CHECK=1 (idempotent).
  analysis::LockOrderRegistry::install_from_env();
  monitor_.set_metric_scope(opts_.metric_scope);
  if (opts_.threads > 0) {
    pool_ = std::make_unique<exec::ThreadPool>(opts_.threads);
    model_.set_pool(pool_.get());
  }
  offload_.set_resilience(opts_.injector, opts_.retry, /*recover=*/true);
}

void SelfHealingHybrid::initialize() {
  monitor_.track("host");
  monitor_.track("accel");

  const std::size_t state_bytes = model_.fields().total_bytes();
  // Rank-boundary slice that must round-trip for MPI each substep; the
  // conventional ~5% boundary share (see ablation_transfer_policy).
  const std::size_t halo_bytes = std::max<std::size_t>(state_bytes / 20, 1);
  buf_mesh_ = offload_.register_buffer("mesh", mesh_.mesh_data_bytes(),
                                       exec::BufferKind::MeshData);
  buf_state_ = offload_.register_buffer("state", state_bytes,
                                        exec::BufferKind::ComputeData);
  buf_halo_ = offload_.register_buffer("halo", halo_bytes,
                                       exec::BufferKind::ComputeData);

  ReplanResult plans[3];
  const DeviceAvailability avail;  // everything nameplate-healthy
  MPAS_CHECK_MSG(replan_all(avail, plans),
                 "initial hybrid plan rejected by the verifier");
  swap_in(plans, avail);
  replans_ = 0;  // the initial plan is not a healing event
  seen_generation_ = monitor_.generation();

  if (avail_.accel_alive) offload_.initial_upload();
  seen_retries_ = offload_.stats().transfer_retries;
  model_.initialize();
}

bool SelfHealingHybrid::replan_all(const DeviceAvailability& avail,
                                   ReplanResult out[3]) const {
  const auto& graphs = model_.graphs();
  const core::DataflowGraph* g[3] = {&graphs.setup, &graphs.early,
                                     &graphs.final};
  bool accepted = true;
  for (int i = 0; i < 3; ++i) {
    out[i] = engine_.replan(*g[i], avail);
    accepted = accepted && out[i].accepted;
  }
  return accepted;
}

void SelfHealingHybrid::swap_in(ReplanResult plans[3],
                                const DeviceAvailability& avail) {
  // A step boundary: nothing may still run the old plan, and a quarantined
  // accelerator's residency is void (host copies are authoritative).
  if (pool_) pool_->wait_idle();
  if (!avail.accel_alive) offload_.invalidate_device();
  model_.set_schedules(plans[0].schedule, plans[1].schedule,
                       plans[2].schedule);
  for (int i = 0; i < 3; ++i) current_[i] = std::move(plans[i]);
  // The per-step work just changed shape, so both devices' timing baselines
  // are stale; without this the monitor would misread the heavier host-only
  // plan as a host gray failure.
  monitor_.reset_baseline("host");
  monitor_.reset_baseline("accel");
  model_.publish_predictions(opts_.sim);
  avail_ = avail;
  pending_valid_ = false;
  replans_ += 1;
  MPAS_TRACE_INSTANT_ARGS(
      "health:replan",
      obs::trace_arg("step", step_) + "," +
          obs::trace_arg("plan", current_[1].schedule.name) + "," +
          obs::trace_arg("accel", std::string(avail.accel_alive ? "alive"
                                                                : "dead")));
  obs::MetricsRegistry::global()
      .counter(opts_.metric_scope + "resilience.health.replans")
      .add(1);
}

DeviceAvailability SelfHealingHybrid::current_availability() const {
  DeviceAvailability avail;
  avail.accel_alive = monitor_.usable("accel");
  if (avail.accel_alive && monitor_.state("accel") == HealthState::Suspect)
    avail.accel_slowdown = monitor_.slowdown("accel");
  return avail;
}

bool SelfHealingHybrid::plan_uses_accel() const {
  for (const auto& plan : current_) {
    for (const auto& a : plan.schedule.assignments)
      if (a.side != core::DeviceSide::Host) return true;
  }
  return false;
}

void SelfHealingHybrid::offload_step_traffic() {
  // The per-step residency replay of the resident-mesh policy: state up
  // once, the halo slice down (and refreshed by the exchange) per substep.
  offload_.ensure_on_device(buf_mesh_);
  offload_.ensure_on_device(buf_state_);
  for (int substep = 0; substep < 4; ++substep) {
    offload_.ensure_on_device(buf_halo_);
    offload_.mark_written_on_device(buf_state_);
    offload_.ensure_on_host(buf_halo_);
    offload_.mark_written_on_host(buf_halo_);
  }
  offload_.end_offload_region();
}

void SelfHealingHybrid::step() {
  // 1. Step boundary: a validated pending plan replaces the current one.
  if (pending_valid_) swap_in(pending_, pending_avail_);

  // 2. Probation: ping the quarantined link when the backoff elapses.
  if (monitor_.probe_due("accel", step_)) {
    bool ok = true;
    try {
      offload_.probe_link(opts_.probe_bytes);
    } catch (const Error&) {
      ok = false;
    }
    monitor_.observe_probe("accel", step_, ok);
  }

  // 3. Offload traffic for a plan that touches the accelerator. A retry
  //    escalation here is a hard device failure: quarantine, replan to
  //    host-only, and swap immediately — the numerics have not started,
  //    so the step proceeds bitwise-unchanged on the host.
  bool used_accel = false;
  if (avail_.accel_alive && plan_uses_accel()) {
    try {
      offload_step_traffic();
      used_accel = true;
    } catch (const Error& e) {
      monitor_.observe_failure("accel", step_, e.what());
      seen_generation_ = monitor_.generation();
      ReplanResult plans[3];
      const DeviceAvailability avail = current_availability();
      MPAS_CHECK_MSG(replan_all(avail, plans),
                     "host-only fallback plan rejected by the verifier");
      swap_in(plans, avail);
    }
  }

  // 4. The numerics (schedule-invariant, bitwise).
  model_.step();

  // 5. Feed the monitor this step's modeled device times and link retries.
  Real host_s = 0;
  Real accel_s = 0;
  const Real reps[3] = {1, 3, 1};  // setup x1, early x3, final x1
  for (int i = 0; i < 3; ++i) {
    host_s += reps[i] * current_[i].modeled.host_busy;
    accel_s += reps[i] * current_[i].modeled.accel_busy;
  }
  monitor_.observe_step_time("host", step_, host_s);
  if (used_accel) {
    const Real accel_factor =
        accel_slowdown_hook_ ? std::max<Real>(1.0, accel_slowdown_hook_())
                             : 1.0;
    monitor_.observe_step_time("accel", step_, accel_s * accel_factor);
  } else if (monitor_.state("accel") != HealthState::Quarantined) {
    // Idle (host-only plan) but not dead: it still answers heartbeats.
    monitor_.observe_heartbeat("accel", step_);
  }
  const std::uint64_t retries = offload_.stats().transfer_retries;
  monitor_.observe_transfer_retries("accel", retries - seen_retries_);
  seen_retries_ = retries;

  // 6. Fold signals; 7. a generation change means the availability view
  //    shifted — build and validate the next plan for the next boundary.
  monitor_.end_step(step_);
  if (monitor_.generation() != seen_generation_) {
    seen_generation_ = monitor_.generation();
    const DeviceAvailability avail = current_availability();
    ReplanResult plans[3];
    if (replan_all(avail, plans)) {
      for (int i = 0; i < 3; ++i) pending_[i] = std::move(plans[i]);
      pending_avail_ = avail;
      pending_valid_ = true;
    } else {
      // Keep flying the current validated plan; say so in the trace.
      MPAS_TRACE_INSTANT_ARGS("health:replan_rejected",
                              obs::trace_arg("step", step_));
    }
  }
  step_ += 1;
}

void SelfHealingHybrid::run(int steps) {
  for (int i = 0; i < steps; ++i) step();
}

Real SelfHealingHybrid::modeled_step_seconds() const {
  return current_[0].modeled.makespan + 3 * current_[1].modeled.makespan +
         current_[2].modeled.makespan;
}

}  // namespace mpas::resilience::health
