// Multi-rank shallow-water integrator over partitioned local meshes, wired
// through the SimWorld message fabric. Functionally this is the paper's MPI
// layer: each rank advances its owned cells/edges, exchanging halos of the
// provisional state and of pv_edge at the sync points of Figure 4. Owned
// values are bitwise identical to a serial run on the global mesh (tested),
// because every kernel gathers the same inputs in the same order.
//
// One driver (DESIGN.md §7): the per-rank work between two halo exchanges
// runs concurrently, one static parallel_for over the ranks on a pool of
// min(ranks, cores) participants; every exchange runs on the calling
// thread, all sends in rank order and then all receives, so the fabric
// sees the same message sequence on every run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "comm/simworld.hpp"
#include "partition/halo.hpp"
#include "resilience/fault.hpp"
#include "resilience/health/monitor.hpp"
#include "resilience/stats.hpp"
#include "sw/invariants.hpp"
#include "sw/kernels.hpp"
#include "sw/testcases.hpp"

namespace mpas::exec {
class ThreadPool;
}

namespace mpas::comm {

/// Configuration of the resilience layer around the distributed
/// integrator. With an injector attached, the named faults are actually
/// produced; without one the detection/recovery machinery still runs
/// (envelopes, health checks, checkpoints) so the overhead path is
/// testable fault-free.
struct ResilienceOptions {
  resilience::FaultInjector* injector = nullptr;  // non-owning, optional
  bool recover = true;           // off: first detection raises mpas::Error
  resilience::RetryPolicy retry;
  int checkpoint_interval = 5;   // steps between in-memory checkpoints
  int max_rollbacks = 8;         // per-incident escalation bound
  Real mass_drift_tol = 1e-9;    // mass is conserved to rounding
  Real energy_drift_tol = 1e-4;  // energy only to time-truncation error
  /// Per-rank modeled seconds of one healthy step, fed (plus any injected
  /// stall time) to an attached HealthMonitor as that rank's step time.
  Real nominal_step_seconds = 1e-3;
};

class DistributedSw {
 public:
  DistributedSw(const mesh::VoronoiMesh& global_mesh, int num_ranks,
                sw::SwParams params,
                sw::LoopVariant variant = sw::LoopVariant::BranchFree,
                int halo_layers = 2);
  ~DistributedSw();  // out of line: Resilience is incomplete here

  void apply_test_case(const sw::TestCase& tc);
  void initialize();
  void step();
  void run(int steps);

  [[nodiscard]] int num_ranks() const { return world_->num_ranks(); }
  [[nodiscard]] const partition::LocalMesh& local_mesh(int rank) const {
    return locals_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] const partition::ExchangePlan& plan(int rank) const {
    return plans_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] sw::FieldStore& fields(int rank) {
    return *stores_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] SimWorld::Stats comm_stats() const { return world_->stats(); }

  /// Assemble a global field from the owners (cells or edges), for
  /// validation against a serial run.
  [[nodiscard]] std::vector<Real> gather_global(sw::FieldId field) const;

  /// Turn on the resilience layer: halo payloads travel in sequenced,
  /// checksummed envelopes with bounded retransmission; `run` additionally
  /// checkpoints every rank's full field state every `checkpoint_interval`
  /// steps, health-checks the state after every step, and rolls back and
  /// replays when the state is poisoned. Checkpoint, health decision,
  /// rollback and shrink are step-boundary decisions on the calling thread.
  /// Call before any exchange traffic (i.e. before initialize()).
  void enable_resilience(const ResilienceOptions& options);

  [[nodiscard]] bool resilience_enabled() const {
    return resilience_ != nullptr;
  }
  [[nodiscard]] resilience::ResilienceStats resilience_stats() const;

  /// Steps completed (and kept — rolled-back steps do not count) by the
  /// resilient run() driver.
  [[nodiscard]] std::int64_t step_index() const { return step_index_; }

  /// Attach a health monitor (non-owning; nullptr detaches). The resilient
  /// run() driver feeds it per-rank step times ("rank0".."rankN", nominal
  /// plus injected stall seconds) and, when ranks end up quarantined,
  /// shrinks the world onto the survivors at the next step boundary. The
  /// caller may pre-track entities; untracked ranks are tracked on first
  /// use. The monitor is only ever called from the calling thread.
  void set_health_monitor(resilience::health::HealthMonitor* monitor);

  /// Override the fabric's fault injector. The SimWorld attaches the
  /// ambient MPAS_FAULT campaign on construction; a reference run that
  /// must stay fault-free passes nullptr here to detach it.
  void set_fault_injector(resilience::FaultInjector* injector);

  /// Repartition the *current* prognostic state onto `new_num_ranks` ranks
  /// (degraded-mode continuation after rank loss). Gathers H/U (+tracer)
  /// by global id, rebuilds partition/halos/plans/fabric, refills every
  /// local entity, and re-derives the diagnostics — the exact state a
  /// completed step leaves, so the continued run stays bitwise identical
  /// to an uninterrupted one (owned values are rank-count-invariant).
  /// Requires quiescence (no halo traffic in flight); the checkpoint is
  /// invalidated and retaken on the next resilient step, cumulative
  /// resilience counters carry over.
  void shrink_to(int new_num_ranks);

 private:
  struct Resilience;  // channel + checkpoint + counters (distributed.cpp)

  /// Run `body(rank)` for every rank on the rank pool; returns when all
  /// are done and rethrows the first exception any rank raised.
  void for_each_rank(const std::function<void(int)>& body);
  void exchange(sw::FieldId field);
  void compute_diagnostics(int rank, sw::FieldId h_in, sw::FieldId u_in);
  void compute_tend(int rank, sw::FieldId h_in, sw::FieldId u_in);
  void reconstruct(int rank);

  void run_resilient(int steps);
  void take_checkpoint();
  void rollback();
  void apply_step_faults(std::int64_t step);
  /// Health signature of the whole owned state: per-rank scans on the rank
  /// pool, summed in rank order so the sums are run-to-run identical.
  [[nodiscard]] sw::StateHealth state_health();
  [[nodiscard]] bool state_healthy(std::string* reason);
  void drain_stale_messages();

  [[nodiscard]] std::string rank_entity(int rank) const;
  void feed_health(std::int64_t step);
  void shrink_quarantined_ranks();

  const mesh::VoronoiMesh& global_;
  sw::SwParams params_;
  sw::LoopVariant variant_;
  int halo_layers_;
  partition::Partition part_;
  std::vector<partition::LocalMesh> locals_;
  std::vector<partition::ExchangePlan> plans_;
  std::vector<std::unique_ptr<sw::FieldStore>> stores_;
  // unique_ptr: SimWorld owns a mutex (immovable), and shrink_to swaps in
  // a fresh, smaller fabric.
  std::unique_ptr<SimWorld> world_;
  // Participants for the per-rank phases; rebuilt by shrink_to.
  std::unique_ptr<exec::ThreadPool> pool_;
  std::unique_ptr<Resilience> resilience_;
  resilience::health::HealthMonitor* health_ = nullptr;
  std::uint64_t health_generation_ = 0;
  std::vector<Real> stall_scratch_;  // per-rank stall seconds this step
  std::int64_t step_index_ = 0;
};

}  // namespace mpas::comm
