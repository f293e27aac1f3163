// Multi-rank shallow-water integrator over partitioned local meshes, wired
// through the SimWorld message fabric. Functionally this is the paper's MPI
// layer: each rank is a sw::SwModel over its LocalMesh, running the same
// pattern graphs, and exchanges halos at their sync marks (Figure 4). Owned
// values are bitwise identical to a serial run on the global mesh (tested),
// because every kernel gathers the same inputs in the same order.
//
// Execution (DESIGN.md §7): step() and initialize() run the models'
// segments, the runs of nodes between two halo syncs. Each segment runs
// concurrently on every rank, one static parallel_for over the ranks on a
// pool of min(ranks, cores) participants; the segment's exchanges then run
// on the calling thread, all sends in rank order and then all receives, so
// the fabric sees the same message sequence on every run.
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
#include "sw/model.hpp"
#include "sw/testcases.hpp"

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
    return models_[static_cast<std::size_t>(rank)]->fields();
  }
  [[nodiscard]] SimWorld::Stats comm_stats() const { return world_->stats(); }

  /// Assemble a global field from the owners (cells or edges), for
  /// validation against a serial run.
  [[nodiscard]] std::vector<Real> gather_global(sw::FieldId field) const;

  /// Turn on the resilience layer: halo payloads travel in sequenced,
  /// checksummed envelopes with bounded retransmission; `run` additionally
  /// checkpoints every rank's state fields (sw::state_fields(), halos
  /// included) every `checkpoint_interval` steps, health-checks the state
  /// after every step, and when the state is poisoned restores the
  /// checkpoint, re-derives the diagnostics with initialize() and replays.
  /// Checkpoint, health decision, rollback and shrink are step-boundary
  /// decisions on the calling thread. Call before any exchange traffic
  /// (i.e. before initialize()).
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

  /// Repartition the *current* state onto `new_num_ranks` ranks
  /// (degraded-mode continuation after rank loss). Gathers the state
  /// fields (sw::state_fields()) by global id, rebuilds the decomposition,
  /// the rank models and the fabric, refills every local entity, and
  /// re-derives the diagnostics — the exact state a completed step leaves,
  /// so the continued run stays bitwise identical to an uninterrupted one
  /// (owned values are rank-count-invariant). Requires quiescence (no halo
  /// traffic in flight); the checkpoint is invalidated and retaken on the
  /// next resilient step, cumulative resilience counters carry over.
  void shrink_to(int new_num_ranks);

 private:
  struct Resilience;  // channel + checkpoint + counters (distributed.cpp)

  /// Run `body(rank)` for every rank on the rank pool; returns when all
  /// are done and rethrows the first exception any rank raised.
  void for_each_rank(const std::function<void(int)>& body);
  void exchange(sw::FieldId field);
  /// Run every segment of `phase` on all ranks, then its exchanges.
  void run_segments(sw::SwModel::Phase phase);
  /// Partition the global mesh: local meshes, exchange plans, and one
  /// SwModel per local mesh running the integrator's loop variant.
  void decompose(int num_ranks);

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
  std::vector<partition::LocalMesh> locals_;
  std::vector<partition::ExchangePlan> plans_;
  // One model per rank over locals_[rank], which it references.
  std::vector<std::unique_ptr<sw::SwModel>> models_;
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
