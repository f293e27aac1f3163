// SwModel: the pattern-driven shallow-water model. It expresses one RK-4
// step as three data-flow graphs (Figure 4 of the paper):
//
//   setup graph  — start-of-step copies (accumulator init, provis seed);
//   early graph  — one RK substep with RK_step < 4 (the left diagram of
//                  Figure 4(a)): compute_tend, enforce_boundary_edge,
//                  compute_next_substep_state, halo exchange,
//                  compute_solve_diagnostics, accumulative_update;
//   final graph  — the RK_step == 4 branch: compute_tend, enforce,
//                  accumulative_update, commit, halo exchange,
//                  compute_solve_diagnostics, mpas_reconstruct.
//
// The same graphs serve three purposes:
//   * functionally, SwModel executes their nodes (in any dependency-
//     respecting order, with any host/accelerator range split) and must
//     reproduce the reference integrator bit for bit;
//   * distributed, each rank is a SwModel over its LocalMesh, its nodes
//     bounded by their core::Extent (see comm::DistributedSw);
//   * structurally, the benches hand them to core::simulate_schedule to
//     obtain the modeled per-step times of Figures 6-9.
#pragma once

#include <memory>

#include "core/dataflow.hpp"
#include "core/schedule.hpp"
#include "exec/thread_pool.hpp"
#include "obs/profiling/perf_profiler.hpp"
#include "sw/kernels.hpp"

namespace mpas::partition {
struct LocalMesh;
}

namespace mpas::sw {

/// Structure-only graph construction (no functional bodies): what the
/// benches use. `ctx` may be null in that case. With a non-null ctx every
/// node gets a body bound to that context.
struct SwGraphs {
  core::DataflowGraph setup{"rk4-step-setup"};
  core::DataflowGraph early{"rk4-substep (RK_step < 4)"};
  core::DataflowGraph final{"rk4-substep (RK_step == 4)"};
};

/// Build the three graphs. `with_diffusion` inserts the optional del^2
/// nodes (the paper's d2fdx2 path). If `ctx` is non-null, functional
/// bodies are attached (ctx must outlive the graphs).
SwGraphs build_sw_graphs(SwContext* ctx, bool with_diffusion,
                         bool with_tracer = false);

/// Fields exchanged at each halo sync (for the comm layer).
std::vector<FieldId> halo_fields_early();  // provis_h, provis_u
std::vector<FieldId> halo_fields_final();  // h, u

/// End of `node`'s iteration range over `fields` (ranges start at 0): its
/// extent of `local`'s prefixes, or the whole entity space when `local` is
/// null (a mesh without a halo).
Index extent_end(const core::PatternNode& node, const FieldStore& fields,
                 const partition::LocalMesh* local);

class SwModel {
 public:
  SwModel(const mesh::VoronoiMesh& mesh, SwParams params);
  /// One rank of a distributed run: every node computes its extent of
  /// `local` (which must outlive the model).
  SwModel(const partition::LocalMesh& local, SwParams params);
  SwModel(const SwModel&) = delete;  // the node bodies bind this model
  SwModel& operator=(const SwModel&) = delete;

  /// Optional: execute with explicit hybrid schedules (defaults: every
  /// node on the host with branch-free loops).
  void set_schedules(core::Schedule setup, core::Schedule early,
                     core::Schedule final);

  /// Attach the machine model's per-call cost of every node under the
  /// current schedules to the continuous profiler's slots (the ones the
  /// steps record into), so a profile carries measured and predicted
  /// columns. Call again after set_schedules(). No-op while the global
  /// profiler is disabled.
  void publish_predictions(const core::SimOptions& sim) const;

  /// Optional thread pool for data-parallel node execution.
  void set_pool(exec::ThreadPool* pool) { pool_ = pool; }

  /// Node-parallel mode: execute mutually independent patterns of the same
  /// dependency level concurrently on the pool (each node single-threaded)
  /// instead of parallelizing within one node at a time — the "inherent
  /// parallelism" of the data-flow diagram. Requires a pool. Results stay
  /// bitwise identical: same-level nodes share no read/write hazards by
  /// construction of the dependency edges.
  void set_node_parallel(bool enabled) { node_parallel_ = enabled; }

  /// Compute initial diagnostics + reconstruction for the current H/U.
  void initialize();

  /// One full RK-4 step through the data-flow graphs.
  void step();
  void run(int steps);

  /// initialize() and step() as segments: runs of nodes cut at the graphs'
  /// halo-sync marks. comm::DistributedSw runs segment i on every rank,
  /// then exchanges segment_exchange(phase, i) before segment i + 1.
  enum class Phase { Initialize, Step };
  [[nodiscard]] int num_segments(Phase phase) const {
    return static_cast<int>(segments(phase).size());
  }
  [[nodiscard]] const std::vector<FieldId>& segment_exchange(Phase phase,
                                                             int i) const {
    return segments(phase)[static_cast<std::size_t>(i)].exchange;
  }
  void run_segment(Phase phase, int i);

  [[nodiscard]] FieldStore& fields() { return fields_; }
  [[nodiscard]] const FieldStore& fields() const { return fields_; }
  [[nodiscard]] const SwParams& params() const { return params_; }
  [[nodiscard]] const SwGraphs& graphs() const { return graphs_; }
  [[nodiscard]] const mesh::VoronoiMesh& mesh() const { return mesh_; }

 private:
  SwModel(const mesh::VoronoiMesh& mesh, const partition::LocalMesh* local,
          SwParams params);

  /// Nodes [begin, end) of one graph in program order, at RK stage
  /// `stage` (-1: the nodes apply no RK coefficient).
  struct Run {
    const core::DataflowGraph* graph;
    const core::Schedule* schedule;
    int stage, begin, end;
  };
  /// The work between two halo syncs, and the fields to exchange after it.
  struct Segment {
    std::vector<Run> runs;
    std::vector<FieldId> exchange;
  };
  /// Cut graph passes after every node whose halo-sync mark refreshes a
  /// field of halo_fields_early() or halo_fields_final().
  [[nodiscard]] static std::vector<Segment> cut_segments(
      const std::vector<Run>& passes);
  [[nodiscard]] const std::vector<Segment>& segments(Phase phase) const {
    return phase == Phase::Step ? step_segments_ : init_segments_;
  }
  void execute_run(const Run& run);

  /// Continuous-profiler slots per graph node and device side, resolved
  /// lazily on the first profiled step (never on the hot path): handles[id]
  /// is the {host, accel} pair for node id. Keys carry the node label as
  /// the pattern and the mesh's subdivision level.
  struct NodeProfiles {
    bool built = false;
    std::vector<obs::profiling::ProfileHandle> host;
    std::vector<obs::profiling::ProfileHandle> accel;
  };
  NodeProfiles& node_profiles(const core::DataflowGraph& graph);

  const mesh::VoronoiMesh& mesh_;
  const partition::LocalMesh* local_;  // null: a mesh without a halo
  SwParams params_;
  FieldStore fields_;
  std::unique_ptr<SwContext> ctx_;  // stable address for the node bodies
  SwGraphs graphs_;
  core::Schedule sched_setup_, sched_early_, sched_final_;
  NodeProfiles profiles_setup_, profiles_early_, profiles_final_;
  std::vector<Segment> init_segments_, step_segments_;
  exec::ThreadPool* pool_ = nullptr;
  bool node_parallel_ = false;
};

}  // namespace mpas::sw
