#include "sw/model.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "partition/halo.hpp"
#include "sw/reference.hpp"
#include "sw/verify.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace mpas::sw {

namespace {

const char* fname(FieldId id) { return field_info(id).name; }

LoopVariant to_loop_variant(core::VariantChoice v) {
  return static_cast<LoopVariant>(static_cast<int>(v));
}

/// How many of a node's `n` entities `asg` runs on the host; the rest run
/// on the accelerator.
Index host_entities(Index n, const core::Assignment& asg) {
  switch (asg.side) {
    case core::DeviceSide::Host:
      return n;
    case core::DeviceSide::Accel:
      return 0;
    case core::DeviceSide::Split:
      break;
  }
  return static_cast<Index>(
      std::llround(static_cast<double>(n) * asg.host_fraction));
}

/// Node factory bound to one graph, keeping labels/kinds/costs in one place.
class NodeBuilder {
 public:
  NodeBuilder(core::DataflowGraph& graph, SwContext* ctx)
      : graph_(graph), ctx_(ctx) {}

  int add(std::string label, core::PatternKind kind, core::KernelGroup kernel,
          MeshLocation iterates, core::Extent extent,
          std::vector<FieldId> inputs, std::vector<FieldId> outputs,
          machine::KernelCost gather,
          std::function<void(const SwContext&, Index, Index, LoopVariant)> fn,
          machine::KernelCost scatter = {}, bool has_scatter = false) {
    core::PatternNode node;
    node.label = std::move(label);
    node.kind = kind;
    node.kernel = kernel;
    node.iterates = iterates;
    node.extent = extent;
    for (FieldId f : inputs) node.inputs.emplace_back(fname(f));
    for (FieldId f : outputs) node.outputs.emplace_back(fname(f));
    node.cost_gather = gather;
    node.cost_scatter = has_scatter ? scatter : gather;
    node.has_scatter_variant = has_scatter;
    if (ctx_ != nullptr && fn) {
      SwContext* ctx = ctx_;
      node.body = [ctx, fn](const core::RunArgs& args) {
        fn(*ctx, args.begin, args.end, to_loop_variant(args.variant));
      };
    }
    return graph_.add_node(std::move(node));
  }

 private:
  core::DataflowGraph& graph_;
  SwContext* ctx_;
};

using core::Extent;
using core::KernelGroup;
using core::PatternKind;

/// The shared diagnostics block (compute_solve_diagnostics), reading the
/// given thickness/velocity fields. Returns the id of the pv_edge node
/// (G1), whose output needs a halo exchange: the APVM stencil reaches one
/// layer past what the provisional-state exchange covers, so MPAS — and
/// the paper's Figure 4 — exchange pv_edge as the second halo sync of each
/// substep.
int add_diagnostics_nodes(NodeBuilder& b, FieldId h_in, FieldId u_in,
                          bool with_tracer) {
  b.add("C1", PatternKind::C, KernelGroup::ComputeSolveDiagnostics,
        MeshLocation::Edge, Extent::Compute, {h_in}, {FieldId::HEdge},
        cost::h_edge(),
        [h_in](const SwContext& c, Index s, Index e, LoopVariant) {
          diag_h_edge(c, h_in, s, e);
        });
  b.add("A2", PatternKind::A, KernelGroup::ComputeSolveDiagnostics,
        MeshLocation::Cell, Extent::Compute, {u_in}, {FieldId::Ke},
        cost::ke(LoopVariant::BranchFree),
        [u_in](const SwContext& c, Index s, Index e, LoopVariant v) {
          diag_ke(c, u_in, s, e, v);
        },
        cost::ke(LoopVariant::Irregular), true);
  b.add("D1", PatternKind::D, KernelGroup::ComputeSolveDiagnostics,
        MeshLocation::Vertex, Extent::Compute, {u_in}, {FieldId::Vorticity},
        cost::vorticity(LoopVariant::BranchFree),
        [u_in](const SwContext& c, Index s, Index e, LoopVariant v) {
          diag_vorticity(c, u_in, s, e, v);
        },
        cost::vorticity(LoopVariant::Irregular), true);
  b.add("A3", PatternKind::A, KernelGroup::ComputeSolveDiagnostics,
        MeshLocation::Cell, Extent::Compute, {u_in}, {FieldId::Divergence},
        cost::divergence(LoopVariant::BranchFree),
        [u_in](const SwContext& c, Index s, Index e, LoopVariant v) {
          diag_divergence(c, u_in, s, e, v);
        },
        cost::divergence(LoopVariant::Irregular), true);
  b.add("F2", PatternKind::F, KernelGroup::ComputeSolveDiagnostics,
        MeshLocation::Edge, Extent::Inner, {u_in}, {FieldId::VTangent},
        cost::v_tangent(),
        [u_in](const SwContext& c, Index s, Index e, LoopVariant) {
          diag_v_tangent(c, u_in, s, e);
        });
  b.add("E1", PatternKind::E, KernelGroup::ComputeSolveDiagnostics,
        MeshLocation::Vertex, Extent::Compute, {h_in, FieldId::Vorticity},
        {FieldId::HVertex, FieldId::PvVertex}, cost::h_pv_vertex(),
        [h_in](const SwContext& c, Index s, Index e, LoopVariant) {
          diag_h_pv_vertex(c, h_in, s, e);
        });
  b.add("H1", PatternKind::H, KernelGroup::ComputeSolveDiagnostics,
        MeshLocation::Cell, Extent::Compute, {FieldId::PvVertex},
        {FieldId::PvCell}, cost::pv_cell(),
        [](const SwContext& c, Index s, Index e, LoopVariant) {
          diag_pv_cell(c, s, e);
        });
  const int g1 =
      b.add("G1", PatternKind::G, KernelGroup::ComputeSolveDiagnostics,
            MeshLocation::Edge, Extent::Inner,
            {u_in, FieldId::VTangent, FieldId::PvVertex, FieldId::PvCell},
            {FieldId::PvEdge}, cost::pv_edge(),
            [u_in](const SwContext& c, Index s, Index e, LoopVariant) {
              diag_pv_edge(c, u_in, s, e);
            });
  if (with_tracer) {
    // Future-model-development demo: the tracer's diagnostics are two more
    // pattern nodes; the dependency analysis and the schedulers absorb
    // them without any other change.
    const FieldId q_in = h_in == FieldId::H ? FieldId::TracerQ
                                            : FieldId::TracerQProvis;
    b.add("X8", PatternKind::Local, KernelGroup::ComputeSolveDiagnostics,
          MeshLocation::Cell, Extent::Compute, {q_in, h_in},
          {FieldId::TracerRatio}, cost::local_axpy(),
          [q_in, h_in](const SwContext& c, Index s, Index e, LoopVariant) {
            tracer_ratio(c, q_in, h_in, s, e);
          });
    b.add("C3", PatternKind::C, KernelGroup::ComputeSolveDiagnostics,
          MeshLocation::Edge, Extent::Compute, {FieldId::TracerRatio},
          {FieldId::TracerEdge}, cost::h_edge(),
          [](const SwContext& c, Index s, Index e, LoopVariant) {
            tracer_edge_value(c, s, e);
          });
  }
  return g1;
}

/// compute_tend (+ optional del^2) + enforce_boundary_edge, reading the
/// provisional state.
void add_tend_nodes(NodeBuilder& b, bool with_diffusion, bool with_tracer) {
  b.add("A1", PatternKind::A, KernelGroup::ComputeTend, MeshLocation::Cell,
        Extent::Owned, {FieldId::UProvis, FieldId::HEdge}, {FieldId::TendH},
        cost::tend_h(LoopVariant::BranchFree),
        [](const SwContext& c, Index s, Index e, LoopVariant v) {
          tend_thickness(c, FieldId::UProvis, s, e, v);
        },
        cost::tend_h(LoopVariant::Irregular), true);
  b.add("F1", PatternKind::F, KernelGroup::ComputeTend, MeshLocation::Edge,
        Extent::Owned,
        {FieldId::HProvis, FieldId::UProvis, FieldId::Bottom, FieldId::Ke,
         FieldId::HEdge, FieldId::PvEdge},
        {FieldId::TendU}, cost::tend_u(),
        [](const SwContext& c, Index s, Index e, LoopVariant) {
          tend_momentum(c, FieldId::HProvis, FieldId::UProvis, s, e);
        });
  if (with_diffusion) {
    b.add("B1", PatternKind::B, KernelGroup::ComputeTend, MeshLocation::Cell,
          Extent::Owned, {FieldId::HProvis}, {FieldId::D2H}, cost::pv_cell(),
          [](const SwContext& c, Index s, Index e, LoopVariant) {
            tend_h_laplacian(c, FieldId::HProvis, s, e);
          });
    b.add("X7", PatternKind::Local, KernelGroup::ComputeTend,
          MeshLocation::Cell, Extent::Owned, {FieldId::TendH, FieldId::D2H},
          {FieldId::TendH}, cost::local_axpy(),
          [](const SwContext& c, Index s, Index e, LoopVariant) {
            tend_h_add_del2(c, s, e);
          });
    b.add("C2", PatternKind::C, KernelGroup::ComputeTend, MeshLocation::Edge,
          Extent::Owned,
          {FieldId::Divergence, FieldId::Vorticity, FieldId::TendU},
          {FieldId::TendU}, cost::pv_edge(),
          [](const SwContext& c, Index s, Index e, LoopVariant) {
            tend_u_add_del2(c, s, e);
          });
  }
  if (with_tracer) {
    b.add("A5", PatternKind::A, KernelGroup::ComputeTend, MeshLocation::Cell,
          Extent::Owned,
          {FieldId::UProvis, FieldId::HEdge, FieldId::TracerEdge},
          {FieldId::TendTracerQ}, cost::tend_h(LoopVariant::BranchFree),
          [](const SwContext& c, Index s, Index e, LoopVariant v) {
            tend_tracer(c, FieldId::UProvis, s, e, v);
          },
          cost::tend_h(LoopVariant::Irregular), true);
  }
  b.add("X1", PatternKind::Local, KernelGroup::EnforceBoundaryEdge,
        MeshLocation::Edge, Extent::Owned, {FieldId::TendU}, {FieldId::TendU},
        cost::local_axpy(),
        [](const SwContext& c, Index s, Index e, LoopVariant) {
          enforce_boundary_edge(c, s, e);
        });
}

}  // namespace

std::vector<FieldId> halo_fields_early() {
  return {FieldId::HProvis, FieldId::UProvis, FieldId::PvEdge,
          FieldId::TracerQProvis};
}

std::vector<FieldId> halo_fields_final() {
  return {FieldId::H, FieldId::U, FieldId::PvEdge, FieldId::TracerQ};
}

SwGraphs build_sw_graphs(SwContext* ctx, bool with_diffusion,
                         bool with_tracer) {
  SwGraphs g;

  // ---- setup: seed provis and the accumulators --------------------------
  // The provis seeds cover every local entity, so a rank's halo copies of
  // provis start coherent (the H/U halos are, from the last exchange).
  {
    NodeBuilder b(g.setup, ctx);
    b.add("X0a", PatternKind::Local, KernelGroup::StepSetup,
          MeshLocation::Cell, Extent::All, {FieldId::H}, {FieldId::HProvis},
          cost::local_axpy(),
          [](const SwContext& c, Index s, Index e, LoopVariant) {
            seed_provis_h(c, s, e);
          });
    b.add("X0b", PatternKind::Local, KernelGroup::StepSetup,
          MeshLocation::Edge, Extent::All, {FieldId::U}, {FieldId::UProvis},
          cost::local_axpy(),
          [](const SwContext& c, Index s, Index e, LoopVariant) {
            seed_provis_u(c, s, e);
          });
    b.add("X0c", PatternKind::Local, KernelGroup::StepSetup,
          MeshLocation::Cell, Extent::Owned, {FieldId::H}, {FieldId::HNew},
          cost::local_axpy(),
          [](const SwContext& c, Index s, Index e, LoopVariant) {
            init_accum_h(c, s, e);
          });
    b.add("X0d", PatternKind::Local, KernelGroup::StepSetup,
          MeshLocation::Edge, Extent::Owned, {FieldId::U}, {FieldId::UNew},
          cost::local_axpy(),
          [](const SwContext& c, Index s, Index e, LoopVariant) {
            init_accum_u(c, s, e);
          });
    if (with_tracer) {
      b.add("X0e", PatternKind::Local, KernelGroup::StepSetup,
            MeshLocation::Cell, Extent::All, {FieldId::TracerQ},
            {FieldId::TracerQProvis}, cost::local_axpy(),
            [](const SwContext& c, Index s, Index e, LoopVariant) {
              seed_provis_tracer(c, s, e);
            });
      b.add("X0f", PatternKind::Local, KernelGroup::StepSetup,
            MeshLocation::Cell, Extent::Owned, {FieldId::TracerQ},
            {FieldId::TracerQNew}, cost::local_axpy(),
            [](const SwContext& c, Index s, Index e, LoopVariant) {
              init_accum_tracer(c, s, e);
            });
    }
    g.setup.finalize();
  }

  // ---- early substep (RK_step < 4) ---------------------------------------
  {
    NodeBuilder b(g.early, ctx);
    add_tend_nodes(b, with_diffusion, with_tracer);
    const int x2 = b.add(
        "X2", PatternKind::Local, KernelGroup::ComputeNextSubstepState,
        MeshLocation::Cell, Extent::Owned, {FieldId::H, FieldId::TendH},
        {FieldId::HProvis}, cost::local_axpy(),
        [](const SwContext& c, Index s, Index e, LoopVariant) {
          next_substep_h(c, s, e);
        });
    const int x3 = b.add(
        "X3", PatternKind::Local, KernelGroup::ComputeNextSubstepState,
        MeshLocation::Edge, Extent::Owned, {FieldId::U, FieldId::TendU},
        {FieldId::UProvis}, cost::local_axpy(),
        [](const SwContext& c, Index s, Index e, LoopVariant) {
          next_substep_u(c, s, e);
        });
    if (with_tracer) {
      const int x9 = b.add(
          "X9", PatternKind::Local, KernelGroup::ComputeNextSubstepState,
          MeshLocation::Cell, Extent::Owned,
          {FieldId::TracerQ, FieldId::TendTracerQ}, {FieldId::TracerQProvis},
          cost::local_axpy(),
          [](const SwContext& c, Index s, Index e, LoopVariant) {
            next_substep_tracer(c, s, e);
          });
      g.early.add_halo_sync_after(x9);
    }
    const int g1 = add_diagnostics_nodes(b, FieldId::HProvis,
                                         FieldId::UProvis, with_tracer);
    g.early.add_halo_sync_after(g1);
    b.add("X4", PatternKind::Local, KernelGroup::AccumulativeUpdate,
          MeshLocation::Cell, Extent::Owned, {FieldId::TendH, FieldId::HNew},
          {FieldId::HNew}, cost::local_axpy(),
          [](const SwContext& c, Index s, Index e, LoopVariant) {
            accumulate_h(c, s, e);
          });
    b.add("X5", PatternKind::Local, KernelGroup::AccumulativeUpdate,
          MeshLocation::Edge, Extent::Owned, {FieldId::TendU, FieldId::UNew},
          {FieldId::UNew}, cost::local_axpy(),
          [](const SwContext& c, Index s, Index e, LoopVariant) {
            accumulate_u(c, s, e);
          });
    if (with_tracer) {
      b.add("X12", PatternKind::Local, KernelGroup::AccumulativeUpdate,
            MeshLocation::Cell, Extent::Owned,
            {FieldId::TendTracerQ, FieldId::TracerQNew},
            {FieldId::TracerQNew}, cost::local_axpy(),
            [](const SwContext& c, Index s, Index e, LoopVariant) {
              accumulate_tracer(c, s, e);
            });
    }
    g.early.add_halo_sync_after(x2);
    g.early.add_halo_sync_after(x3);
    g.early.finalize();
  }

  // ---- final substep (RK_step == 4) ---------------------------------------
  {
    NodeBuilder b(g.final, ctx);
    add_tend_nodes(b, with_diffusion, with_tracer);
    b.add("X4", PatternKind::Local, KernelGroup::AccumulativeUpdate,
          MeshLocation::Cell, Extent::Owned, {FieldId::TendH, FieldId::HNew},
          {FieldId::HNew}, cost::local_axpy(),
          [](const SwContext& c, Index s, Index e, LoopVariant) {
            accumulate_h(c, s, e);
          });
    b.add("X5", PatternKind::Local, KernelGroup::AccumulativeUpdate,
          MeshLocation::Edge, Extent::Owned, {FieldId::TendU, FieldId::UNew},
          {FieldId::UNew}, cost::local_axpy(),
          [](const SwContext& c, Index s, Index e, LoopVariant) {
            accumulate_u(c, s, e);
          });
    const int commit_h_id = b.add(
        "X2", PatternKind::Local, KernelGroup::AccumulativeUpdate,
        MeshLocation::Cell, Extent::Owned, {FieldId::HNew}, {FieldId::H},
        cost::local_axpy(),
        [](const SwContext& c, Index s, Index e, LoopVariant) {
          commit_h(c, s, e);
        });
    const int commit_u_id = b.add(
        "X3", PatternKind::Local, KernelGroup::AccumulativeUpdate,
        MeshLocation::Edge, Extent::Owned, {FieldId::UNew}, {FieldId::U},
        cost::local_axpy(),
        [](const SwContext& c, Index s, Index e, LoopVariant) {
          commit_u(c, s, e);
        });
    if (with_tracer) {
      b.add("X12", PatternKind::Local, KernelGroup::AccumulativeUpdate,
            MeshLocation::Cell, Extent::Owned,
            {FieldId::TendTracerQ, FieldId::TracerQNew},
            {FieldId::TracerQNew}, cost::local_axpy(),
            [](const SwContext& c, Index s, Index e, LoopVariant) {
              accumulate_tracer(c, s, e);
            });
      const int commit_q = b.add(
          "X13", PatternKind::Local, KernelGroup::AccumulativeUpdate,
          MeshLocation::Cell, Extent::Owned, {FieldId::TracerQNew},
          {FieldId::TracerQ}, cost::local_axpy(),
          [](const SwContext& c, Index s, Index e, LoopVariant) {
            commit_tracer(c, s, e);
          });
      g.final.add_halo_sync_after(commit_q);
    }
    const int g1 = add_diagnostics_nodes(b, FieldId::H, FieldId::U,
                                         with_tracer);
    g.final.add_halo_sync_after(g1);
    b.add("A4", PatternKind::A, KernelGroup::MpasReconstruct,
          MeshLocation::Cell, Extent::Owned, {FieldId::U},
          {FieldId::ReconX, FieldId::ReconY, FieldId::ReconZ},
          cost::reconstruct(LoopVariant::BranchFree),
          [](const SwContext& c, Index s, Index e, LoopVariant v) {
            reconstruct_vector(c, FieldId::U, s, e, v);
          },
          cost::reconstruct(LoopVariant::Irregular), true);
    b.add("X6", PatternKind::Local, KernelGroup::MpasReconstruct,
          MeshLocation::Cell, Extent::Owned,
          {FieldId::ReconX, FieldId::ReconY, FieldId::ReconZ},
          {FieldId::ReconZonal, FieldId::ReconMeridional}, cost::local_axpy(),
          [](const SwContext& c, Index s, Index e, LoopVariant) {
            reconstruct_horizontal(c, s, e);
          });
    g.final.add_halo_sync_after(commit_h_id);
    g.final.add_halo_sync_after(commit_u_id);
    g.final.finalize();
  }
  return g;
}

Index extent_end(const core::PatternNode& node, const FieldStore& fields,
                 const partition::LocalMesh* local) {
  if (local == nullptr || node.extent == Extent::All)
    return fields.size_of(node.iterates);
  const partition::LocalMesh& lm = *local;
  const Index prefix[3][3] = {  // [Owned|Compute|Inner][cell|edge|vertex]
      {lm.num_owned_cells, lm.num_owned_edges, -1},
      {lm.num_compute_cells, lm.num_compute_edges, lm.num_compute_vertices},
      {-1, lm.num_inner_edges, -1}};
  const int loc = static_cast<int>(node.iterates);
  const Index n = loc < 3 ? prefix[static_cast<int>(node.extent) - 1][loc] : -1;
  MPAS_CHECK_MSG(n >= 0, "node " << node.label << " has no rank extent");
  return n;
}

SwModel::SwModel(const mesh::VoronoiMesh& mesh, SwParams params)
    : SwModel(mesh, nullptr, params) {}

SwModel::SwModel(const partition::LocalMesh& local, SwParams params)
    : SwModel(local.mesh, &local, params) {}

SwModel::SwModel(const mesh::VoronoiMesh& mesh,
                 const partition::LocalMesh* local, SwParams params)
    : mesh_(mesh), local_(local), params_(params), fields_(mesh) {
  ctx_ = std::make_unique<SwContext>(
      SwContext{mesh_, fields_, params_, 0, 0});
  const bool with_diffusion =
      params_.nu_del2_h != 0 || params_.nu_del2_u != 0;
  graphs_ = build_sw_graphs(ctx_.get(), with_diffusion, params_.with_tracer);
  sched_setup_ = core::make_single_device_schedule(
      graphs_.setup, core::DeviceSide::Host, "default");
  sched_early_ = core::make_single_device_schedule(
      graphs_.early, core::DeviceSide::Host, "default");
  sched_final_ = core::make_single_device_schedule(
      graphs_.final, core::DeviceSide::Host, "default");

  // Opt-in declared-vs-actual verification: cross-check every pattern's
  // access sets, edges, halo syncs, and the node-parallel schedule before
  // the model is allowed to run.
  if (verify_mode_enabled()) {
    const analysis::Report report =
        verify_sw_graphs(graphs_, ctx_.get(), {}, local_);
    obs::MetricsRegistry::global()
        .counter("analysis.verify.errors")
        .add(static_cast<std::uint64_t>(report.errors()));
    obs::MetricsRegistry::global()
        .counter("analysis.verify.warnings")
        .add(static_cast<std::uint64_t>(report.warnings()));
    if (report.errors() > 0 || report.warnings() > 0)
      MPAS_LOG_WARN << "MPAS_VERIFY findings:\n" << report.to_string();
    else
      MPAS_LOG_INFO << "MPAS_VERIFY: data-flow graphs verified clean ("
                    << report.diagnostics().size() << " informational)";
    MPAS_CHECK_MSG(report.clean(),
                   "MPAS_VERIFY=1: the schedule & data-flow verifier found "
                       << report.errors() << " error(s):\n"
                       << report.to_string());
  }

  // initialize() is the final graph's tail, from its first diagnostics node;
  // a step is the setup graph, three early substeps and the final one.
  const core::DataflowGraph& fin = graphs_.final;
  int tail = 0;
  while (fin.node(tail).kernel != KernelGroup::ComputeSolveDiagnostics) ++tail;
  const int n_early = graphs_.early.num_nodes();
  init_segments_ =
      cut_segments({{&fin, &sched_final_, -1, tail, fin.num_nodes()}});
  step_segments_ = cut_segments(
      {{&graphs_.setup, &sched_setup_, -1, 0, graphs_.setup.num_nodes()},
       {&graphs_.early, &sched_early_, 0, 0, n_early},
       {&graphs_.early, &sched_early_, 1, 0, n_early},
       {&graphs_.early, &sched_early_, 2, 0, n_early},
       {&fin, &sched_final_, 3, 0, fin.num_nodes()}});
}

void SwModel::set_schedules(core::Schedule setup, core::Schedule early,
                            core::Schedule final) {
  MPAS_CHECK(setup.assignments.size() ==
             static_cast<std::size_t>(graphs_.setup.num_nodes()));
  MPAS_CHECK(early.assignments.size() ==
             static_cast<std::size_t>(graphs_.early.num_nodes()));
  MPAS_CHECK(final.assignments.size() ==
             static_cast<std::size_t>(graphs_.final.num_nodes()));
  sched_setup_ = std::move(setup);
  sched_early_ = std::move(early);
  sched_final_ = std::move(final);
}

void SwModel::publish_predictions(const core::SimOptions& sim) const {
  obs::profiling::PerfProfiler& profiler =
      obs::profiling::PerfProfiler::global();
  if (!profiler.enabled()) return;
  const std::pair<const core::DataflowGraph*, const core::Schedule*> plans[] =
      {{&graphs_.setup, &sched_setup_},
       {&graphs_.early, &sched_early_},
       {&graphs_.final, &sched_final_}};
  for (const auto& [graph, schedule] : plans) {
    for (const core::PatternNode& node : graph->nodes()) {
      // Predict per call on the side(s) the schedule runs the node on, over
      // the entity range each side covers in execute_run.
      const Index n = extent_end(node, fields_, local_);
      const core::Assignment& asg =
          schedule->assignments[static_cast<std::size_t>(node.id)];
      const Index nh = host_entities(n, asg);
      const std::string kernel = core::to_string(node.kernel);
      if (nh > 0)
        profiler.set_prediction(
            {node.label, kernel, "host", mesh_.subdivision_level},
            core::node_time(node, core::DeviceSide::Host, nh, *schedule, sim));
      if (n - nh > 0)
        profiler.set_prediction(
            {node.label, kernel, "accel", mesh_.subdivision_level},
            core::node_time(node, core::DeviceSide::Accel, n - nh, *schedule,
                            sim));
    }
  }
}

SwModel::NodeProfiles& SwModel::node_profiles(
    const core::DataflowGraph& graph) {
  NodeProfiles& np = &graph == &graphs_.setup   ? profiles_setup_
                     : &graph == &graphs_.early ? profiles_early_
                                                : profiles_final_;
  if (!np.built) {
    obs::profiling::PerfProfiler& profiler =
        obs::profiling::PerfProfiler::global();
    np.host.reserve(static_cast<std::size_t>(graph.num_nodes()));
    np.accel.reserve(static_cast<std::size_t>(graph.num_nodes()));
    for (int id = 0; id < graph.num_nodes(); ++id) {
      const core::PatternNode& node = graph.node(id);
      np.host.push_back(profiler.handle({node.label,
                                         core::to_string(node.kernel), "host",
                                         mesh_.subdivision_level}));
      np.accel.push_back(profiler.handle({node.label,
                                          core::to_string(node.kernel),
                                          "accel", mesh_.subdivision_level}));
    }
    np.built = true;
  }
  return np;
}

std::vector<SwModel::Segment> SwModel::cut_segments(
    const std::vector<Run>& passes) {
  std::vector<FieldId> halo = halo_fields_early();
  for (FieldId f : halo_fields_final()) halo.push_back(f);
  std::vector<Segment> segments(1);
  for (const Run& pass : passes) {
    for (int id = pass.begin; id < pass.end; ++id) {
      Segment& seg = segments.back();
      if (seg.runs.empty() || seg.runs.back().graph != pass.graph ||
          seg.runs.back().stage != pass.stage)
        seg.runs.push_back({pass.graph, pass.schedule, pass.stage, id, id});
      seg.runs.back().end = id + 1;
      if (!pass.graph->has_halo_sync_after(id)) continue;
      for (const std::string& out : pass.graph->node(id).outputs)
        if (std::find(halo.begin(), halo.end(), field_by_name(out)) !=
            halo.end())
          seg.exchange.push_back(field_by_name(out));
      if (!seg.exchange.empty()) segments.emplace_back();
    }
  }
  if (segments.back().runs.empty()) segments.pop_back();
  return segments;
}

void SwModel::execute_run(const Run& run) {
  const core::DataflowGraph& graph = *run.graph;
  const core::Schedule& schedule = *run.schedule;
  if (run.stage >= 0) {
    ctx_->rk_accum_coeff = Rk4::b[run.stage] * params_.dt;
    if (run.stage < Rk4::stages - 1)
      ctx_->rk_substep_coeff = Rk4::a[run.stage] * params_.dt;
  }

  // Per-node continuous-profiler slots, resolved once per graph on the
  // first profiled step (np stays null while the profiler is disabled, so
  // the steady-state cost of this hook is one relaxed load per run).
  obs::profiling::PerfProfiler& profiler =
      obs::profiling::PerfProfiler::global();
  NodeProfiles* np = profiler.enabled() ? &node_profiles(graph) : nullptr;
  static const obs::profiling::ProfileHandle kInertHandle{};

  // Run one node over its extent. `inner_parallel` chunks the node's range
  // over the pool; it must be off in node-parallel mode (the pool's
  // parallel_for is not reentrant) and for irregular whole-array variants.
  auto run_node = [&](int id, bool inner_parallel) {
    const core::PatternNode& node = graph.node(id);
    MPAS_CHECK_MSG(node.body, "node " << node.label << " has no body");
    const core::Assignment& asg =
        schedule.assignments[static_cast<std::size_t>(id)];
    const Index n = extent_end(node, fields_, local_);

    auto run_range = [&](Index begin, Index end, core::VariantChoice v) {
      if (begin >= end) return;
      const bool irregular = v == core::VariantChoice::Irregular;
      if (inner_parallel && pool_ != nullptr && !irregular &&
          end - begin > 1024) {
        pool_->parallel_for(end - begin, [&](Index b, Index e) {
          node.body({begin + b, begin + e, v});
        });
      } else {
        node.body({begin, end, v});
      }
    };

    const std::size_t uid = static_cast<std::size_t>(id);
    switch (asg.side) {
      case core::DeviceSide::Host: {
        obs::profiling::ProfileScope prof(profiler,
                                          np ? np->host[uid] : kInertHandle);
        run_range(0, n, schedule.host_variant);
        break;
      }
      case core::DeviceSide::Accel: {
        obs::profiling::ProfileScope prof(profiler,
                                          np ? np->accel[uid] : kInertHandle);
        run_range(0, n, schedule.accel_variant);
        break;
      }
      case core::DeviceSide::Split: {
        const Index nh = host_entities(n, asg);
        {
          obs::profiling::ProfileScope prof(
              profiler, np ? np->host[uid] : kInertHandle);
          run_range(0, nh, schedule.host_variant);
        }
        {
          obs::profiling::ProfileScope prof(
              profiler, np ? np->accel[uid] : kInertHandle);
          run_range(nh, n, schedule.accel_variant);
        }
        break;
      }
    }
  };

  if (node_parallel_ && pool_ != nullptr) {
    // Level-synchronous execution: nodes of one dependency level share no
    // read/write hazards (every hazard is an edge, and an edge separates
    // levels), so they may run concurrently, each single-threaded.
    const std::vector<int> level = graph.levels();
    const int max_level =
        *std::max_element(level.begin(), level.end());
    for (int l = 0; l <= max_level; ++l) {
      std::vector<int> batch;
      for (int id = run.begin; id < run.end; ++id)
        if (level[static_cast<std::size_t>(id)] == l) batch.push_back(id);
      pool_->parallel_for(
          static_cast<Index>(batch.size()),
          [&](Index b, Index e) {
            for (Index i = b; i < e; ++i)
              run_node(batch[static_cast<std::size_t>(i)],
                       /*inner_parallel=*/false);
          },
          exec::LoopSchedule::Dynamic, 1);
    }
    return;
  }

  // Program order, which is topological by construction.
  for (int id = run.begin; id < run.end; ++id)
    run_node(id, /*inner_parallel=*/true);
}

void SwModel::run_segment(Phase phase, int i) {
  for (const Run& run : segments(phase)[static_cast<std::size_t>(i)].runs)
    execute_run(run);
}

void SwModel::initialize() {
  for (int i = 0; i < num_segments(Phase::Initialize); ++i)
    run_segment(Phase::Initialize, i);
}

void SwModel::step() {
  for (int i = 0; i < num_segments(Phase::Step); ++i)
    run_segment(Phase::Step, i);
}

void SwModel::run(int steps) {
  for (int i = 0; i < steps; ++i) step();
}

}  // namespace mpas::sw
