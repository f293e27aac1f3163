// The correctness contract of the pattern-driven runtime: executing the
// data-flow graphs — sequentially, with a thread pool, or split across the
// (simulated) devices — reproduces the reference integrator exactly.
#include <gtest/gtest.h>

#include <cmath>

#include "mesh/mesh_cache.hpp"
#include "sw/model.hpp"
#include "sw/reference.hpp"
#include "sw/testcases.hpp"

namespace mpas::sw {
namespace {

SwParams params_for(const mesh::VoronoiMesh& mesh, int tc_number) {
  const auto tc = make_test_case(tc_number);
  SwParams p;
  p.dt = suggested_time_step(*tc, mesh, 0.4);
  return p;
}

void init_model(SwModel& model, int tc_number) {
  const auto tc = make_test_case(tc_number);
  apply_initial_conditions(*tc, model.mesh(), model.fields());
  model.initialize();
}

void init_reference(ReferenceIntegrator& ref, int tc_number) {
  const auto tc = make_test_case(tc_number);
  apply_initial_conditions(*tc, ref.fields().mesh(), ref.fields());
  ref.initialize();
}

void expect_bitwise_equal(const FieldStore& a, const FieldStore& b) {
  for (FieldId id : {FieldId::H, FieldId::U, FieldId::Vorticity,
                     FieldId::PvEdge, FieldId::ReconZonal}) {
    const auto sa = a.get(id);
    const auto sb = b.get(id);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i)
      ASSERT_EQ(sa[i], sb[i]) << field_info(id).name << "[" << i << "]";
  }
}

TEST(HybridModel, DefaultExecutionMatchesReferenceBitwise) {
  const auto mesh = mesh::get_global_mesh(3);
  const SwParams p = params_for(*mesh, 5);

  ReferenceIntegrator ref(*mesh, p, LoopVariant::BranchFree);
  init_reference(ref, 5);
  ref.run(10);

  SwModel model(*mesh, p);
  init_model(model, 5);
  model.run(10);

  expect_bitwise_equal(model.fields(), ref.fields());
}

TEST(HybridModel, ThreadPoolExecutionMatchesReferenceBitwise) {
  const auto mesh = mesh::get_global_mesh(3);
  const SwParams p = params_for(*mesh, 6);

  ReferenceIntegrator ref(*mesh, p, LoopVariant::BranchFree);
  init_reference(ref, 6);
  ref.run(5);

  exec::ThreadPool pool(3);
  SwModel model(*mesh, p);
  model.set_pool(&pool);
  init_model(model, 6);
  model.run(5);

  expect_bitwise_equal(model.fields(), ref.fields());
}

TEST(HybridModel, HybridSplitScheduleMatchesReferenceBitwise) {
  // The paper's Figure 5 experiment in its strongest form: the hybrid
  // pattern-driven schedule (nodes on "host", "accelerator", and range
  // splits) computes exactly the same trajectory. Both sides run
  // branch-free loops, so equality is bitwise here; the paper's run
  // differed at rounding level only because their MIC used different fused
  // operations.
  const auto mesh = mesh::get_global_mesh(3);
  const SwParams p = params_for(*mesh, 5);

  ReferenceIntegrator ref(*mesh, p, LoopVariant::BranchFree);
  init_reference(ref, 5);
  ref.run(10);

  SwModel model(*mesh, p);
  core::SimOptions opts;
  opts.platform = machine::paper_platform();
  const auto sizes =
      core::MeshSizes{mesh->num_cells, mesh->num_edges, mesh->num_vertices};
  const auto& graphs = model.graphs();
  model.set_schedules(
      core::make_pattern_level_schedule(graphs.setup, sizes, opts),
      core::make_pattern_level_schedule(graphs.early, sizes, opts),
      core::make_pattern_level_schedule(graphs.final, sizes, opts));
  init_model(model, 5);
  model.run(10);

  expect_bitwise_equal(model.fields(), ref.fields());
}

TEST(HybridModel, IrregularScheduleMatchesIrregularReference) {
  const auto mesh = mesh::get_global_mesh(3);
  const SwParams p = params_for(*mesh, 5);

  ReferenceIntegrator ref(*mesh, p, LoopVariant::Irregular);
  init_reference(ref, 5);
  ref.run(5);

  SwModel model(*mesh, p);
  const auto& graphs = model.graphs();
  model.set_schedules(core::make_serial_baseline_schedule(graphs.setup),
                      core::make_serial_baseline_schedule(graphs.early),
                      core::make_serial_baseline_schedule(graphs.final));
  init_model(model, 5);
  model.run(5);

  expect_bitwise_equal(model.fields(), ref.fields());
}

TEST(HybridModel, DiffusionGraphsMatchReference) {
  const auto mesh = mesh::get_global_mesh(3);
  SwParams p = params_for(*mesh, 6);
  p.nu_del2_u = 1e5;
  p.nu_del2_h = 1e4;

  ReferenceIntegrator ref(*mesh, p, LoopVariant::BranchFree);
  init_reference(ref, 6);
  ref.run(5);

  SwModel model(*mesh, p);
  EXPECT_EQ(model.graphs().early.num_nodes(), 18);  // diffusion nodes present
  init_model(model, 6);
  model.run(5);

  expect_bitwise_equal(model.fields(), ref.fields());
}

TEST(HybridModel, NodeParallelExecutionMatchesReferenceBitwise) {
  // Level-synchronous concurrent execution of independent patterns — the
  // "inherent parallelism" of the data-flow diagram — must not change a
  // single bit.
  const auto mesh = mesh::get_global_mesh(3);
  const SwParams p = params_for(*mesh, 5);

  ReferenceIntegrator ref(*mesh, p, LoopVariant::BranchFree);
  init_reference(ref, 5);
  ref.run(8);

  exec::ThreadPool pool(4);
  SwModel model(*mesh, p);
  model.set_pool(&pool);
  model.set_node_parallel(true);
  init_model(model, 5);
  model.run(8);

  expect_bitwise_equal(model.fields(), ref.fields());
}

TEST(HybridModel, SegmentExchangesFirePerSyncPoint) {
  // initialize() and step() are cut at the graphs' halo-sync marks;
  // comm::DistributedSw exchanges each segment's fields before the next.
  const auto mesh = mesh::get_global_mesh(2);
  SwModel model(*mesh, params_for(*mesh, 2));
  apply_initial_conditions(*make_test_case(2), *mesh, model.fields());
  int provis_syncs = 0, state_syncs = 0, pv_syncs = 0, other_syncs = 0;
  auto run_phase = [&](SwModel::Phase phase) {
    provis_syncs = state_syncs = pv_syncs = other_syncs = 0;
    for (int i = 0; i < model.num_segments(phase); ++i) {
      model.run_segment(phase, i);
      for (FieldId f : model.segment_exchange(phase, i)) {
        if (f == FieldId::HProvis || f == FieldId::UProvis) ++provis_syncs;
        else if (f == FieldId::H || f == FieldId::U) ++state_syncs;
        else if (f == FieldId::PvEdge) ++pv_syncs;
        else ++other_syncs;
      }
    }
  };
  // initialize() recomputes the diagnostics from halo-coherent H/U, so it
  // asks for the pv_edge exchange only.
  run_phase(SwModel::Phase::Initialize);
  EXPECT_EQ(provis_syncs, 0);
  EXPECT_EQ(state_syncs, 0);
  EXPECT_EQ(pv_syncs, 1);
  EXPECT_EQ(other_syncs, 0);
  run_phase(SwModel::Phase::Step);
  // 3 early substeps x 2 provis fields; 1 final substep x 2 state fields;
  // pv_edge once per substep.
  EXPECT_EQ(provis_syncs, 6);
  EXPECT_EQ(state_syncs, 2);
  EXPECT_EQ(pv_syncs, 4);
  EXPECT_EQ(other_syncs, 0);
}

}  // namespace
}  // namespace mpas::sw
