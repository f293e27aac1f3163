// The locality cell order (mesh::renumber_cells): it moves values and never
// recomputes them, so the mesh build equals a renumbered copy of the
// generation-order mesh array for array, and a step on it is the permuted
// step on the generation-order mesh, bit for bit, for every loop variant, in
// the reference integrator and in SwModel serial or on a pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "exec/thread_pool.hpp"
#include "mesh/mesh.hpp"
#include "mesh/mesh_cache.hpp"
#include "mesh/mesh_quality.hpp"
#include "mesh/trimesh.hpp"
#include "sw/model.hpp"
#include "sw/reference.hpp"
#include "sw/testcases.hpp"

namespace mpas::mesh {
namespace {

/// The mesh as the generator numbers it: each subdivision generation of
/// cells is one block.
VoronoiMesh generation_order_mesh(int level) {
  VoronoiMesh m = build_voronoi_mesh(make_icosahedral_grid(level));
  m.subdivision_level = level;
  return m;
}

template <class Array>
bool same_bytes(const Array& a, const Array& b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(*a.data())) == 0);
}

template <class T>
bool same_bytes(const Array2D<T>& a, const Array2D<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void expect_same_mesh(const VoronoiMesh& a, const VoronoiMesh& b) {
  EXPECT_EQ(a.num_cells, b.num_cells);
  EXPECT_EQ(a.num_edges, b.num_edges);
  EXPECT_EQ(a.num_vertices, b.num_vertices);
  EXPECT_EQ(a.sphere_radius, b.sphere_radius);
  EXPECT_EQ(a.subdivision_level, b.subdivision_level);
#define MPAS_EXPECT_SAME_ARRAY(name) \
  EXPECT_TRUE(same_bytes(a.name, b.name)) << #name
  MPAS_EXPECT_SAME_ARRAY(x_cell);
  MPAS_EXPECT_SAME_ARRAY(x_edge);
  MPAS_EXPECT_SAME_ARRAY(x_vertex);
  MPAS_EXPECT_SAME_ARRAY(n_edges_on_cell);
  MPAS_EXPECT_SAME_ARRAY(edges_on_cell);
  MPAS_EXPECT_SAME_ARRAY(cells_on_cell);
  MPAS_EXPECT_SAME_ARRAY(vertices_on_cell);
  MPAS_EXPECT_SAME_ARRAY(edge_sign_on_cell);
  MPAS_EXPECT_SAME_ARRAY(cells_on_edge);
  MPAS_EXPECT_SAME_ARRAY(vertices_on_edge);
  MPAS_EXPECT_SAME_ARRAY(n_edges_on_edge);
  MPAS_EXPECT_SAME_ARRAY(edges_on_edge);
  MPAS_EXPECT_SAME_ARRAY(weights_on_edge);
  MPAS_EXPECT_SAME_ARRAY(cells_on_vertex);
  MPAS_EXPECT_SAME_ARRAY(edges_on_vertex);
  MPAS_EXPECT_SAME_ARRAY(edge_sign_on_vertex);
  MPAS_EXPECT_SAME_ARRAY(kite_areas_on_vertex);
  MPAS_EXPECT_SAME_ARRAY(kite_areas_on_cell);
  MPAS_EXPECT_SAME_ARRAY(dc_edge);
  MPAS_EXPECT_SAME_ARRAY(dv_edge);
  MPAS_EXPECT_SAME_ARRAY(area_cell);
  MPAS_EXPECT_SAME_ARRAY(area_triangle);
  MPAS_EXPECT_SAME_ARRAY(f_cell);
  MPAS_EXPECT_SAME_ARRAY(f_edge);
  MPAS_EXPECT_SAME_ARRAY(f_vertex);
  MPAS_EXPECT_SAME_ARRAY(lat_cell);
  MPAS_EXPECT_SAME_ARRAY(lon_cell);
  MPAS_EXPECT_SAME_ARRAY(lat_edge);
  MPAS_EXPECT_SAME_ARRAY(lon_edge);
  MPAS_EXPECT_SAME_ARRAY(lat_vertex);
  MPAS_EXPECT_SAME_ARRAY(lon_vertex);
  MPAS_EXPECT_SAME_ARRAY(boundary_edge);
  MPAS_EXPECT_SAME_ARRAY(edge_normal);
  MPAS_EXPECT_SAME_ARRAY(edge_tangent);
  MPAS_EXPECT_SAME_ARRAY(global_cell_id);
  MPAS_EXPECT_SAME_ARRAY(global_edge_id);
  MPAS_EXPECT_SAME_ARRAY(global_vertex_id);
#undef MPAS_EXPECT_SAME_ARRAY
}

enum class Runner { Reference, Serial, Pool };

const char* to_string(Runner r) {
  switch (r) {
    case Runner::Reference: return "ReferenceIntegrator";
    case Runner::Serial: return "SwModel serial";
    case Runner::Pool: return "SwModel ThreadPool(3)";
  }
  return "?";
}

constexpr int kSteps = 5;

/// A copy of every field, indexed by FieldId.
using Fields = std::vector<std::vector<Real>>;

Fields copy_fields(const sw::FieldStore& store) {
  Fields out;
  for (int f = 0; f < sw::kNumFields; ++f) {
    const auto data = store.get(static_cast<sw::FieldId>(f));
    out.emplace_back(data.begin(), data.end());
  }
  return out;
}

/// Five TC5 steps (with a cosine-bell tracer when the params carry one)
/// through `runner`.
Fields run_steps(const VoronoiMesh& mesh, const sw::SwParams& params,
                 sw::LoopVariant variant, Runner runner) {
  const auto tc = sw::make_test_case(5);
  const auto set_up = [&](sw::FieldStore& fields) {
    sw::apply_initial_conditions(*tc, mesh, fields);
    if (params.with_tracer)
      sw::apply_cosine_bell_tracer(mesh, fields, constants::kPi / 2, 0.0,
                                   constants::kPi / 4);
  };
  if (runner == Runner::Reference) {
    sw::ReferenceIntegrator ref(mesh, params, variant);
    set_up(ref.fields());
    ref.initialize();
    ref.run(kSteps);
    return copy_fields(ref.fields());
  }
  sw::SwModel model(mesh, params);
  const auto host = [&](const core::DataflowGraph& graph) {
    core::Schedule s =
        core::make_single_device_schedule(graph, core::DeviceSide::Host, "host");
    s.host_variant = static_cast<core::VariantChoice>(variant);
    return s;
  };
  const auto& graphs = model.graphs();
  model.set_schedules(host(graphs.setup), host(graphs.early),
                      host(graphs.final));
  exec::ThreadPool pool(3);
  if (runner == Runner::Pool) model.set_pool(&pool);
  set_up(model.fields());
  model.initialize();
  model.run(kSteps);
  return copy_fields(model.fields());
}

bool same_word(const Real& a, const Real& b) {
  return std::memcmp(&a, &b, sizeof(Real)) == 0;
}

/// Cell fields of the renumbered run are the generation-order run's,
/// read through `order`; edge and vertex fields are the same bytes.
void expect_permuted(const Fields& gen, const Fields& ren,
                     const std::vector<Index>& order) {
  for (int f = 0; f < sw::kNumFields; ++f) {
    const auto& info = sw::field_info(static_cast<sw::FieldId>(f));
    const auto& a = gen[static_cast<std::size_t>(f)];
    const auto& b = ren[static_cast<std::size_t>(f)];
    ASSERT_EQ(a.size(), b.size()) << info.name;
    if (info.location != MeshLocation::Cell) {
      EXPECT_TRUE(same_bytes(a, b)) << info.name << " differs";
      continue;
    }
    if (b.empty()) continue;
    ASSERT_EQ(b.size(), order.size()) << info.name;
    std::size_t diverged = 0;
    for (std::size_t n = 0; n < b.size(); ++n)
      if (!same_word(b[n], a[static_cast<std::size_t>(order[n])])) ++diverged;
    EXPECT_EQ(diverged, 0u) << info.name << ": cells off the permuted run";
  }
}

TEST(MeshNumbering, StepIsThePermutedStep) {
  for (const int level : {3, 4}) {
    SCOPED_TRACE("level " + std::to_string(level));
    const VoronoiMesh gen = generation_order_mesh(level);
    VoronoiMesh ren = gen;
    const std::vector<Index> order = renumber_cells(ren);

    // The order is a permutation of the cells.
    std::vector<Index> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    std::vector<Index> iota(static_cast<std::size_t>(gen.num_cells));
    std::iota(iota.begin(), iota.end(), 0);
    ASSERT_EQ(sorted, iota);

    expect_same_mesh(ren, build_icosahedral_voronoi_mesh(level));
    EXPECT_NO_THROW(ren.validate());

    for (const auto variant :
         {sw::LoopVariant::Irregular, sw::LoopVariant::Refactored,
          sw::LoopVariant::BranchFree}) {
      for (const bool tracer_and_diffusion : {false, true}) {
        sw::SwParams p;
        p.dt = sw::suggested_time_step(*sw::make_test_case(5), gen, 0.4);
        if (tracer_and_diffusion) {
          p.with_tracer = true;
          p.nu_del2_h = 1e4;
          p.nu_del2_u = 1e4;
        }
        for (const Runner runner :
             {Runner::Reference, Runner::Serial, Runner::Pool}) {
          SCOPED_TRACE(std::string(sw::to_string(variant)) + ", " +
                       to_string(runner) +
                       (tracer_and_diffusion ? ", tracer + del2" : ""));
          expect_permuted(run_steps(gen, p, variant, runner),
                          run_steps(ren, p, variant, runner), order);
        }
      }
    }
  }
}

TEST(MeshNumbering, FarNeighbourShareFallsBelowTenPercent) {
  // A cells_on_edge pair more than 512 ids apart puts the two cells of one
  // edge gather on different 4 KiB pages of a cell field.
  for (const int level : {5, 6}) {
    SCOPED_TRACE("level " + std::to_string(level));
    EXPECT_LT(compute_quality(build_icosahedral_voronoi_mesh(level))
                  .far_neighbour_share,
              0.10);
    EXPECT_GT(compute_quality(generation_order_mesh(level)).far_neighbour_share,
              0.40);
  }
}

}  // namespace
}  // namespace mpas::mesh
