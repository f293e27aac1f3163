// Multi-rank integration through the simulated-MPI layer: partitions the
// sphere with recursive coordinate bisection, runs the distributed
// integrator (ranks compute concurrently on min(ranks, cores) threads; halo
// exchanges run in a fixed order on the calling thread), verifies the
// result against a serial run, and reports the measured time per step and
// partition/halo/communication statistics — the measured counterpart of
// the modeled Figure 8/9 scaling benches. Exits 1 unless thickness and
// velocity are bitwise identical to the serial run.
//
// Run:  ./parallel_sphere [level=4] [ranks=8] [steps=20]
#include <cmath>
#include <cstdio>
#include <cstring>

#include "comm/distributed.hpp"
#include "mesh/mesh_cache.hpp"
#include "sw/reference.hpp"
#include "util/config.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace mpas;

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const int level = static_cast<int>(cfg.get_int("level", 4));
  const int ranks = static_cast<int>(cfg.get_int("ranks", 8));
  const int steps = static_cast<int>(cfg.get_int("steps", 20));

  const auto mesh = mesh::get_global_mesh(level);
  const auto tc = sw::make_test_case(5);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);

  std::printf("mesh %s (%d cells), %d ranks, %d steps\n",
              mesh->resolution_label().c_str(), mesh->num_cells, ranks, steps);

  // Partition + halo statistics per rank.
  const auto part = partition::partition_cells_rcb(*mesh, ranks);
  const auto q = partition::evaluate_partition(*mesh, part);
  std::printf(
      "partition: %d..%d cells/rank (imbalance %.1f%%), %d cut edges, "
      "avg %.1f neighbors\n\n",
      q.min_cells, q.max_cells, q.imbalance * 100, q.cut_edges,
      q.avg_neighbors);

  comm::DistributedSw dist(*mesh, ranks, params);
  Table t({"rank", "owned cells", "halo cells", "owned edges", "neighbors"});
  for (int r = 0; r < ranks; ++r) {
    const auto& lm = dist.local_mesh(r);
    t.add_row({std::to_string(r), std::to_string(lm.num_owned_cells),
               std::to_string(lm.mesh.num_cells - lm.num_owned_cells),
               std::to_string(lm.num_owned_edges),
               std::to_string(dist.plan(r).num_neighbors())});
  }
  std::printf("%s\n", t.to_ascii().c_str());

  dist.apply_test_case(*tc);
  dist.initialize();
  WallTimer timer;
  dist.run(steps);
  const double wall_s = timer.seconds();
  std::printf("distributed run: %.2f s wall (%.2f ms per step), %llu "
              "messages, %.2f MB exchanged\n",
              wall_s, wall_s * 1e3 / steps,
              static_cast<unsigned long long>(dist.comm_stats().messages),
              static_cast<double>(dist.comm_stats().bytes) / 1e6);

  // Serial cross-check.
  sw::ReferenceIntegrator serial(*mesh, params, sw::LoopVariant::BranchFree);
  sw::apply_initial_conditions(*tc, *mesh, serial.fields());
  serial.initialize();
  serial.run(steps);

  // Owned values must match the serial run bit for bit.
  bool identical = true;
  for (const sw::FieldId field : {sw::FieldId::H, sw::FieldId::U}) {
    const auto got = dist.gather_global(field);
    const auto want = serial.fields().get(field);
    Real max_diff = 0;
    for (std::size_t i = 0; i < got.size(); ++i)
      max_diff = std::max(max_diff, std::abs(got[i] - want[i]));
    const bool same =
        std::memcmp(got.data(), want.data(), got.size() * sizeof(Real)) == 0;
    identical = identical && same;
    std::printf("max |distributed - serial| %s: %.3e %s\n",
                sw::field_info(field).name, max_diff,
                same ? "(bitwise identical)" : "(DIFFERS)");
  }
  return identical ? 0 : 1;
}
