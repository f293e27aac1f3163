// Regenerates Table III: the quasi-uniform SCVT mesh inventory. Counts for
// all four paper meshes come from the icosahedral formulas (10*4^k + 2);
// the smaller meshes are additionally generated to verify resolution and
// quality (set `max_built_level` to build the bigger ones too).
#include <cstdio>

#include "bench_common.hpp"
#include "mesh/mesh_cache.hpp"
#include "mesh/trimesh.hpp"
#include "mesh/mesh_quality.hpp"
#include "util/config.hpp"

using namespace mpas;

int main(int argc, char** argv) {
  const Config cfg = bench::bench_init(argc, argv, "table3_meshes");
  const int max_built_level =
      static_cast<int>(cfg.get_int("max_built_level", 7));
  bench::add_info("max_built_level", static_cast<Real>(max_built_level),
                  "level");

  std::printf("== Table III: mesh information list ==\n\n");
  Table t({"resolution", "# of mesh cells", "# of edges", "# of vertices",
           "measured mean spacing (km)", "dc max/min",
           "far neighbour share"});
  for (int level : mesh::kPaperLevels) {
    std::string spacing = "-", ratio = "-", far = "-";
    if (level <= max_built_level) {
      const auto m = mesh::get_global_mesh(level);
      const auto q = mesh::compute_quality(*m);
      spacing = Table::fixed(q.resolution_km, 1);
      ratio = Table::fixed(q.dc_max / q.dc_min, 3);
      far = Table::fixed(q.far_neighbour_share, 3);
      bench::add_info("dc_ratio_level" + std::to_string(level),
                      q.dc_max / q.dc_min, "ratio");
      bench::add_info("far_neighbour_share_level" + std::to_string(level),
                      q.far_neighbour_share, "ratio");
    }
    t.add_row({mesh::resolution_label_for_level(level),
               std::to_string(mesh::icosahedral_cell_count(level)),
               std::to_string(mesh::icosahedral_edge_count(level)),
               std::to_string(mesh::icosahedral_vertex_count(level)),
               spacing, ratio, far});
  }
  bench::emit(t, "table3_meshes");
  std::printf(
      "Paper Table III lists 40962 / 163842 / 655362 / 2621442 cells for\n"
      "120/60/30/15-km — identical counts by construction. The far\n"
      "neighbour share counts cells_on_edge pairs more than 512 ids (one\n"
      "4 KiB page of doubles) apart in the locality cell order.\n");
  return 0;
}
