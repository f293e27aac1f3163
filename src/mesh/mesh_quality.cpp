#include "mesh/mesh_quality.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace mpas::mesh {

namespace {

constexpr Index kFarNeighbourGap = 512;  // one 4 KiB page of doubles

}  // namespace

MeshQuality compute_quality(const VoronoiMesh& m) {
  MeshQuality q;
  q.num_cells = m.num_cells;
  q.num_edges = m.num_edges;
  q.num_vertices = m.num_vertices;

  for (Index c = 0; c < m.num_cells; ++c) {
    if (m.n_edges_on_cell[c] == 5) ++q.pentagon_cells;
    else ++q.hexagon_cells;
  }

  q.dc_min = q.dc_max = m.dc_edge[0];
  q.dv_min = q.dv_max = m.dv_edge[0];
  Real dc_sum = 0, dv_sum = 0;
  Index far = 0;
  for (Index e = 0; e < m.num_edges; ++e) {
    q.dc_min = std::min(q.dc_min, m.dc_edge[e]);
    q.dc_max = std::max(q.dc_max, m.dc_edge[e]);
    q.dv_min = std::min(q.dv_min, m.dv_edge[e]);
    q.dv_max = std::max(q.dv_max, m.dv_edge[e]);
    dc_sum += m.dc_edge[e];
    dv_sum += m.dv_edge[e];
    if (std::abs(m.cells_on_edge(e, 1) - m.cells_on_edge(e, 0)) >
        kFarNeighbourGap)
      ++far;
  }
  q.far_neighbour_share = static_cast<Real>(far) / m.num_edges;
  q.dc_mean = dc_sum / m.num_edges;
  q.dv_mean = dv_sum / m.num_edges;
  q.resolution_km = q.dc_mean / 1000.0;

  q.area_min = q.area_max = m.area_cell[0];
  for (Index c = 0; c < m.num_cells; ++c) {
    q.area_min = std::min(q.area_min, m.area_cell[c]);
    q.area_max = std::max(q.area_max, m.area_cell[c]);
  }
  return q;
}

std::string MeshQuality::summary() const {
  std::ostringstream os;
  os << num_cells << " cells (" << pentagon_cells << " pentagons), "
     << num_edges << " edges, " << num_vertices << " vertices; "
     << "mean spacing " << resolution_km << " km, dc ratio "
     << (dc_min > 0 ? dc_max / dc_min : 0) << ", area ratio "
     << (area_min > 0 ? area_max / area_min : 0) << ", far neighbours "
     << far_neighbour_share;
  return os.str();
}

}  // namespace mpas::mesh
