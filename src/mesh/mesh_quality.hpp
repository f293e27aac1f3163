// Mesh quality metrics: spacing statistics, area ratios, cell-degree census.
// Used by the Table III bench and by tests asserting quasi-uniformity.
#pragma once

#include <string>

#include "mesh/mesh.hpp"

namespace mpas::mesh {

struct MeshQuality {
  Index num_cells = 0;
  Index num_edges = 0;
  Index num_vertices = 0;
  Index pentagon_cells = 0;
  Index hexagon_cells = 0;
  Real dc_min = 0, dc_max = 0, dc_mean = 0;   // cell-center spacing (m)
  Real dv_min = 0, dv_max = 0, dv_mean = 0;   // vertex spacing (m)
  Real area_min = 0, area_max = 0;            // cell areas (m^2)
  Real resolution_km = 0;                     // mean dcEdge in km
  /// Memory locality: the share of cells_on_edge pairs whose ids lie more
  /// than 512 apart (one 4 KiB page of doubles), so a gather over the edge
  /// touches two pages of a cell field.
  Real far_neighbour_share = 0;

  [[nodiscard]] std::string summary() const;
};

MeshQuality compute_quality(const VoronoiMesh& mesh);

}  // namespace mpas::mesh
