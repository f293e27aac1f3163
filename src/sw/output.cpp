#include "sw/output.hpp"

#include <fstream>

#include "util/error.hpp"

namespace mpas::sw {

void write_vtk(const std::string& path, const mesh::VoronoiMesh& m,
               const FieldStore& fields,
               const std::vector<FieldId>& cell_fields) {
  for (FieldId f : cell_fields)
    MPAS_CHECK_MSG(field_info(f).location == MeshLocation::Cell,
                   "write_vtk: '" << field_info(f).name
                                  << "' is not a cell field");

  std::ofstream os(path);
  MPAS_CHECK_MSG(os.good(), "cannot open '" << path << "'");
  os << "# vtk DataFile Version 3.0\n"
     << "MPAS shallow-water Voronoi mesh\nASCII\nDATASET POLYDATA\n";

  // Points: the Voronoi polygon corners (triangle circumcenters), scaled
  // to the sphere radius.
  os << "POINTS " << m.num_vertices << " double\n";
  for (Index v = 0; v < m.num_vertices; ++v) {
    const Vec3 p = m.x_vertex[v] * m.sphere_radius;
    os << p.x << " " << p.y << " " << p.z << "\n";
  }

  // Polygons: one per Voronoi cell, corners in CCW order.
  std::int64_t index_count = 0;
  for (Index c = 0; c < m.num_cells; ++c)
    index_count += 1 + m.n_edges_on_cell[c];
  os << "POLYGONS " << m.num_cells << " " << index_count << "\n";
  for (Index c = 0; c < m.num_cells; ++c) {
    os << m.n_edges_on_cell[c];
    for (Index j = 0; j < m.n_edges_on_cell[c]; ++j)
      os << " " << m.vertices_on_cell(c, j);
    os << "\n";
  }

  os << "CELL_DATA " << m.num_cells << "\n";
  for (FieldId f : cell_fields) {
    const auto data = fields.get(f);
    os << "SCALARS " << field_info(f).name << " double 1\nLOOKUP_TABLE default\n";
    for (Index c = 0; c < m.num_cells; ++c) os << data[c] << "\n";
  }
  MPAS_CHECK_MSG(os.good(), "write failure on '" << path << "'");
}

}  // namespace mpas::sw
