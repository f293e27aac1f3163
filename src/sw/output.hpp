// Field output for visualization: legacy-VTK PolyData of the Voronoi cells
// (polygons built from the dual-triangle circumcenters) with any set of
// cell-centred fields attached — loadable directly in ParaView/VisIt.
// Restart state goes through sw/state_codec.hpp instead.
#pragma once

#include <string>
#include <vector>

#include "sw/fields.hpp"

namespace mpas::sw {

/// Write the mesh and the given cell-centred fields to a legacy VTK file.
/// Throws on I/O failure or if any field is not cell-centred.
void write_vtk(const std::string& path, const mesh::VoronoiMesh& mesh,
               const FieldStore& fields, const std::vector<FieldId>& cell_fields);

}  // namespace mpas::sw
