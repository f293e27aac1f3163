// Process-wide mesh registry with an optional on-disk cache.
//
// The paper's experiments use four quasi-uniform meshes (subdivision levels
// 6..9). Generating the larger ones is expensive, so get_global_mesh()
// memoizes per level in memory and, when the environment variable
// MPAS_MESH_CACHE points at a directory (or "./mesh_cache" exists), also
// round-trips through the binary mesh format.
#pragma once

#include <memory>

#include "mesh/mesh.hpp"

namespace mpas::mesh {

/// The standard experiment mesh for a subdivision level (Earth radius,
/// labeled per Table III). Thread-safe; returns a shared immutable mesh.
/// Cache files carry a version + checksum header; a stale, truncated, or
/// bit-flipped file is logged, deleted, and regenerated, never trusted.
std::shared_ptr<const VoronoiMesh> get_global_mesh(int level);

/// Build a fresh mesh without touching the cache (used by tests that need
/// mutation or non-standard radii). Its cells are in the locality order of
/// renumber_cells; build_voronoi_mesh(make_icosahedral_grid(level)) gives
/// the generation order.
VoronoiMesh build_icosahedral_voronoi_mesh(
    int level, Real sphere_radius = constants::kEarthRadius,
    int scvt_iterations = 0);

/// Paper Table III: levels used in the evaluation.
inline constexpr int kPaperLevels[] = {6, 7, 8, 9};

}  // namespace mpas::mesh
