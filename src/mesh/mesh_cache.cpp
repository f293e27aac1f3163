#include "mesh/mesh_cache.hpp"

#include <filesystem>
#include <map>

#include "mesh/mesh_io.hpp"
#include "util/env.hpp"
#include "util/lock_ranks.hpp"
#include "util/mutex.hpp"
#include "mesh/trimesh.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace mpas::mesh {

VoronoiMesh build_icosahedral_voronoi_mesh(int level, Real sphere_radius,
                                           int scvt_iterations) {
  TriMesh tri = make_icosahedral_grid(level);
  if (scvt_iterations > 0) scvt_relax(tri, scvt_iterations);
  VoronoiMesh m = build_voronoi_mesh(tri, sphere_radius);
  m.subdivision_level = level;
  return m;
}

namespace {

std::filesystem::path cache_dir() {
  return *env::text("MPAS_MESH_CACHE");  // declared with a default
}

std::filesystem::path cache_path(int level) {
  return cache_dir() / ("icos_level" + std::to_string(level) + ".mpasmesh");
}

}  // namespace

std::shared_ptr<const VoronoiMesh> get_global_mesh(int level) {
  static util::Mutex mutex{"mesh.mesh_cache", util::lockrank::kMeshCache};
  static std::map<int, std::shared_ptr<const VoronoiMesh>> memo;

  // Cache fill (load or regenerate, both slow) happens under the memo lock
  // on purpose: two threads asking for the same level must not build it
  // twice or race the cache file.
  // concurrency-lint: allow(blocking-under-lock) cache fill is the critical section
  util::LockGuard lock(mutex);
  if (auto it = memo.find(level); it != memo.end()) return it->second;

  const auto path = cache_path(level);
  std::shared_ptr<VoronoiMesh> mesh;
  if (std::filesystem::exists(path)) {
    // A cache file is a convenience, never an authority: any load failure
    // (stale version, truncation, checksum mismatch, validation error) is
    // logged and the mesh regenerated — a corrupt cache must not take the
    // process down or, worse, hand out bad connectivity.
    WallTimer t;
    try {
      mesh = std::make_shared<VoronoiMesh>(load_mesh(path.string()));
      MPAS_LOG_INFO << "loaded level-" << level << " mesh ("
                    << mesh->num_cells << " cells) from cache in "
                    << t.seconds() << " s";
    } catch (const std::exception& e) {
      MPAS_LOG_WARN << "mesh cache load failed (" << e.what()
                    << "); regenerating level-" << level << " mesh";
      mesh = nullptr;
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  }
  if (!mesh) {
    WallTimer t;
    mesh = std::make_shared<VoronoiMesh>(build_icosahedral_voronoi_mesh(level));
    MPAS_LOG_INFO << "built level-" << level << " mesh (" << mesh->num_cells
                  << " cells) in " << t.seconds() << " s";
    std::error_code ec;
    std::filesystem::create_directories(cache_dir(), ec);
    if (!ec) {
      try {
        save_mesh(*mesh, path.string());
      } catch (const std::exception& e) {
        MPAS_LOG_WARN << "mesh cache write failed: " << e.what();
      }
    }
  }
  memo.emplace(level, mesh);
  return memo.at(level);
}

}  // namespace mpas::mesh
