// Round-trip and corruption tests for the binary mesh format.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>

#include "mesh/mesh_cache.hpp"
#include "mesh/mesh_io.hpp"
#include "util/error.hpp"

namespace mpas::mesh {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(MeshIo, RoundTripPreservesEverything) {
  const VoronoiMesh m = build_icosahedral_voronoi_mesh(3);
  const std::string path = temp_path("mpas_roundtrip.mpasmesh");
  save_mesh(m, path);
  const VoronoiMesh r = load_mesh(path);
  std::remove(path.c_str());

  EXPECT_EQ(r.num_cells, m.num_cells);
  EXPECT_EQ(r.num_edges, m.num_edges);
  EXPECT_EQ(r.num_vertices, m.num_vertices);
  EXPECT_EQ(r.subdivision_level, m.subdivision_level);
  EXPECT_EQ(r.sphere_radius, m.sphere_radius);
  EXPECT_EQ(r.edges_on_cell, m.edges_on_cell);
  EXPECT_EQ(r.cells_on_edge, m.cells_on_edge);
  EXPECT_EQ(r.weights_on_edge, m.weights_on_edge);
  EXPECT_EQ(r.kite_areas_on_vertex, m.kite_areas_on_vertex);
  ASSERT_EQ(r.area_cell.size(), m.area_cell.size());
  for (std::size_t i = 0; i < m.area_cell.size(); ++i)
    EXPECT_EQ(r.area_cell[i], m.area_cell[i]);
  ASSERT_EQ(r.x_cell.size(), m.x_cell.size());
  for (std::size_t i = 0; i < m.x_cell.size(); ++i) {
    EXPECT_EQ(r.x_cell[i].x, m.x_cell[i].x);
    EXPECT_EQ(r.x_cell[i].z, m.x_cell[i].z);
  }
  r.validate();
}

TEST(MeshIo, MissingFileThrows) {
  EXPECT_THROW(load_mesh("/nonexistent/dir/mesh.mpasmesh"), Error);
}

TEST(MeshIo, BadMagicThrows) {
  const std::string path = temp_path("mpas_badmagic.mpasmesh");
  {
    std::ofstream os(path, std::ios::binary);
    os << "NOTAMESHFILE.................................";
  }
  EXPECT_THROW(load_mesh(path), Error);
  std::remove(path.c_str());
}

TEST(MeshIo, BitFlippedPayloadFailsChecksum) {
  const VoronoiMesh m = build_icosahedral_voronoi_mesh(2);
  const std::string path = temp_path("mpas_bitflip.mpasmesh");
  save_mesh(m, path);
  // Flip one bit deep in the payload: sizes and structure still parse, so
  // only the checksum can catch it.
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(f.tellg());
  ASSERT_GT(size, 1024);
  f.seekg(size / 2);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  f.seekp(size / 2);
  f.write(&byte, 1);
  f.close();
  EXPECT_THROW(load_mesh(path), Error);
  std::remove(path.c_str());
}

TEST(MeshIo, TrailingGarbageDetected) {
  const VoronoiMesh m = build_icosahedral_voronoi_mesh(2);
  const std::string path = temp_path("mpas_trailing.mpasmesh");
  save_mesh(m, path);
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os << "extra";
  }
  EXPECT_THROW(load_mesh(path), Error);
  std::remove(path.c_str());
}

// MPAS_MESH_CACHE set but empty means the default directory, ./mesh_cache,
// as an empty value means the default for every MPAS_* variable.
TEST(MeshCache, EmptyVariableMeansTheDefaultDirectory) {
  const std::filesystem::path home = std::filesystem::current_path();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mpas_cache_default_" + std::to_string(static_cast<long>(::getpid())));
  std::filesystem::create_directories(dir);
  const std::optional<std::string> prev =
      ::getenv("MPAS_MESH_CACHE") != nullptr
          ? std::optional<std::string>(::getenv("MPAS_MESH_CACHE"))
          : std::nullopt;
  ::setenv("MPAS_MESH_CACHE", "", 1);
  std::filesystem::current_path(dir);
  const auto mesh = get_global_mesh(0);  // no other test builds level 0
  const bool cached =
      std::filesystem::exists(dir / "mesh_cache" / "icos_level0.mpasmesh");
  std::filesystem::current_path(home);
  if (prev)
    ::setenv("MPAS_MESH_CACHE", prev->c_str(), 1);
  else
    ::unsetenv("MPAS_MESH_CACHE");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ASSERT_NE(mesh, nullptr);
  EXPECT_TRUE(cached);
}

// The cache must *regenerate* (not crash, not trust) on a corrupt file:
// point MPAS_MESH_CACHE at a directory holding a damaged level-2 file and
// ask for the mesh — the damaged file is replaced and the result valid.
class MeshCacheCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mpas_cache_corrupt_" +
            std::to_string(static_cast<long>(::getpid())));
    std::filesystem::create_directories(dir_);
    prev_ = ::getenv("MPAS_MESH_CACHE") != nullptr
                ? std::optional<std::string>(::getenv("MPAS_MESH_CACHE"))
                : std::nullopt;
    ::setenv("MPAS_MESH_CACHE", dir_.c_str(), 1);
  }
  void TearDown() override {
    if (prev_)
      ::setenv("MPAS_MESH_CACHE", prev_->c_str(), 1);
    else
      ::unsetenv("MPAS_MESH_CACHE");
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string cache_file(int level) const {
    return (dir_ / ("icos_level" + std::to_string(level) + ".mpasmesh"))
        .string();
  }
  std::filesystem::path dir_;
  std::optional<std::string> prev_;
};

TEST_F(MeshCacheCorruption, TruncatedCacheFileRegenerates) {
  const VoronoiMesh m = build_icosahedral_voronoi_mesh(1);
  const std::string path = cache_file(1);
  save_mesh(m, path);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 3);

  const auto mesh = get_global_mesh(1);
  ASSERT_NE(mesh, nullptr);
  EXPECT_EQ(mesh->num_cells, m.num_cells);
  mesh->validate();
  // The damaged file was replaced by a loadable one.
  const VoronoiMesh reloaded = load_mesh(path);
  EXPECT_EQ(reloaded.num_cells, m.num_cells);
}

TEST_F(MeshCacheCorruption, BitFlippedCacheFileRegenerates) {
  const VoronoiMesh m = build_icosahedral_voronoi_mesh(2);
  const std::string path = cache_file(2);
  save_mesh(m, path);
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(f.tellg());
  f.seekp(2 * size / 3);
  const char byte = 0x55;
  f.write(&byte, 1);
  f.close();

  const auto mesh = get_global_mesh(2);
  ASSERT_NE(mesh, nullptr);
  EXPECT_EQ(mesh->num_cells, m.num_cells);
  mesh->validate();
}

TEST(MeshIo, TruncatedFileThrows) {
  const VoronoiMesh m = build_icosahedral_voronoi_mesh(2);
  const std::string full = temp_path("mpas_full.mpasmesh");
  save_mesh(m, full);
  // Truncate to the first half.
  std::ifstream in(full, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::string cut = temp_path("mpas_cut.mpasmesh");
  {
    std::ofstream os(cut, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(load_mesh(cut), Error);
  std::remove(full.c_str());
  std::remove(cut.c_str());
}

// Truncation sweep: a cache file cut at ANY length must throw Error —
// never crash, never allocate from a fabricated element count (the byte
// budget bounds every count by the bytes actually present). Dense over
// the header and first length words, strided through the bulk payload.
TEST(MeshIo, TruncationSweepFailsClosedEverywhere) {
  const VoronoiMesh m = build_icosahedral_voronoi_mesh(1);
  const std::string full = temp_path("mpas_sweep_full.mpasmesh");
  save_mesh(m, full);
  std::ifstream in(full, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  std::remove(full.c_str());
  ASSERT_GT(bytes.size(), 256u);

  const std::string cut = temp_path("mpas_sweep_cut.mpasmesh");
  const auto try_size = [&](std::size_t size) {
    {
      std::ofstream os(cut, std::ios::binary);
      os.write(bytes.data(), static_cast<std::streamsize>(size));
    }
    EXPECT_THROW(load_mesh(cut), Error) << "truncated to " << size << " of "
                                        << bytes.size() << " bytes";
  };
  for (std::size_t size = 0; size < 256; ++size) try_size(size);
  for (std::size_t size = 256; size < bytes.size(); size += 19)
    try_size(size);
  try_size(bytes.size() - 1);
  std::remove(cut.c_str());
}

}  // namespace
}  // namespace mpas::mesh
