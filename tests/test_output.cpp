// Tests for visualization output: VTK structure and field checks. The
// restart tests live with the state codec (tests/test_durable.cpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "mesh/mesh_cache.hpp"
#include "sw/output.hpp"
#include "sw/testcases.hpp"

namespace mpas::sw {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Vtk, WritesWellFormedPolyData) {
  const auto mesh = mesh::get_global_mesh(2);
  FieldStore fields(*mesh);
  const auto tc = make_test_case(5);
  apply_initial_conditions(*tc, *mesh, fields);

  const std::string path = temp_path("mpas_test.vtk");
  write_vtk(path, *mesh, fields, {FieldId::H, FieldId::Bottom});

  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::remove(path.c_str());

  EXPECT_NE(text.find("# vtk DataFile"), std::string::npos);
  EXPECT_NE(text.find("DATASET POLYDATA"), std::string::npos);
  std::ostringstream points;
  points << "POINTS " << mesh->num_vertices << " double";
  EXPECT_NE(text.find(points.str()), std::string::npos);
  std::ostringstream polys;
  polys << "POLYGONS " << mesh->num_cells;
  EXPECT_NE(text.find(polys.str()), std::string::npos);
  EXPECT_NE(text.find("SCALARS h double 1"), std::string::npos);
  EXPECT_NE(text.find("SCALARS b double 1"), std::string::npos);
}

TEST(Vtk, RejectsNonCellFields) {
  const auto mesh = mesh::get_global_mesh(2);
  FieldStore fields(*mesh);
  EXPECT_THROW(
      write_vtk(temp_path("bad.vtk"), *mesh, fields, {FieldId::U}), Error);
}

}  // namespace
}  // namespace mpas::sw
