// Unit tests for the util substrate: aligned storage, 2-D arrays, spherical
// geometry, config parsing, log levels, and table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/aligned_vector.hpp"
#include "util/array2d.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "util/types.hpp"
#include "util/vec3.hpp"

namespace mpas {
namespace {

TEST(AlignedVector, BaseAddressIs64ByteAligned) {
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    AlignedVector<double> v(n, 1.0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kFieldAlignment, 0u);
  }
}

TEST(AlignedVector, BehavesLikeVector) {
  AlignedVector<int> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v[42], 42);
}

TEST(Array2D, IndexingAndRows) {
  Array2D<int> a(3, 4, -1);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 4);
  a(1, 2) = 7;
  EXPECT_EQ(a(1, 2), 7);
  auto row = a.row(1);
  EXPECT_EQ(row.size(), 4u);
  EXPECT_EQ(row[2], 7);
  EXPECT_EQ(row[0], -1);
}

TEST(Array2D, EqualityComparesShapeAndData) {
  Array2D<int> a(2, 2, 0), b(2, 2, 0);
  EXPECT_EQ(a, b);
  b(0, 1) = 5;
  EXPECT_FALSE(a == b);
}

TEST(Vec3, CrossAndDot) {
  const Vec3 x{1, 0, 0}, y{0, 1, 0}, z{0, 0, 1};
  const Vec3 c = x.cross(y);
  EXPECT_NEAR(c.x, z.x, 1e-15);
  EXPECT_NEAR(c.y, z.y, 1e-15);
  EXPECT_NEAR(c.z, z.z, 1e-15);
  EXPECT_DOUBLE_EQ(x.dot(y), 0.0);
}

TEST(Sphere, ArcLengthMatchesAngle) {
  const Vec3 a{1, 0, 0};
  const Vec3 b = sphere::from_lon_lat(0.3, 0.0);
  EXPECT_NEAR(sphere::arc_length(a, b), 0.3, 1e-14);
  // Antipodal points: arc length is pi.
  EXPECT_NEAR(sphere::arc_length(a, {-1, 0, 0}), constants::kPi, 1e-14);
}

TEST(Sphere, OctantTriangleArea) {
  // The (+x,+y,+z) octant triangle covers 1/8 of the sphere: area pi/2.
  const Real area =
      sphere::triangle_area({1, 0, 0}, {0, 1, 0}, {0, 0, 1});
  EXPECT_NEAR(area, constants::kPi / 2, 1e-12);
}

TEST(Sphere, CircumcenterIsEquidistant) {
  const Vec3 a = sphere::from_lon_lat(0.1, 0.2);
  const Vec3 b = sphere::from_lon_lat(0.5, 0.1);
  const Vec3 c = sphere::from_lon_lat(0.3, 0.5);
  const Vec3 cc = sphere::circumcenter(a, b, c);
  EXPECT_NEAR(cc.norm(), 1.0, 1e-14);
  const Real da = sphere::arc_length(cc, a);
  EXPECT_NEAR(sphere::arc_length(cc, b), da, 1e-12);
  EXPECT_NEAR(sphere::arc_length(cc, c), da, 1e-12);
  // Same hemisphere as the triangle.
  EXPECT_GT(cc.dot(a + b + c), 0);
}

TEST(Sphere, EastNorthFrameIsOrthonormalRightHanded) {
  const Vec3 p = sphere::from_lon_lat(1.2, 0.7);
  const Vec3 e = sphere::east_at(p);
  const Vec3 n = sphere::north_at(p);
  EXPECT_NEAR(e.norm(), 1.0, 1e-14);
  EXPECT_NEAR(n.norm(), 1.0, 1e-13);
  EXPECT_NEAR(e.dot(n), 0.0, 1e-14);
  EXPECT_NEAR(e.dot(p), 0.0, 1e-14);
  // east x north == up (outward radial).
  const Vec3 up = e.cross(n);
  EXPECT_NEAR(up.dot(p.normalized()), 1.0, 1e-12);
  // North points toward increasing latitude.
  const Vec3 q = sphere::from_lon_lat(1.2, 0.7001);
  EXPECT_GT(n.dot(q - p), 0);
}

TEST(Sphere, LonLatRoundTrip) {
  for (Real lon : {0.0, 1.0, 3.0, 6.0})
    for (Real lat : {-1.3, -0.4, 0.0, 0.9}) {
      const Vec3 p = sphere::from_lon_lat(lon, lat);
      EXPECT_NEAR(sphere::longitude(p), lon, 1e-12);
      EXPECT_NEAR(sphere::latitude(p), lat, 1e-12);
    }
}

TEST(Config, ParsesTypedValues) {
  const char* argv[] = {"prog", "level=7", "dt=90.5", "hybrid=true", "flag"};
  const Config cfg = Config::from_args(5, argv);
  EXPECT_EQ(cfg.get_int("level", -1), 7);
  EXPECT_DOUBLE_EQ(cfg.get_real("dt", 0), 90.5);
  EXPECT_TRUE(cfg.get_bool("hybrid", false));
  EXPECT_TRUE(cfg.get_bool("flag", false));
  EXPECT_EQ(cfg.get_int("missing", 42), 42);
}

TEST(Config, RejectsMalformedNumbers) {
  Config cfg;
  cfg.set("dt", "fast");
  EXPECT_THROW(static_cast<void>(cfg.get_real("dt", 0)), Error);
  cfg.set("n", "12x");
  EXPECT_THROW(static_cast<void>(cfg.get_int("n", 0)), Error);
  cfg.set("b", "maybe");
  EXPECT_THROW(static_cast<void>(cfg.get_bool("b", false)), Error);
}

TEST(Logger, ParsesLevelNamesAndNumbers) {
  EXPECT_EQ(Logger::parse_level("debug"), LogLevel::Debug);
  EXPECT_EQ(Logger::parse_level("INFO"), LogLevel::Info);
  EXPECT_EQ(Logger::parse_level("Warn"), LogLevel::Warn);
  EXPECT_EQ(Logger::parse_level("error"), LogLevel::Error);
  EXPECT_EQ(Logger::parse_level("off"), LogLevel::Off);
  EXPECT_EQ(Logger::parse_level("0"), LogLevel::Debug);
  EXPECT_EQ(Logger::parse_level("4"), LogLevel::Off);
  EXPECT_EQ(Logger::parse_level("verbose"), std::nullopt);
  EXPECT_EQ(Logger::parse_level("7"), std::nullopt);
  EXPECT_EQ(Logger::parse_level(""), std::nullopt);
}

TEST(Table, AsciiAndCsvRendering) {
  Table t({"mesh", "cells"});
  t.add_row({"120-km", "40962"});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("120-km"), std::string::npos);
  EXPECT_NE(ascii.find("cells"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_EQ(csv, "mesh,cells\n120-km,40962\n");
  EXPECT_THROW(t.add_row({"only-one-cell"}), Error);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t({"a"});
  t.add_row({"x,y"});
  t.add_row({"he said \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Error, ChecksThrowWithContext) {
  EXPECT_THROW(MPAS_CHECK(1 == 2), Error);
  try {
    MPAS_CHECK_MSG(false, "value was " << 41);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value was 41"), std::string::npos);
  }
}

}  // namespace
}  // namespace mpas
