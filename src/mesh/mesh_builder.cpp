// Constructs the full MPAS-style Voronoi mesh (connectivity + metrics) as the
// dual of an icosahedral-class spherical triangulation.
//
// Area bookkeeping: kite areas are computed from the exact spherical quads
// (cell center, edge point, vertex, edge point); cell areas and triangle
// areas are then defined as sums of their kites. This makes two identities
// *exact* (not just approximate):
//   sum of kites around a cell   == areaCell   (required for the TRiSK
//       tangential weights to be antisymmetric -> Coriolis does no work)
//   sum of kites around a vertex == areaTriangle (required for the
//       cell->vertex thickness interpolation to be conservative)
// and the kites tile the sphere, so total cell area == total triangle area
// == 4*pi*R^2 to rounding error.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <unordered_map>

#include "mesh/mesh.hpp"
#include "mesh/trimesh.hpp"
#include "util/error.hpp"

namespace mpas::mesh {

namespace {

struct PairHash {
  std::size_t operator()(const std::pair<Index, Index>& p) const {
    return std::hash<std::uint64_t>()(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.first)) << 32) |
        static_cast<std::uint32_t>(p.second));
  }
};

using EdgeMap = std::unordered_map<std::pair<Index, Index>, Index, PairHash>;

}  // namespace

std::string resolution_label_for_level(int level) {
  switch (level) {
    case 6: return "120-km";
    case 7: return "60-km";
    case 8: return "30-km";
    case 9: return "15-km";
    default: {
      // 2^k refinements halve the spacing; level 6 ~ 120 km.
      const double km = 120.0 * std::pow(2.0, 6 - level);
      return std::to_string(static_cast<long>(km + 0.5)) + "-km";
    }
  }
}

std::string VoronoiMesh::resolution_label() const {
  return resolution_label_for_level(subdivision_level);
}

Real VoronoiMesh::nominal_resolution_km() const {
  if (num_edges == 0) return 0;
  Real sum = 0;
  for (Index e = 0; e < num_edges; ++e) sum += dc_edge[e];
  return sum / num_edges / 1000.0;
}

std::size_t VoronoiMesh::mesh_data_bytes() const {
  std::size_t bytes = 0;
  bytes += x_cell.size() * sizeof(Vec3);
  bytes += x_edge.size() * sizeof(Vec3);
  bytes += x_vertex.size() * sizeof(Vec3);
  bytes += n_edges_on_cell.size() * sizeof(Index);
  bytes += edges_on_cell.size() * sizeof(Index);
  bytes += cells_on_cell.size() * sizeof(Index);
  bytes += vertices_on_cell.size() * sizeof(Index);
  bytes += edge_sign_on_cell.size() * sizeof(Real);
  bytes += cells_on_edge.size() * sizeof(Index);
  bytes += vertices_on_edge.size() * sizeof(Index);
  bytes += n_edges_on_edge.size() * sizeof(Index);
  bytes += edges_on_edge.size() * sizeof(Index);
  bytes += weights_on_edge.size() * sizeof(Real);
  bytes += cells_on_vertex.size() * sizeof(Index);
  bytes += edges_on_vertex.size() * sizeof(Index);
  bytes += edge_sign_on_vertex.size() * sizeof(Real);
  bytes += kite_areas_on_vertex.size() * sizeof(Real);
  bytes += kite_areas_on_cell.size() * sizeof(Real);
  bytes += dc_edge.size() * sizeof(Real);
  bytes += dv_edge.size() * sizeof(Real);
  bytes += area_cell.size() * sizeof(Real);
  bytes += area_triangle.size() * sizeof(Real);
  bytes += f_cell.size() * sizeof(Real);
  bytes += f_edge.size() * sizeof(Real);
  bytes += f_vertex.size() * sizeof(Real);
  bytes += boundary_edge.size() * sizeof(std::uint8_t);
  return bytes;
}

// Declared in trisk.cpp: fills edges_on_edge / weights_on_edge /
// kite_areas_on_vertex and the kite-derived areas.
void build_trisk_arrays(VoronoiMesh& m);

VoronoiMesh build_voronoimesh_impl(const TriMesh& tri, Real radius) {
  VoronoiMesh m;
  m.sphere_radius = radius;
  m.num_cells = tri.num_points();
  m.num_vertices = tri.num_triangles();

  m.x_cell = tri.points;

  // --- edges: unique adjacent generator pairs, with their two triangles ----
  EdgeMap edge_ids;
  edge_ids.reserve(static_cast<std::size_t>(m.num_vertices) * 2);
  std::vector<std::array<Index, 2>> edge_cells;
  std::vector<std::array<Index, 2>> edge_tris;

  for (Index t = 0; t < m.num_vertices; ++t) {
    const auto& tr = tri.triangles[t];
    for (int k = 0; k < 3; ++k) {
      const Index a = tr[k];
      const Index b = tr[(k + 1) % 3];
      const auto key = std::minmax(a, b);
      auto it = edge_ids.find(key);
      if (it == edge_ids.end()) {
        const Index e = static_cast<Index>(edge_cells.size());
        edge_ids.emplace(key, e);
        edge_cells.push_back({key.first, key.second});
        edge_tris.push_back({t, kInvalidIndex});
      } else {
        auto& pair = edge_tris[it->second];
        MPAS_CHECK_MSG(pair[1] == kInvalidIndex,
                       "non-manifold edge in triangulation");
        pair[1] = t;
      }
    }
  }
  m.num_edges = static_cast<Index>(edge_cells.size());

  m.cells_on_edge.resize(m.num_edges, 2, kInvalidIndex);
  m.vertices_on_edge.resize(m.num_edges, 2, kInvalidIndex);
  m.x_edge.resize(m.num_edges);
  m.edge_normal.resize(m.num_edges);
  m.edge_tangent.resize(m.num_edges);
  m.dc_edge.resize(m.num_edges);
  m.dv_edge.resize(m.num_edges);

  // Vertex (triangle circumcenter) coordinates first; edge orientation
  // needs them.
  m.x_vertex.resize(m.num_vertices);
  for (Index t = 0; t < m.num_vertices; ++t) {
    const auto& tr = tri.triangles[t];
    m.x_vertex[t] = sphere::circumcenter(tri.points[tr[0]], tri.points[tr[1]],
                                         tri.points[tr[2]]);
  }

  for (Index e = 0; e < m.num_edges; ++e) {
    const Index c0 = edge_cells[e][0];
    const Index c1 = edge_cells[e][1];
    MPAS_CHECK_MSG(edge_tris[e][1] != kInvalidIndex,
                   "boundary edge in closed sphere triangulation");
    m.cells_on_edge(e, 0) = c0;
    m.cells_on_edge(e, 1) = c1;
    m.x_edge[e] = sphere::arc_midpoint(m.x_cell[c0], m.x_cell[c1]);

    const Vec3 r_hat = m.x_edge[e];
    Vec3 n = m.x_cell[c1] - m.x_cell[c0];
    n -= r_hat * n.dot(r_hat);  // project into the tangent plane
    m.edge_normal[e] = n.normalized();
    m.edge_tangent[e] = r_hat.cross(m.edge_normal[e]);

    // Order vertices so the tangent points v0 -> v1.
    Index v0 = edge_tris[e][0];
    Index v1 = edge_tris[e][1];
    if ((m.x_vertex[v1] - m.x_vertex[v0]).dot(m.edge_tangent[e]) < 0)
      std::swap(v0, v1);
    m.vertices_on_edge(e, 0) = v0;
    m.vertices_on_edge(e, 1) = v1;

    m.dc_edge[e] = radius * sphere::arc_length(m.x_cell[c0], m.x_cell[c1]);
    m.dv_edge[e] = radius * sphere::arc_length(m.x_vertex[v0], m.x_vertex[v1]);
  }

  // --- per-cell counterclockwise orderings ---------------------------------
  std::vector<std::vector<Index>> cell_edges(m.num_cells);
  for (Index e = 0; e < m.num_edges; ++e) {
    cell_edges[m.cells_on_edge(e, 0)].push_back(e);
    cell_edges[m.cells_on_edge(e, 1)].push_back(e);
  }

  m.n_edges_on_cell.resize(m.num_cells);
  m.edges_on_cell.resize(m.num_cells, VoronoiMesh::kMaxEdges, kInvalidIndex);
  m.cells_on_cell.resize(m.num_cells, VoronoiMesh::kMaxEdges, kInvalidIndex);
  m.vertices_on_cell.resize(m.num_cells, VoronoiMesh::kMaxEdges, kInvalidIndex);
  m.edge_sign_on_cell.resize(m.num_cells, VoronoiMesh::kMaxEdges, 0.0);

  for (Index c = 0; c < m.num_cells; ++c) {
    auto& edges = cell_edges[c];
    const Index deg = static_cast<Index>(edges.size());
    MPAS_CHECK_MSG(deg >= 5 && deg <= VoronoiMesh::kMaxEdges,
                   "cell " << c << " has degree " << deg);
    m.n_edges_on_cell[c] = deg;

    const Vec3 east = sphere::east_at(m.x_cell[c]);
    const Vec3 north = sphere::north_at(m.x_cell[c]);
    auto azimuth = [&](Index e) {
      const Index other = m.cells_on_edge(e, 0) == c ? m.cells_on_edge(e, 1)
                                                     : m.cells_on_edge(e, 0);
      const Vec3 d = m.x_cell[other] - m.x_cell[c];
      return std::atan2(d.dot(north), d.dot(east));
    };
    std::sort(edges.begin(), edges.end(),
              [&](Index a, Index b) { return azimuth(a) < azimuth(b); });

    for (Index j = 0; j < deg; ++j) {
      const Index e = edges[j];
      m.edges_on_cell(c, j) = e;
      m.cells_on_cell(c, j) = m.cells_on_edge(e, 0) == c
                                  ? m.cells_on_edge(e, 1)
                                  : m.cells_on_edge(e, 0);
      m.edge_sign_on_cell(c, j) = m.cells_on_edge(e, 0) == c ? 1.0 : -1.0;
    }
    // vertices_on_cell(c, j): the vertex shared by edge j and edge j+1.
    for (Index j = 0; j < deg; ++j) {
      const Index ea = m.edges_on_cell(c, j);
      const Index eb = m.edges_on_cell(c, (j + 1) % deg);
      Index shared = kInvalidIndex;
      for (int p = 0; p < 2; ++p)
        for (int q = 0; q < 2; ++q)
          if (m.vertices_on_edge(ea, p) == m.vertices_on_edge(eb, q))
            shared = m.vertices_on_edge(ea, p);
      MPAS_CHECK_MSG(shared != kInvalidIndex,
                     "consecutive cell edges share no vertex (cell " << c
                                                                     << ")");
      m.vertices_on_cell(c, j) = shared;
    }
  }

  // --- per-vertex counterclockwise orderings --------------------------------
  m.cells_on_vertex.resize(m.num_vertices, VoronoiMesh::kVertexDegree,
                           kInvalidIndex);
  m.edges_on_vertex.resize(m.num_vertices, VoronoiMesh::kVertexDegree,
                           kInvalidIndex);
  m.edge_sign_on_vertex.resize(m.num_vertices, VoronoiMesh::kVertexDegree, 0.0);

  for (Index v = 0; v < m.num_vertices; ++v) {
    std::array<Index, 3> cells = tri.triangles[v];
    const Vec3 east = sphere::east_at(m.x_vertex[v]);
    const Vec3 north = sphere::north_at(m.x_vertex[v]);
    auto azimuth = [&](Index c) {
      const Vec3 d = m.x_cell[c] - m.x_vertex[v];
      return std::atan2(d.dot(north), d.dot(east));
    };
    std::sort(cells.begin(), cells.end(),
              [&](Index a, Index b) { return azimuth(a) < azimuth(b); });
    for (int j = 0; j < 3; ++j) {
      m.cells_on_vertex(v, j) = cells[j];
      const auto key = std::minmax(cells[j], cells[(j + 1) % 3]);
      auto it = edge_ids.find(key);
      MPAS_CHECK_MSG(it != edge_ids.end(), "missing edge between vertex cells");
      m.edges_on_vertex(v, j) = it->second;
    }
    // Sign: +1 when the edge normal points counterclockwise around v.
    for (int j = 0; j < 3; ++j) {
      const Index e = m.edges_on_vertex(v, j);
      const Vec3 ccw = m.x_vertex[v].normalized().cross(m.x_edge[e] -
                                                        m.x_vertex[v]);
      m.edge_sign_on_vertex(v, j) = m.edge_normal[e].dot(ccw) > 0 ? 1.0 : -1.0;
    }
  }

  // --- latitude/longitude and Coriolis -------------------------------------
  auto fill_geo = [](const std::vector<Vec3>& pts, AlignedVector<Real>& lat,
                     AlignedVector<Real>& lon, AlignedVector<Real>& f) {
    const std::size_t n = pts.size();
    lat.resize(n);
    lon.resize(n);
    f.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      lat[i] = sphere::latitude(pts[i]);
      lon[i] = sphere::longitude(pts[i]);
      f[i] = 2.0 * constants::kOmega * std::sin(lat[i]);
    }
  };
  fill_geo(m.x_cell, m.lat_cell, m.lon_cell, m.f_cell);
  fill_geo(m.x_edge, m.lat_edge, m.lon_edge, m.f_edge);
  fill_geo(m.x_vertex, m.lat_vertex, m.lon_vertex, m.f_vertex);

  m.boundary_edge.assign(static_cast<std::size_t>(m.num_edges), 0);

  // --- kite areas, cell/triangle areas, TRiSK weights ----------------------
  build_trisk_arrays(m);
  return m;
}

VoronoiMesh build_voronoi_mesh(const TriMesh& tri, Real sphere_radius) {
  MPAS_CHECK(tri.num_points() >= 12);
  MPAS_CHECK(sphere_radius > 0);
  return build_voronoimesh_impl(tri, sphere_radius);
}

namespace {

/// Rewrite the `width`-wide rows of a cell-indexed array so row n holds the
/// old row order[n]: one gather into `scratch`, one copy back.
template <class T>
void permute_cell_rows(T* rows, std::size_t width,
                       const std::vector<Index>& order,
                       std::vector<std::byte>& scratch) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t row_bytes = width * sizeof(T);
  MPAS_CHECK(row_bytes * order.size() <= scratch.size());
  std::byte* out = scratch.data();
  for (const Index old : order) {
    std::memcpy(out, rows + static_cast<std::size_t>(old) * width, row_bytes);
    out += row_bytes;
  }
  std::memcpy(rows, scratch.data(), row_bytes * order.size());
}

}  // namespace

std::vector<Index> renumber_cells(VoronoiMesh& m) {
  MPAS_CHECK_MSG(m.global_cell_id.empty(),
                 "renumber_cells works on a global mesh, not a rank view");
  const auto n = static_cast<std::size_t>(m.num_cells);
  std::vector<Index> new_id(n, kInvalidIndex);
  std::vector<Index> order;
  order.reserve(n);
  for (Index v = 0; v < m.num_vertices; ++v)
    for (const Index c : m.cells_on_vertex.row(v))
      if (new_id[static_cast<std::size_t>(c)] == kInvalidIndex) {
        new_id[static_cast<std::size_t>(c)] = static_cast<Index>(order.size());
        order.push_back(c);
      }
  MPAS_CHECK_MSG(order.size() == n, "a cell touches no vertex");

  // Sized for the widest rows: kMaxEdges Reals per cell.
  std::vector<std::byte> scratch(n * VoronoiMesh::kMaxEdges * sizeof(Real));
  const auto permute = [&](auto& cells, std::size_t width) {
    MPAS_CHECK(cells.size() == n * width);
    permute_cell_rows(cells.data(), width, order, scratch);
  };
  permute(m.x_cell, 1);
  permute(m.n_edges_on_cell, 1);
  for (Array2D<Index>* a :
       {&m.edges_on_cell, &m.cells_on_cell, &m.vertices_on_cell})
    permute(*a, static_cast<std::size_t>(a->cols()));
  for (Array2D<Real>* a : {&m.edge_sign_on_cell, &m.kite_areas_on_cell})
    permute(*a, static_cast<std::size_t>(a->cols()));
  for (AlignedVector<Real>* a :
       {&m.area_cell, &m.f_cell, &m.lat_cell, &m.lon_cell})
    permute(*a, 1);

  for (Array2D<Index>* a :
       {&m.cells_on_cell, &m.cells_on_edge, &m.cells_on_vertex}) {
    Index* ids = a->data();
    for (std::size_t i = 0; i < a->size(); ++i)
      if (ids[i] != kInvalidIndex)
        ids[i] = new_id[static_cast<std::size_t>(ids[i])];
  }
  return order;
}

}  // namespace mpas::mesh
