#include "mesh/mesh_io.hpp"

#include <cstring>
#include <fstream>

#include "util/error.hpp"
#include "util/fnv.hpp"

namespace mpas::mesh {

namespace {

constexpr char kMagic[8] = {'M', 'P', 'A', 'S', 'M', 'S', 'H', '1'};
// Version 5 added the FNV-1a payload checksum after the version word, so a
// bit-flipped or truncated cache file is detected on load instead of
// producing silently wrong connectivity. Version 6 marks the locality cell
// order (renumber_cells): the arrays are stored in mesh order, so a file
// written in the old generation order must not load beside freshly built
// meshes.
constexpr std::uint32_t kVersion = 6;

/// Streambuf tee that FNV-1a-hashes every byte written through it.
class HashingOutBuf : public std::streambuf {
 public:
  explicit HashingOutBuf(std::streambuf* inner) : inner_(inner) {}
  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return 0;
    const char c = traits_type::to_char_type(ch);
    hash_ = util::fnv1a(hash_, &c, 1);
    return inner_->sputc(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    hash_ = util::fnv1a(hash_, s, static_cast<std::size_t>(n));
    return inner_->sputn(s, n);
  }

 private:
  std::streambuf* inner_;
  std::uint64_t hash_ = util::kFnvOffset;
};

/// Streambuf tee that hashes every byte *consumed* through it (peeks via
/// underflow are not consumed and not hashed).
class HashingInBuf : public std::streambuf {
 public:
  explicit HashingInBuf(std::streambuf* inner) : inner_(inner) {}
  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 protected:
  int_type underflow() override { return inner_->sgetc(); }
  int_type uflow() override {
    const int_type ch = inner_->sbumpc();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      const char c = traits_type::to_char_type(ch);
      hash_ = util::fnv1a(hash_, &c, 1);
    }
    return ch;
  }
  std::streamsize xsgetn(char* s, std::streamsize n) override {
    const std::streamsize got = inner_->sgetn(s, n);
    hash_ = util::fnv1a(hash_, s, static_cast<std::size_t>(got));
    return got;
  }

 private:
  std::streambuf* inner_;
  std::uint64_t hash_ = util::kFnvOffset;
};

template <class T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <class T>
T read_pod(std::istream& is) {
  T value;
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  MPAS_CHECK_MSG(is.good(), "unexpected end of mesh file");
  return value;
}

/// Payload reader with a byte budget: every element count read from the
/// file is bounds-checked against the bytes actually remaining *before*
/// any resize, so a truncated or bit-rotted length word fails closed
/// instead of demanding a multi-gigabyte allocation.
struct ReadCtx {
  std::istream& is;
  std::uint64_t budget;  // payload bytes left in the file

  void take(std::uint64_t bytes) {
    MPAS_CHECK_MSG(bytes <= budget,
                   "mesh file truncated: payload wants " << bytes
                       << " bytes but only " << budget << " remain");
    budget -= bytes;
  }

  /// take(count * elem_size) without the multiplication overflowing.
  void take_elems(std::uint64_t count, std::uint64_t elem_size) {
    MPAS_CHECK_MSG(count <= budget / elem_size,
                   "mesh file truncated: payload wants " << count
                       << " elements of " << elem_size << " bytes but only "
                       << budget << " bytes remain");
    budget -= count * elem_size;
  }
};

template <class T>
T read_pod(ReadCtx& ctx) {
  ctx.take(sizeof(T));
  return read_pod<T>(ctx.is);
}

template <class Vec>
void write_vector(std::ostream& os, const Vec& v) {
  const std::uint64_t n = v.size();
  write_pod(os, n);
  if (n)
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(n * sizeof(typename Vec::value_type)));
}

template <class Vec>
void read_vector(ReadCtx& ctx, Vec& v) {
  const auto n = read_pod<std::uint64_t>(ctx);
  ctx.take_elems(n, sizeof(typename Vec::value_type));  // before the resize
  v.resize(n);
  if (n) {
    ctx.is.read(
        reinterpret_cast<char*>(v.data()),
        static_cast<std::streamsize>(n * sizeof(typename Vec::value_type)));
    MPAS_CHECK_MSG(ctx.is.good(), "unexpected end of mesh file");
  }
}

template <class T>
void write_array2d(std::ostream& os, const Array2D<T>& a) {
  write_pod(os, static_cast<std::int64_t>(a.rows()));
  write_pod(os, static_cast<std::int64_t>(a.cols()));
  if (a.size())
    os.write(reinterpret_cast<const char*>(a.data()),
             static_cast<std::streamsize>(a.size() * sizeof(T)));
}

template <class T>
void read_array2d(ReadCtx& ctx, Array2D<T>& a) {
  const auto rows = read_pod<std::int64_t>(ctx);
  const auto cols = read_pod<std::int64_t>(ctx);
  MPAS_CHECK_MSG(rows >= 0 && cols >= 0,
                 "mesh file corrupt: negative array dimensions");
  const auto rows_u = static_cast<std::uint64_t>(rows);
  const auto cols_u = static_cast<std::uint64_t>(cols);
  // rows*cols*sizeof(T) <= budget, checked without the product overflowing.
  MPAS_CHECK_MSG(rows_u == 0 || cols_u <= ctx.budget / sizeof(T) / rows_u,
                 "mesh file truncated: payload wants a " << rows << "x" << cols
                     << " array but only " << ctx.budget << " bytes remain");
  ctx.budget -= rows_u * cols_u * sizeof(T);
  a.resize(static_cast<Index>(rows), static_cast<Index>(cols));
  if (a.size()) {
    ctx.is.read(reinterpret_cast<char*>(a.data()),
                static_cast<std::streamsize>(a.size() * sizeof(T)));
    MPAS_CHECK_MSG(ctx.is.good(), "unexpected end of mesh file");
  }
}

void write_payload(std::ostream& os, const VoronoiMesh& m) {
  write_pod(os, m.num_cells);
  write_pod(os, m.num_edges);
  write_pod(os, m.num_vertices);
  write_pod(os, m.sphere_radius);
  write_pod(os, static_cast<std::int32_t>(m.subdivision_level));

  write_vector(os, m.x_cell);
  write_vector(os, m.x_edge);
  write_vector(os, m.x_vertex);
  write_vector(os, m.n_edges_on_cell);
  write_array2d(os, m.edges_on_cell);
  write_array2d(os, m.cells_on_cell);
  write_array2d(os, m.vertices_on_cell);
  write_array2d(os, m.edge_sign_on_cell);
  write_array2d(os, m.cells_on_edge);
  write_array2d(os, m.vertices_on_edge);
  write_vector(os, m.n_edges_on_edge);
  write_array2d(os, m.edges_on_edge);
  write_array2d(os, m.weights_on_edge);
  write_array2d(os, m.cells_on_vertex);
  write_array2d(os, m.edges_on_vertex);
  write_array2d(os, m.edge_sign_on_vertex);
  write_array2d(os, m.kite_areas_on_vertex);
  write_array2d(os, m.kite_areas_on_cell);
  write_vector(os, m.dc_edge);
  write_vector(os, m.dv_edge);
  write_vector(os, m.area_cell);
  write_vector(os, m.area_triangle);
  write_vector(os, m.f_cell);
  write_vector(os, m.f_edge);
  write_vector(os, m.f_vertex);
  write_vector(os, m.lat_cell);
  write_vector(os, m.lon_cell);
  write_vector(os, m.lat_edge);
  write_vector(os, m.lon_edge);
  write_vector(os, m.lat_vertex);
  write_vector(os, m.lon_vertex);
  write_vector(os, m.boundary_edge);
  write_vector(os, m.edge_normal);
  write_vector(os, m.edge_tangent);
  write_vector(os, m.global_cell_id);
  write_vector(os, m.global_edge_id);
  write_vector(os, m.global_vertex_id);
}

void read_payload(ReadCtx& ctx, VoronoiMesh& m) {
  m.num_cells = read_pod<Index>(ctx);
  m.num_edges = read_pod<Index>(ctx);
  m.num_vertices = read_pod<Index>(ctx);
  m.sphere_radius = read_pod<Real>(ctx);
  m.subdivision_level = read_pod<std::int32_t>(ctx);

  read_vector(ctx, m.x_cell);
  read_vector(ctx, m.x_edge);
  read_vector(ctx, m.x_vertex);
  read_vector(ctx, m.n_edges_on_cell);
  read_array2d(ctx, m.edges_on_cell);
  read_array2d(ctx, m.cells_on_cell);
  read_array2d(ctx, m.vertices_on_cell);
  read_array2d(ctx, m.edge_sign_on_cell);
  read_array2d(ctx, m.cells_on_edge);
  read_array2d(ctx, m.vertices_on_edge);
  read_vector(ctx, m.n_edges_on_edge);
  read_array2d(ctx, m.edges_on_edge);
  read_array2d(ctx, m.weights_on_edge);
  read_array2d(ctx, m.cells_on_vertex);
  read_array2d(ctx, m.edges_on_vertex);
  read_array2d(ctx, m.edge_sign_on_vertex);
  read_array2d(ctx, m.kite_areas_on_vertex);
  read_array2d(ctx, m.kite_areas_on_cell);
  read_vector(ctx, m.dc_edge);
  read_vector(ctx, m.dv_edge);
  read_vector(ctx, m.area_cell);
  read_vector(ctx, m.area_triangle);
  read_vector(ctx, m.f_cell);
  read_vector(ctx, m.f_edge);
  read_vector(ctx, m.f_vertex);
  read_vector(ctx, m.lat_cell);
  read_vector(ctx, m.lon_cell);
  read_vector(ctx, m.lat_edge);
  read_vector(ctx, m.lon_edge);
  read_vector(ctx, m.lat_vertex);
  read_vector(ctx, m.lon_vertex);
  read_vector(ctx, m.boundary_edge);
  read_vector(ctx, m.edge_normal);
  read_vector(ctx, m.edge_tangent);
  read_vector(ctx, m.global_cell_id);
  read_vector(ctx, m.global_edge_id);
  read_vector(ctx, m.global_vertex_id);
}

}  // namespace

void save_mesh(const VoronoiMesh& m, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  MPAS_CHECK_MSG(os.good(), "cannot open '" << path << "' for writing");
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, kVersion);
  const std::streampos checksum_pos = os.tellp();
  write_pod(os, std::uint64_t{0});  // patched with the payload hash below

  std::uint64_t checksum = 0;
  {
    HashingOutBuf hashing(os.rdbuf());
    std::ostream payload(&hashing);
    write_payload(payload, m);
    MPAS_CHECK_MSG(payload.good(), "write failure on '" << path << "'");
    checksum = hashing.hash();
  }
  os.seekp(checksum_pos);
  write_pod(os, checksum);
  os.flush();
  MPAS_CHECK_MSG(os.good(), "write failure on '" << path << "'");
}

VoronoiMesh load_mesh(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  MPAS_CHECK_MSG(is.good(), "cannot open mesh file '" << path << "'");
  // The file's actual size bounds every element count the payload claims:
  // a truncated cache can never coerce the reader into a huge allocation.
  const std::streamoff file_size = is.tellg();
  constexpr std::streamoff kHeaderBytes =
      sizeof(kMagic) + sizeof(kVersion) + sizeof(std::uint64_t);
  MPAS_CHECK_MSG(file_size >= kHeaderBytes,
                 "mesh file '" << path << "' is too short to hold a header");
  is.seekg(0);
  char magic[sizeof(kMagic)];
  is.read(magic, sizeof(magic));
  MPAS_CHECK_MSG(is.good() && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
                 "'" << path << "' is not an MPAS mesh file");
  const auto version = read_pod<std::uint32_t>(is);
  MPAS_CHECK_MSG(version == kVersion,
                 "mesh file version " << version << ", expected " << kVersion);
  const auto expected = read_pod<std::uint64_t>(is);

  VoronoiMesh m;
  HashingInBuf hashing(is.rdbuf());
  std::istream payload(&hashing);
  ReadCtx ctx{payload, static_cast<std::uint64_t>(file_size - kHeaderBytes)};
  read_payload(ctx, m);
  // Every payload byte must be consumed (trailing garbage is corruption
  // too) and must hash to what the writer recorded.
  MPAS_CHECK_MSG(payload.peek() == std::istream::traits_type::eof(),
                 "mesh file '" << path << "' has trailing bytes");
  MPAS_CHECK_MSG(hashing.hash() == expected,
                 "mesh file '" << path << "' failed its checksum (corrupt?)");

  m.validate(/*strict=*/false);
  return m;
}

}  // namespace mpas::mesh
