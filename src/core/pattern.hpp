// The paper's central abstraction: computation patterns as first-class
// objects. A pattern instance is one node of the data-flow diagram
// (Figure 4): it belongs to a kernel function of Algorithm 1, iterates over
// one entity space, reads and writes named fields, and carries per-entity
// machine costs for each loop variant. The hybrid runtime can optionally
// attach a functional body so the same graph both *predicts* time (machine
// model) and *computes* real physics.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "machine/machine_model.hpp"
#include "util/types.hpp"

namespace mpas::core {

/// The eight stencil shapes of Figure 3 plus the local (X) computations.
/// Exactly the eight directed (output-type <- input-type) pairs the model
/// uses between the three point types of Figure 1.
enum class PatternKind : int {
  A = 0,  // cell   <- its edges
  B,      // cell   <- neighbouring cells
  C,      // edge   <- its 2 cells
  D,      // vertex <- its 3 edges
  E,      // vertex <- its 3 cells
  F,      // edge   <- edgesOnEdge (incl. the wide momentum tendency)
  G,      // edge   <- its 2 vertices
  H,      // cell   <- its vertices
  Local,  // X: no neighbour access
};

const char* to_string(PatternKind k);

/// Human description of each stencil shape (our reconstruction of Fig. 3).
const char* pattern_description(PatternKind k);

/// The kernel functions of Algorithm 1 that group the patterns.
enum class KernelGroup : int {
  ComputeTend = 0,
  EnforceBoundaryEdge,
  ComputeNextSubstepState,
  ComputeSolveDiagnostics,
  AccumulativeUpdate,
  MpasReconstruct,
  StepSetup,  // start-of-step copies (accumulator init, provis seed)
  Count,
};

const char* to_string(KernelGroup k);

/// How far into a rank's halo a pattern computes: every local entity, or
/// the owned, compute or inner prefix of partition::LocalMesh. On a mesh
/// without a halo every extent is the whole entity space.
enum class Extent : int { All = 0, Owned, Compute, Inner };

/// Which loop flavour a pattern executes with (Algorithms 2/3/4).
enum class VariantChoice : int { Irregular = 0, Refactored = 1, BranchFree = 2 };

/// Functional body: compute [begin, end) of the output space with the given
/// variant. Captured over the model's execution context by the sw layer.
struct RunArgs {
  Index begin = 0;
  Index end = 0;
  VariantChoice variant = VariantChoice::BranchFree;
};
using PatternBody = std::function<void(const RunArgs&)>;

/// One node of the data-flow diagram.
struct PatternNode {
  int id = -1;
  std::string label;          // "A1", "X3", ... as in Figure 4 / Table I
  PatternKind kind = PatternKind::Local;
  KernelGroup kernel = KernelGroup::ComputeTend;
  MeshLocation iterates = MeshLocation::Cell;  // output entity space
  Extent extent = Extent::All;                 // prefix of it on a rank

  // Field names for dependency analysis and the Table I report. Names, not
  // typed ids, so core stays independent of the sw layer.
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;

  // Per-entity costs for the machine model. `scatter` is the original
  // irregular form; patterns without a scatter form reuse the gather cost.
  machine::KernelCost cost_gather;
  machine::KernelCost cost_scatter;
  bool has_scatter_variant = false;

  /// Local (X) and gather patterns can be range-split between host and
  /// accelerator — the "adjustable part" of Figure 4(b). Scatter-only
  /// execution cannot.
  bool splittable = true;

  /// Optional functional body (empty for structure-only graphs).
  PatternBody body;

  [[nodiscard]] const machine::KernelCost& cost(VariantChoice v) const {
    return (v == VariantChoice::Irregular && has_scatter_variant)
               ? cost_scatter
               : cost_gather;
  }
};

/// Entity counts a graph is evaluated over (decouples timing simulation
/// from holding a real mesh in memory).
struct MeshSizes {
  std::int64_t cells = 0;
  std::int64_t edges = 0;
  std::int64_t vertices = 0;

  [[nodiscard]] std::int64_t at(MeshLocation loc) const {
    switch (loc) {
      case MeshLocation::Cell: return cells;
      case MeshLocation::Edge: return edges;
      case MeshLocation::Vertex: return vertices;
      case MeshLocation::None: return 1;
    }
    return 0;
  }

  /// The icosahedral relations: edges = 3*(cells-2), vertices = 2*(cells-2).
  static MeshSizes icosahedral(std::int64_t cells) {
    return {cells, 3 * (cells - 2), 2 * (cells - 2)};
  }
};

}  // namespace mpas::core
