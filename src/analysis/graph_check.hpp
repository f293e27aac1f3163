// Graph-level static checks: the *declared* world of a finalized
// DataflowGraph (pattern read/write sets, dependency edges, halo-sync
// placement) is cross-checked for internal consistency.
//
// The checks operate on GraphFacts, a plain-data snapshot of a graph, so
// tests can seed defects (delete an edge, drop a halo sync, tamper with an
// access set) that DataflowGraph's own construction invariants would never
// produce, and prove each checker catches them.
//
// Checks:
//   * structure        — edge endpoints in range, no self-loops, acyclic;
//   * dependency edges — every RAW/WAR/WAW hazard implied by the declared
//                        field sets must be ordered by an edge path
//                        ("missing-edge" otherwise: an executor following
//                        the edges could overlap the two nodes unsafely).
//                        This is the one hazard check: no edge path joins
//                        two nodes of the same dependency level, so a
//                        same-level overlap of access sets is always
//                        reported here too;
//   * halo depth       — a budget analysis of stencil reach against the
//                        configured halo width: every stencil hop consumes
//                        halo validity, every marked exchange restores it;
//                        a node consuming a field whose remaining depth is
//                        smaller than its stencil reach would read stale
//                        halo values in a distributed run ("halo-depth").
#pragma once

#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "core/dataflow.hpp"

namespace mpas::analysis {

/// Declared facts about one node (a plain-data mirror of PatternNode).
struct FactNode {
  int id = -1;
  std::string label;
  core::PatternKind kind = core::PatternKind::Local;
  MeshLocation iterates = MeshLocation::Cell;
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
};

/// A mutable snapshot of a data-flow graph's declared structure. Tests
/// seed defects by editing the public members directly.
struct GraphFacts {
  std::string name;
  std::vector<FactNode> nodes;
  std::vector<std::vector<int>> succ;  // adjacency, indexed by node id
  std::vector<char> halo_after;        // 1 = halo exchange after this node

  static GraphFacts from(const core::DataflowGraph& graph);

  [[nodiscard]] int num_nodes() const { return static_cast<int>(nodes.size()); }

  /// Drop the directed edge from -> to (no-op if absent). For seeding the
  /// "missing-edge" defect in tests.
  void remove_edge(int from, int to);
};

struct CheckOptions {
  /// Cell halo layers of the distributed runs (partition::build_local_mesh
  /// default). The depth budget is counted in half-layer hops: crossing
  /// between entity types (cell<->edge, edge<->vertex, cell<->vertex) is
  /// one half-hop; a same-type neighbour stencil (patterns B and F) is two.
  int halo_layers = 2;

  /// Upper bound on halo-depth fixed-point sweeps (the analysis iterates
  /// the graph, carrying end-of-graph depths back to the start, until the
  /// depths stabilize — modeling the repeated RK substeps).
  int max_fixpoint_passes = 32;
};

Report check_structure(const GraphFacts& facts);
Report check_dependency_edges(const GraphFacts& facts);
Report check_halo_depth(const GraphFacts& facts, const CheckOptions& opts = {});

/// All of the above (later checks are skipped if structure fails, since
/// reachability is undefined on a cyclic graph).
Report verify_graph(const GraphFacts& facts, const CheckOptions& opts = {});
Report verify_graph(const core::DataflowGraph& graph,
                    const CheckOptions& opts = {});

/// Stencil reach of `input` for a node, in half-layer hops (0 = read at
/// the node's own output entity). Exposed for tests.
int stencil_reach(const FactNode& node, const std::string& input,
                  MeshLocation input_location);

}  // namespace mpas::analysis
