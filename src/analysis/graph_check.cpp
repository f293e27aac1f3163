#include "analysis/graph_check.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "util/error.hpp"

namespace mpas::analysis {

namespace {

constexpr int kStaticDepth = 1 << 20;  // fields with no producer: always valid

/// RAW/WAR/WAW hazard implied by the declared sets: `before` must finish
/// before `after` starts, because of `field`.
struct Hazard {
  int before = -1;
  int after = -1;
  const char* kind = "";
  std::string field;
};

/// Re-derive the hazards from the declared sets with the same program-order
/// def-use walk DataflowGraph::finalize() uses (the checker's independent
/// reference, compared against the edges the graph actually carries).
std::vector<Hazard> derive_hazards(const GraphFacts& facts) {
  std::vector<Hazard> hazards;
  std::map<std::string, int> last_writer;
  std::map<std::string, std::vector<int>> readers_since_write;
  for (const FactNode& node : facts.nodes) {
    for (const std::string& in : node.inputs) {
      auto it = last_writer.find(in);
      if (it != last_writer.end() && it->second != node.id)
        hazards.push_back({it->second, node.id, "RAW", in});
      readers_since_write[in].push_back(node.id);
    }
    for (const std::string& out : node.outputs) {
      auto it = last_writer.find(out);
      if (it != last_writer.end() && it->second != node.id)
        hazards.push_back({it->second, node.id, "WAW", out});
      for (int reader : readers_since_write[out])
        if (reader != node.id)
          hazards.push_back({reader, node.id, "WAR", out});
      readers_since_write[out].clear();
      last_writer[out] = node.id;
    }
  }
  return hazards;
}

/// reach[a][b]: a path a -> ... -> b exists along the declared edges.
std::vector<std::vector<char>> transitive_reach(const GraphFacts& facts) {
  const int n = facts.num_nodes();
  std::vector<std::vector<char>> reach(
      static_cast<std::size_t>(n),
      std::vector<char>(static_cast<std::size_t>(n), 0));
  for (int start = 0; start < n; ++start) {
    std::vector<int> stack{start};
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      if (u >= n || u < 0) continue;
      for (int v : facts.succ[static_cast<std::size_t>(u)]) {
        if (v < 0 || v >= n) continue;
        auto& cell = reach[static_cast<std::size_t>(start)]
                          [static_cast<std::size_t>(v)];
        if (cell == 0) {
          cell = 1;
          stack.push_back(v);
        }
      }
    }
  }
  return reach;
}

std::string node_ref(const GraphFacts& facts, int id) {
  if (id < 0 || id >= facts.num_nodes()) return "<invalid>";
  return facts.nodes[static_cast<std::size_t>(id)].label;
}

}  // namespace

GraphFacts GraphFacts::from(const core::DataflowGraph& graph) {
  MPAS_CHECK_MSG(graph.finalized(), "snapshot requires a finalized graph");
  GraphFacts facts;
  facts.name = graph.name();
  const int n = graph.num_nodes();
  facts.nodes.reserve(static_cast<std::size_t>(n));
  facts.succ.resize(static_cast<std::size_t>(n));
  facts.halo_after.resize(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const core::PatternNode& node = graph.node(i);
    facts.nodes.push_back({node.id, node.label, node.kind, node.iterates,
                           node.inputs, node.outputs});
    facts.succ[static_cast<std::size_t>(i)] = graph.successors(i);
    facts.halo_after[static_cast<std::size_t>(i)] =
        graph.has_halo_sync_after(i) ? 1 : 0;
  }
  return facts;
}

void GraphFacts::remove_edge(int from, int to) {
  if (from < 0 || from >= num_nodes()) return;
  auto& out = succ[static_cast<std::size_t>(from)];
  out.erase(std::remove(out.begin(), out.end(), to), out.end());
}

int stencil_reach(const FactNode& node, const std::string& /*input*/,
                  MeshLocation input_location) {
  if (node.kind == core::PatternKind::Local) return 0;
  if (input_location == node.iterates) {
    // Same-type neighbour stencils (B: cell <- neighbouring cells, F: edge
    // <- edgesOnEdge) hop through the intermediate entity: two half-hops.
    return (node.kind == core::PatternKind::B ||
            node.kind == core::PatternKind::F)
               ? 2
               : 0;
  }
  return 1;  // any cross-type adjacency is one half-hop
}

Report check_structure(const GraphFacts& facts) {
  Report report;
  const int n = facts.num_nodes();
  if (facts.succ.size() != static_cast<std::size_t>(n) ||
      facts.halo_after.size() != static_cast<std::size_t>(n)) {
    report.add({Severity::Error, "malformed-facts", -1, -1, "",
                "succ/halo arrays do not match the node count"});
    return report;
  }
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  for (int u = 0; u < n; ++u) {
    for (int v : facts.succ[static_cast<std::size_t>(u)]) {
      if (v < 0 || v >= n) {
        report.add({Severity::Error, "edge-out-of-range", u, v, "",
                    "edge from " + node_ref(facts, u) +
                        " points at a node id outside the graph"});
        continue;
      }
      if (v == u) {
        report.add({Severity::Error, "self-edge", u, u, "",
                    "node " + node_ref(facts, u) + " depends on itself"});
        continue;
      }
      ++indegree[static_cast<std::size_t>(v)];
    }
  }
  if (report.errors() > 0) return report;  // Kahn needs sane edges

  // Kahn's algorithm: nodes never drained are on (or downstream of) a cycle.
  std::vector<int> queue;
  for (int i = 0; i < n; ++i)
    if (indegree[static_cast<std::size_t>(i)] == 0) queue.push_back(i);
  int drained = 0;
  while (!queue.empty()) {
    const int u = queue.back();
    queue.pop_back();
    ++drained;
    for (int v : facts.succ[static_cast<std::size_t>(u)])
      if (--indegree[static_cast<std::size_t>(v)] == 0) queue.push_back(v);
  }
  if (drained < n) {
    for (int i = 0; i < n; ++i)
      if (indegree[static_cast<std::size_t>(i)] > 0)
        report.add({Severity::Error, "cycle", i, -1, "",
                    "node " + node_ref(facts, i) +
                        " is part of (or blocked behind) a dependency "
                        "cycle and can never execute"});
  }
  return report;
}

Report check_dependency_edges(const GraphFacts& facts) {
  Report report;
  const auto reach = transitive_reach(facts);
  std::set<std::pair<int, int>> reported;
  for (const Hazard& h : derive_hazards(facts)) {
    if (reach[static_cast<std::size_t>(h.before)]
             [static_cast<std::size_t>(h.after)])
      continue;
    if (!reported.insert({h.before, h.after}).second) continue;
    std::ostringstream os;
    os << h.kind << " hazard on '" << h.field << "': "
       << node_ref(facts, h.after) << " must run after "
       << node_ref(facts, h.before)
       << " but no edge path orders them — a schedule could overlap them";
    report.add({Severity::Error, "missing-edge", h.after, h.before, h.field,
                os.str()});
  }
  return report;
}

Report check_halo_depth(const GraphFacts& facts, const CheckOptions& opts) {
  Report report;
  const int budget = 2 * opts.halo_layers;  // half-layer hops

  // A field's mesh location is its producer's iteration space; fields no
  // node produces are incoming/static data, valid at full depth forever.
  std::map<std::string, MeshLocation> produced_at;
  for (const FactNode& node : facts.nodes)
    for (const std::string& out : node.outputs)
      produced_at.emplace(out, node.iterates);

  std::map<std::string, int> depth;
  for (const auto& kv : produced_at) depth[kv.first] = budget;

  auto field_depth = [&](const std::string& f) {
    auto it = depth.find(f);
    return it == depth.end() ? kStaticDepth : it->second;
  };

  std::set<std::pair<int, std::string>> violations;
  for (int pass = 0; pass < opts.max_fixpoint_passes; ++pass) {
    const std::map<std::string, int> before = depth;
    violations.clear();
    for (const FactNode& node : facts.nodes) {
      int out_depth = budget;
      for (const std::string& in : node.inputs) {
        const int d = field_depth(in);
        if (d >= kStaticDepth) continue;
        const int r = stencil_reach(node, in, produced_at.at(in));
        if (d < r) violations.insert({node.id, in});
        out_depth = std::min(out_depth, std::max(0, d - r));
      }
      for (const std::string& out : node.outputs) depth[out] = out_depth;
      if (facts.halo_after[static_cast<std::size_t>(node.id)])
        for (const std::string& out : node.outputs) depth[out] = budget;
    }
    if (depth == before) break;  // steady state across repeated substeps
  }

  for (const auto& [id, field] : violations) {
    std::ostringstream os;
    os << node_ref(facts, id) << " reads '" << field
       << "' through a stencil, but by this point the field's halo validity "
          "is exhausted (budget " << budget << " half-layers, halo_layers="
       << opts.halo_layers
       << ") — a halo exchange is missing after its producer";
    report.add({Severity::Error, "halo-depth", id, -1, field, os.str()});
  }
  return report;
}

Report verify_graph(const GraphFacts& facts, const CheckOptions& opts) {
  Report report = check_structure(facts);
  if (report.errors() > 0) return report;  // paths undefined
  report.merge(check_dependency_edges(facts));
  report.merge(check_halo_depth(facts, opts));
  return report;
}

Report verify_graph(const core::DataflowGraph& graph,
                    const CheckOptions& opts) {
  return verify_graph(GraphFacts::from(graph), opts);
}

}  // namespace mpas::analysis
