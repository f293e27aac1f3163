// Tests for the schedule & data-flow verifier: each checker must catch its
// seeded defect (a deleted edge, an unordered write/write, write/read or
// read/write pair, a dropped halo sync, a mis-declared access set) and must
// pass clean on the shipped Algorithm-1 graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <random>

#include "analysis/graph_check.hpp"
#include "mesh/mesh_cache.hpp"
#include "sw/model.hpp"
#include "sw/verify.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace mpas {
namespace {

core::PatternNode make_node(std::string label, std::vector<std::string> in,
                            std::vector<std::string> out,
                            core::PatternKind kind = core::PatternKind::Local,
                            MeshLocation loc = MeshLocation::Cell) {
  core::PatternNode n;
  n.label = std::move(label);
  n.kind = kind;
  n.kernel = core::KernelGroup::ComputeTend;
  n.iterates = loc;
  n.inputs = std::move(in);
  n.outputs = std::move(out);
  n.cost_gather = {.flops = 1, .bytes_streamed = 8, .bytes_written = 8};
  return n;
}

/// One hand-built node's declared access sets.
struct Access {
  std::vector<std::string> in, out;
};

/// Facts for `nodes` in program order with exactly the given edges, which
/// DataflowGraph's own derivation would never leave out.
analysis::GraphFacts hand_built(const std::vector<Access>& nodes,
                                const std::vector<std::pair<int, int>>& edges) {
  analysis::GraphFacts facts;
  facts.name = "hand-built";
  for (const Access& a : nodes) {
    const int id = facts.num_nodes();
    facts.nodes.push_back({id, "n" + std::to_string(id),
                           core::PatternKind::Local, MeshLocation::Cell, a.in,
                           a.out});
  }
  facts.succ.resize(nodes.size());
  facts.halo_after.assign(nodes.size(), 0);
  for (const auto& [from, to] : edges)
    facts.succ[static_cast<std::size_t>(from)].push_back(to);
  return facts;
}

/// `first` and `last` conflict on "t". Left unordered, the conflict must
/// surface as a missing edge in the hazard check and in the full verifier,
/// both when the two nodes are adjacent in program order and when another
/// writer of "t" sits between them (the unordered hazard is then one half
/// of the chain through that writer).
void expect_unordered_conflict_reported(const Access& first,
                                        const Access& last) {
  const analysis::GraphFacts pair = hand_built({first, last}, {});
  const analysis::Report direct = analysis::check_dependency_edges(pair);
  ASSERT_EQ(direct.errors(), 1) << direct.to_string();
  EXPECT_EQ(direct.diagnostics()[0].code, "missing-edge");
  EXPECT_EQ(direct.diagnostics()[0].node, 1);
  EXPECT_EQ(direct.diagnostics()[0].other_node, 0);
  EXPECT_EQ(direct.diagnostics()[0].field, "t");
  EXPECT_TRUE(analysis::verify_graph(pair).has_code("missing-edge"));

  const Access writer{{}, {"t"}};
  for (const auto& half : {std::pair{0, 1}, std::pair{1, 2}}) {
    SCOPED_TRACE("writer between, only edge " + std::to_string(half.first) +
                 " -> " + std::to_string(half.second));
    const analysis::GraphFacts facts =
        hand_built({first, writer, last}, {half});
    EXPECT_TRUE(
        analysis::check_dependency_edges(facts).has_code("missing-edge"));
    EXPECT_TRUE(analysis::verify_graph(facts).has_code("missing-edge"));
  }
  EXPECT_TRUE(analysis::verify_graph(
                  hand_built({first, writer, last}, {{0, 1}, {1, 2}}))
                  .clean());
}

struct SmallModelFixture {
  std::shared_ptr<const mesh::VoronoiMesh> mesh = mesh::get_global_mesh(2);
  sw::FieldStore fields{*mesh};
  sw::SwParams params;
  sw::SwContext ctx{*mesh, fields, params};

  SmallModelFixture() { params.dt = 1.0; ctx.params.dt = 1.0; }
};

// ---- diagnostics -----------------------------------------------------------

TEST(Diagnostics, ReportAccountsBySeverityAndCode) {
  analysis::Report report;
  report.add({analysis::Severity::Error, "missing-edge", 1, 0, "h", "m1"});
  report.add({analysis::Severity::Warning, "untouched-input", 2, -1, "u",
              "m2"});
  EXPECT_EQ(report.errors(), 1);
  EXPECT_EQ(report.warnings(), 1);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.has_code("missing-edge"));
  EXPECT_EQ(report.count_code("untouched-input"), 1);
  EXPECT_NE(report.to_string().find("missing-edge"), std::string::npos);

  analysis::Report other;
  other.merge(report);
  EXPECT_EQ(other.errors(), 1);
}

// ---- graph-level static checks ---------------------------------------------

TEST(GraphCheck, CleanGraphHasNoFindings) {
  core::DataflowGraph g("clean");
  g.add_node(make_node("a", {"x"}, {"y"}));
  g.add_node(make_node("b", {"y"}, {"z"}));
  g.finalize();
  const analysis::Report report = analysis::verify_graph(g);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.diagnostics().empty());
}

TEST(GraphCheck, DeletedEdgeIsReportedAsMissing) {
  core::DataflowGraph g("raw");
  const int a = g.add_node(make_node("a", {"x"}, {"y"}));
  const int b = g.add_node(make_node("b", {"y"}, {"z"}));
  g.finalize();

  analysis::GraphFacts facts = analysis::GraphFacts::from(g);
  facts.remove_edge(a, b);  // seed the defect
  const analysis::Report report = analysis::check_dependency_edges(facts);
  ASSERT_EQ(report.errors(), 1);
  EXPECT_EQ(report.diagnostics()[0].code, "missing-edge");
  EXPECT_EQ(report.diagnostics()[0].node, b);
  EXPECT_EQ(report.diagnostics()[0].other_node, a);
  EXPECT_EQ(report.diagnostics()[0].field, "y");
}

TEST(GraphCheck, TransitiveOrderSatisfiesHazards) {
  // a -> b -> c orders the WAW between a and c even without a direct edge.
  core::DataflowGraph g("transitive");
  g.add_node(make_node("a", {}, {"x"}));
  g.add_node(make_node("b", {"x"}, {"y"}));
  g.add_node(make_node("c", {"y"}, {"x"}));
  g.finalize();
  EXPECT_TRUE(analysis::check_dependency_edges(
                  analysis::GraphFacts::from(g)).clean());
}

TEST(GraphCheck, UnorderedWriteWriteIsAMissingEdge) {
  expect_unordered_conflict_reported({{}, {"t"}}, {{}, {"t"}});
}

TEST(GraphCheck, UnorderedWriteReadIsAMissingEdge) {
  expect_unordered_conflict_reported({{}, {"t"}}, {{"t"}, {"y"}});
}

TEST(GraphCheck, UnorderedReadWriteIsAMissingEdge) {
  expect_unordered_conflict_reported({{"t"}, {"x"}}, {{}, {"t"}});
}

TEST(GraphCheck, EveryUnorderedConflictIsAMissingEdge) {
  // Random acyclic fact sets: 2-7 nodes over three fields, edges drawn
  // along a random topological order (so some run against program order).
  // Two nodes conflict when one writes a field the other reads or writes.
  // Whenever a conflicting pair has no edge path in either direction, the
  // hazard check must report a missing edge; more exactly, it reports one
  // iff some conflicting pair lacks a path in program order.
  std::mt19937 rng(32);
  const std::vector<std::string> names = {"f0", "f1", "f2"};
  const auto shares = [](const std::vector<std::string>& xs,
                         const std::vector<std::string>& ys) {
    return std::any_of(xs.begin(), xs.end(), [&](const std::string& x) {
      return std::find(ys.begin(), ys.end(), x) != ys.end();
    });
  };
  int unordered_sets = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t n = 2 + rng() % 6;
    std::vector<Access> nodes(n);
    for (Access& a : nodes)
      for (const std::string& f : names) {
        if (rng() % 3 == 0) a.in.push_back(f);
        if (rng() % 3 == 0) a.out.push_back(f);
      }
    std::vector<int> topo(n);
    std::iota(topo.begin(), topo.end(), 0);
    std::shuffle(topo.begin(), topo.end(), rng);
    std::vector<std::pair<int, int>> edges;
    for (std::size_t x = 0; x < n; ++x)
      for (std::size_t y = x + 1; y < n; ++y)
        if (rng() % 4 == 0) edges.emplace_back(topo[x], topo[y]);
    const analysis::GraphFacts facts = hand_built(nodes, edges);
    ASSERT_TRUE(analysis::check_structure(facts).clean());

    // reach[a][b]: a path a -> ... -> b, by the test's own walk.
    std::vector<std::vector<char>> reach(n, std::vector<char>(n, 0));
    for (std::size_t start = 0; start < n; ++start) {
      std::vector<int> stack{static_cast<int>(start)};
      while (!stack.empty()) {
        const auto u = static_cast<std::size_t>(stack.back());
        stack.pop_back();
        for (int v : facts.succ[u]) {
          char& seen = reach[start][static_cast<std::size_t>(v)];
          if (seen == 0) {
            seen = 1;
            stack.push_back(v);
          }
        }
      }
    }
    bool unordered = false, out_of_order = false;
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t b = a + 1; b < n; ++b) {
        const Access& x = nodes[a];
        const Access& y = nodes[b];
        if (!shares(x.out, y.out) && !shares(x.out, y.in) &&
            !shares(x.in, y.out))
          continue;
        out_of_order |= reach[a][b] == 0;
        unordered |= reach[a][b] == 0 && reach[b][a] == 0;
      }
    const bool reported =
        analysis::check_dependency_edges(facts).has_code("missing-edge");
    if (unordered) {
      ++unordered_sets;
      EXPECT_TRUE(reported) << "trial " << trial;
    }
    EXPECT_EQ(reported, out_of_order) << "trial " << trial;
  }
  EXPECT_GT(unordered_sets, 1000);  // the property was exercised
}

TEST(GraphCheck, CycleIsReportedAndStopsVerification) {
  analysis::GraphFacts facts;
  facts.name = "cycle";
  facts.nodes.push_back({0, "a", core::PatternKind::Local,
                         MeshLocation::Cell, {"y"}, {"x"}});
  facts.nodes.push_back({1, "b", core::PatternKind::Local,
                         MeshLocation::Cell, {"x"}, {"y"}});
  facts.succ = {{1}, {0}};
  facts.halo_after = {0, 0};
  const analysis::Report report = analysis::verify_graph(facts);
  EXPECT_TRUE(report.has_code("cycle"));
  EXPECT_FALSE(report.has_code("missing-edge"));  // later checks skipped
}

TEST(GraphCheck, StencilReachFollowsPatternTaxonomy) {
  analysis::FactNode local{0, "x", core::PatternKind::Local,
                           MeshLocation::Cell, {}, {}};
  analysis::FactNode cell_from_cells{1, "b", core::PatternKind::B,
                                     MeshLocation::Cell, {}, {}};
  analysis::FactNode edge_from_cells{2, "c", core::PatternKind::C,
                                     MeshLocation::Edge, {}, {}};
  EXPECT_EQ(analysis::stencil_reach(local, "h", MeshLocation::Cell), 0);
  EXPECT_EQ(analysis::stencil_reach(cell_from_cells, "h",
                                    MeshLocation::Cell), 2);
  EXPECT_EQ(analysis::stencil_reach(edge_from_cells, "h",
                                    MeshLocation::Cell), 1);
}

TEST(GraphCheck, ShippedGraphsVerifyClean) {
  const sw::SwGraphs graphs = sw::build_sw_graphs(nullptr, true, true);
  for (const core::DataflowGraph* g :
       {&graphs.setup, &graphs.early, &graphs.final}) {
    const analysis::Report report = analysis::verify_graph(*g);
    EXPECT_TRUE(report.clean()) << g->name() << ":\n" << report.to_string();
  }
}

TEST(GraphCheck, DroppedHaloSyncExhaustsTheDepthBudget) {
  const sw::SwGraphs graphs = sw::build_sw_graphs(nullptr, false);
  analysis::GraphFacts facts = analysis::GraphFacts::from(graphs.early);

  // Seed the defect: drop the exchange after the APVM pv_edge producer
  // (pattern G, the red halo mark feeding the tendency stencils).
  int dropped = 0;
  for (const analysis::FactNode& node : facts.nodes) {
    for (const std::string& out : node.outputs)
      if (out == "pv_edge" && facts.halo_after[node.id]) {
        facts.halo_after[node.id] = 0;
        ++dropped;
      }
  }
  ASSERT_GE(dropped, 1) << "expected a halo sync after the pv_edge producer";

  const analysis::Report before = analysis::check_halo_depth(
      analysis::GraphFacts::from(graphs.early));
  EXPECT_TRUE(before.clean());
  const analysis::Report after = analysis::check_halo_depth(facts);
  EXPECT_GE(after.errors(), 1);
  EXPECT_TRUE(after.has_code("halo-depth"));
}

// ---- access-set replay -----------------------------------------------------

TEST(AccessReplay, ShippedBodiesMatchTheirDeclaredSets) {
  SmallModelFixture fx;
  const sw::SwGraphs graphs = sw::build_sw_graphs(&fx.ctx, false);
  const analysis::Report report =
      sw::verify_pattern_access(graphs.early, fx.ctx);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.warnings(), 0) << report.to_string();
}

TEST(AccessReplay, UndeclaredWriteIsCaught) {
  SmallModelFixture fx;
  core::DataflowGraph g("rogue");
  core::PatternNode n = make_node("rogue-writer", {"h"}, {"ke"});
  sw::SwContext* ctx = &fx.ctx;
  n.body = [ctx](const core::RunArgs& args) {
    auto ke = ctx->fields.get(sw::FieldId::Ke);
    auto h = ctx->fields.get(sw::FieldId::H);
    auto u = ctx->fields.get(sw::FieldId::U);  // not declared anywhere
    for (Index i = args.begin; i < args.end; ++i)
      ke[static_cast<std::size_t>(i)] = h[static_cast<std::size_t>(i)];
    u[0] += 1.0;  // undeclared write
  };
  g.add_node(std::move(n));
  g.finalize();

  const analysis::Report report = sw::verify_pattern_access(g, fx.ctx);
  EXPECT_TRUE(report.has_code("undeclared-write"));
  EXPECT_GE(report.errors(), 1);
  bool names_u = false;
  for (const auto& d : report.diagnostics()) names_u |= (d.field == "u");
  EXPECT_TRUE(names_u);
}

TEST(AccessReplay, UndeclaredReadAndUntouchedOutputAreCaught) {
  SmallModelFixture fx;
  core::DataflowGraph g("sloppy");
  core::PatternNode n = make_node("sloppy-reader", {"h"}, {"ke", "tend_h"});
  sw::SwContext* ctx = &fx.ctx;
  n.body = [ctx](const core::RunArgs& args) {
    auto ke = ctx->fields.get(sw::FieldId::Ke);
    // Reads "b" (undeclared) instead of "h" (declared but untouched);
    // never touches declared output "tend_h".
    auto b = ctx->fields.get(sw::FieldId::Bottom);
    for (Index i = args.begin; i < args.end; ++i)
      ke[static_cast<std::size_t>(i)] = b[static_cast<std::size_t>(i)];
  };
  g.add_node(std::move(n));
  g.finalize();

  const analysis::Report report = sw::verify_pattern_access(g, fx.ctx);
  EXPECT_TRUE(report.has_code("undeclared-access"));
  EXPECT_TRUE(report.has_code("untouched-output"));
  EXPECT_TRUE(report.has_code("untouched-input"));
}

TEST(AccessReplay, RestoresFieldContentsAndCoefficients) {
  SmallModelFixture fx;
  fx.fields.fill(sw::FieldId::H, 7.5);
  fx.ctx.rk_substep_coeff = 0.25;
  const sw::SwGraphs graphs = sw::build_sw_graphs(&fx.ctx, false);
  (void)sw::verify_pattern_access(graphs.early, fx.ctx);
  for (Real v : fx.fields.get(sw::FieldId::H)) ASSERT_DOUBLE_EQ(v, 7.5);
  EXPECT_DOUBLE_EQ(fx.ctx.rk_substep_coeff, 0.25);
}

// ---- full-model wiring -----------------------------------------------------

TEST(ModelVerify, FullModelConstructsCleanUnderMpasVerify) {
  ASSERT_EQ(setenv("MPAS_VERIFY", "1", 1), 0);
  EXPECT_TRUE(env::flag("MPAS_VERIFY"));
  const auto mesh = mesh::get_global_mesh(2);
  sw::SwParams params;
  params.dt = 60.0;
  params.with_tracer = true;
  EXPECT_NO_THROW({ sw::SwModel model(*mesh, params); });
  ASSERT_EQ(unsetenv("MPAS_VERIFY"), 0);
  EXPECT_FALSE(env::flag("MPAS_VERIFY"));
}

// "true" is a flag value like "1": the model runs the battery and says so.
TEST(ModelVerify, TrueArmsTheVerifier) {
  const auto mesh = mesh::get_global_mesh(2);
  sw::SwParams params;
  params.dt = 60.0;
  const LogLevel level = Logger::instance().level();
  Logger::instance().set_level(LogLevel::Info);
  ASSERT_EQ(setenv("MPAS_VERIFY", "true", 1), 0);
  testing::internal::CaptureStderr();
  { const sw::SwModel model(*mesh, params); }
  const std::string log = testing::internal::GetCapturedStderr();
  ASSERT_EQ(unsetenv("MPAS_VERIFY"), 0);
  Logger::instance().set_level(level);
  EXPECT_NE(log.find("MPAS_VERIFY: data-flow graphs verified clean"),
            std::string::npos)
      << log;
}

}  // namespace
}  // namespace mpas
