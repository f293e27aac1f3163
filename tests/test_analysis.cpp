// Tests for the schedule & data-flow verifier: each checker must catch its
// seeded defect (a deleted edge, a same-level write overlap, a dropped halo
// sync, a mis-declared access set, an unordered schedule) and must pass
// clean on the shipped Algorithm-1 graphs.
#include <gtest/gtest.h>

#include <cstdlib>

#include "analysis/graph_check.hpp"
#include "analysis/race_detector.hpp"
#include "exec/offload.hpp"
#include "mesh/mesh_cache.hpp"
#include "obs/metrics.hpp"
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

TEST(GraphCheck, SameLevelWriteOverlapIsAConflict) {
  // Hand-built facts: two unordered nodes writing the same variable (the
  // graph's own derivation would have ordered them, which is the point of
  // the checker: it validates the declared world independently).
  analysis::GraphFacts facts;
  facts.name = "conflict";
  facts.nodes.push_back({0, "w0", core::PatternKind::Local,
                         MeshLocation::Cell, {}, {"t"}});
  facts.nodes.push_back({1, "w1", core::PatternKind::Local,
                         MeshLocation::Cell, {}, {"t"}});
  facts.succ = {{}, {}};
  facts.halo_after = {0, 0};
  const analysis::Report report = analysis::check_level_conflicts(facts);
  EXPECT_GE(report.errors(), 1);
  EXPECT_TRUE(report.has_code("level-conflict"));
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

// ---- happens-before race detection -----------------------------------------

TEST(RaceDetector, OrderedAccessesAreNotRaces) {
  analysis::RaceDetector d;
  const auto w = d.begin_task("writer");
  const auto r = d.begin_task("reader");
  d.on_write(w, "h");
  d.happens_before(w, r);
  d.on_read(r, "h");
  EXPECT_EQ(d.races(), 0);
  EXPECT_EQ(d.checks(), 2);
}

TEST(RaceDetector, UnorderedWriteWriteAndReadWriteAreRaces) {
  analysis::RaceDetector d;
  const auto a = d.begin_task("a", 0);
  const auto b = d.begin_task("b", 1);
  d.on_write(a, "h");
  d.on_write(b, "h");  // write/write, unordered
  EXPECT_EQ(d.races(), 1);
  d.on_read(a, "u");
  d.on_write(b, "u");  // read/write, unordered
  EXPECT_EQ(d.races(), 2);
  EXPECT_TRUE(d.report().has_code("race"));
  EXPECT_EQ(d.report().diagnostics()[0].node, 0);
  EXPECT_EQ(d.report().diagnostics()[0].other_node, 1);
}

TEST(RaceDetector, BarrierOrdersEveryParticipant) {
  analysis::RaceDetector d;
  const auto a = d.begin_task("a");
  const auto b = d.begin_task("b");
  d.on_write(a, "x");
  d.on_write(b, "y");
  const auto fence = d.barrier({a, b}, "level-0");
  const auto c = d.begin_task("c");
  d.happens_before(fence, c);
  d.on_write(c, "x");
  d.on_read(c, "y");
  EXPECT_EQ(d.races(), 0);
}

TEST(ScheduleRaces, ShippedSchedulesAreRaceFreeAndPublishMetrics) {
  auto& checks = obs::MetricsRegistry::global().counter("analysis.race.checks");
  auto& races =
      obs::MetricsRegistry::global().counter("analysis.race.violations");
  const std::uint64_t checks0 = checks.value();
  const std::uint64_t races0 = races.value();

  const sw::SwGraphs graphs = sw::build_sw_graphs(nullptr, true, true);
  for (const core::DataflowGraph* g :
       {&graphs.setup, &graphs.early, &graphs.final}) {
    const analysis::Report report = sw::verify_schedule_races(*g);
    EXPECT_TRUE(report.clean()) << g->name() << ":\n" << report.to_string();
  }
  EXPECT_GT(checks.value(), checks0);
  EXPECT_EQ(races.value(), races0);
}

TEST(ScheduleRaces, ScheduleIgnoringAWarHazardRaces) {
  // Model a broken executor that launches a reader and the next writer of
  // the same variable in one epoch: the detector must flag it even though
  // a correct data-flow graph exists.
  analysis::RaceDetector d;
  const auto producer = d.begin_task("produce-h", 0);
  d.on_write(producer, "h");
  const auto fence = d.barrier({producer}, "level-0");
  const auto reader = d.begin_task("read-h", 1);
  const auto clobber = d.begin_task("overwrite-h", 2);
  d.happens_before(fence, reader);
  d.happens_before(fence, clobber);  // WAR edge dropped by the "schedule"
  d.on_read(reader, "h");
  d.on_write(clobber, "h");
  EXPECT_EQ(d.races(), 1);
  EXPECT_NE(d.report().to_string().find("read/write"), std::string::npos);
}

// ---- offload transfer observation ------------------------------------------

TEST(Offload, TransferObserverSeesEveryDelivery) {
  exec::OffloadRuntime rt(machine::TransferLink{},
                          exec::TransferPolicy::OnDemand, 1 << 20);
  const auto id = rt.register_buffer("h", 1024, exec::BufferKind::ComputeData);
  std::vector<exec::OffloadRuntime::TransferEvent> seen;
  rt.set_transfer_observer(
      [&seen](const exec::OffloadRuntime::TransferEvent& ev) {
        seen.push_back(ev);
      });
  rt.ensure_on_device(id);
  rt.mark_written_on_device(id);
  rt.ensure_on_host(id);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].name, "h");
  EXPECT_EQ(seen[0].bytes, 1024u);
  EXPECT_TRUE(seen[0].to_device);
  EXPECT_FALSE(seen[1].to_device);
  EXPECT_EQ(seen[1].id, id);
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
