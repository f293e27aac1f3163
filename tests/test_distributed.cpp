// The distributed (simulated-MPI) integrator's correctness contract: owned
// values are bitwise identical to a serial run on the global mesh, for any
// rank count and with the resilience layer off or on — because every kernel
// gathers identical inputs in identical order, whichever pool participant
// runs the rank. Plus message-fabric semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <sstream>

#include "comm/distributed.hpp"
#include "mesh/mesh_cache.hpp"
#include "obs/profiling/perf_profiler.hpp"
#include "obs/trace.hpp"
#include "sw/invariants.hpp"
#include "sw/reference.hpp"

namespace mpas::comm {
namespace {

using sw::FieldId;

/// One point of the differential rank sweep.
struct SweepConfig {
  int ranks = 1;
  sw::LoopVariant variant = sw::LoopVariant::BranchFree;
  bool tracer = false;
  bool diffuse_h = false;
  bool diffuse_u = false;
  int halo_layers = 2;
  bool resilient = false;

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "ranks=" << ranks << " variant=" << sw::to_string(variant)
       << " tracer=" << tracer << " nu_h=" << diffuse_h
       << " nu_u=" << diffuse_u << " halo=" << halo_layers
       << " resilient=" << resilient;
    return os.str();
  }
};

/// Seeded configurations in which every value of every axis appears: each
/// axis cycles through its values over `count` slots, then the slots are
/// shuffled per axis, so the combinations vary with the seed.
std::vector<SweepConfig> make_sweep(std::uint64_t seed, int count) {
  std::mt19937_64 rng(seed);
  auto axis = [&](int values) {
    std::vector<int> slots(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
      slots[static_cast<std::size_t>(i)] = i % values;
    std::shuffle(slots.begin(), slots.end(), rng);
    return slots;
  };
  constexpr int kRanks[] = {1, 2, 3, 5, 8};
  constexpr sw::LoopVariant kVariants[] = {sw::LoopVariant::Refactored,
                                           sw::LoopVariant::BranchFree};
  const auto ranks = axis(5), variant = axis(2), tracer = axis(2),
             diffusion = axis(4), halo = axis(2), resilient = axis(2);
  std::vector<SweepConfig> out(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < out.size(); ++i) {
    SweepConfig& c = out[i];
    c.ranks = kRanks[ranks[i]];
    c.variant = kVariants[variant[i]];
    c.tracer = tracer[i] == 1;
    c.diffuse_h = (diffusion[i] & 1) != 0;
    c.diffuse_u = (diffusion[i] & 2) != 0;
    c.halo_layers = 2 + halo[i];
    c.resilient = resilient[i] == 1;
  }
  return out;
}

// Differential sweep over DistributedSw's configuration space: every
// configuration must match ReferenceIntegrator of the same loop variant
// byte for byte (memcmp, so -0.0 and +0.0 differ), on the prognostic
// state, the tracer and the reconstruction.
TEST(DistributedSweep, SeededConfigurationsMatchReferenceBytewise) {
  const auto mesh = mesh::get_global_mesh(3);
  const auto tc = sw::make_test_case(5);
  constexpr int kSteps = 4;
  constexpr Real kBellLon = constants::kPi / 2;
  constexpr Real kBellRadius = constants::kPi / 4;
  for (const SweepConfig& c : make_sweep(/*seed=*/20261017, /*count=*/24)) {
    SCOPED_TRACE(c.describe());
    sw::SwParams params;
    params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);
    params.with_tracer = c.tracer;
    if (c.diffuse_h) params.nu_del2_h = 1e4;
    if (c.diffuse_u) params.nu_del2_u = 1e5;

    sw::ReferenceIntegrator ref(*mesh, params, c.variant);
    sw::apply_initial_conditions(*tc, *mesh, ref.fields());
    if (c.tracer)
      sw::apply_cosine_bell_tracer(*mesh, ref.fields(), kBellLon, 0.0,
                                   kBellRadius);
    ref.initialize();
    ref.run(kSteps);

    DistributedSw dist(*mesh, c.ranks, params, c.variant, c.halo_layers);
    if (c.resilient) dist.enable_resilience(ResilienceOptions{});
    dist.apply_test_case(*tc);
    if (c.tracer)
      for (int r = 0; r < c.ranks; ++r)
        sw::apply_cosine_bell_tracer(dist.local_mesh(r).mesh, dist.fields(r),
                                     kBellLon, 0.0, kBellRadius);
    dist.initialize();
    dist.run(kSteps);

    for (FieldId f : {FieldId::H, FieldId::U, FieldId::TracerQ,
                      FieldId::ReconZonal}) {
      const std::vector<Real> got = dist.gather_global(f);
      const auto want = ref.fields().get(f);
      ASSERT_EQ(got.size(), want.size()) << sw::field_info(f).name;
      EXPECT_EQ(
          std::memcmp(got.data(), want.data(), got.size() * sizeof(Real)), 0)
          << sw::field_info(f).name << " differs from the reference";
    }
  }
}

TEST(DistributedSweep, EveryAxisValueAppears) {
  const std::vector<SweepConfig> sweep = make_sweep(20261017, 24);
  auto count = [&](auto pred) {
    return std::count_if(sweep.begin(), sweep.end(), pred);
  };
  for (int ranks : {1, 2, 3, 5, 8})
    EXPECT_GT(count([&](const SweepConfig& c) { return c.ranks == ranks; }), 0);
  for (auto v : {sw::LoopVariant::Refactored, sw::LoopVariant::BranchFree})
    EXPECT_GT(count([&](const SweepConfig& c) { return c.variant == v; }), 0);
  for (int d = 0; d < 4; ++d)
    EXPECT_GT(count([&](const SweepConfig& c) {
                return c.diffuse_h == ((d & 1) != 0) &&
                       c.diffuse_u == ((d & 2) != 0);
              }),
              0);
  for (bool b : {false, true}) {
    EXPECT_GT(count([&](const SweepConfig& c) { return c.tracer == b; }), 0);
    EXPECT_GT(count([&](const SweepConfig& c) { return c.resilient == b; }), 0);
  }
  for (int halo : {2, 3})
    EXPECT_GT(
        count([&](const SweepConfig& c) { return c.halo_layers == halo; }), 0);
}

/// Number of `events` that are complete spans named `name`.
std::size_t count_spans(const std::vector<obs::TraceEvent>& events,
                        const std::string& name) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(), [&](const auto& e) {
        return e.kind == obs::TraceEvent::Kind::Complete && e.name == name;
      }));
}

// Rank work runs through SwModel's executor, so a profiled distributed run
// fills one host slot per (pattern, kernel), resolved and recorded from
// concurrent rank-pool workers (the TSan job runs this test). With the
// tracer on too, every recorded call is also one node span.
TEST(DistributedSw, ProfiledRunCountsEveryNodeOnEveryRank) {
  using obs::profiling::PerfProfiler;
  const auto mesh = mesh::get_global_mesh(3);
  const auto tc = sw::make_test_case(5);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);
  params.with_tracer = true;  // every optional node runs too
  params.nu_del2_h = 1e4;
  params.nu_del2_u = 1e5;
  constexpr int kRanks = 4;
  constexpr int kSteps = 2;

  PerfProfiler& profiler = PerfProfiler::global();
  const std::uint32_t sample_every = profiler.sample_every();
  profiler.reset();
  profiler.set_sample_every(0);
  obs::TraceRecorder& tracer = obs::TraceRecorder::global();
  const bool tracing = tracer.enabled();
  tracer.clear();
  tracer.set_enabled(true);
  profiler.set_enabled(true);
  {
    DistributedSw dist(*mesh, kRanks, params);
    dist.apply_test_case(*tc);
    dist.initialize();
    dist.run(kSteps);
  }
  profiler.set_enabled(false);
  tracer.set_enabled(tracing);
  const std::vector<obs::TraceEvent> events = tracer.snapshot();
  tracer.clear();

  // A step runs the setup and final graphs once and the early graph three
  // times; initialize() runs the final graph's diagnostics and
  // reconstruction. Labels shared by two graphs share a slot.
  const sw::SwGraphs graphs = sw::build_sw_graphs(nullptr, true, true);
  std::map<std::pair<std::string, std::string>, std::uint64_t> expected;
  auto add = [&](const core::DataflowGraph& graph, int per_step,
                 bool initialize) {
    for (const core::PatternNode& node : graph.nodes()) {
      const bool tail =
          node.kernel == core::KernelGroup::ComputeSolveDiagnostics ||
          node.kernel == core::KernelGroup::MpasReconstruct;
      expected[{node.label, core::to_string(node.kernel)}] +=
          kRanks * ((initialize && tail ? 1 : 0) + kSteps * per_step);
    }
  };
  add(graphs.setup, 1, false);
  add(graphs.early, 3, false);
  add(graphs.final, 1, true);
  for (const auto& [key, calls] : expected) {
    const auto handle = profiler.handle(
        {key.first, key.second, "host", mesh->subdivision_level});
    EXPECT_EQ(profiler.calls(handle), calls) << key.first << " " << key.second;
    EXPECT_EQ(count_spans(events, "kernel:" + key.second + "/" + key.first +
                                      "@host"),
              calls)
        << key.first << " " << key.second;
  }
  profiler.reset();
  profiler.set_sample_every(sample_every);
}

// Node spans come from the profiler's scopes: tracing alone records none,
// so traces of unprofiled runs keep their size.
TEST(DistributedSw, TracedRunWithoutProfilingRecordsNoNodeSpans) {
  const auto mesh = mesh::get_global_mesh(2);
  const auto tc = sw::make_test_case(5);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);
  obs::profiling::PerfProfiler& profiler =
      obs::profiling::PerfProfiler::global();
  const bool profiling = profiler.enabled();
  profiler.set_enabled(false);
  obs::TraceRecorder& tracer = obs::TraceRecorder::global();
  const bool tracing = tracer.enabled();
  tracer.clear();
  tracer.set_enabled(true);
  {
    DistributedSw dist(*mesh, 2, params);
    dist.apply_test_case(*tc);
    dist.initialize();
    dist.run(1);
  }
  tracer.set_enabled(tracing);
  profiler.set_enabled(profiling);
  const std::vector<obs::TraceEvent> events = tracer.snapshot();
  tracer.clear();
  EXPECT_FALSE(events.empty());  // the rank driver's own spans
  for (const obs::TraceEvent& e : events)
    EXPECT_NE(e.name.rfind("kernel:", 0), 0u) << e.name;
}

TEST(SimWorld, FifoMatchingByEndpointAndTag) {
  SimWorld w(3);
  w.send(0, 1, 7, {1.0, 2.0});
  w.send(0, 1, 7, {3.0});
  w.send(2, 1, 7, {9.0});
  EXPECT_TRUE(w.has_pending());
  EXPECT_EQ(w.recv(1, 0, 7), (std::vector<Real>{1.0, 2.0}));
  EXPECT_EQ(w.recv(1, 0, 7), (std::vector<Real>{3.0}));
  EXPECT_EQ(w.recv(1, 2, 7), (std::vector<Real>{9.0}));
  EXPECT_FALSE(w.has_pending());
  EXPECT_EQ(w.stats().messages, 3u);
  EXPECT_EQ(w.stats().bytes, 4 * sizeof(Real));
}

TEST(SimWorld, RecvWithoutMessageThrows) {
  SimWorld w(2);
  EXPECT_THROW(w.recv(1, 0, 0), Error);
  w.send(0, 1, 1, {1.0});
  EXPECT_THROW(w.recv(1, 0, 2), Error);  // wrong tag
}

TEST(SimWorld, SelfSendIsRejected) {
  SimWorld w(2);
  EXPECT_THROW(w.send(1, 1, 0, {1.0}), Error);
}

TEST(DistributedSw, RejectsIrregularVariant) {
  const auto mesh = mesh::get_global_mesh(2);
  sw::SwParams p;
  p.dt = 100;
  EXPECT_THROW(DistributedSw(*mesh, 2, p, sw::LoopVariant::Irregular), Error);
}

// 1 rank runs on an inline pool (no workers); 8 ranks put several ranks on
// one participant on any host with fewer than 8 cores.
class DistributedVsSerial : public ::testing::TestWithParam<int> {};

TEST_P(DistributedVsSerial, OwnedValuesMatchSerialBitwise) {
  const auto mesh = mesh::get_global_mesh(3);
  const auto tc = sw::make_test_case(5);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);
  const int steps = 6;  // crosses a checkpoint when resilience is on

  sw::ReferenceIntegrator serial(*mesh, params, sw::LoopVariant::BranchFree);
  sw::apply_initial_conditions(*tc, *mesh, serial.fields());
  serial.initialize();
  serial.run(steps);
  const auto h_ref = serial.fields().get(FieldId::H);
  const auto u_ref = serial.fields().get(FieldId::U);

  for (const bool resilient : {false, true}) {
    SCOPED_TRACE(resilient ? "resilience on" : "resilience off");
    DistributedSw dist(*mesh, GetParam(), params);
    if (resilient) dist.enable_resilience(ResilienceOptions{});
    dist.apply_test_case(*tc);
    dist.initialize();
    dist.run(steps);

    const auto h = dist.gather_global(FieldId::H);
    const auto u = dist.gather_global(FieldId::U);
    for (Index c = 0; c < mesh->num_cells; ++c)
      ASSERT_EQ(h[static_cast<std::size_t>(c)], h_ref[c]) << "cell " << c;
    for (Index e = 0; e < mesh->num_edges; ++e)
      ASSERT_EQ(u[static_cast<std::size_t>(e)], u_ref[e]) << "edge " << e;
    if (resilient) {
      const auto stats = dist.resilience_stats();
      EXPECT_EQ(stats.health_checks, static_cast<std::uint64_t>(steps));
      EXPECT_EQ(stats.rollbacks, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistributedVsSerial,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(DistributedSw, ReconstructionMatchesSerial) {
  const auto mesh = mesh::get_global_mesh(3);
  const auto tc = sw::make_test_case(6);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);

  sw::ReferenceIntegrator serial(*mesh, params, sw::LoopVariant::BranchFree);
  sw::apply_initial_conditions(*tc, *mesh, serial.fields());
  serial.initialize();
  serial.run(3);

  DistributedSw dist(*mesh, 4, params);
  dist.apply_test_case(*tc);
  dist.initialize();
  dist.run(3);

  const auto zonal = dist.gather_global(FieldId::ReconZonal);
  const auto ref = serial.fields().get(FieldId::ReconZonal);
  for (Index c = 0; c < mesh->num_cells; ++c)
    ASSERT_EQ(zonal[static_cast<std::size_t>(c)], ref[c]);
}

TEST(DistributedSw, DiffusionPathMatchesSerial) {
  const auto mesh = mesh::get_global_mesh(3);
  const auto tc = sw::make_test_case(5);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);
  params.nu_del2_u = 1e5;
  params.nu_del2_h = 1e4;

  sw::ReferenceIntegrator serial(*mesh, params, sw::LoopVariant::BranchFree);
  sw::apply_initial_conditions(*tc, *mesh, serial.fields());
  serial.initialize();
  serial.run(3);

  DistributedSw dist(*mesh, 4, params);
  dist.apply_test_case(*tc);
  dist.initialize();
  dist.run(3);

  const auto h = dist.gather_global(FieldId::H);
  const auto ref = serial.fields().get(FieldId::H);
  for (Index c = 0; c < mesh->num_cells; ++c)
    ASSERT_EQ(h[static_cast<std::size_t>(c)], ref[c]);
}

// shrink_to rebuilds every rank's fields from the survivors' state; the
// mountain of test case 5 must survive it like the prognostic fields.
TEST(DistributedSw, ShrinkKeepsTopography) {
  const auto mesh = mesh::get_global_mesh(3);
  const auto tc = sw::make_test_case(5);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);

  DistributedSw ref(*mesh, 4, params);
  ref.apply_test_case(*tc);
  ref.initialize();
  ref.run(4);

  DistributedSw sut(*mesh, 4, params);
  sut.apply_test_case(*tc);
  sut.initialize();
  sut.run(2);
  sut.shrink_to(3);
  sut.run(2);
  for (FieldId f : {FieldId::Bottom, FieldId::H, FieldId::U}) {
    const std::vector<Real> got = sut.gather_global(f);
    const std::vector<Real> want = ref.gather_global(f);
    EXPECT_EQ(
        std::memcmp(got.data(), want.data(), got.size() * sizeof(Real)), 0)
        << sw::field_info(f).name;
  }
}

TEST(SimWorld, PendingSummaryListsQueues) {
  SimWorld w(3);
  EXPECT_EQ(w.pending_summary(), "none");
  w.send(0, 1, 2, {1.0});
  w.send(0, 1, 2, {2.0});
  EXPECT_EQ(w.pending_summary(), "0 -> 1 tag 2 x2");
  EXPECT_EQ(w.pending().size(), 1u);
  EXPECT_EQ(w.pending()[0].depth, 2u);
}

TEST(DistributedSw, CommVolumeScalesWithRanksNotSteps) {
  const auto mesh = mesh::get_global_mesh(3);
  const auto tc = sw::make_test_case(2);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);

  std::uint64_t bytes2, bytes8;
  {
    DistributedSw d(*mesh, 2, params);
    d.apply_test_case(*tc);
    d.initialize();
    d.step();
    bytes2 = d.comm_stats().bytes;
  }
  {
    DistributedSw d(*mesh, 8, params);
    d.apply_test_case(*tc);
    d.initialize();
    d.step();
    bytes8 = d.comm_stats().bytes;
  }
  EXPECT_GT(bytes2, 0u);
  // Total halo surface grows with rank count.
  EXPECT_GT(bytes8, bytes2);
}

}  // namespace
}  // namespace mpas::comm
