// The continuous profiler's contract, bottom-up: hardware-counter groups
// degrade cleanly when perf_event is unavailable, PerfProfiler's record
// path aggregates exactly and stays inside the <2% steady-state overhead
// budget against a real profiled step, ProfileStore JSON round-trips
// byte-exactly (its env block included), calibrate() closes the loop into
// machine::Calibration, the share-normalized overlay ignores unpredicted
// nested slots, SwModel's published predictions cover every node of the
// model as configured, and a profiled hybrid run fills per-node slots on
// both devices.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_harness/env_fingerprint.hpp"
#include "machine/calibration.hpp"
#include "mesh/mesh_cache.hpp"
#include "obs/profiling/hw_counters.hpp"
#include "obs/profiling/perf_profiler.hpp"
#include "obs/profiling/profile_store.hpp"
#include "obs/profiling/profile_trace.hpp"
#include "obs/trace.hpp"
#include "resilience/health/hybrid.hpp"
#include "sw/model.hpp"
#include "sw/testcases.hpp"
#include "util/timer.hpp"

namespace mpas::obs::profiling {
namespace {

using resilience::health::SelfHealingHybrid;

// ------------------------------------------------------------ HwCounters

TEST(HwCounters, AvailabilityVerdictIsStable) {
  // Probed once, cached: repeated calls must agree (and be cheap).
  const bool first = HwCounterGroup::available();
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(HwCounterGroup::available(), first);
}

TEST(HwCounters, FallbackGroupProducesInvalidZeroSample) {
  // force_fallback exercises the no-perf_event path deterministically —
  // the path every container/CI run without the syscall lives on.
  HwCounterGroup group(true);
  EXPECT_FALSE(group.active());
  group.start();
  const HwCounterSample s = group.stop();
  EXPECT_FALSE(s.valid);
  EXPECT_FALSE(s.stalled_valid);
  EXPECT_EQ(s.cycles, 0u);
  EXPECT_EQ(s.instructions, 0u);
  EXPECT_EQ(s.llc_misses, 0u);
  EXPECT_EQ(s.stalled_cycles, 0u);
  EXPECT_DOUBLE_EQ(s.ipc(), 0.0);  // zero-cycles guard
}

TEST(HwCounters, LiveGroupMatchesAvailabilityVerdict) {
  HwCounterGroup group;
  EXPECT_EQ(group.active(), HwCounterGroup::available());
  group.start();
  const HwCounterSample s = group.stop();
  EXPECT_EQ(s.valid, group.active());
  if (s.valid) {
    EXPECT_GT(s.cycles, 0u);
  }
}

// ---------------------------------------------------------- PerfProfiler

TEST(PerfProfiler, DisabledScopeRecordsNothing) {
  PerfProfiler profiler;  // disabled by default
  const ProfileHandle h =
      profiler.handle({"A2", "compute_tend", "host", 3});
  for (int i = 0; i < 10; ++i) {
    const ProfileScope scope(profiler, h);
    EXPECT_FALSE(scope.active());
  }
  EXPECT_EQ(profiler.calls(h), 0u);
  EXPECT_DOUBLE_EQ(profiler.total_seconds(h), 0.0);
}

TEST(PerfProfiler, InertHandleIsSafeEvenWhenEnabled) {
  PerfProfiler profiler;
  profiler.set_enabled(true);
  const ProfileHandle inert;
  EXPECT_FALSE(inert.valid());
  const ProfileScope scope(profiler, inert);
  EXPECT_FALSE(scope.active());
  EXPECT_EQ(profiler.calls(inert), 0u);
}

TEST(PerfProfiler, RecordsCallsTotalsAndQuantiles) {
  PerfProfiler profiler;
  profiler.set_enabled(true);
  profiler.set_sample_every(4);  // exercise the counter-bracket path too
  const ProfileKey key{"A2", "compute_tend", "host", 3};
  const ProfileHandle h = profiler.handle(key);
  // The same key resolves to the same slot.
  constexpr int kCalls = 64;
  for (int i = 0; i < kCalls; ++i) {
    const ProfileScope scope(profiler, h);
    EXPECT_TRUE(scope.active());
  }
  EXPECT_EQ(profiler.calls(h), static_cast<std::uint64_t>(kCalls));
  EXPECT_GT(profiler.total_seconds(h), 0.0);

  profiler.set_prediction(key, 1.5e-6);
  const Profile p = profiler.to_profile("hybrid", 4, 3);
  EXPECT_EQ(p.backend, "hybrid");
  EXPECT_EQ(p.threads, 4);
  ASSERT_EQ(p.entries.size(), 1u);
  const ProfileEntry& e = p.entries[0];
  EXPECT_EQ(e.key, key);
  EXPECT_EQ(e.calls, static_cast<std::uint64_t>(kCalls));
  EXPECT_GT(e.total_s, 0.0);
  EXPECT_LE(e.min_s, e.max_s);
  EXPECT_LE(e.p50_s, e.p95_s);
  EXPECT_LE(e.p95_s, e.p99_s);
  EXPECT_DOUBLE_EQ(e.predicted_s_per_call, 1.5e-6);
  EXPECT_GT(e.mean_s(), 0.0);

  // reset drops data but keeps the handle (and the prediction slot) valid.
  profiler.reset();
  EXPECT_EQ(profiler.calls(h), 0u);
  {
    const ProfileScope scope(profiler, h);
  }
  EXPECT_EQ(profiler.calls(h), 1u);
}

// The hard ISSUE budget: with the profiler *enabled* (production default,
// counter sampling every 16th call), the per-scope record cost times the
// number of scopes a real step actually executes must stay well under 2%
// of that step's wall time. The scope count is taken from the profiler's
// own call totals — not a guessed constant — so the budget tracks the real
// instrumentation density.
TEST(PerfProfilerOverhead, SteadyStateStaysUnderTwoPercentOfAStep) {
  // Micro-cost of one enabled ProfileScope at the production sampling rate.
  PerfProfiler micro;
  micro.set_enabled(true);
  micro.set_sample_every(16);
  const ProfileHandle h = micro.handle({"budget", "compute_tend", "host", 4});
  constexpr int kProbes = 200000;
  // Warm the slot (the first sampled call may open the counter group).
  for (int i = 0; i < 1000; ++i) {
    const ProfileScope scope(micro, h);
  }
  WallTimer scope_timer;
  for (int i = 0; i < kProbes; ++i) {
    const ProfileScope scope(micro, h);
  }
  const double per_scope = scope_timer.seconds() / kProbes;

  // A real profiled run on the level-4 mesh (the smallest hybrid-split
  // mesh): count how many scopes one step records and what it costs.
  PerfProfiler& global = PerfProfiler::global();
  global.reset();
  global.set_enabled(true);
  global.set_sample_every(16);
  const auto mesh = mesh::get_global_mesh(4);
  const auto tc = sw::make_test_case(5);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);
  sw::SwModel model(*mesh, params);
  sw::apply_initial_conditions(*tc, *mesh, model.fields());
  model.initialize();
  constexpr int kSteps = 3;
  WallTimer step_timer;
  model.run(kSteps);
  const double per_step = step_timer.seconds() / kSteps;
  std::uint64_t total_calls = 0;
  for (const ProfileEntry& e : global.to_profile("host", 1, 4).entries)
    total_calls += e.calls;
  global.set_enabled(false);
  global.reset();
  ASSERT_GT(total_calls, 0u);
  // Ceiling: every recorded call charged to one step (initialize's setup
  // scopes included), so the measured density is an over-estimate.
  const double scopes_per_step =
      static_cast<double>(total_calls) / static_cast<double>(kSteps);

  const double overhead = scopes_per_step * per_scope;
  EXPECT_LT(overhead, 0.02 * per_step)
      << "per_scope=" << per_scope << "s x " << scopes_per_step
      << " scopes/step, per_step=" << per_step << "s";
}

// ----------------------------------------------------------- ProfileStore

Profile make_profile() {
  Profile p;
  p.env = bench_harness::current_fingerprint();
  p.threads = 8;
  p.backend = "hybrid";
  p.counters_available = true;
  ProfileEntry a;
  a.key = {"A2", "compute_tend", "accel", 4};
  a.calls = 300;
  a.total_s = 0.1;          // awkward in binary
  a.min_s = 1.0 / 3.0;
  a.max_s = 1e-17;
  a.p50_s = 0.30000000000000004;
  a.p95_s = 2.2250738585072014e-308;  // smallest normal double
  a.p99_s = 123456789.123456789;
  a.predicted_s_per_call = 2e-4;
  a.counters.samples = 19;
  a.counters.cycles = 1e9 + 0.5;
  a.counters.instructions = 2.5e9;
  a.counters.llc_misses = 1234567.0;
  a.counters.stalled_cycles = 3.3e8;
  ProfileEntry b;
  b.key = {"X3", "advance_state", "host", 4};
  b.calls = 100;
  b.total_s = 0.05;
  b.predicted_s_per_call = 5e-4;
  p.entries = {b, a};  // unsorted on purpose: to_json must canonicalize
  return p;
}

TEST(ProfileStore, JsonRoundTripIsByteExact) {
  const Profile p = make_profile();
  const std::string once = p.to_json();
  const std::string twice = Profile::from_json(once).to_json();
  EXPECT_EQ(once, twice);
  // And the parsed profile carries the data, sorted by key.
  const Profile back = Profile::from_json(once);
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.entries[0].key.pattern, "A2");
  EXPECT_EQ(back.entries[1].key.pattern, "X3");
  EXPECT_EQ(back.entries[0].calls, 300u);
  EXPECT_EQ(back.entries[0].min_s, 1.0 / 3.0);
  EXPECT_EQ(back.entries[0].p95_s, 2.2250738585072014e-308);
  EXPECT_EQ(back.entries[0].counters.samples, 19u);
  EXPECT_EQ(back.backend, "hybrid");
  EXPECT_EQ(back.threads, 8);
  EXPECT_TRUE(back.counters_available);
  EXPECT_FALSE(back.env.config.empty());
  EXPECT_EQ(back.env.config, p.env.config);
}

TEST(ProfileStore, FileWriteReadRoundTrips) {
  const Profile p = make_profile();
  const std::string path = "test_profile_roundtrip.json";
  ASSERT_TRUE(write_profile_file(p, path));
  const Profile back = read_profile_file(path);
  EXPECT_EQ(back.to_json(), p.to_json());
  std::remove(path.c_str());
}

TEST(ProfileStore, ReadMissingFileThrows) {
  EXPECT_ANY_THROW(read_profile_file("no_such_profile_file.json"));
}

TEST(ProfileStore, CalibrateDerivesPerKernelScales) {
  Profile p;
  ProfileEntry a;  // measured 2x the prediction
  a.key = {"A2", "compute_tend", "host", 3};
  a.calls = 10;
  a.total_s = 2e-2;
  a.predicted_s_per_call = 1e-3;
  ProfileEntry b;  // measured 0.5x the prediction
  b.key = {"X1", "diagnostics", "host", 3};
  b.calls = 10;
  b.total_s = 5e-3;
  b.predicted_s_per_call = 1e-3;
  ProfileEntry c;  // no prediction: must be ignored
  c.key = {"node", "boundary", "host", 3};
  c.calls = 1000;
  c.total_s = 17.0;
  p.entries = {a, b, c};

  const machine::Calibration cal = calibrate(p);
  EXPECT_NEAR(cal.scale_for("compute_tend"), 2.0, 1e-12);
  EXPECT_NEAR(cal.scale_for("diagnostics"), 0.5, 1e-12);
  // Aggregate fallback: (2e-2 + 5e-3) / (1e-2 + 1e-2) = 1.25.
  EXPECT_NEAR(cal.default_scale, 1.25, 1e-12);
  EXPECT_NEAR(cal.scale_for("boundary"), 1.25, 1e-12);
  EXPECT_NEAR(cal.corrected_time("compute_tend", 3.0), 6.0, 1e-12);
  // Round-trip of the derived coefficients.
  EXPECT_EQ(machine::Calibration::from_json(cal.to_json()).to_json(),
            cal.to_json());
  // Identity from a prediction-free profile.
  Profile empty;
  EXPECT_TRUE(calibrate(empty).empty());
}

// ---------------------------------------------------------- share overlay

TEST(ProfileTrace, ShareDriftIgnoresUnpredictedNestedSlots) {
  Profile p;
  ProfileEntry a;  // both entries match the predicted mix exactly
  a.key = {"A2", "compute_tend", "host", 3};
  a.calls = 10;
  a.total_s = 2e-2;  // mean 2e-3
  a.predicted_s_per_call = 1e-3;
  ProfileEntry b;
  b.key = {"X1", "diagnostics", "host", 3};
  b.calls = 10;
  b.total_s = 6e-2;  // mean 6e-3
  b.predicted_s_per_call = 3e-3;
  ProfileEntry nested;  // unpredicted slot double-counting wall time
  nested.key = {"node", "boundary", "host", 3};
  nested.calls = 100;
  nested.total_s = 40.0;
  p.entries = {a, b, nested};

  // Shares agree perfectly (2x machine offset cancels); the huge
  // unpredicted slot must not skew the comparison.
  EXPECT_NEAR(worst_share_drift(p), 1.0, 1e-9);
  const auto drift = share_drift(p);
  ASSERT_EQ(drift.size(), 3u);
  for (const ShareDrift& d : drift) {
    if (d.key.pattern == "node") {
      EXPECT_DOUBLE_EQ(d.ratio, 0.0);
      EXPECT_DOUBLE_EQ(d.divergence(), 1.0);
    } else {
      EXPECT_NEAR(d.ratio, 1.0, 1e-9);
    }
  }

  // Skew one kernel's measured cost: divergence shows symmetrically.
  p.entries[0].total_s *= 3;
  EXPECT_GT(worst_share_drift(p), 1.5);
}

TEST(ProfileTrace, OverlayRecordsBothLanesAndDriftCounter) {
  const Profile p = make_profile();
  TraceRecorder recorder;
  recorder.set_enabled(true);
  const int track = record_profile_overlay(p, recorder, "profile: test");
  EXPECT_GE(track, 0);
  int measured = 0, modeled = 0, counters = 0;
  for (const TraceEvent& e : recorder.snapshot()) {
    if (e.track != track) continue;
    if (e.kind == TraceEvent::Kind::Counter) {
      counters += 1;
      EXPECT_GT(e.value, 0.0);
    } else if (e.lane == 0) {
      measured += 1;
    } else if (e.lane == 1) {
      modeled += 1;
    }
  }
  EXPECT_EQ(measured, 2);  // both entries have calls
  EXPECT_EQ(modeled, 2);   // both carry predictions
  EXPECT_EQ(counters, 2);  // drift ratio per predicted entry
}

// ------------------------------------------------------------ SwModel

// publish_predictions covers the model as configured: with diffusion and
// the tracer on, every host slot a step records into carries a prediction,
// the optional nodes included.
TEST(SwModelPredictions, EveryProfiledNodeOfTheConfiguredModelIsPredicted) {
  const auto mesh = mesh::get_global_mesh(3);
  const auto tc = sw::make_test_case(5);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);
  params.nu_del2_h = 1e4;
  params.nu_del2_u = 1e5;
  params.with_tracer = true;

  PerfProfiler& profiler = PerfProfiler::global();
  const std::uint32_t sample_every = profiler.sample_every();
  profiler.reset();
  profiler.set_sample_every(0);
  profiler.set_enabled(true);
  {
    sw::SwModel model(*mesh, params);
    model.publish_predictions(core::SimOptions{machine::paper_platform()});
    sw::apply_initial_conditions(*tc, *mesh, model.fields());
    model.initialize();
    model.run(2);
  }
  profiler.set_enabled(false);
  const Profile p = profiler.to_profile("host", 1, mesh->subdivision_level);
  profiler.reset();
  profiler.set_sample_every(sample_every);

  std::set<std::string> predicted;
  for (const ProfileEntry& e : p.entries) {
    if (e.key.mesh_level != mesh->subdivision_level ||
        e.key.device != "host" || e.calls == 0)
      continue;
    EXPECT_GT(e.predicted_s_per_call, 0.0) << e.key.flat();
    if (e.predicted_s_per_call > 0) predicted.insert(e.key.pattern);
  }
  // The optional diffusion and tracer nodes are among them.
  for (const char* label :
       {"B1", "X7", "C2", "A5", "X0e", "X0f", "X8", "C3", "X9", "X12", "X13"})
    EXPECT_EQ(predicted.count(label), 1u) << label;
}

// --------------------------------------------------- SelfHealingHybrid

struct HybridRun {
  // Level 4 is the smallest mesh whose pattern-level split uses the
  // accelerator; smaller meshes stay host-only and record no accel slots.
  std::shared_ptr<const mesh::VoronoiMesh> mesh = mesh::get_global_mesh(4);
  std::shared_ptr<const sw::TestCase> tc = sw::make_test_case(2);
  sw::SwParams params;

  HybridRun() { params.dt = sw::suggested_time_step(*tc, *mesh, 0.4); }
};

// Per-node ProfileScopes in SwModel: running a hybrid step with the global
// profiler enabled populates per-(pattern, kernel, device) slots.
TEST(SelfHealingHybrid, ProfiledRunPopulatesPerNodeSlots) {
  PerfProfiler& profiler = PerfProfiler::global();
  profiler.reset();
  profiler.set_enabled(true);
  profiler.set_sample_every(0);
  {
    HybridRun run;
    SelfHealingHybrid sut(*run.mesh, run.params, {});
    sw::apply_initial_conditions(*run.tc, *run.mesh, sut.model().fields());
    sut.initialize();
    sut.run(3);
  }
  profiler.set_enabled(false);
  const Profile p = profiler.to_profile("hybrid", 1, 4);
  profiler.reset();
  // Slots exist for both sides of every node (and prediction-only slots
  // from swap_in); the *executed* sides carry calls.
  int called = 0;
  bool saw_host = false, saw_accel = false, saw_predicted = false;
  for (const ProfileEntry& e : p.entries) {
    if (e.calls == 0) continue;
    called += 1;
    saw_host = saw_host || e.key.device == "host";
    saw_accel = saw_accel || e.key.device == "accel";
    saw_predicted = saw_predicted || e.predicted_s_per_call > 0;
  }
  EXPECT_GT(called, 4);
  EXPECT_TRUE(saw_host);
  EXPECT_TRUE(saw_accel);
  // swap_in published machine-model predictions for the planned nodes.
  EXPECT_TRUE(saw_predicted);
}

}  // namespace
}  // namespace mpas::obs::profiling
