// Telemetry layer contract: SLO rolling-window and burn-rate arithmetic,
// policy environment overrides, the flight recorder's ring semantics and
// JSON dump (parsed back with the in-repo reader), the MPAS_FLIGHT_DUMP
// grammar, the wide-event JSONL sink, and the steady-state overhead
// budget (same style as the disabled-tracing budget in test_obs.cpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "mesh/mesh_cache.hpp"
#include "obs/json.hpp"
#include "obs/telemetry/event_log.hpp"
#include "obs/telemetry/flight_recorder.hpp"
#include "obs/telemetry/slo.hpp"
#include "sw/model.hpp"
#include "sw/testcases.hpp"
#include "util/timer.hpp"

namespace mpas::obs::telemetry {
namespace {

SloPolicy tight_policy(std::size_t window, Real target) {
  SloPolicy policy;
  policy.window = window;
  policy.target.fill(target);
  return policy;
}

// ------------------------------------------------------------ slo tracker

TEST(SloTracker, EmptyWindowIsPerfect) {
  const SloTracker tracker;
  EXPECT_EQ(tracker.attainment("ghost", SloDimension::DeadlineMiss), 1.0);
  EXPECT_EQ(tracker.burn_rate("ghost", SloDimension::DeadlineMiss), 0.0);
  EXPECT_EQ(tracker.worst_burn_rate("ghost"), 0.0);
  EXPECT_EQ(tracker.samples("ghost", SloDimension::DeadlineMiss), 0u);
  EXPECT_TRUE(tracker.tenants().empty());
}

TEST(SloTracker, AttainmentAndBurnRateArithmetic) {
  // Window 4, target 0.75: the error budget is 0.25, so each failed
  // sample in a full window is exactly one budget-unit of burn.
  SloTracker tracker(tight_policy(4, 0.75));
  const auto d = SloDimension::ErrorRate;

  tracker.record("a", d, true);
  tracker.record("a", d, true);
  tracker.record("a", d, false);
  const SloSample at_three = tracker.record("a", d, true);
  // 3 ok of 4: attainment == target, burn == budget refill rate.
  EXPECT_DOUBLE_EQ(at_three.attainment, 0.75);
  EXPECT_DOUBLE_EQ(at_three.burn_rate, 1.0);
  EXPECT_FALSE(at_three.breach);  // breach is strictly-below target

  // The window is full; this failure evicts the oldest (ok) sample.
  const SloSample breached = tracker.record("a", d, false);
  EXPECT_DOUBLE_EQ(breached.attainment, 0.5);
  EXPECT_DOUBLE_EQ(breached.burn_rate, 2.0);
  EXPECT_TRUE(breached.breach);

  EXPECT_DOUBLE_EQ(tracker.attainment("a", d), 0.5);
  EXPECT_DOUBLE_EQ(tracker.burn_rate("a", d), 2.0);
  EXPECT_EQ(tracker.samples("a", d), 4u);
  // The other dimensions are untouched, so the worst burn is this one.
  EXPECT_DOUBLE_EQ(tracker.worst_burn_rate("a"), 2.0);
  ASSERT_EQ(tracker.tenants().size(), 1u);
  EXPECT_EQ(tracker.tenants()[0], "a");
}

TEST(SloTracker, WindowEvictsOldestOutcome) {
  SloTracker tracker(tight_policy(2, 0.5));
  const auto d = SloDimension::AdmissionLatency;
  tracker.record("a", d, false);
  tracker.record("a", d, true);
  // The initial failure falls out of the 2-sample window.
  tracker.record("a", d, true);
  EXPECT_DOUBLE_EQ(tracker.attainment("a", d), 1.0);
  EXPECT_DOUBLE_EQ(tracker.burn_rate("a", d), 0.0);
  EXPECT_EQ(tracker.samples("a", d), 2u);
}

TEST(SloTracker, DimensionsAndTenantsAreIndependent) {
  SloTracker tracker(tight_policy(4, 0.75));
  tracker.record("a", SloDimension::DeadlineMiss, false);
  tracker.record("b", SloDimension::DeadlineMiss, true);
  EXPECT_DOUBLE_EQ(tracker.attainment("a", SloDimension::DeadlineMiss), 0.0);
  EXPECT_DOUBLE_EQ(tracker.attainment("a", SloDimension::ErrorRate), 1.0);
  EXPECT_DOUBLE_EQ(tracker.attainment("b", SloDimension::DeadlineMiss), 1.0);
  EXPECT_GT(tracker.worst_burn_rate("a"), 0.0);
  EXPECT_DOUBLE_EQ(tracker.worst_burn_rate("b"), 0.0);
}

TEST(SloPolicy, DimensionNamesAreStable) {
  // obs_query re-derives these offline; the names are a schema.
  EXPECT_STREQ(to_string(SloDimension::AdmissionLatency),
               "admission_latency");
  EXPECT_STREQ(to_string(SloDimension::DeadlineMiss), "deadline");
  EXPECT_STREQ(to_string(SloDimension::DegradedFidelity), "fidelity");
  EXPECT_STREQ(to_string(SloDimension::ErrorRate), "errors");
}

TEST(SloPolicy, FromEnvOverridesAndFallsBackOnGarbage) {
  setenv("MPAS_SLO_WINDOW", "8", 1);
  setenv("MPAS_SLO_TARGET", "0.5", 1);
  setenv("MPAS_SLO_LATENCY_BUDGET_US", "1000", 1);
  SloPolicy policy = SloPolicy::from_env();
  EXPECT_EQ(policy.window, 8u);
  for (int d = 0; d < kSloDimensions; ++d)
    EXPECT_DOUBLE_EQ(policy.target[d], 0.5);
  EXPECT_DOUBLE_EQ(policy.admission_latency_budget_us, 1000);

  // Malformed / out-of-range values keep the defaults.
  setenv("MPAS_SLO_TARGET", "1.5", 1);
  setenv("MPAS_SLO_LATENCY_BUDGET_US", "banana", 1);
  unsetenv("MPAS_SLO_WINDOW");
  policy = SloPolicy::from_env();
  const SloPolicy defaults;
  EXPECT_EQ(policy.window, defaults.window);
  EXPECT_DOUBLE_EQ(policy.target[0], defaults.target[0]);
  EXPECT_DOUBLE_EQ(policy.admission_latency_budget_us,
                   defaults.admission_latency_budget_us);

  unsetenv("MPAS_SLO_WINDOW");
  unsetenv("MPAS_SLO_TARGET");
  unsetenv("MPAS_SLO_LATENCY_BUDGET_US");
}

// -------------------------------------------------------- flight recorder

TEST(FlightRecorder, RingOverwritesOldestPastCapacity) {
  FlightRecorder recorder(4);
  for (int i = 0; i < 6; ++i)
    recorder.record(FlightKind::DeadlineCheck, i, "step check", i, 2 * i);

  EXPECT_EQ(recorder.recorded(), 6u);
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.capacity(), 4u);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, and the two earliest events were overwritten.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 2);
    EXPECT_EQ(events[i].step, static_cast<long>(i + 2));
    EXPECT_DOUBLE_EQ(events[i].a, static_cast<double>(i + 2));
  }
}

TEST(FlightRecorder, CountsHeldEventsByKind) {
  FlightRecorder recorder;
  recorder.record(FlightKind::Admission, -1, "admitted");
  recorder.record(FlightKind::Retry, 0, "attempt 1");
  recorder.record(FlightKind::Retry, 0, "attempt 2");
  EXPECT_EQ(recorder.count(FlightKind::Retry), 2u);
  EXPECT_EQ(recorder.count(FlightKind::Admission), 1u);
  EXPECT_EQ(recorder.count(FlightKind::Terminal), 0u);
}

TEST(FlightRecorder, ToJsonRoundTripsThroughReader) {
  FlightRecorder recorder(2);
  recorder.record(FlightKind::Admission, -1, "cost 1.5 <= budget \"2\"", 1.5,
                  2.0);
  recorder.record(FlightKind::Retry, 3, "transient fault", 0.25, 0.25);
  recorder.record(FlightKind::Terminal, 4, "completed");

  const auto doc = json::parse(recorder.to_json(7, "gold", "failure"));
  EXPECT_DOUBLE_EQ(doc.at("session").as_number(), 7);
  EXPECT_EQ(doc.at("tenant").as_string(), "gold");
  EXPECT_EQ(doc.at("trigger").as_string(), "failure");
  EXPECT_DOUBLE_EQ(doc.at("capacity").as_number(), 2);
  EXPECT_DOUBLE_EQ(doc.at("recorded").as_number(), 3);
  EXPECT_DOUBLE_EQ(doc.at("dropped").as_number(), 1);  // admission fell out

  const auto& events = doc.at("events").as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("kind").as_string(), "retry");
  EXPECT_DOUBLE_EQ(events[0].at("step").as_number(), 3);
  EXPECT_DOUBLE_EQ(events[0].at("a").as_number(), 0.25);
  EXPECT_EQ(events[1].at("kind").as_string(), "terminal");
  EXPECT_LE(events[0].at("ts").as_number(), events[1].at("ts").as_number());
}

TEST(FlightRecorder, DumpToFileWritesParseableJson) {
  FlightRecorder recorder;
  recorder.record(FlightKind::HealthTransition, 2,
                  "accel0: Healthy -> Quarantined (chaos)");
  const std::string path = "test_flight_dump.json";
  ASSERT_TRUE(recorder.dump_to_file(path, 1, "a", "quarantine"));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto doc = json::parse(text);
  EXPECT_EQ(doc.at("trigger").as_string(), "quarantine");
  ASSERT_EQ(doc.at("events").as_array().size(), 1u);
  EXPECT_EQ(doc.at("events").as_array()[0].at("kind").as_string(), "health");
  std::remove(path.c_str());

  EXPECT_FALSE(
      recorder.dump_to_file("no_such_dir/x.json", 1, "a", "failure"));
}

TEST(FlightDumpPolicy, EnvGrammar) {
  const FlightDumpPolicy disarmed = FlightDumpPolicy::parse("");
  EXPECT_FALSE(disarmed.armed());
  EXPECT_FALSE(disarmed.should_dump(true, true));

  const FlightDumpPolicy all = FlightDumpPolicy::parse("all");
  EXPECT_TRUE(all.armed());
  EXPECT_TRUE(all.dump_all);
  EXPECT_EQ(all.dir, "flight_dumps");
  EXPECT_TRUE(all.should_dump(false, false));

  const FlightDumpPolicy all_dir = FlightDumpPolicy::parse("all:/tmp/fd");
  EXPECT_TRUE(all_dir.dump_all);
  EXPECT_EQ(all_dir.dir, "/tmp/fd");

  const FlightDumpPolicy failures = FlightDumpPolicy::parse("dumps");
  EXPECT_TRUE(failures.armed());
  EXPECT_FALSE(failures.dump_all);
  EXPECT_EQ(failures.dir, "dumps");
  EXPECT_FALSE(failures.should_dump(false, false));
  EXPECT_TRUE(failures.should_dump(true, false));
  EXPECT_TRUE(failures.should_dump(false, true));
}

// -------------------------------------------------------------- event log

TEST(EventLog, EmitWritesJsonlAndParsesBack) {
  const std::string path = "test_events.jsonl";
  EventLog log;
  EXPECT_FALSE(log.enabled());
  log.emit("ignored", "a", 1);  // disabled: dropped silently
  log.open(path);
  EXPECT_TRUE(log.enabled());
  EXPECT_EQ(log.path(), path);

  log.emit("admit", "gold", 7, "\"cost\":1.5,\"borrowed\":true");
  WideEvent stamped;
  stamped.ts_s = 12.5;
  stamped.tenant = "silver \"quoted\"";
  stamped.session = 8;
  stamped.kind = "terminal";
  log.emit(stamped);
  EXPECT_EQ(log.events_written(), 2u);
  log.close();
  EXPECT_FALSE(log.enabled());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<json::Value> lines;
  while (std::getline(in, line)) lines.push_back(json::parse(line));
  ASSERT_EQ(lines.size(), 2u);

  EXPECT_EQ(lines[0].at("kind").as_string(), "admit");
  EXPECT_EQ(lines[0].at("tenant").as_string(), "gold");
  EXPECT_DOUBLE_EQ(lines[0].at("session").as_number(), 7);
  EXPECT_GE(lines[0].at("ts").as_number(), 0.0);  // stamped at emit time
  EXPECT_DOUBLE_EQ(lines[0].at("attrs").at("cost").as_number(), 1.5);
  EXPECT_TRUE(lines[0].at("attrs").at("borrowed").as_bool());

  EXPECT_DOUBLE_EQ(lines[1].at("ts").as_number(), 12.5);
  EXPECT_EQ(lines[1].at("tenant").as_string(), "silver \"quoted\"");
  std::remove(path.c_str());
}

TEST(EventLog, ToJsonlEnvelopeSchema) {
  WideEvent event;
  event.ts_s = 1.25;
  event.tenant = "a";
  event.session = 3;
  event.kind = "shed";
  const auto doc = json::parse(to_jsonl(event));
  EXPECT_DOUBLE_EQ(doc.at("ts").as_number(), 1.25);
  EXPECT_EQ(doc.at("tenant").as_string(), "a");
  EXPECT_DOUBLE_EQ(doc.at("session").as_number(), 3);
  EXPECT_EQ(doc.at("kind").as_string(), "shed");
}

// ------------------------------------------------------- overhead budget

TEST(TelemetryOverhead, SteadyStateStaysUnderTwoPercentOfAStep) {
  // Cost of one flight-recorder event in steady state (ring full, the
  // allocation-free overwrite path every healthy session lives on).
  FlightRecorder recorder;
  const std::string detail = "deadline check: spent 1.25 of 2.0";
  constexpr int kProbes = 200000;
  for (std::size_t i = 0; i < recorder.capacity(); ++i)
    recorder.record(FlightKind::DeadlineCheck, 0, detail);
  WallTimer record_timer;
  for (int i = 0; i < kProbes; ++i)
    recorder.record(FlightKind::DeadlineCheck, i, detail, 1.25, 2.0);
  const double per_record = record_timer.seconds() / kProbes;

  // Cost of one disarmed event-log probe (the enabled() check every emit
  // site makes before formatting anything).
  EventLog log;
  WallTimer probe_timer;
  std::uint64_t armed = 0;
  for (int i = 0; i < kProbes; ++i)
    if (log.enabled()) armed += 1;
  const double per_probe = probe_timer.seconds() / kProbes;
  EXPECT_EQ(armed, 0u);

  // A real serial SwModel step on the level-3 mesh for scale.
  const auto mesh = mesh::get_global_mesh(3);
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

  // A healthy session records at most a handful of flight events per step
  // (deadline check, EWMA sample) and probes the event log a few times;
  // budget 16 of each to be generous. Steady-state telemetry must cost
  // well under 2% of the measured step time.
  const double overhead = 16.0 * (per_record + per_probe);
  EXPECT_LT(overhead, 0.02 * per_step)
      << "per_record=" << per_record << "s per_probe=" << per_probe
      << "s per_step=" << per_step << "s";
}

}  // namespace
}  // namespace mpas::obs::telemetry
