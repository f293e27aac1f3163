// Telemetry layer contract: SLO rolling-window and burn-rate arithmetic,
// the flight recorder's ring semantics and
// JSONL dump (parsed back with the in-repo reader), the MPAS_FLIGHT_DUMP
// grammar, the wide-event JSONL sink and its typed attrs, and the
// steady-state overhead budget of one service fact recorded through
// service::record_fact (same style as the disabled-tracing budget in
// test_obs.cpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "mesh/mesh_cache.hpp"
#include "obs/json.hpp"
#include "obs/telemetry/event_log.hpp"
#include "obs/telemetry/flight_recorder.hpp"
#include "obs/telemetry/slo.hpp"
#include "obs/trace.hpp"
#include "service/facts.hpp"
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

// -------------------------------------------------------- flight recorder

/// A stamped fact as the service records it.
WideEvent fact(const std::string& kind, double ts_s) {
  WideEvent event(kind, "gold", 7);
  event.ts_s = ts_s;
  return event;
}

/// Every line of a JSONL file, parsed.
std::vector<json::Value> read_jsonl(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::vector<json::Value> lines;
  while (std::getline(in, line)) lines.push_back(json::parse(line));
  return lines;
}

TEST(FlightRecorder, RingOverwritesOldestPastCapacity) {
  FlightRecorder recorder(4);
  for (int i = 0; i < 6; ++i)
    recorder.record(fact("deadline_check", i).add("step", i).add("a", i));

  EXPECT_EQ(recorder.recorded(), 6u);
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.capacity(), 4u);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, and the two earliest events were overwritten.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].ts_s, static_cast<double>(i + 2));
    const std::string n = std::to_string(i + 2);
    EXPECT_EQ(attrs_json(events[i]), "\"step\":" + n + ",\"a\":" + n);
  }
}

TEST(FlightRecorder, CountsHeldEventsByKind) {
  FlightRecorder recorder;
  recorder.record(fact("admit", 1));
  recorder.record(fact("retry", 2));
  recorder.record(fact("retry", 3));
  EXPECT_EQ(recorder.count("retry"), 2u);
  EXPECT_EQ(recorder.count("admit"), 1u);
  EXPECT_EQ(recorder.count("terminal"), 0u);
}

TEST(FlightRecorder, ToJsonRoundTripsThroughReader) {
  FlightRecorder recorder(2);
  recorder.record(
      fact("admit", 1).add("reason", "cost 1.5 <= budget \"2\"").add("cost",
                                                                     1.5));
  recorder.record(fact("retry", 2).add("step", 3).add("backoff_modeled_s",
                                                       0.25));
  recorder.record(fact("terminal", 3).add("state", "completed"));
  EXPECT_EQ(recorder.recorded(), 3u);

  // The admission fell out of the 2-slot ring; each held fact reads back
  // from its event-log line with every attr intact.
  const auto held = recorder.events();
  ASSERT_EQ(held.size(), 2u);
  const auto retry = json::parse(to_jsonl(held[0]));
  EXPECT_EQ(retry.at("kind").as_string(), "retry");
  EXPECT_EQ(retry.at("tenant").as_string(), "gold");
  EXPECT_DOUBLE_EQ(retry.at("session").as_number(), 7);
  EXPECT_DOUBLE_EQ(retry.at("attrs").at("step").as_number(), 3);
  EXPECT_DOUBLE_EQ(retry.at("attrs").at("backoff_modeled_s").as_number(),
                   0.25);
  const auto terminal = json::parse(to_jsonl(held[1]));
  EXPECT_EQ(terminal.at("kind").as_string(), "terminal");
  EXPECT_EQ(terminal.at("attrs").at("state").as_string(), "completed");
  EXPECT_LE(retry.at("ts").as_number(), terminal.at("ts").as_number());
}

TEST(FlightRecorder, DumpToFileWritesParseableJson) {
  FlightRecorder recorder(2);
  recorder.record(fact("health", 1)
                      .add("entity", "accel")
                      .add("from", "healthy")
                      .add("to", "quarantined")
                      .add("reason", "chaos")
                      .add("step", 2));
  recorder.record(fact("terminal", 2).add("state", "completed"));
  recorder.record(fact("flight_dump", 3));  // health fell out: `dropped`
  WideEvent header = fact("flight_dump", 4);
  header.add("trigger", "quarantine");
  const std::string path = "test_flight_dump.jsonl";
  ASSERT_TRUE(recorder.dump_to_file(path, header));

  // Line for line the event log's format: the header, completed with the
  // ring's counts, then the held facts oldest first.
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], to_jsonl(header));
  const auto held = recorder.events();
  EXPECT_EQ(lines[1], to_jsonl(held[0]));
  EXPECT_EQ(lines[2], to_jsonl(held[1]));

  const auto docs = read_jsonl(path);
  const auto& head = docs[0].at("attrs");
  EXPECT_EQ(docs[0].at("kind").as_string(), "flight_dump");
  EXPECT_EQ(head.at("trigger").as_string(), "quarantine");
  EXPECT_DOUBLE_EQ(head.at("capacity").as_number(), 2);
  EXPECT_DOUBLE_EQ(head.at("recorded").as_number(), 3);
  EXPECT_DOUBLE_EQ(head.at("dropped").as_number(), 1);
  EXPECT_EQ(docs[1].at("kind").as_string(), "terminal");
  EXPECT_EQ(docs[2].at("kind").as_string(), "flight_dump");
  std::remove(path.c_str());

  WideEvent unwritten = fact("flight_dump", 5);
  EXPECT_FALSE(recorder.dump_to_file("no_such_dir/x.jsonl", unwritten));
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

TEST(EventLog, AppendModeExtendsTruncateModeRestarts) {
  const std::string path = "test_events_append.jsonl";
  EventLog log;
  log.open(path);
  log.emit("first", "a", 1);
  log.close();
  log.open(path, EventLog::Mode::Append);
  log.emit("second", "a", 1);
  log.close();
  ASSERT_EQ(read_jsonl(path).size(), 2u);
  log.open(path);  // the default truncates
  log.close();
  EXPECT_TRUE(read_jsonl(path).empty());
  std::remove(path.c_str());
}

TEST(WideEvent, TypedAttrsRenderExactly) {
  WideEvent event("admit", "gold", 3);
  const double deadline = 1234.56789012345;
  event.add("deadline_modeled_s", deadline)
      .add("steps", 8)
      .add("id", std::uint64_t{1} << 63)
      .add("offset", std::int64_t{-5})
      .add("borrowed", true)
      .add("reason", "a \"quoted\" reason")
      .add("inf", std::numeric_limits<double>::infinity());
  EXPECT_EQ(attrs_json(event),
            "\"deadline_modeled_s\":1234.56789012345,\"steps\":8,"
            "\"id\":9223372036854775808,\"offset\":-5,\"borrowed\":true,"
            "\"reason\":\"a \\\"quoted\\\" reason\",\"inf\":0");
  const auto attrs = json::parse(to_jsonl(event)).at("attrs");
  // The double reads back bit for bit; a bool is a JSON bool.
  EXPECT_EQ(attrs.at("deadline_modeled_s").as_number(), deadline);
  EXPECT_TRUE(attrs.at("borrowed").as_bool());
  EXPECT_EQ(attrs.at("reason").as_string(), "a \"quoted\" reason");
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
  // Cost of one service fact as a session step records it: built with
  // typed attrs, then stamped by service::record_fact, checked against the
  // disabled event log and trace, and moved into a full flight ring (the
  // steady state of a long session).
  EventLog::global().close();
  TraceRecorder::global().set_enabled(false);
  FlightRecorder recorder;
  const std::string tenant = "gold";
  constexpr int kProbes = 200000;
  const auto record = [&](int step) {
    service::record_fact(WideEvent("replan", tenant, 7)
                             .add("step", step)
                             .add("step_modeled_s", 1.25e-3 * (1 + step % 7))
                             .add("ewma_modeled_s", 1.0625e-3),
                         &recorder);
  };
  const int warm = static_cast<int>(recorder.capacity());
  for (int i = 0; i < warm; ++i) record(i);
  WallTimer fact_timer;
  for (int i = 0; i < kProbes; ++i) record(i);
  const double per_fact = fact_timer.seconds() / kProbes;
  EXPECT_EQ(recorder.recorded(), static_cast<std::uint64_t>(warm + kProbes));

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

  // A healthy session records at most a handful of facts per step
  // (deadline check, step excursion); budget 16 to be generous.
  // Steady-state telemetry must cost well under 2% of the measured step
  // time.
  const double overhead = 16.0 * per_fact;
  EXPECT_LT(overhead, 0.02 * per_step)
      << "per_fact=" << per_fact << "s per_step=" << per_step << "s";
}

}  // namespace
}  // namespace mpas::obs::telemetry
