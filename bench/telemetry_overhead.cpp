// Telemetry overhead series: the per-operation wall cost of each
// steady-state observability hook the service layer adds to a healthy
// session — flight-recorder ring writes (one fact copied into a full
// ring), the disabled event-log probe, and an enabled event-log emit
// (render + write + flush one JSONL line). SLOs cost the running service
// nothing: obs_query folds them offline from the event log. Measured
// series with a committed baseline, gated by bench_compare's wide
// measured band; the hard <2%-of-a-step budget is asserted in
// tests/test_telemetry.cpp against a real profiled step.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "obs/telemetry/event_log.hpp"
#include "obs/telemetry/flight_recorder.hpp"
#include "util/config.hpp"
#include "util/timer.hpp"

using namespace mpas;

namespace {

template <typename Fn>
double per_op_ns(int ops, Fn&& fn) {
  WallTimer timer;
  for (int i = 0; i < ops; ++i) fn(i);
  return timer.seconds() / ops * 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = bench::bench_init(argc, argv, "telemetry");
  const int ops = static_cast<int>(cfg.get_int("ops", 200000));
  bench::add_info("ops", static_cast<Real>(ops), "count");

  namespace telemetry = obs::telemetry;
  const bench_harness::BenchRunner runner;

  std::printf("== Telemetry steady-state overhead (%d ops per repeat) ==\n\n",
              ops);

  // Flight recorder with the ring already full: every healthy session
  // lives on this overwrite path after its first kDefaultCapacity events.
  telemetry::FlightRecorder recorder;
  telemetry::WideEvent check("deadline_check", "gold", 7);
  check.add("step", 4).add("needed_modeled_s", 1.25).add(
      "deadline_modeled_s", 2.0);
  for (std::size_t i = 0; i < recorder.capacity(); ++i) recorder.record(check);
  const auto flight = runner.collect([&] {
    return per_op_ns(ops, [&](int) { recorder.record(check); });
  });
  bench::add_measured("flight_record_ns", flight, "ns");

  // Disabled event log: one relaxed atomic load per would-be emit.
  telemetry::EventLog dark;
  std::uint64_t armed = 0;
  const auto probe = runner.collect([&] {
    return per_op_ns(ops, [&](int) {
      if (dark.enabled()) armed += 1;
    });
  });
  if (armed != 0) std::printf("(unreachable: disabled log armed)\n");
  bench::add_measured("event_log_disabled_ns", probe, "ns");

  // Enabled event log: the full render + write + per-line flush. Far
  // rarer than the probe (one line per service decision, not per step).
  telemetry::EventLog log;
  const std::string sink = bench::out_dir() + "/telemetry_events.jsonl";
  log.open(sink);
  const int emit_ops = ops / 20;
  const auto emit = runner.collect([&] {
    return per_op_ns(emit_ops, [&](int i) {
      log.emit("admit", "gold", static_cast<std::uint64_t>(i),
               "\"cost\":1.5,\"borrowed\":true");
    });
  });
  log.close();
  std::remove(sink.c_str());
  bench::add_measured("event_log_emit_ns", emit, "ns");

  Table t({"hook", "ns/op p50", "ns/op p75", "stable"});
  const auto row = [&t](const char* name,
                        const bench_harness::RunResult& run) {
    t.add_row({name, Table::fixed(run.stats.median, 1),
               Table::fixed(run.stats.p75, 1), run.stable ? "yes" : "no"});
  };
  row("flight_record", flight);
  row("event_log_disabled", probe);
  row("event_log_emit", emit);
  bench::emit(t, "telemetry_overhead");
  return 0;
}
