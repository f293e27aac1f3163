// Continuous-profiler overhead series: the per-operation wall cost of
// every hook PerfProfiler adds to a hot kernel — the disabled probe (one
// relaxed load, what every build pays without MPAS_PROFILE), an enabled
// ProfileScope record (two clock reads + histogram + atomic accumulation),
// and one hardware-counter bracket (the sampled every-Nth-call path; falls
// back to the no-perf_event stub in containers). Measured series with a
// committed baseline, gated by bench_compare's wide measured band; the hard
// <2%-of-a-step budget is asserted in tests/test_profiling.cpp against a
// real profiled step.
#include <cstdio>

#include "bench_common.hpp"
#include "obs/profiling/hw_counters.hpp"
#include "obs/profiling/perf_profiler.hpp"
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
  const Config cfg = bench::bench_init(argc, argv, "profiler");
  const int ops = static_cast<int>(cfg.get_int("ops", 200000));
  bench::add_info("ops", static_cast<Real>(ops), "count");
  bench::add_info("counters_available",
                  obs::profiling::HwCounterGroup::available() ? 1.0 : 0.0,
                  "bool");

  namespace profiling = obs::profiling;
  const bench_harness::BenchRunner runner;

  std::printf("== Continuous-profiler overhead (%d ops per repeat, "
              "hw counters %s) ==\n\n",
              ops,
              profiling::HwCounterGroup::available() ? "live" : "fallback");

  // Disabled probe: the steady-state cost every kernel call pays in a
  // build that never set MPAS_PROFILE.
  profiling::PerfProfiler dark;
  const profiling::ProfileHandle dark_handle =
      dark.handle({"bench", "compute_tend", "host", 0});
  const auto disabled = runner.collect([&] {
    return per_op_ns(ops, [&](int) {
      const profiling::ProfileScope scope(dark, dark_handle);
    });
  });
  bench::add_measured("record_disabled_ns", disabled, "ns");

  // Enabled record, counter sampling off: clock bracket + histogram +
  // relaxed atomics.
  profiling::PerfProfiler live;
  live.set_enabled(true);
  live.set_sample_every(0);
  const profiling::ProfileHandle live_handle =
      live.handle({"bench", "compute_tend", "host", 0});
  const auto enabled = runner.collect([&] {
    return per_op_ns(ops, [&](int) {
      const profiling::ProfileScope scope(live, live_handle);
    });
  });
  bench::add_measured("record_enabled_ns", enabled, "ns");

  // One hardware-counter bracket (the every-Nth sampled call). Two ioctls
  // + one read when perf_event is live, a few branches in the fallback.
  profiling::HwCounterGroup counters;
  const int sample_ops = ops / 100;
  const auto sample = runner.collect([&] {
    return per_op_ns(sample_ops, [&](int) {
      counters.start();
      const profiling::HwCounterSample s = counters.stop();
      (void)s;
    });
  });
  bench::add_measured("counter_sample_ns", sample, "ns");

  Table t({"hook", "ns/op p50", "ns/op p75", "stable"});
  const auto row = [&t](const char* name,
                        const bench_harness::RunResult& run) {
    t.add_row({name, Table::fixed(run.stats.median, 1),
               Table::fixed(run.stats.p75, 1), run.stable ? "yes" : "no"});
  };
  row("record_disabled", disabled);
  row("record_enabled", enabled);
  row("counter_sample", sample);
  bench::emit(t, "profiler_overhead");
  return 0;
}
