// Model validation: measured per-kernel time *shares* of a real serial run
// on this build machine vs the machine model's predicted shares (for an
// out-of-order CPU at the serial-baseline level). Absolute times differ by
// hardware; the operation-mix fractions must agree if the per-pattern cost
// signatures are honest. Both columns come from the continuous profiler's
// per-node slots of a serial SwModel: the measured seconds it recorded, and
// the per-call prediction it published times the calls.
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "mesh/mesh_cache.hpp"
#include "obs/profiling/perf_profiler.hpp"
#include "sw/testcases.hpp"
#include "util/config.hpp"

using namespace mpas;

int main(int argc, char** argv) {
  const Config cfg = bench::bench_init(argc, argv, "model_validation");
  const int level = static_cast<int>(cfg.get_int("level", 6));
  const int steps = static_cast<int>(cfg.get_int("steps", 10));
  bench::report().environment().mesh_level = level;

  const auto mesh = mesh::get_global_mesh(level);
  const auto tc = sw::make_test_case(5);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.5);

  std::printf(
      "== Model validation: measured vs predicted per-kernel shares ==\n"
      "mesh %s (%d cells), %d steps, irregular (original) loops, 1 thread\n\n",
      mesh->resolution_label().c_str(), mesh->num_cells, steps);

  sw::SwModel model(*mesh, params);
  const sw::SwGraphs& g = model.graphs();
  model.set_schedules(core::make_serial_baseline_schedule(g.setup),
                      core::make_serial_baseline_schedule(g.early),
                      core::make_serial_baseline_schedule(g.final));
  auto& profiler = obs::profiling::PerfProfiler::global();
  profiler.set_enabled(true);
  core::SimOptions sim{machine::paper_platform()};
  sim.host_opt = machine::OptLevel::SerialBaseline;
  model.publish_predictions(sim);
  sw::apply_initial_conditions(*tc, *mesh, model.fields());
  model.initialize();
  profiler.reset();  // measure the steps only
  model.run(steps);

  // Per kernel group, summed over its nodes' slots.
  struct Seconds {
    Real measured = 0;
    Real modeled = 0;
  };
  std::map<std::string, Seconds> groups;
  Seconds total;
  for (const auto& e : profiler.to_profile("serial", 1, level).entries) {
    Seconds& s = groups[e.key.kernel];
    const Real modeled = e.predicted_s_per_call * static_cast<Real>(e.calls);
    s.measured += e.total_s;
    s.modeled += modeled;
    total.measured += e.total_s;
    total.modeled += modeled;
  }

  Table t({"kernel", "measured s", "measured share", "model share", "delta"});
  Real worst = 0;
  for (const auto& [kernel, s] : groups) {
    const Real measured = s.measured / total.measured;
    const Real model_share = s.modeled / total.modeled;
    worst = std::max(worst, std::abs(model_share - measured));
    bench::add_info(kernel + "_model_share", model_share, "ratio");
    bench::report().add_samples(kernel + "_measured_seconds", {s.measured},
                                "s", bench_harness::SeriesKind::Measured,
                                bench_harness::Direction::LowerIsBetter);
    t.add_row({kernel, Table::num(s.measured, 3),
               Table::fixed(measured * 100, 1) + "%",
               Table::fixed(model_share * 100, 1) + "%",
               Table::fixed((model_share - measured) * 100, 1) + "pp"});
  }
  bench::emit(t, "model_validation");
  bench::add_info("worst_share_deviation", worst, "ratio");
  std::printf(
      "largest share deviation: %.1f percentage points. The dominant kernels\n"
      "(compute_solve_diagnostics, compute_tend) must lead in both columns\n"
      "for the Figure 6/7 results to be trustworthy.\n",
      worst * 100);
  return 0;
}
