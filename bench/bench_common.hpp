// Shared helpers for the figure/table regeneration benches.
//
// Each bench binary prints the rows/series of one table or figure of the
// paper (plus the paper's reported values where applicable, for side-by-side
// shape comparison), writes a CSV next to it, and emits one machine-readable
// BENCH_<suite>.json report through the bench_harness layer. The output
// directory resolves as: --out-dir=DIR (or out_dir=DIR) flag, then the
// MPAS_BENCH_OUT environment variable, then ./bench_out.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_harness/attribution.hpp"
#include "bench_harness/report.hpp"
#include "bench_harness/runner.hpp"
#include "core/schedule.hpp"
#include "machine/machine_model.hpp"
#include "sw/model.hpp"
#include "util/config.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace mpas::bench {

namespace harness = bench_harness;

namespace detail {

inline std::string& out_dir_storage() {
  static std::string dir;
  return dir;
}

}  // namespace detail

/// The binary's report; bench_init names it and arranges its JSON at exit.
inline harness::BenchReport& report() {
  static harness::BenchReport rep;
  return rep;
}

inline std::string out_dir() {
  std::string& dir = detail::out_dir_storage();
  if (dir.empty()) dir = *env::text("MPAS_BENCH_OUT");  // has a default
  std::filesystem::create_directories(dir);
  return dir;
}

/// Shared bench entry point: parses key=value options (with --out-dir=DIR
/// and --out-dir DIR accepted as sugar for out_dir=DIR), resolves the
/// output directory, stamps the report with the suite name and environment
/// fingerprint, and registers the exit hook that writes
/// <out_dir>/BENCH_<suite>.json after main returns.
inline Config bench_init(int argc, char** argv, const std::string& suite) {
  std::vector<std::string> rewritten;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out-dir=", 0) == 0)
      rewritten.push_back("out_dir=" + arg.substr(10));
    else if (arg == "--out-dir" && i + 1 < argc)
      rewritten.push_back(std::string("out_dir=") + argv[++i]);
    else
      rewritten.push_back(arg);
  }
  std::vector<const char*> args;
  args.push_back(argc > 0 ? argv[0] : "bench");
  for (const auto& a : rewritten) args.push_back(a.c_str());
  const Config cfg =
      Config::from_args(static_cast<int>(args.size()), args.data());
  if (cfg.has("out_dir"))
    detail::out_dir_storage() = cfg.get_string("out_dir", "bench_out");

  harness::BenchReport& rep = report();
  rep.set_suite(suite);
  rep.environment() = harness::current_fingerprint();
  rep.environment().machine_preset = "paper_platform";

  // Resolve (and create) the output directory now so the statics behind
  // out_dir() are constructed before the exit hook registers — atexit
  // handlers run before the destructors of later-constructed statics.
  out_dir();
  static bool registered = [] {
    std::atexit([] {
      harness::BenchReport& r = report();
      if (r.suite().empty()) return;
      const std::string path = out_dir() + "/BENCH_" + r.suite() + ".json";
      try {
        r.write_json(path);
      } catch (const std::exception& e) {  // never throw out of atexit
        std::fprintf(stderr, "[json] write failed: %s\n", e.what());
        return;
      }
      std::printf("[json] %s\n", path.c_str());
    });
    return true;
  }();
  (void)registered;
  return cfg;
}

inline void emit(const Table& table, const std::string& name) {
  std::printf("%s\n", table.to_ascii().c_str());
  const std::string path = out_dir() + "/" + name + ".csv";
  table.write_csv(path);
  std::printf("[csv] %s\n\n", path.c_str());
  report().add_table(table, name);
}

/// Deterministic machine-model output: compared tightly by bench_compare.
inline void add_modeled(
    const std::string& name, Real value, const std::string& unit,
    harness::Direction direction = harness::Direction::LowerIsBetter) {
  report().add_value(name, static_cast<double>(value), unit,
                     harness::SeriesKind::Modeled, direction);
}

/// Structural/context value: present in the report, never gated on.
inline void add_info(const std::string& name, Real value,
                     const std::string& unit) {
  report().add_value(name, static_cast<double>(value), unit,
                     harness::SeriesKind::Modeled,
                     harness::Direction::Informational);
}

/// Wall-time repetition series: compared with the wide CI-noise band.
inline void add_measured(
    const std::string& name, const harness::RunResult& run,
    const std::string& unit,
    harness::Direction direction = harness::Direction::LowerIsBetter) {
  report().add_samples(name, run.samples, unit, harness::SeriesKind::Measured,
                       direction);
}

/// The three per-step schedules of one execution strategy.
struct StepSchedules {
  core::Schedule setup, early, final;
};

enum class Strategy {
  SerialBaseline,  // original code: host, 1 core, irregular loops
  HostOnly,        // refactored code on the full host CPU
  AccelOnly,       // everything offloaded to the Phi
  KernelLevel,     // Figure 2 hybrid
  PatternLevel,    // Figure 4(b) hybrid
};

inline const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::SerialBaseline: return "cpu-serial(original)";
    case Strategy::HostOnly: return "cpu-10-core";
    case Strategy::AccelOnly: return "mic-only";
    case Strategy::KernelLevel: return "kernel-level";
    case Strategy::PatternLevel: return "pattern-driven";
  }
  return "?";
}

inline StepSchedules make_schedules(const sw::SwGraphs& graphs, Strategy s,
                                    const core::MeshSizes& sizes,
                                    const core::SimOptions& opts) {
  using core::DeviceSide;
  switch (s) {
    case Strategy::SerialBaseline:
      return {core::make_serial_baseline_schedule(graphs.setup),
              core::make_serial_baseline_schedule(graphs.early),
              core::make_serial_baseline_schedule(graphs.final)};
    case Strategy::HostOnly:
      return {core::make_single_device_schedule(graphs.setup,
                                                DeviceSide::Host, "host"),
              core::make_single_device_schedule(graphs.early,
                                                DeviceSide::Host, "host"),
              core::make_single_device_schedule(graphs.final,
                                                DeviceSide::Host, "host")};
    case Strategy::AccelOnly:
      return {core::make_single_device_schedule(graphs.setup,
                                                DeviceSide::Accel, "mic"),
              core::make_single_device_schedule(graphs.early,
                                                DeviceSide::Accel, "mic"),
              core::make_single_device_schedule(graphs.final,
                                                DeviceSide::Accel, "mic")};
    case Strategy::KernelLevel:
      return {core::make_kernel_level_schedule(graphs.setup, sizes, opts),
              core::make_kernel_level_schedule(graphs.early, sizes, opts),
              core::make_kernel_level_schedule(graphs.final, sizes, opts)};
    case Strategy::PatternLevel:
      return {core::make_pattern_level_schedule(graphs.setup, sizes, opts),
              core::make_pattern_level_schedule(graphs.early, sizes, opts),
              core::make_pattern_level_schedule(graphs.final, sizes, opts)};
  }
  return {};
}

/// Modeled seconds for one full RK-4 time step: setup + 3 early substeps +
/// the final substep (Algorithm 1).
inline Real modeled_step_time(const sw::SwGraphs& graphs,
                              const StepSchedules& s,
                              const core::MeshSizes& sizes,
                              const core::SimOptions& opts) {
  return core::simulate_schedule(graphs.setup, s.setup, sizes, opts).makespan +
         3 * core::simulate_schedule(graphs.early, s.early, sizes, opts)
                 .makespan +
         core::simulate_schedule(graphs.final, s.final, sizes, opts).makespan;
}

/// Convenience: options for one strategy (the serial baseline downgrades
/// the host optimization level).
inline core::SimOptions options_for(Strategy s) {
  core::SimOptions o;
  o.platform = machine::paper_platform();
  if (s == Strategy::SerialBaseline)
    o.host_opt = machine::OptLevel::SerialBaseline;
  return o;
}

inline Real strategy_step_time(const sw::SwGraphs& graphs, Strategy s,
                               const core::MeshSizes& sizes) {
  const core::SimOptions opts = options_for(s);
  return modeled_step_time(graphs, make_schedules(graphs, s, sizes, opts),
                           sizes, opts);
}

/// Trace-derived attribution of one early RK substep under a strategy: the
/// schedule is simulated once more with tracing on and the resulting span
/// list is aggregated into per-pattern/per-kernel time, imbalance, overlap
/// efficiency, and per-device roofline utilization.
inline harness::AttributionReport strategy_attribution(
    const sw::SwGraphs& graphs, Strategy s, const core::MeshSizes& sizes,
    const std::string& track_name) {
  core::SimOptions opts = options_for(s);
  opts.record_trace = true;
  const StepSchedules sched = make_schedules(graphs, s, sizes, opts);
  const auto result =
      core::simulate_schedule(graphs.early, sched.early, sizes, opts);
  return harness::attribute_schedule(graphs.early, sched.early, result, sizes,
                                     opts, track_name);
}

/// Paper Figure 7 reference values (seconds per step / speedups).
struct Fig7Row {
  std::int64_t cells;
  Real cpu_s, kernel_s, pattern_s;     // execution time per step
  Real kernel_speedup, pattern_speedup;
};
inline constexpr Fig7Row kPaperFig7[] = {
    {40962, 0.271, 0.059, 0.045, 4.59, 6.02},
    {163842, 1.115, 0.198, 0.143, 5.63, 7.80},
    {655362, 4.434, 0.741, 0.532, 5.98, 8.34},
    {2621442, 17.528, 2.896, 2.102, 6.05, 8.35},
};

}  // namespace mpas::bench
