// Bench-harness contract: robust statistics on known samples, the
// repeat-until-stable runner, exact JSON round trips of BenchReport,
// trace-derived attribution validated against a hand-computed synthetic
// trace, the modeled-schedule attribution bridge, baseline comparison
// pass/fail on seeded regressions, and the interpolated histogram
// quantiles plus MPAS_METRICS session of the obs layer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_harness/attribution.hpp"
#include "bench_harness/compare.hpp"
#include "bench_harness/env_fingerprint.hpp"
#include "bench_harness/report.hpp"
#include "bench_harness/runner.hpp"
#include "bench_harness/stats.hpp"
#include "machine/machine_model.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sw/model.hpp"
#include "util/env.hpp"

namespace mpas::bench_harness {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

// ---- statistics ------------------------------------------------------------

TEST(SampleStatsTest, KnownSamplesExactValues) {
  const SampleStats s = SampleStats::from_samples({4, 1, 100, 2, 3});
  EXPECT_EQ(s.count, 5);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 100);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_DOUBLE_EQ(s.mean, 22);
  // rank = q*(n-1): p25 at rank 1 -> 2, p75 at rank 3 -> 4.
  EXPECT_DOUBLE_EQ(s.p25, 2);
  EXPECT_DOUBLE_EQ(s.p75, 4);
  EXPECT_DOUBLE_EQ(s.iqr, 2);
  // Tukey fences [2 - 3, 4 + 3]: only 100 lies outside.
  EXPECT_EQ(s.outliers, 1);
  // Sample stddev: deviations {-21,-20,-19,-18,78}, ssq 7610, /4.
  EXPECT_NEAR(s.stddev, std::sqrt(7610.0 / 4.0), 1e-12);
}

TEST(SampleStatsTest, InterpolatedQuantiles) {
  // Even count: the median interpolates between the middle samples.
  const SampleStats s = SampleStats::from_samples({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(sample_quantile({10, 20}, 0.75), 17.5);
  EXPECT_DOUBLE_EQ(sample_quantile({7}, 0.5), 7);
}

TEST(SampleStatsTest, DeterministicSeriesHasZeroSpread) {
  const SampleStats s = SampleStats::from_samples({0.25, 0.25, 0.25});
  EXPECT_DOUBLE_EQ(s.iqr, 0);
  EXPECT_DOUBLE_EQ(s.stddev, 0);
  EXPECT_DOUBLE_EQ(s.relative_iqr(), 0);
  EXPECT_EQ(s.outliers, 0);
}

// ---- runner ----------------------------------------------------------------

TEST(BenchRunnerTest, DeterministicSourceStopsAtMinRepeats) {
  RunnerOptions opts;
  opts.warmup = 2;
  opts.min_repeats = 3;
  opts.max_repeats = 20;
  int calls = 0;
  const RunResult r = BenchRunner(opts).collect([&] {
    ++calls;
    return 1.5;
  });
  EXPECT_TRUE(r.stable);
  EXPECT_EQ(r.repeats, 3);
  EXPECT_EQ(calls, opts.warmup + 3);  // warmups run the body too
  EXPECT_DOUBLE_EQ(r.stats.median, 1.5);
}

TEST(BenchRunnerTest, NoisySourceExhaustsBudgetUnstable) {
  RunnerOptions opts;
  opts.warmup = 0;
  opts.min_repeats = 3;
  opts.max_repeats = 6;
  opts.stability_rel_iqr = 0.01;
  int calls = 0;
  const RunResult r = BenchRunner(opts).collect([&] {
    return (calls++ % 2 == 0) ? 1.0 : 100.0;  // never settles
  });
  EXPECT_FALSE(r.stable);
  EXPECT_EQ(r.repeats, 6);
  EXPECT_EQ(static_cast<int>(r.samples.size()), 6);
}

TEST(BenchRunnerTest, MeasureTimesTheBody) {
  const RunResult r =
      BenchRunner(RunnerOptions::single_shot()).measure([] {
        volatile double sink = 0;
        for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
      });
  EXPECT_EQ(r.repeats, 1);
  EXPECT_GT(r.stats.min, 0.0);
}

// ---- report JSON round trip ------------------------------------------------

BenchReport make_report() {
  BenchReport report("roundtrip_suite");
  report.environment() = current_fingerprint();
  report.environment().machine_preset = "paper_platform";
  report.environment().mesh_level = 6;
  report.add_value("modeled_time", 0.123456789012345, "s");
  report.add_samples("wall_time", {0.5, 0.75, 0.625}, "s",
                     SeriesKind::Measured, Direction::LowerIsBetter);
  report.add_value("speedup", 8.25, "x", SeriesKind::Modeled,
                   Direction::HigherIsBetter);
  report.add_value("cells", 40962, "count", SeriesKind::Modeled,
                   Direction::Informational);

  Table t({"a", "b"});
  t.add_row({"x", "1"});
  t.add_row({"y, with comma", "2"});
  report.add_table(t, "demo_table");

  AttributionReport attr;
  attr.track_name = "synthetic/track";
  attr.span_us = 130;
  attr.lanes = {{0, "host", LaneRole::Compute, 100.0},
                {2, "pcie", LaneRole::Transfer, 40.0}};
  attr.per_pattern_us = {{"A1", 60.0}, {"B2", 40.0}};
  attr.per_kernel_us = {{"compute_tend", 100.0}};
  attr.imbalance = 4.0 / 3.0;
  attr.overlap_efficiency = 0.5;
  attr.transfer_total_us = 40;
  attr.transfer_exposed_us = 20;
  DeviceUtilization dev;
  dev.device = "host";
  dev.busy_s = 1e-4;
  dev.flops = 1e6;
  dev.bytes = 4e6;
  dev.achieved_gflops = 10;
  dev.peak_gflops = 176;
  dev.achieved_gbs = 40;
  dev.peak_gbs = 50;
  dev.flop_utilization = 10.0 / 176.0;
  dev.bandwidth_utilization = 0.8;
  dev.roofline_utilization = 0.8;
  attr.devices.push_back(dev);
  report.add_attribution(attr);
  return report;
}

// Reports written before the configuration was recorded (the committed
// baselines) have no "config" member; they read with an empty one.
TEST(EnvFingerprintTest, MissingConfigReadsAsEmpty) {
  const std::string old =
      R"({"git_sha":"abc","compiler":"gcc 12.2.0","build_type":"Release",)"
      R"("flags":"-O3","os":"linux","hardware_threads":4,)"
      R"("machine_preset":"paper_platform","mesh_level":-1})";
  const EnvFingerprint fp = EnvFingerprint::from_json(obs::json::parse(old));
  EXPECT_EQ(fp.git_sha, "abc");
  EXPECT_EQ(fp.hardware_threads, 4);
  EXPECT_TRUE(fp.config.empty());
  EXPECT_EQ(fp.to_json(),
            old.substr(0, old.size() - 1) + R"(,"config":{}})");
}

TEST(BenchReportTest, JsonRoundTripIsExact) {
  const BenchReport report = make_report();
  const std::string path = temp_path("mpas_bench_report_roundtrip.json");
  report.write_json(path);
  const BenchReport back = BenchReport::read_file(path);
  fs::remove(path);

  EXPECT_EQ(back.suite(), report.suite());
  EXPECT_EQ(back.environment().git_sha, report.environment().git_sha);
  EXPECT_EQ(back.environment().compiler, report.environment().compiler);
  EXPECT_EQ(back.environment().mesh_level, 6);
  EXPECT_TRUE(back.environment().comparable(report.environment()));
  // The resolved MPAS_* configuration travels with the numbers.
  EXPECT_EQ(back.environment().config.size(), std::size(env::kVariables));
  EXPECT_EQ(back.environment().config, report.environment().config);

  ASSERT_EQ(back.series().size(), report.series().size());
  for (std::size_t i = 0; i < report.series().size(); ++i) {
    const MetricSeries& a = report.series()[i];
    const MetricSeries& b = back.series()[i];
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.unit, a.unit);
    EXPECT_EQ(b.kind, a.kind);
    EXPECT_EQ(b.direction, a.direction);
    ASSERT_EQ(b.samples.size(), a.samples.size());
    for (std::size_t j = 0; j < a.samples.size(); ++j)
      EXPECT_DOUBLE_EQ(b.samples[j], a.samples[j]);  // %.17g is lossless
    EXPECT_DOUBLE_EQ(b.stats.median, a.stats.median);
    EXPECT_DOUBLE_EQ(b.stats.stddev, a.stats.stddev);
    EXPECT_EQ(b.stats.outliers, a.stats.outliers);
  }

  ASSERT_EQ(back.tables().size(), 1u);
  EXPECT_EQ(back.tables()[0].name, "demo_table");
  EXPECT_EQ(back.tables()[0].rows[1][0], "y, with comma");

  ASSERT_EQ(back.attributions().size(), 1u);
  const AttributionReport& a = back.attributions()[0];
  EXPECT_EQ(a.track_name, "synthetic/track");
  EXPECT_DOUBLE_EQ(a.imbalance, 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(a.overlap_efficiency, 0.5);
  EXPECT_DOUBLE_EQ(a.per_pattern_us.at("A1"), 60.0);
  EXPECT_DOUBLE_EQ(a.per_kernel_us.at("compute_tend"), 100.0);
  ASSERT_EQ(a.lanes.size(), 2u);
  EXPECT_EQ(a.lanes[1].role, LaneRole::Transfer);
  ASSERT_EQ(a.devices.size(), 1u);
  EXPECT_DOUBLE_EQ(a.devices[0].roofline_utilization, 0.8);
}

TEST(BenchReportTest, FromJsonRejectsSchemaViolations) {
  EXPECT_THROW(BenchReport::from_json(obs::json::parse("{}")),
               std::runtime_error);
  EXPECT_THROW(BenchReport::from_json(obs::json::parse(
                   R"({"schema_version": 99, "suite": "x"})")),
               std::runtime_error);
  EXPECT_THROW(BenchReport::read_file(temp_path("mpas_no_such_report.json")),
               std::exception);
}

TEST(BenchReportTest, DuplicateSeriesNameIsRejected) {
  BenchReport report("dup");
  report.add_value("t", 1, "s");
  EXPECT_THROW(report.add_value("t", 2, "s"), std::exception);
}

// ---- attribution on a hand-computed synthetic trace ------------------------

obs::TraceEvent span(const char* name, int lane, double ts_us,
                     double dur_us) {
  obs::TraceEvent e;
  e.kind = obs::TraceEvent::Kind::Complete;
  e.name = name;
  e.track = 0;
  e.lane = lane;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  return e;
}

TEST(AttributionTest, SyntheticTraceExactValues) {
  // Two compute lanes (busy 100 us vs 50 us), one transfer lane with one
  // hidden span [0, 20) and one fully exposed span [110, 130).
  const std::vector<obs::TraceEvent> events = {
      span("A1", 0, 0, 60),   span("B2", 0, 60, 40),
      span("A1", 1, 0, 50),   span("up", 2, 0, 20),
      span("down", 2, 110, 20),
  };
  const AttributionReport r = attribute_track(
      events, /*track=*/0,
      {{0, LaneRole::Compute}, {1, LaneRole::Compute},
       {2, LaneRole::Transfer}},
      {{0, "host"}, {1, "accel"}, {2, "pcie"}});

  EXPECT_DOUBLE_EQ(r.span_us, 130);
  // imbalance = max/mean = 100 / ((100 + 50) / 2).
  EXPECT_DOUBLE_EQ(r.imbalance, 100.0 / 75.0);
  // 20 of 40 transfer us overlapped the compute union [0, 100).
  EXPECT_DOUBLE_EQ(r.transfer_total_us, 40);
  EXPECT_DOUBLE_EQ(r.transfer_exposed_us, 20);
  EXPECT_DOUBLE_EQ(r.overlap_efficiency, 0.5);
  // Per-pattern busy time sums both compute lanes.
  EXPECT_DOUBLE_EQ(r.per_pattern_us.at("A1"), 110);
  EXPECT_DOUBLE_EQ(r.per_pattern_us.at("B2"), 40);
  ASSERT_EQ(r.lanes.size(), 3u);
  EXPECT_EQ(r.lanes[0].name, "host");
  EXPECT_DOUBLE_EQ(r.lanes[0].busy_us, 100);
  EXPECT_DOUBLE_EQ(r.lanes[1].busy_us, 50);
}

TEST(AttributionTest, IdleComputeLaneCountsTowardImbalance) {
  // One busy lane, one idle lane named in the role map: imbalance 2.0.
  const std::vector<obs::TraceEvent> events = {span("A1", 0, 0, 80)};
  const AttributionReport r = attribute_track(
      events, 0, {{0, LaneRole::Compute}, {1, LaneRole::Compute}});
  EXPECT_DOUBLE_EQ(r.imbalance, 2.0);
  EXPECT_DOUBLE_EQ(r.overlap_efficiency, 1.0);  // no transfers: none exposed
}

TEST(AttributionTest, ScheduleBridgeMatchesSimulatorBusyTimes) {
  const sw::SwGraphs graphs = sw::build_sw_graphs(nullptr, false);
  const auto sizes = core::MeshSizes::icosahedral(40962);
  core::SimOptions opts;
  opts.platform = machine::paper_platform();
  opts.record_trace = true;
  const core::Schedule schedule =
      core::make_pattern_level_schedule(graphs.early, sizes, opts);
  const core::SimResult result =
      core::simulate_schedule(graphs.early, schedule, sizes, opts);
  ASSERT_FALSE(result.trace.empty());

  const AttributionReport r = attribute_schedule(
      graphs.early, schedule, result, sizes, opts, "early/test");

  double host_us = 0, accel_us = 0;
  for (const LaneUsage& lane : r.lanes) {
    if (lane.name == "host") host_us = lane.busy_us;
    if (lane.name == "accel") accel_us = lane.busy_us;
  }
  EXPECT_NEAR(host_us, static_cast<double>(result.host_busy) * 1e6,
              1e-6 * std::max(1.0, host_us));
  EXPECT_NEAR(accel_us, static_cast<double>(result.accel_busy) * 1e6,
              1e-6 * std::max(1.0, accel_us));

  // Per-pattern busy time covers exactly the compute lanes.
  double pattern_sum = 0;
  for (const auto& [name, us] : r.per_pattern_us) pattern_sum += us;
  EXPECT_NEAR(pattern_sum, host_us + accel_us, 1e-6);
  double kernel_sum = 0;
  for (const auto& [name, us] : r.per_kernel_us) kernel_sum += us;
  EXPECT_NEAR(kernel_sum, pattern_sum, 1e-6);

  // Structural ranges bench_compare gates on.
  EXPECT_GE(r.imbalance, 1.0);
  EXPECT_GE(r.overlap_efficiency, 0.0);
  EXPECT_LE(r.overlap_efficiency, 1.0);
  ASSERT_EQ(r.devices.size(), 2u);
  for (const DeviceUtilization& d : r.devices) {
    EXPECT_GE(d.roofline_utilization, 0.0);
    EXPECT_LE(d.roofline_utilization, 1.0 + 1e-9);
    EXPECT_GT(d.peak_gflops, 0.0);
  }
}

// ---- baseline comparison ---------------------------------------------------

TEST(CompareTest, IdenticalReportsPass) {
  const BenchReport report = make_report();
  const CompareResult r =
      compare_reports(report, report, CompareOptions{});
  EXPECT_TRUE(r.ok()) << r.to_table().to_ascii();
  EXPECT_EQ(r.regressions(), 0);
}

TEST(CompareTest, SeededModeledRegressionFails) {
  const BenchReport base = make_report();
  BenchReport cur = make_report();
  // Rebuild the modeled series 2x slower than the baseline.
  BenchReport seeded(cur.suite());
  seeded.environment() = cur.environment();
  for (const MetricSeries& s : cur.series()) {
    MetricSeries copy = s;
    if (s.name == "modeled_time")
      for (double& v : copy.samples) v *= 2.0;
    copy.stats = SampleStats::from_samples(copy.samples);
    seeded.add_series(copy);
  }
  for (const AttributionReport& a : cur.attributions())
    seeded.add_attribution(a);
  const CompareResult r = compare_reports(base, seeded, CompareOptions{});
  EXPECT_FALSE(r.ok());
  EXPECT_GE(r.regressions(), 1);
}

TEST(CompareTest, MeasuredNoiseWithinWideBandPasses) {
  const BenchReport base = make_report();
  BenchReport cur(base.suite());
  cur.environment() = base.environment();
  for (const MetricSeries& s : base.series()) {
    MetricSeries copy = s;
    if (s.kind == SeriesKind::Measured)
      for (double& v : copy.samples) v *= 2.0;  // 2x < the 4x wide band
    copy.stats = SampleStats::from_samples(copy.samples);
    cur.add_series(copy);
  }
  for (const AttributionReport& a : base.attributions())
    cur.add_attribution(a);
  const CompareResult r = compare_reports(base, cur, CompareOptions{});
  EXPECT_TRUE(r.ok()) << r.to_table().to_ascii();
}

TEST(CompareTest, HigherIsBetterRegressionDetected) {
  const BenchReport base = make_report();
  BenchReport cur(base.suite());
  cur.environment() = base.environment();
  for (const MetricSeries& s : base.series()) {
    MetricSeries copy = s;
    if (s.name == "speedup")
      for (double& v : copy.samples) v *= 0.5;  // speedup halved = worse
    copy.stats = SampleStats::from_samples(copy.samples);
    cur.add_series(copy);
  }
  for (const AttributionReport& a : base.attributions())
    cur.add_attribution(a);
  const CompareResult r = compare_reports(base, cur, CompareOptions{});
  EXPECT_FALSE(r.ok());
}

TEST(CompareTest, MissingSeriesAndAttributionAreStructural) {
  const BenchReport base = make_report();
  BenchReport cur(base.suite());
  cur.environment() = base.environment();
  const CompareResult r = compare_reports(base, cur, CompareOptions{});
  EXPECT_FALSE(r.ok());
  EXPECT_GE(r.structural_failures(), 2);  // every series + attribution gone
}

TEST(CompareTest, DifferentEnvironmentWidensModeledBand) {
  const BenchReport base = make_report();
  BenchReport cur = make_report();
  cur.environment().compiler = "other-compiler 1.0";
  // 2x on a modeled series would fail the tight band, but the environment
  // mismatch downgrades every series to the wide measured band.
  BenchReport seeded(cur.suite());
  seeded.environment() = cur.environment();
  for (const MetricSeries& s : cur.series()) {
    MetricSeries copy = s;
    if (s.name == "modeled_time")
      for (double& v : copy.samples) v *= 2.0;
    copy.stats = SampleStats::from_samples(copy.samples);
    seeded.add_series(copy);
  }
  for (const AttributionReport& a : cur.attributions())
    seeded.add_attribution(a);
  const CompareResult r = compare_reports(base, seeded, CompareOptions{});
  EXPECT_TRUE(r.ok()) << r.to_table().to_ascii();
}

TEST(CompareTest, CompareDirsGatesOnMissingCounterpart) {
  const std::string base_dir = temp_path("mpas_bench_base_dir");
  const std::string cur_dir = temp_path("mpas_bench_cur_dir");
  fs::remove_all(base_dir);
  fs::remove_all(cur_dir);
  fs::create_directories(base_dir);
  fs::create_directories(cur_dir);

  const BenchReport report = make_report();
  report.write_json(base_dir + "/BENCH_roundtrip_suite.json");

  // Counterpart missing: structural failure.
  CompareResult r = compare_dirs(base_dir, cur_dir, CompareOptions{});
  EXPECT_FALSE(r.ok());

  // Identical counterpart: gate passes.
  report.write_json(cur_dir + "/BENCH_roundtrip_suite.json");
  r = compare_dirs(base_dir, cur_dir, CompareOptions{});
  EXPECT_TRUE(r.ok()) << r.to_table().to_ascii();

  // Empty baseline dir is itself a structural failure (a silently empty
  // gate must not pass CI).
  fs::remove(base_dir + "/BENCH_roundtrip_suite.json");
  r = compare_dirs(base_dir, cur_dir, CompareOptions{});
  EXPECT_FALSE(r.ok());

  fs::remove_all(base_dir);
  fs::remove_all(cur_dir);
}

TEST(CompareTest, CompareDirsNamesMissingBaselineAndChecksTheRest) {
  const std::string base_dir = temp_path("mpas_bench_base_union");
  const std::string cur_dir = temp_path("mpas_bench_cur_union");
  fs::remove_all(base_dir);
  fs::remove_all(cur_dir);
  fs::create_directories(base_dir);
  fs::create_directories(cur_dir);

  // Suite A exists on both sides with a seeded modeled regression; suite B
  // exists only in current (its baseline was never refreshed).
  const BenchReport base = make_report();
  base.write_json(base_dir + "/BENCH_roundtrip_suite.json");
  BenchReport regressed(base.suite());
  regressed.environment() = base.environment();
  for (const MetricSeries& s : base.series()) {
    MetricSeries copy = s;
    if (s.name == "modeled_time")
      for (double& v : copy.samples) v *= 2.0;
    copy.stats = SampleStats::from_samples(copy.samples);
    regressed.add_series(copy);
  }
  for (const AttributionReport& a : base.attributions())
    regressed.add_attribution(a);
  regressed.write_json(cur_dir + "/BENCH_roundtrip_suite.json");
  base.write_json(cur_dir + "/BENCH_new_suite.json");

  const CompareResult r = compare_dirs(base_dir, cur_dir, CompareOptions{});
  EXPECT_FALSE(r.ok());
  // The missing baseline is reported by suite file name...
  bool named = false;
  for (const CompareIssue& issue : r.issues)
    named = named || (issue.suite == "BENCH_new_suite.json" &&
                      issue.severity == CompareIssue::Severity::Structural &&
                      issue.message.find("baseline report missing") !=
                          std::string::npos);
  EXPECT_TRUE(named) << r.to_table().to_ascii();
  // ... and it did not short-circuit the rest: the seeded regression in the
  // suite that does have a baseline is still caught.
  EXPECT_GE(r.regressions(), 1) << r.to_table().to_ascii();

  fs::remove_all(base_dir);
  fs::remove_all(cur_dir);
}

}  // namespace
}  // namespace mpas::bench_harness

// ---- obs satellites: interpolated quantiles and MPAS_METRICS ---------------

namespace mpas::obs {
namespace {

TEST(HistogramQuantileTest, InterpolatesWithinBuckets) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.record(1.5);  // bucket [1, 2)
  for (int i = 0; i < 50; ++i) h.record(3.0);  // bucket [2, 4)
  // rank(p25) = 0.25 * 99 = 24.75 inside the first bucket of 50:
  // 1 + 1 * (24.75 + 0.5) / 50 = 1.505.
  EXPECT_NEAR(h.quantile(0.25), 1.505, 1e-12);
  // rank(p75) = 74.25, 24.25 into the second bucket:
  // 2 + 2 * (74.25 - 50 + 0.5) / 50 = 2.99.
  EXPECT_NEAR(h.quantile(0.75), 2.99, 1e-12);
  // Interpolated estimates dominate the lower-bound ones and stay ordered.
  EXPECT_GE(h.quantile(0.5), h.quantile_lower_bound(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.99));
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.01);  // rank 0: first of 50 in [1, 2)
}

TEST(HistogramQuantileTest, EmptyAndSingleSample) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  h.record(5.0);  // bucket [4, 8): a single sample sits mid-bucket
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 6.0);
  EXPECT_GE(h.quantile(0.99), 4.0);
  EXPECT_LE(h.quantile(0.99), 8.0);
}

TEST(HistogramQuantileTest, UpperEdgeLayout) {
  EXPECT_DOUBLE_EQ(Histogram::bucket_upper_edge(0),
                   Histogram::bucket_lower_edge(1));
  for (int i = 1; i < Histogram::kBuckets - 1; ++i)
    EXPECT_DOUBLE_EQ(Histogram::bucket_upper_edge(i),
                     Histogram::bucket_lower_edge(i + 1));
  EXPECT_DOUBLE_EQ(
      Histogram::bucket_upper_edge(Histogram::kBuckets - 1),
      2.0 * Histogram::bucket_lower_edge(Histogram::kBuckets - 1));
}

TEST(MetricsJsonTest, RegistryJsonParsesAndCarriesQuantiles) {
  MetricsRegistry reg;
  reg.counter("events").add(7);
  reg.gauge("level").set(2.5);
  auto& h = reg.histogram("latency");
  for (int i = 0; i < 10; ++i) h.record(1.5);

  const auto doc = json::parse(reg.to_json());
  EXPECT_DOUBLE_EQ(doc.at("counters").at("events").as_number(), 7);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("level").as_number(), 2.5);
  const auto& lat = doc.at("histograms").at("latency");
  EXPECT_DOUBLE_EQ(lat.at("count").as_number(), 10);
  EXPECT_NEAR(lat.at("mean").as_number(), 1.5, 1e-12);
  const double p50 = lat.at("p50").as_number();
  EXPECT_GE(p50, 1.0);  // within the [1, 2) bucket
  EXPECT_LE(p50, 2.0);
  // Buckets serialise as [lower_edge, count] pairs.
  const auto& buckets = lat.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_DOUBLE_EQ(buckets[0].as_array()[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(buckets[0].as_array()[1].as_number(), 10);
}

TEST(MetricsSessionTest, WriteMetricsNowDumpsGlobalRegistry) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mpas_metrics_session.json")
          .string();
  start_metrics_file(path);
  EXPECT_EQ(metrics_file_path(), path);
  MetricsRegistry::global().counter("session_test_counter").add(3);
  write_metrics_now();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto doc = json::parse(text);
  EXPECT_GE(doc.at("counters").at("session_test_counter").as_number(), 3);
}

TEST(MetricsSessionTest, EnvPathReadsEnvironment) {
  // env::text reflects MPAS_METRICS; unset in the test environment.
  if (std::getenv("MPAS_METRICS") == nullptr) {
    EXPECT_FALSE(env::text("MPAS_METRICS").has_value());
  }
  setenv("MPAS_METRICS", "/tmp/mpas_metrics_env_test.json", 1);
  ASSERT_TRUE(env::text("MPAS_METRICS").has_value());
  EXPECT_EQ(*env::text("MPAS_METRICS"), "/tmp/mpas_metrics_env_test.json");
  unsetenv("MPAS_METRICS");
}

}  // namespace
}  // namespace mpas::obs
