// Observability layer contract: span nesting and ordering, lock-light
// multi-thread recording, histogram bucket arithmetic, Chrome-trace JSON
// well-formedness (parsed back with the in-repo reader), the modeled-
// schedule bridge, the MPAS_TRACE file session through a 2-rank
// distributed run, and the disabled-tracing overhead budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "comm/distributed.hpp"
#include "core/trace_bridge.hpp"
#include "mesh/mesh_cache.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "service/session_manager.hpp"
#include "sw/model.hpp"
#include "sw/testcases.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"

namespace mpas::obs {
namespace {

const TraceEvent* find_event(const std::vector<TraceEvent>& events,
                             const std::string& name) {
  for (const auto& e : events)
    if (e.name == name) return &e;
  return nullptr;
}

TEST(TraceRecorder, DisabledRecorderKeepsSpansInert) {
  TraceRecorder rec;
  EXPECT_FALSE(rec.enabled());
  {
    TraceSpan span(rec, "never");
    EXPECT_FALSE(span.active());
  }
  rec.instant("also-never");  // recorded: explicit calls bypass enabled()
  EXPECT_EQ(find_event(rec.snapshot(), "never"), nullptr);
}

TEST(TraceRecorder, SpanNestingAndOrdering) {
  TraceRecorder rec;
  rec.set_enabled(true);
  {
    TraceSpan outer(rec, "outer");
    {
      TraceSpan inner(rec, std::string("inner"));
      inner.set_args(trace_arg("depth", std::int64_t{2}));
    }
  }
  { TraceSpan after(rec, "after"); }

  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 3u);
  const auto* outer = find_event(events, "outer");
  const auto* inner = find_event(events, "inner");
  const auto* after = find_event(events, "after");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(after, nullptr);

  // The inner span is contained in the outer one on the timeline.
  EXPECT_GE(inner->ts_us, outer->ts_us);
  EXPECT_LE(inner->ts_us + inner->dur_us,
            outer->ts_us + outer->dur_us + 1e-6);
  // And the sibling starts after the outer one ends.
  EXPECT_GE(after->ts_us, outer->ts_us + outer->dur_us - 1e-6);

  // snapshot() sorts by (track, ts): outer starts first.
  EXPECT_EQ(events.front().name, "outer");
  EXPECT_EQ(events.back().name, "after");
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
}

TEST(TraceRecorder, MergesPerThreadBuffersAcrossThreads) {
  TraceRecorder rec;
  rec.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kEvents = 50;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      rec.set_thread_name("worker-" + std::to_string(t));
      for (int i = 0; i < kEvents; ++i)
        rec.instant("tick", trace_arg("i", static_cast<std::int64_t>(i)));
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(rec.event_count(), std::size_t{kThreads} * kEvents);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), std::size_t{kThreads} * kEvents);

  // Each thread got its own lane; all four named lanes are registered.
  std::vector<int> lanes_seen;
  for (const auto& e : events) {
    EXPECT_EQ(e.track, kMeasuredTrack);
    if (std::find(lanes_seen.begin(), lanes_seen.end(), e.lane) ==
        lanes_seen.end())
      lanes_seen.push_back(e.lane);
  }
  EXPECT_EQ(lanes_seen.size(), std::size_t{kThreads});

  int named = 0;
  for (const auto& lane : rec.lanes())
    if (lane.track == kMeasuredTrack &&
        lane.name.rfind("worker-", 0) == 0)
      ++named;
  EXPECT_EQ(named, kThreads);
}

TEST(Histogram, BucketIndexEdgeCases) {
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0);
  // Underflow below 2^-30 collapses into bucket 0 as well.
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, -40)), 0);
  // Overflow clamps to the last bucket.
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kBuckets - 1);

  // 1.0 sits exactly on a bucket edge.
  const int b1 = Histogram::bucket_index(1.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower_edge(b1), 1.0);
  EXPECT_EQ(Histogram::bucket_index(1.5), b1);
  EXPECT_EQ(Histogram::bucket_index(2.0), b1 + 1);
  EXPECT_EQ(Histogram::bucket_index(0.5), b1 - 1);

  // Every bucket's lower edge maps back into that bucket, and a value
  // just below the edge lands one bucket down.
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower_edge(0), 0.0);
  for (int i = 1; i < Histogram::kBuckets; ++i) {
    const double edge = Histogram::bucket_lower_edge(i);
    EXPECT_EQ(Histogram::bucket_index(edge), i) << "edge of bucket " << i;
    EXPECT_GT(edge, Histogram::bucket_lower_edge(i - 1));
    if (i >= 2) {
      const double below =
          std::nextafter(edge, -std::numeric_limits<double>::infinity());
      EXPECT_EQ(Histogram::bucket_index(below), i - 1);
    }
  }
}

TEST(Histogram, RecordsCountSumAndQuantiles) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.record(1.0);
  for (int i = 0; i < 10; ++i) h.record(1024.0);
  EXPECT_EQ(h.count(), 20u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0 + 10.0 * 1024.0);
  EXPECT_DOUBLE_EQ(h.mean(), (10.0 + 10.0 * 1024.0) / 20.0);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_index(1.0)), 10u);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_index(1024.0)), 10u);
  EXPECT_DOUBLE_EQ(h.quantile_lower_bound(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile_lower_bound(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile_lower_bound(0.99), 1024.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile_lower_bound(0.5), 0.0);
}

TEST(MetricsRegistry, FindOrCreateIsPointerStable) {
  MetricsRegistry reg;
  Counter& c = reg.counter("events");
  Gauge& g = reg.gauge("depth");
  Histogram& h = reg.histogram("bytes");
  EXPECT_EQ(&reg.counter("events"), &c);
  EXPECT_EQ(&reg.gauge("depth"), &g);
  EXPECT_EQ(&reg.histogram("bytes"), &h);
  EXPECT_TRUE(reg.contains("events"));
  EXPECT_FALSE(reg.contains("absent"));

  constexpr int kThreads = 4;
  constexpr int kOps = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        c.add();
        g.add(0.5);
        h.record(256.0);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), std::uint64_t{kThreads} * kOps);
  EXPECT_DOUBLE_EQ(g.value(), 0.5 * kThreads * kOps);
  EXPECT_EQ(h.count(), std::uint64_t{kThreads} * kOps);

  const std::string table = reg.to_string();
  EXPECT_NE(table.find("events"), std::string::npos);
  EXPECT_NE(table.find("histogram"), std::string::npos);

  reg.reset();
  EXPECT_EQ(c.value(), 0u);  // same object, zeroed
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ChromeTrace, JsonParsesBackWithExpectedStructure) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.set_thread_name("main");
  { TraceSpan span(rec, "kernel:tend_u"); }
  rec.instant("note", trace_arg("step", std::int64_t{3}));
  rec.counter("queue_depth", 2.0);
  const int track = rec.allocate_track("modeled \"demo\"");
  rec.set_lane_name(track, 0, "host (modeled)");
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::Complete;
  ev.track = track;
  ev.name = "tend_h";
  ev.ts_us = 1.0;
  ev.dur_us = 4.0;
  rec.record(ev);

  ::setenv("MPAS_BENCH_OUT", "trace \"config\" probe", 1);
  const std::string text = to_chrome_json(rec);
  ::unsetenv("MPAS_BENCH_OUT");
  const json::Value doc = json::parse(text);  // throws on malformed JSON
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  // The configuration the run used, one string per MPAS_* variable.
  const json::Value& config = doc.at("otherData");
  EXPECT_EQ(config.as_object().size(), std::size(env::kVariables));
  EXPECT_EQ(config.at("MPAS_BENCH_OUT").as_string(),
            "trace \"config\" probe");
  const auto& events = doc.at("traceEvents").as_array();

  bool saw_span = false, saw_instant = false, saw_counter = false;
  bool saw_process = false, saw_lane = false, saw_modeled = false;
  for (const auto& e : events) {
    const std::string& name = e.at("name").as_string();
    const std::string& ph = e.at("ph").as_string();
    if (name == "kernel:tend_u") {
      saw_span = true;
      EXPECT_EQ(ph, "X");
      EXPECT_EQ(e.at("pid").as_number(), kMeasuredTrack);
      EXPECT_GE(e.at("dur").as_number(), 0.0);
    } else if (name == "note") {
      saw_instant = true;
      EXPECT_EQ(ph, "i");
      EXPECT_EQ(e.at("s").as_string(), "t");
      EXPECT_EQ(e.at("args").at("step").as_number(), 3.0);
    } else if (name == "queue_depth") {
      saw_counter = true;
      EXPECT_EQ(ph, "C");
      EXPECT_EQ(e.at("args").at("value").as_number(), 2.0);
    } else if (name == "process_name" &&
               e.at("args").at("name").as_string() == "modeled \"demo\"") {
      saw_process = true;  // escaping survived the round trip
      EXPECT_EQ(ph, "M");
      EXPECT_EQ(e.at("pid").as_number(), track);
    } else if (name == "thread_name" &&
               e.at("args").at("name").as_string() == "host (modeled)") {
      saw_lane = true;
    } else if (name == "tend_h") {
      saw_modeled = true;
      EXPECT_EQ(e.at("pid").as_number(), track);
      EXPECT_EQ(e.at("ts").as_number(), 1.0);
      EXPECT_EQ(e.at("dur").as_number(), 4.0);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_process);
  EXPECT_TRUE(saw_lane);
  EXPECT_TRUE(saw_modeled);
}

TEST(TraceBridge, ModeledScheduleGetsOneTrackWithOneLanePerTimeline) {
  const sw::SwGraphs graphs = sw::build_sw_graphs(nullptr, false);
  const auto sizes = core::MeshSizes::icosahedral(40962);
  core::SimOptions opts;
  opts.platform = machine::paper_platform();
  opts.record_trace = true;
  const auto schedule =
      core::make_pattern_level_schedule(graphs.early, sizes, opts);
  const auto result =
      core::simulate_schedule(graphs.early, schedule, sizes, opts);
  ASSERT_FALSE(result.trace.empty());

  TraceRecorder rec;
  rec.set_enabled(true);
  const int track =
      core::record_modeled_trace(graphs.early, result, rec, "modeled");
  EXPECT_GT(track, kMeasuredTrack);

  // Exactly the four simulator timelines, as named lanes of the new track.
  std::vector<std::string> lane_names(4);
  for (const auto& lane : rec.lanes()) {
    EXPECT_EQ(lane.track, track);
    ASSERT_GE(lane.lane, 0);
    ASSERT_LT(lane.lane, 4);
    lane_names[static_cast<std::size_t>(lane.lane)] = lane.name;
  }
  EXPECT_EQ(lane_names[0], "host (modeled)");
  EXPECT_EQ(lane_names[1], "accel (modeled)");
  EXPECT_EQ(lane_names[2], "pcie (modeled)");
  EXPECT_EQ(lane_names[3], "network (modeled)");

  // One complete event per simulator trace entry, each on its lane.
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), result.trace.size());
  for (const auto& e : events) {
    EXPECT_EQ(e.track, track);
    EXPECT_EQ(e.kind, TraceEvent::Kind::Complete);
    EXPECT_GE(e.lane, 0);
    EXPECT_LT(e.lane, 4);
  }
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    const auto& entry = result.trace[i];
    if (entry.kind != core::TraceEntry::Kind::Compute) continue;
    const auto* e =
        find_event(events, graphs.early.node(entry.node).label);
    ASSERT_NE(e, nullptr);
    EXPECT_LT(e->lane, 2);  // compute runs on host/accel lanes only
  }
}

TEST(TraceSession, EnvVariableNamesThePath) {
  ASSERT_EQ(::setenv("MPAS_TRACE", "from_env.json", 1), 0);
  EXPECT_EQ(env::text("MPAS_TRACE"),
            std::optional<std::string>("from_env.json"));
  ASSERT_EQ(::setenv("MPAS_TRACE", "", 1), 0);
  EXPECT_EQ(env::text("MPAS_TRACE"), std::nullopt);
  ::unsetenv("MPAS_TRACE");
  EXPECT_EQ(env::text("MPAS_TRACE"), std::nullopt);
}

TEST(TraceSession, FileRoundTripThroughTwoRankDistributedRun) {
  const std::string path = "test_obs_roundtrip.json";
  start_trace_file(path);

  {
    const auto mesh = mesh::get_global_mesh(2);
    const auto tc = sw::make_test_case(5);
    sw::SwParams params;
    params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);
    comm::DistributedSw dist(*mesh, /*num_ranks=*/2, params);
    dist.apply_test_case(*tc);
    dist.initialize();
    dist.run(2);
  }

  write_trace_now();
  TraceRecorder::global().set_enabled(false);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const json::Value doc = json::parse(buffer.str());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());

  int halo_spans = 0, step_spans = 0;
  for (const auto& e : events) {
    const std::string& name = e.at("name").as_string();
    if (name.rfind("halo:", 0) == 0 && e.at("ph").as_string() == "X")
      ++halo_spans;
    if (name == "distributed:step") ++step_spans;
  }
  // 2 steps x 4 substeps x 2 ranks x several fields each.
  EXPECT_GT(halo_spans, 8);
  EXPECT_EQ(step_spans, 2);

  TraceRecorder::global().clear();
  std::remove(path.c_str());
}

TEST(TraceSession, ConcurrentSessionsShareOneTraceFileDistinguishably) {
  const std::string path = "test_obs_sessions.json";
  start_trace_file(path);

  // Three sessions across three workers, all recording into the one
  // global trace: each must land on its own named track.
  service::ServiceOptions opts;
  opts.workers = 3;
  service::SessionRequest req;
  req.mesh_level = 2;
  req.test_case = 2;
  req.steps = 3;
  req.output_every = 0;
  const service::CostModel costs;
  opts.admission.capacity_modeled_s = 100 * costs.price(req);
  {
    service::SessionManager service(opts);
    for (int i = 0; i < 3; ++i) {
      service::SessionRequest r = req;
      r.tenant = "tenant" + std::to_string(i);
      service.submit(r);
    }
    ASSERT_TRUE(service.drain());
  }

  write_trace_now();
  TraceRecorder& rec = TraceRecorder::global();
  rec.set_enabled(false);

  // One track per session, plus named worker lanes on the measured track.
  int session_tracks = 0;
  for (const auto& t : rec.tracks())
    if (t.name.rfind("session ", 0) == 0) ++session_tracks;
  EXPECT_GE(session_tracks, 3);
  int worker_lanes = 0;
  for (const auto& l : rec.lanes())
    if (l.track == kMeasuredTrack &&
        l.name.rfind("service-worker-", 0) == 0)
      ++worker_lanes;
  EXPECT_GE(worker_lanes, 3);

  // The exported file is one valid Chrome-trace document carrying every
  // session's step timeline and terminal instant.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const json::Value doc = json::parse(buffer.str());
  const auto& events = doc.at("traceEvents").as_array();

  int terminal_instants = 0, step_spans = 0, session_names = 0;
  for (const auto& e : events) {
    const std::string& name = e.at("name").as_string();
    if (name == "service:terminal") ++terminal_instants;
    if (name == "step" && e.at("ph").as_string() == "X") ++step_spans;
    if (name == "process_name" &&
        e.at("args").at("name").as_string().rfind("session ", 0) == 0)
      ++session_names;
  }
  EXPECT_EQ(terminal_instants, 3);
  EXPECT_GE(step_spans, 9);  // 3 sessions x 3 steps
  EXPECT_GE(session_names, 3);

  TraceRecorder::global().clear();
  std::remove(path.c_str());
}

TEST(Metrics, SnapshotStaysConsistentUnderConcurrentWriters) {
  // Regression for the dump-at-exit race: to_json() used to walk the live
  // maps re-reading each atomic while workers recorded, so a histogram's
  // count, quantiles, and buckets could disagree (and a racing
  // registration could invalidate the iteration). snapshot() copies under
  // the registry mutex; every view derived from it must be internally
  // consistent no matter how hard writers race. Run under TSan in CI.
  MetricsRegistry registry;
  Counter& hits = registry.counter("hits");
  Gauge& level = registry.gauge("level");
  Histogram& latency = registry.histogram("latency");

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t)
    threads.emplace_back([&] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        hits.add();
        level.set(static_cast<double>(i % 7));
        latency.record(static_cast<double>(1 + i % 1000));
        ++i;
      }
    });
  // A registrar keeps inserting new metrics so snapshots race map growth,
  // not just value updates.
  threads.emplace_back([&] {
    int n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      registry.counter("dynamic." + std::to_string(n % 64)).add();
      ++n;
    }
  });

  for (int iter = 0; iter < 200; ++iter) {
    const MetricsSnapshot snap = registry.snapshot();
    const auto it = snap.histograms.find("latency");
    ASSERT_NE(it, snap.histograms.end());
    std::uint64_t in_buckets = 0;
    for (const auto& [edge, count] : it->second.buckets) in_buckets += count;
    EXPECT_EQ(it->second.count, in_buckets);
    if (it->second.count > 0) {
      EXPECT_GE(it->second.p95, it->second.p50);
      EXPECT_GE(it->second.p99, it->second.p95);
      EXPECT_GT(it->second.mean, 0.0);
    }
    if (iter % 50 == 0) {
      const json::Value doc = json::parse(registry.to_json());
      EXPECT_TRUE(doc.at("histograms").at("latency").is_object());
    }
  }
  stop.store(true);
  for (auto& t : threads) t.join();
}

TEST(TraceOverhead, DisabledTracingStaysUnderTwoPercentOfAStep) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.set_enabled(false);

  // Cost of one disarmed span (the macro's enabled() check).
  constexpr int kProbes = 200000;
  WallTimer probe_timer;
  for (int i = 0; i < kProbes; ++i) {
    MPAS_TRACE_SCOPE("overhead:probe");
  }
  const double per_span = probe_timer.seconds() / kProbes;

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

  // A default step runs 66 nodes (4 setup, 3 x 15 early, 17 final), each
  // a span when profiling and tracing are both on; budget 100 to be
  // generous. Disabled tracing must cost well under 2% of the measured
  // step time.
  const double overhead = 100.0 * per_span;
  EXPECT_LT(overhead, 0.02 * per_step)
      << "per_span=" << per_span << "s per_step=" << per_step << "s";
}

}  // namespace
}  // namespace mpas::obs
