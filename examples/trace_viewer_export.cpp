// One trace, every layer: runs a profiled serial model (a kernel:* span
// per pattern node), a pool-parallel model step (worker lanes), offload
// transfers with an injected retry, a 2-rank resilient distributed run
// with a seeded message drop (halo spans + retransmit instants), and the
// *modeled* pattern-driven schedule — all into a single Chrome-trace
// JSON. Load it in https://ui.perfetto.dev (or chrome://tracing): track 0
// is the measured process, the "modeled:" track overlays the predicted
// timeline with host/accel/pcie/network lanes. Finishes with the metrics
// registry dump.
//
// Run:  ./trace_viewer_export [trace=trace.json] [profile=profile.json]
//       [level=3] [steps=2]
//       (MPAS_TRACE=<path> / MPAS_PROFILE=<path> work on any binary;
//        trace= / profile= are this demo's explicit equivalents.)
#include <cstdio>

#include "comm/distributed.hpp"
#include "core/trace_bridge.hpp"
#include "exec/offload.hpp"
#include "mesh/mesh_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/profiling/perf_profiler.hpp"
#include "obs/profiling/profile_trace.hpp"
#include "obs/trace.hpp"
#include "sw/model.hpp"
#include "util/config.hpp"

using namespace mpas;

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const int level = static_cast<int>(cfg.get_int("level", 3));
  const int steps = static_cast<int>(cfg.get_int("steps", 2));
  // MPAS_TRACE (read inside the recorder) wins; trace= is the fallback so
  // the demo always produces a file.
  const std::string trace_path =
      obs::env_trace_path().value_or(cfg.get_string("trace", "trace.json"));
  obs::start_trace_file(trace_path);
  // Continuous profiler alongside the trace: MPAS_PROFILE wins, profile=
  // is the fallback so the demo always produces both artifacts. Must be
  // armed before the serial model below publishes the machine model's
  // per-node predictions (a no-op while the profiler is off).
  const std::string profile_path = obs::profiling::env_profile_path().value_or(
      cfg.get_string("profile", "profile.json"));
  obs::profiling::start_profile_file(profile_path);

  const auto mesh = mesh::get_global_mesh(level);
  const auto tc = sw::make_test_case(5);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);

  std::printf("tracing to '%s' (mesh %s, %d cells)\n\n", trace_path.c_str(),
              mesh->resolution_label().c_str(), mesh->num_cells);

  // -- measured: serial per-node profile -----------------------------------
  {
    sw::SwModel model(*mesh, params);
    model.publish_predictions(core::SimOptions{machine::paper_platform()});
    sw::apply_initial_conditions(*tc, *mesh, model.fields());
    model.initialize();
    model.run(steps);
    std::printf("profiled %d serial RK-4 steps (kernel:* spans)\n", steps);
  }

  // -- measured: pool-parallel model step (worker lanes) -------------------
  {
    // A fixed 3-worker pool so the demo shows worker lanes even on
    // one-core machines.
    exec::ThreadPool pool(3);
    sw::SwModel model(*mesh, params);
    model.set_pool(&pool);
    sw::apply_initial_conditions(*tc, *mesh, model.fields());
    model.initialize();
    model.run(steps);
    std::printf("ran %d pool-parallel steps (pool-worker-* lanes)\n", steps);
  }

  // -- measured: offload transfers with one injected fault + retry ---------
  {
    resilience::FaultInjector injector(/*seed=*/7);
    resilience::FaultSpec fault;
    fault.kind = resilience::FaultKind::TransferCorrupt;
    fault.at_event = 1;
    injector.add(fault);

    const auto platform = machine::paper_platform();
    exec::OffloadRuntime offload(platform.link, exec::TransferPolicy::OnDemand,
                                 /*device_memory_bytes=*/1u << 30);
    offload.set_resilience(&injector, {.max_attempts = 3});
    const auto h = offload.register_buffer(
        "h", static_cast<std::size_t>(mesh->num_cells) * sizeof(Real),
        exec::BufferKind::ComputeData);
    const auto u = offload.register_buffer(
        "u", static_cast<std::size_t>(mesh->num_edges) * sizeof(Real),
        exec::BufferKind::ComputeData);
    offload.ensure_on_device(h);
    offload.ensure_on_device(u);  // second transfer event: the injected fault
    offload.mark_written_on_device(h);
    offload.ensure_on_host(h);
    std::printf("offload demo: %llu transfers, %llu retries (offload:* spans)\n",
                static_cast<unsigned long long>(offload.stats().transfers),
                static_cast<unsigned long long>(offload.stats().transfer_retries));
  }

  // -- measured: 2-rank resilient halo exchange with a seeded drop ---------
  {
    resilience::FaultInjector injector(/*seed=*/42);
    resilience::FaultSpec drop;
    drop.kind = resilience::FaultKind::MsgDrop;
    drop.at_event = 3;
    injector.add(drop);

    comm::ResilienceOptions ropts;
    ropts.injector = &injector;
    comm::DistributedSw dist(*mesh, /*num_ranks=*/2, params);
    dist.enable_resilience(ropts);
    dist.apply_test_case(*tc);
    dist.initialize();
    dist.run(steps);
    const auto stats = dist.resilience_stats();
    std::printf("2-rank resilient run: %llu retransmits (halo:* spans, "
                "resilience:* instants)\n",
                static_cast<unsigned long long>(stats.channel.retransmits));
  }

  // -- modeled: the pattern-driven schedule as its own track ---------------
  {
    const sw::SwGraphs graphs = sw::build_sw_graphs(nullptr, false);
    const auto sizes = core::MeshSizes::icosahedral(mesh->num_cells);
    core::SimOptions opts;
    opts.platform = machine::paper_platform();
    opts.record_trace = true;
    const auto schedule =
        core::make_pattern_level_schedule(graphs.early, sizes, opts);
    const auto result =
        core::simulate_schedule(graphs.early, schedule, sizes, opts);
    core::record_modeled_trace(graphs.early, result,
                               obs::TraceRecorder::global(),
                               "modeled: pattern-driven substep");
    std::printf("modeled substep recorded (makespan %.4f s -> its own "
                "track)\n\n",
                result.makespan);
  }

  // -- measured vs modeled: the continuous-profiler overlay ----------------
  // write_profile_now() records the "profile:" overlay track (measured /
  // modeled per-call lanes + drift-ratio counter series) into the still-
  // open trace session, then writes both files.
  {
    const auto profile = obs::profiling::PerfProfiler::global().to_profile(
        "serial", /*threads=*/1, level);
    std::printf("profile: %zu slots, worst share drift %.3f -> '%s' "
                "(\"profile:\" overlay track)\n\n",
                profile.entries.size(),
                obs::profiling::worst_share_drift(profile),
                profile_path.c_str());
    obs::profiling::write_profile_now();
  }

  obs::write_trace_now();
  std::printf("-- metrics registry --\n%s\n",
              obs::MetricsRegistry::global().to_string().c_str());
  std::printf(
      "wrote %s with %zu events.\nOpen https://ui.perfetto.dev and load the "
      "file: track 0 = measured threads,\n\"modeled:\" track = predicted "
      "host/accel/pcie/network lanes,\n\"profile:\" track = measured vs "
      "modeled per-pattern costs + drift ratio.\n",
      trace_path.c_str(), obs::TraceRecorder::global().event_count());
  return 0;
}
