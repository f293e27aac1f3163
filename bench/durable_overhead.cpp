// Durable-checkpointing overhead series: what crash consistency costs the
// integrator. Four measured series with a committed baseline, gated by
// bench_compare's wide measured band:
//
//   on_step_off_cadence_ns  the steady-state per-step tax between
//                           checkpoints (a modulo and a branch);
//   snapshot_stage_ns       an on-cadence on_step — state snapshot,
//                           state hash, and the latest-wins staging swap
//                           (everything the integrator thread ever pays;
//                           the fsyncs happen on the writer thread);
//   encode_ns               serializing one image to its checksummed
//                           chunk list (writer-thread work);
//   publish_us              one full crash-consistent publish — encode,
//                           write, fsync, rename, fsync-dir (writer-thread
//                           work, the floor for the checkpoint cadence).
//
// The hard acceptance budget — background checkpointing at the default
// cadence under 2% of a measured step — is asserted in
// tests/test_durable.cpp against a real profiled step.
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_common.hpp"
#include "mesh/mesh_cache.hpp"
#include "resilience/durable/format.hpp"
#include "resilience/durable/store.hpp"
#include "service/durable_session.hpp"
#include "service/session.hpp"
#include "sw/model.hpp"
#include "sw/state_codec.hpp"
#include "sw/testcases.hpp"
#include "util/config.hpp"
#include "util/timer.hpp"

using namespace mpas;
namespace durable = resilience::durable;

namespace {

template <typename Fn>
double per_op_ns(int ops, Fn&& fn) {
  WallTimer timer;
  for (int i = 0; i < ops; ++i) fn(i);
  return timer.seconds() / ops * 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = bench::bench_init(argc, argv, "durable");
  const int level = static_cast<int>(cfg.get_int("level", 3));
  const int ops = static_cast<int>(cfg.get_int("ops", 200000));
  bench::add_info("level", static_cast<Real>(level), "mesh level");
  bench::add_info("ops", static_cast<Real>(ops), "count");

  // A real field state to snapshot (level-3 by default, the perf-smoke
  // scale used across the measured suites).
  const auto mesh = mesh::get_global_mesh(level);
  const auto tc = sw::make_test_case(5);
  sw::SwParams params;
  params.dt = sw::suggested_time_step(*tc, *mesh, 0.4);
  sw::SwModel model(*mesh, params);
  sw::apply_initial_conditions(*tc, *mesh, model.fields());
  model.initialize();
  model.run(1);

  const std::string dir = bench::out_dir() + "/durable_bench_scratch";
  std::filesystem::remove_all(dir);
  const bench_harness::BenchRunner runner;

  std::printf("== Durable checkpointing overhead (level %d, %d ops) ==\n\n",
              level, ops);

  service::DurabilityPolicy policy;
  policy.dir = dir;
  policy.every = 10;
  policy.keep = 3;
  service::SessionCheckpointer ckpt(policy, dir + "/chain", 1, "bench",
                                    nullptr, nullptr);

  // Off-cadence: the tax paid on 9 of every 10 steps at the default
  // cadence (and on every step of the disabled path's nearest cousin).
  const auto off = runner.collect([&] {
    return per_op_ns(ops, [&](int i) {
      ckpt.on_step(10 * static_cast<std::int64_t>(i) + 3, model.fields());
    });
  });
  bench::add_measured("on_step_off_cadence_ns", off, "ns");

  // On-cadence: snapshot + hash + stage. Amortize over the cadence to
  // read the per-step cost; this series is the raw per-call cost.
  const int stage_ops = static_cast<int>(cfg.get_int("stage_ops", 200));
  const auto stage = runner.collect([&] {
    const double ns = per_op_ns(stage_ops, [&](int i) {
      ckpt.on_step((static_cast<std::int64_t>(i) + 1) * 10, model.fields());
    });
    ckpt.flush();
    return ns;
  });
  bench::add_measured("snapshot_stage_ns", stage, "ns");

  // Encode: the checksummed serialization, normally writer-thread work.
  durable::CheckpointImage image;
  image.step = 10;
  sw::snapshot_state(model.fields(), 0, image);
  image.user_tag = service::state_hash(model.fields());
  const int encode_ops = static_cast<int>(cfg.get_int("encode_ops", 500));
  const auto encode = runner.collect([&] {
    return per_op_ns(encode_ops, [&](int) {
      const auto chunks = durable::encode_chunks(image);
      if (chunks.empty()) std::printf("(unreachable)\n");
    });
  });
  bench::add_measured("encode_ns", encode, "ns");

  // Full publish: the fsync-heavy protocol, the floor under any cadence.
  durable::DurableStore store({dir + "/publish", 3, nullptr});
  const int publish_ops = static_cast<int>(cfg.get_int("publish_ops", 40));
  const auto publish = runner.collect([&] {
    return per_op_ns(publish_ops,
                     [&](int) { store.publish(image); }) /
           1e3;
  });
  bench::add_measured("publish_us", publish, "us");

  Table t({"series", "p50", "p75", "unit", "stable"});
  const auto row = [&t](const char* name, const bench_harness::RunResult& run,
                        const char* unit) {
    t.add_row({name, Table::fixed(run.stats.median, 1),
               Table::fixed(run.stats.p75, 1), unit,
               run.stable ? "yes" : "no"});
  };
  row("on_step_off_cadence", off, "ns");
  row("snapshot_stage", stage, "ns");
  row("encode", encode, "ns");
  row("publish", publish, "us");
  bench::emit(t, "durable_overhead");

  std::filesystem::remove_all(dir);
  return 0;
}
