// crash_recovery: the two halves of the kill -9 drill CI runs.
//
//   mode=run     build a durable SessionManager (MPAS_CHECKPOINT_* env
//                knobs), submit one long session, and run it to the end.
//                This is the victim: the driver script waits for the first
//                checkpoint generation under sessions/ and then SIGKILLs
//                the process mid-run. If nobody kills it, it finishes and
//                exits 0 only when the result is bitwise-correct.
//
//   mode=resume  restart the service over the same MPAS_CHECKPOINT_DIR.
//                The constructor's recovery replays the journal, re-admits
//                every session the dead epoch left incomplete, and resumes
//                each from its newest intact checkpoint generation. Exits
//                non-zero when anything stays incomplete, any recovered
//                session fails to complete, any trajectory diverges from
//                the uninterrupted reference bits, or fewer than
//                require_recovered= sessions were recovered.
//
// Run:  MPAS_CHECKPOINT_DIR=/tmp/ckpt ./crash_recovery mode=run
//           [steps=4000] [level=2] [case=2] [tenant=chaos] [workers=1]
//       MPAS_CHECKPOINT_DIR=/tmp/ckpt ./crash_recovery mode=resume
//           [require_recovered=1] [workers=1]
//
// Deterministic by construction: the resumed trajectory must land on the
// same bits as the never-interrupted run, so the drill has exactly one
// right answer.
#include <cstdio>
#include <string>

#include "service/session.hpp"
#include "service/session_manager.hpp"
#include "util/config.hpp"

using namespace mpas;
using service::ServiceOptions;
using service::SessionManager;
using service::SessionRequest;
using service::SessionResult;
using service::SessionState;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) g_failures += 1;
}

ServiceOptions service_options(int workers) {
  ServiceOptions opts;
  opts.workers = workers;
  // The drill is about durability, not admission: price nothing out.
  opts.admission.capacity_modeled_s = 1e9;
  return opts;
}

int run_victim(const Config& cfg) {
  SessionRequest req;
  req.tenant = cfg.get_string("tenant", "chaos");
  req.mesh_level = static_cast<int>(cfg.get_int("level", 2));
  req.test_case = static_cast<int>(cfg.get_int("case", 2));
  req.steps = static_cast<int>(cfg.get_int("steps", 4000));
  req.output_every = static_cast<int>(cfg.get_int("output_every", 100));

  SessionManager manager(
      service_options(static_cast<int>(cfg.get_int("workers", 1))));
  std::printf("victim: session of %d steps on level %d (checkpoint dir %s, "
              "every %d)\n",
              req.steps, req.mesh_level, manager.durability().dir.c_str(),
              manager.durability().every);
  const std::uint64_t id = manager.submit(req);
  manager.drain();

  // Only reached when nobody killed us: the un-interrupted control run.
  const SessionResult result = manager.result(id);
  check(result.state == SessionState::Completed,
        "uninterrupted run completed (" + result.reason + ")");
  check(!result.diverged, "uninterrupted run is bitwise-correct");
  return g_failures == 0 ? 0 : 1;
}

int run_resume(const Config& cfg) {
  const long require = cfg.get_int("require_recovered", 1);
  SessionManager manager(
      service_options(static_cast<int>(cfg.get_int("workers", 1))));
  std::printf("resume: %zu session(s) recovered from %s\n",
              manager.recoveries().size(), manager.durability().dir.c_str());
  check(static_cast<long>(manager.recoveries().size()) >= require,
        "recovered >= " + std::to_string(require) + " session(s)");
  for (const auto& outcome : manager.recoveries()) {
    check(outcome.readmitted,
          "session " + std::to_string(outcome.old_id) + " (epoch " +
              std::to_string(outcome.old_epoch) + ") re-admitted");
    std::printf("  session %llu resumes from step %lld (%d damaged "
                "generation(s) skipped)\n",
                static_cast<unsigned long long>(outcome.new_id),
                static_cast<long long>(outcome.resumed_from_step),
                outcome.fallbacks);
  }
  manager.drain();

  for (const auto& outcome : manager.recoveries()) {
    if (!outcome.readmitted) continue;
    const SessionResult result = manager.result(outcome.new_id);
    const std::string tag = "recovered session " +
                            std::to_string(outcome.new_id);
    check(result.state == SessionState::Completed,
          tag + " completed (" + result.reason + ")");
    check(result.recovered, tag + " marked recovered");
    check(!result.diverged,
          tag + " bitwise-identical to the uninterrupted reference");
  }
  check(manager.stats().recovered_diverged == 0, "no diverged recoveries");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const std::string mode = cfg.get_string("mode", "run");
  if (service::DurabilityPolicy::from_env().dir.empty()) {
    std::fprintf(stderr,
                 "crash_recovery: MPAS_CHECKPOINT_DIR must be set\n");
    return 2;
  }
  if (mode == "run") return run_victim(cfg);
  if (mode == "resume") return run_resume(cfg);
  std::fprintf(stderr, "crash_recovery: unknown mode '%s'\n", mode.c_str());
  return 2;
}
