#include "service/recovery.hpp"

#include <filesystem>
#include <utility>

#include "obs/metrics.hpp"
#include "resilience/durable/store.hpp"
#include "service/facts.hpp"
#include "service/journal.hpp"
#include "service/session_manager.hpp"
#include "util/logging.hpp"

namespace mpas::service {

RecoveryManager::RecoveryManager(DurabilityPolicy policy,
                                 SessionJournal* journal)
    : policy_(std::move(policy)), journal_(journal) {}

std::vector<RecoveryOutcome> RecoveryManager::recover(
    SessionManager& manager, const JournalReplay& replay) {
  std::vector<RecoveryOutcome> outcomes;
  if (!policy_.enabled()) return outcomes;
  const auto incomplete = replay.incomplete();
  if (incomplete.empty()) return outcomes;
  MPAS_LOG_INFO << "recovery: " << incomplete.size()
                << " incomplete session(s) in " << policy_.journal_path();

  for (const JournalSession& dead : incomplete) {
    RecoveryOutcome outcome;
    outcome.old_id = dead.id;
    outcome.old_epoch = dead.epoch;

    // The chain root: a session that was itself a recovery inherits its
    // predecessor's directory, so the newest generation is always here.
    ResumeState resume;
    resume.from_id = dead.recovered_from != 0 ? dead.recovered_from : dead.id;
    resume.from_epoch =
        dead.recovered_from != 0 ? dead.recovered_from_epoch : dead.epoch;
    const std::string chain_dir =
        policy_.session_dir(resume.from_epoch, resume.from_id);

    if (std::filesystem::exists(chain_dir)) {
      resilience::durable::DurableStore store(
          {chain_dir, policy_.keep, nullptr});
      if (auto loaded = store.load_latest()) {
        resume.step = loaded->image.step;
        resume.expect_hash = loaded->image.user_tag;
        resume.generation = loaded->generation;
        resume.image = std::move(loaded->image);
        outcome.fallbacks = loaded->fallbacks;
      }
    }
    outcome.resumed_from_step = resume.step;

    SessionRequest request = dead.request;
    request.tenant = dead.tenant;
    // A resumed trajectory is only bitwise-continuable at the fidelity it
    // was checkpointed at: never let admission degrade it further.
    request.allow_degraded = false;

    outcome.new_id = manager.submit_recovered(request, std::move(resume));
    const SessionResult result = manager.result(outcome.new_id);
    outcome.readmitted = result.state != SessionState::Rejected &&
                         result.state != SessionState::Shed;
    if (outcome.readmitted) {
      // Mark the dead session re-admitted so the NEXT restart recovers the
      // new session instead of double-running this one. A refusal leaves
      // the journal untouched: the session stays incomplete and is retried
      // at the next restart.
      record_fact(obs::telemetry::WideEvent("readmitted", dead.tenant, dead.id)
                      .add("of_epoch", dead.epoch)
                      .add("as", outcome.new_id)
                      .add("from_step", outcome.resumed_from_step),
                  nullptr, journal_);
      obs::MetricsRegistry::global()
          .counter("resilience.durable.recoveries")
          .add(1);
      MPAS_LOG_INFO << "recovery: session " << dead.id << " (epoch "
                    << dead.epoch << ") re-admitted as " << outcome.new_id
                    << ", resuming from step "
                    << (outcome.resumed_from_step < 0
                            ? 0
                            : outcome.resumed_from_step);
    } else {
      MPAS_LOG_WARN << "recovery: session " << dead.id
                    << " refused re-admission (" << result.reason
                    << "); will retry at next restart";
    }
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace mpas::service
