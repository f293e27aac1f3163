// Whole-service crash recovery.
//
// At SessionManager startup the boot replays the session journal once and
// hands the fold to the RecoveryManager: every session a dead epoch
// admitted but neither finished nor re-admitted is recovery work. For each
// one it loads the newest intact checkpoint generation from the chain's
// directory (falling back across damaged generations; no generation at
// all = resume from step 0) and re-submits the *effective* request through
// the normal admission ladder — recovery enjoys no special capacity, only
// allow_degraded is forced off, because a resumed trajectory is only
// bitwise-continuable at the fidelity it was checkpointed at. A refused
// re-admission stays incomplete in the journal and is retried at the next
// restart.
#pragma once

#include <cstdint>
#include <vector>

#include "resilience/durable/format.hpp"
#include "service/durable_session.hpp"

namespace mpas::service {

class SessionManager;
class SessionJournal;
struct JournalReplay;

/// What run_session needs to continue a dead session: the restored image
/// (empty/step -1 when no checkpoint survived — start over), the hash the
/// restore must reproduce, and the chain root for directory inheritance.
struct ResumeState {
  resilience::durable::CheckpointImage image;
  std::int64_t step = -1;         // -1 = no durable checkpoint, run from 0
  std::uint64_t expect_hash = 0;  // state hash at `step` (image.user_tag)
  std::uint64_t generation = 0;
  std::uint64_t from_id = 0;      // recovery-chain root session id
  int from_epoch = 0;             // ...and the epoch it was admitted in
};

/// One re-admission decision, for logs/tests.
struct RecoveryOutcome {
  std::uint64_t old_id = 0;
  int old_epoch = 0;
  std::uint64_t new_id = 0;
  std::int64_t resumed_from_step = -1;
  int fallbacks = 0;        // damaged generations skipped during the load
  bool readmitted = false;  // admission accepted the re-submission
};

class RecoveryManager {
 public:
  RecoveryManager(DurabilityPolicy policy, SessionJournal* journal);

  /// Re-admit every incomplete session of `replay` (the boot's one fold
  /// of the journal, ending at this process's epoch line) through
  /// `manager`. Called by the SessionManager constructor.
  std::vector<RecoveryOutcome> recover(SessionManager& manager,
                                       const JournalReplay& replay);

 private:
  DurabilityPolicy policy_;
  SessionJournal* journal_;
};

}  // namespace mpas::service
