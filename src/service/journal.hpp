// The session journal, an append-only WAL of service facts, and the two
// folds of the fact log: replay_journal (durability) and fold_slo (SLO
// attainment).
//
// Where the event log is an *observability* artifact (truncated per run,
// optional), the journal is a *durability* artifact: it lives next to the
// checkpoint generations in MPAS_CHECKPOINT_DIR, is an EventLog opened in
// append mode so process restarts extend one history, and is the source
// of truth recovery replays. Same JSONL envelope as the event log — each
// journal line is byte-identical to the event-log line of the same fact
// (record_fact in service/facts.hpp writes both), so examples/obs_query
// reads both with one parser.
//
// Record kinds (the WAL kinds):
//   epoch           one per process start (the restart boundary marker)
//   admit,          a session entered the system; attrs carry the
//   admit_degraded  verdict and the *effective* request, enough to re-run
//                   it exactly (replay folds both kinds as an admission)
//   terminal        the session reached a terminal state
//   readmitted      recovery re-submitted an incomplete session under a new id
//
// State hashes ride in attrs as 16-digit hex *strings*: the JSON numbers
// obs::json reads back are doubles, which lose u64 precision past 2^53.
// Flags (allow_degraded, recovered, diverged) are JSON bools; replay also
// accepts the 0/1 numbers older journals carry.
//
// Durable progress is not journaled: the checkpoint store is its one
// record, and recovery reads it through DurableStore::load_latest.
//
// A SIGKILL can tear the final line; replay_journal therefore skips (and
// counts) malformed lines instead of failing — everything before the torn
// line is still good, which is exactly the WAL contract.
//
// fold_slo is the service's one SLO evaluator. It reads the event log's
// facts (or any file of them) and counts, per tenant, four dimensions:
//   admission_latency  admit, admit_degraded, reject: latency_us <= budget
//   fidelity           admit (an admit_degraded is a miss)
//   deadline           terminal of a session that ran: not timed-out
//   errors             terminal of a session that ran: not failed
// A shed or rejected session never ran, so its terminal fact counts
// toward neither deadline nor errors.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/telemetry/event_log.hpp"
#include "service/request.hpp"

namespace mpas::obs::json {
class Value;
}  // namespace mpas::obs::json

namespace mpas::service {

class SessionJournal {
 public:
  SessionJournal() = default;
  SessionJournal(const SessionJournal&) = delete;
  SessionJournal& operator=(const SessionJournal&) = delete;

  /// Open `path` for append as epoch `epoch` and record its "epoch" fact.
  /// The caller has replayed the file: the epoch is replay.epochs + 1.
  void open(const std::string& path, int epoch);
  void close();

  [[nodiscard]] bool enabled() const { return log_.enabled(); }
  /// This process's epoch (0 while closed).
  [[nodiscard]] int epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Append one fact (no-op while closed); flushed per line. Service code
  /// goes through record_fact, which also writes the other sinks.
  void append(const obs::telemetry::WideEvent& fact) { log_.emit(fact); }

  [[nodiscard]] std::string path() const { return log_.path(); }

 private:
  obs::telemetry::EventLog log_;
  std::atomic<int> epoch_{0};
};

/// One session's folded journal history.
struct JournalSession {
  int epoch = 0;             // epoch the session was admitted in
  std::uint64_t id = 0;
  std::string tenant;
  SessionRequest request;    // the effective request, from the admit line
  bool admitted = false;
  bool terminal = false;
  bool readmitted = false;   // a later epoch re-submitted it
  std::string terminal_state;
  bool terminal_diverged = false;
  /// The readmitted fact's from_step (-1: no checkpoint survived), or the
  /// terminal fact's steps_done; -1 while neither is journaled.
  std::int64_t last_step = -1;
  std::uint64_t recovered_from = 0;      // admit: id this resumes (0 = none)
  int recovered_from_epoch = 0;
};

struct JournalReplay {
  int epochs = 0;  // epoch lines seen; the next process will be epochs + 1
  std::map<std::pair<int, std::uint64_t>, JournalSession> sessions;
  std::size_t malformed_lines = 0;  // torn/garbled lines skipped

  /// Sessions a dead epoch left neither terminal nor re-admitted — the
  /// recovery work list, in admission order.
  [[nodiscard]] std::vector<JournalSession> incomplete() const;
};

/// Fold a journal file. Missing file = empty replay (a fresh directory).
JournalReplay replay_journal(const std::string& path);

/// One tenant's outcomes in one SLO dimension.
struct SloCount {
  std::uint64_t ok = 0;
  std::uint64_t total = 0;
  /// Success fraction; 1 with no samples.
  [[nodiscard]] double attainment() const {
    return total == 0 ? 1.0
                      : static_cast<double>(ok) / static_cast<double>(total);
  }
};

/// tenant -> dimension -> outcomes, both in name order.
using SloFold = std::map<std::string, std::map<std::string, SloCount>>;

/// Fold SLO outcomes from parsed fact lines (the JSONL envelope of
/// event_log.hpp); `latency_budget_us` is the admission-latency pass mark.
SloFold fold_slo(const std::vector<obs::json::Value>& facts,
                 double latency_budget_us);

/// Render / parse the hex form used for u64 hashes in attrs.
std::string hash_hex(std::uint64_t hash);
std::uint64_t parse_hash_hex(const std::string& hex);

}  // namespace mpas::service
