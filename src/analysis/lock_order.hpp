// Lock-order deadlock detector: the dynamic half of the concurrency
// contract (the static half is -Wthread-safety over util/annotations.hpp).
//
// Every util::Mutex carries a name and a rank (util/lock_ranks.hpp). When
// the registry is installed — via MPAS_LOCK_CHECK=1 or explicitly by a
// test — it observes every lock/unlock through the util::MutexHooks table
// and maintains:
//
//   chains   a per-thread stack of currently-held mutexes (thread-local,
//            no synchronization on the hot path);
//   graph    the global lock-order graph: one edge "A held while B was
//            acquired" per observed (A, B) pair, with the names and ranks
//            seen at record time;
//   findings PR-3-style Diagnostics. "lock-cycle" (Error): a new edge
//            closes a directed cycle — two threads interleaving those
//            chains can deadlock, even if this run never did. "lock-rank"
//            (Error): a ranked mutex was acquired while an equal-or-higher
//            ranked one was held, violating the DESIGN.md §14 order.
//            "lock-self" (Error): a mutex was re-acquired by its holder
//            (std::mutex self-deadlock).
//
// Cost when dark (not installed): one relaxed atomic load per lock/unlock
// in util::Mutex — the registry itself is never consulted. Installed cost
// is a thread-local stack walk plus, on *new* edges only, a graph update
// under an internal raw mutex. Diagnostics publish analysis.lockorder.*
// metrics and lockorder:* trace instants, always outside the internal
// mutex (the sinks take util::Mutexes of their own).
//
// MPAS_LOCK_CHECK=1 also arms an at-exit enforcement hook: a process that
// accumulated any lock-order error prints the report to stderr and exits
// nonzero — which is how the chaos-soak and session-soak CI jobs (and
// MPAS_LOCK_CHECK=1 ctest runs) fail on any cycle without bespoke wiring.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "util/mutex.hpp"

namespace mpas::analysis {

class LockOrderRegistry {
 public:
  /// The process-wide registry (leaked, like the trace recorder: hooks may
  /// fire during static teardown).
  static LockOrderRegistry& instance();

  LockOrderRegistry(const LockOrderRegistry&) = delete;
  LockOrderRegistry& operator=(const LockOrderRegistry&) = delete;

  /// Install the util::Mutex hooks and start recording. Idempotent.
  void install();
  /// Stop recording (the hook table stays resident but disarmed).
  void uninstall();
  [[nodiscard]] bool installed() const;

  /// install() iff the MPAS_LOCK_CHECK flag is on, and (once per process)
  /// register the at-exit enforcement described above. Called from the
  /// service/health layer constructors and the soak examples; cheap when
  /// the variable is unset. Returns true when installed.
  static bool install_from_env();

  /// Snapshot of the findings so far.
  [[nodiscard]] Report report() const;
  /// One directed edge of the observed lock-order graph.
  struct Edge {
    std::uint64_t from_id = 0;
    std::uint64_t to_id = 0;
    std::string from_name;
    std::string to_name;
  };
  [[nodiscard]] std::vector<Edge> edges() const;
  [[nodiscard]] std::uint64_t acquisitions() const;

  /// Drop all recorded edges, findings, and counters (installed state and
  /// per-thread chains of live threads are untouched). Tests that seed
  /// deliberate inversions call this so the at-exit enforcement stays
  /// quiet.
  void reset();

 private:
  LockOrderRegistry() = default;

  static void hook_lock(const util::Mutex& m);
  static void hook_unlock(const util::Mutex& m);
  void on_lock(const util::Mutex& m);
  void on_unlock(const util::Mutex& m);

  struct NodeInfo {
    std::string name;
    int rank = 0;
  };

  /// True when `to` can already reach `from` over recorded edges — adding
  /// from->to would close a cycle. Caller holds mutex_.
  bool reachable_locked(std::uint64_t to, std::uint64_t from) const;
  [[nodiscard]] std::string node_label_locked(std::uint64_t id) const;

  // The registry's own guard is a raw std::mutex on purpose: an
  // instrumented util::Mutex here would re-enter the hooks.
  // concurrency-lint: allow(raw-sync) hook internals must not recurse
  mutable std::mutex mutex_;
  std::map<std::uint64_t, NodeInfo> nodes_;
  std::map<std::uint64_t, std::set<std::uint64_t>> succ_;  // adjacency
  std::set<std::pair<std::uint64_t, std::uint64_t>> flagged_edges_;
  std::set<std::pair<std::uint64_t, std::uint64_t>> flagged_ranks_;
  Report report_;
  bool installed_ = false;
};

}  // namespace mpas::analysis
