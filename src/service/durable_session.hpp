// Service-side durability: the policy knob and the per-session glue that
// feeds the background durable writer.
//
// DurabilityPolicy is the MPAS_CHECKPOINT_* env surface: a directory
// (empty = durability off — the steady-state cost is then exactly one
// branch per step), a cadence in steps, and the generation-ring depth.
//
// A SessionCheckpointer owns one session's DurableStore + DurableWriter.
// on_step() is called at every completed step: off-cadence it returns
// immediately; on-cadence it copies the state fields (sw::state_fields(),
// rank 0) and stages them for the writer thread — the integrator never
// waits on an fsync. Published generations are not journaled: the store
// is the one record of durable progress, and recovery reads it with
// DurableStore::load_latest.
//
// Checkpoints of a recovery chain live in ONE directory, keyed by the
// chain's root (first epoch, first id): a recovered session inherits its
// predecessor's directory, so even a crash before the successor's first
// own checkpoint leaves the newest durable state findable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "resilience/durable/store.hpp"
#include "resilience/durable/writer.hpp"
#include "resilience/fault.hpp"
#include "sw/fields.hpp"
#include "util/env.hpp"

namespace mpas::service {

/// Defaults are the env table's (util/env.hpp): DurabilityPolicy{} and
/// from_env() with the variables unset agree by construction.
struct DurabilityPolicy {
  std::string dir;  // MPAS_CHECKPOINT_DIR; empty = durability off
  // MPAS_CHECKPOINT_EVERY: checkpoint cadence in steps
  int every = static_cast<int>(env::default_integer("MPAS_CHECKPOINT_EVERY"));
  // MPAS_CHECKPOINT_KEEP: generations per session
  int keep = static_cast<int>(env::default_integer("MPAS_CHECKPOINT_KEEP"));

  static DurabilityPolicy from_env();

  [[nodiscard]] bool enabled() const { return !dir.empty(); }
  [[nodiscard]] std::string journal_path() const;
  /// Directory of one recovery chain's generations, keyed by its root.
  [[nodiscard]] std::string session_dir(int epoch, std::uint64_t id) const;
};

class SessionCheckpointer {
 public:
  /// `chain_dir` is DurabilityPolicy::session_dir of the chain root;
  /// `injector` (may be null) arms the storage-fault surface on every
  /// publish.
  SessionCheckpointer(const DurabilityPolicy& policy, std::string chain_dir,
                      resilience::FaultInjector* injector);

  /// Called after each completed step. Stages a snapshot when the cadence
  /// hits; a cheap modulo test otherwise.
  void on_step(std::int64_t completed_steps, const sw::FieldStore& fields);

  /// Barrier: everything staged so far is on disk (or failed).
  bool flush(long timeout_ms = 30000);

  /// Terminal cleanup: flush, then delete the chain directory — a session
  /// the journal marks terminal can never be recovered, so its generations
  /// are dead weight.
  void retire();

  [[nodiscard]] const std::string& chain_dir() const { return chain_dir_; }

 private:
  int every_;
  std::string chain_dir_;
  resilience::durable::DurableStore store_;
  resilience::durable::DurableWriter writer_;
};

}  // namespace mpas::service
