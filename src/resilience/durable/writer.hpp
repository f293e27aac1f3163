// Background double-buffered checkpoint writer.
//
// The integrator must never stall on durability: submit() stages an image
// under a leaf lock and returns — the writer thread picks the staged image
// up, releases the lock, and runs the (slow, fsync-heavy) publish outside
// any mutex. The staging slot is latest-wins: if the integrator produces
// checkpoints faster than the disk drains them, intermediate images are
// dropped (counted in resilience.durable.dropped) rather than queued — the
// newest state is the only one recovery wants anyway.
//
// flush() is the barrier for shutdown and tests: it waits until the staged
// slot is empty AND no publish is in flight. published() and dropped() are
// the writer's whole report: what reached disk is read back from the
// store (DurableStore::load_latest), its one record.
#pragma once

#include <cstdint>
#include <optional>
#include <thread>

#include "resilience/durable/store.hpp"
#include "util/annotations.hpp"
#include "util/lock_ranks.hpp"
#include "util/mutex.hpp"

namespace mpas::resilience::durable {

class DurableWriter {
 public:
  explicit DurableWriter(DurableStore& store);
  ~DurableWriter();  // flushes staged work, then joins

  DurableWriter(const DurableWriter&) = delete;
  DurableWriter& operator=(const DurableWriter&) = delete;

  /// Stage an image for publication. Never blocks on I/O; overwrites (and
  /// counts as dropped) a previously staged, not-yet-written image.
  void submit(CheckpointImage image);

  /// Wait until everything submitted so far is on disk (or failed).
  /// False on timeout.
  bool flush(long timeout_ms = 30000);

  [[nodiscard]] std::uint64_t published() const;
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  void loop();

  DurableStore& store_;

  // Leaf-ish lock (rank kDurableWriter): held only for staging-slot swaps
  // and counter reads, never across the publish I/O.
  mutable util::Mutex mutex_{"resilience.durable.writer",
                             util::lockrank::kDurableWriter};
  util::ConditionVariable work_cv_;  // writer: staged image / shutdown
  util::ConditionVariable idle_cv_;  // flush: slot empty and not writing
  std::optional<CheckpointImage> staged_ MPAS_GUARDED_BY(mutex_);
  bool writing_ MPAS_GUARDED_BY(mutex_) = false;
  bool shutdown_ MPAS_GUARDED_BY(mutex_) = false;
  std::uint64_t published_ MPAS_GUARDED_BY(mutex_) = 0;
  std::uint64_t dropped_ MPAS_GUARDED_BY(mutex_) = 0;

  std::thread thread_;
};

}  // namespace mpas::resilience::durable
