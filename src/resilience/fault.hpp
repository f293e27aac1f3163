// Deterministic fault injection for the distributed + offload runtime.
//
// Real MPAS-scale runs (Tianhe-2-class nodes, paper Section V) live with
// flaky interconnects and offload links; this reproduction makes that
// failure path first-class instead of assumed away. A FaultInjector holds a
// schedule of FaultSpecs; every potential fault site (a SimWorld message
// send, an OffloadRuntime transfer, a rank's time step) asks the injector
// whether a fault fires there. Two modes per spec:
//
//   * counted:       fire on the `at_event`-th event matching the site
//                    filter, then on the next `repeat - 1` matching events
//                    (deterministic — the basis of the bitwise-recovery and
//                    exact-stats tests);
//   * probabilistic: fire with probability p per matching event, drawn from
//                    the spec's own seeded PRNG stream (deterministic for a
//                    fixed seed and event order — stress-test mode).
//
// The injector is thread-safe (the ambient MPAS_FAULT campaign is one
// injector shared by every fabric and offload runtime in the process,
// including those of concurrent service sessions) and never calls back
// into the runtimes, so it can be queried under their locks without
// ordering hazards.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/annotations.hpp"
#include "util/lock_ranks.hpp"
#include "util/mutex.hpp"
#include "util/types.hpp"

namespace mpas::resilience {

enum class FaultKind : std::uint8_t {
  MsgDrop = 0,      // message vanishes on the wire
  MsgCorrupt,       // one payload bit flips in flight
  MsgDelay,         // delivery deferred past later traffic (reordering)
  RankStall,        // a rank loses time in a step (OS jitter / slow node)
  TransferFail,     // host<->device transfer aborts and must be retried
  TransferCorrupt,  // transfer completes but fails its integrity check
  StateCorrupt,     // silent data corruption: a bit flips in resident state
  StorageTornWrite,   // a durable chunk write lands half-done, then crash
  StorageShortWrite,  // a durable chunk write silently truncates
  StorageBitRot,      // a published byte flips at rest
  StorageCrash,       // process dies between two durability syscalls
  Count,
};

inline constexpr int kNumFaultKinds = static_cast<int>(FaultKind::Count);

const char* to_string(FaultKind kind);

/// The durability syscalls a checkpoint publish performs, in protocol
/// order. Storage faults filter on these via FaultSpec::op so a
/// crash-at-point sweep can park a StorageCrash between any two of them.
enum class StorageOp : int {
  OpenTemp = 0,   // creat() of the .tmp file
  WriteChunk,     // one chunk write (header or a slot) — many per publish
  FsyncTemp,      // fsync() of the .tmp file
  CloseTemp,      // close() of the .tmp fd
  Rename,         // rename(.tmp -> final)
  FsyncDir,       // fsync() of the parent directory
  Count,
};

inline constexpr int kNumStorageOps = static_cast<int>(StorageOp::Count);

const char* to_string(StorageOp op);

/// One scheduled fault. Site filters default to wildcards (-1 = any); the
/// fields that apply depend on `kind` (message faults use from/to/tag,
/// transfer faults use buffer, step faults use rank/step).
struct FaultSpec {
  FaultKind kind = FaultKind::MsgDrop;

  // Message-site filter (MsgDrop / MsgCorrupt / MsgDelay).
  int from = -1, to = -1, tag = -1;
  // Transfer-site filter (TransferFail / TransferCorrupt).
  int buffer = -1;
  // Step-site filter (RankStall / StateCorrupt).
  int rank = -1;
  std::int64_t step = -1;
  // Storage-site filter (Storage*): which durability syscall, as an
  // int(StorageOp). -1 = any. Torn/short/bit-rot faults implicitly target
  // chunk writes; `op` narrows a StorageCrash to one protocol point.
  int op = -1;

  // Counted mode: fire on the `at_event`-th matching event (0-based), then
  // keep firing for `repeat` consecutive matching events in total.
  std::uint64_t at_event = 0;
  int repeat = 1;

  // Probabilistic mode: if > 0, fire per matching event with this
  // probability instead of counting (at_event/repeat are ignored).
  Real probability = 0;

  // Corruption detail: which payload word (modulo length) and bit to flip.
  std::uint64_t word = 0;
  std::uint32_t bit = 62;  // an exponent bit: loud, detectable damage

  // Modeled time a RankStall costs.
  Real stall_seconds = 1e-3;
};

/// Counts of faults actually injected, per kind.
struct InjectorStats {
  std::array<std::uint64_t, kNumFaultKinds> injected{};

  [[nodiscard]] std::uint64_t of(FaultKind kind) const {
    return injected[static_cast<int>(kind)];
  }
  [[nodiscard]] std::uint64_t total() const;
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Arm a fault. Throws on malformed specs (repeat < 1, probability
  /// outside [0, 1], bit >= 64) — schedules are inputs and are validated
  /// like any other input.
  void add(const FaultSpec& spec);

  /// Site queries. Each call is one *event*; every armed spec whose filter
  /// matches advances its event counter (or draws from its PRNG stream) and
  /// is returned if it fires. Never returns the same counted firing twice.
  std::vector<FaultSpec> on_message(int from, int to, int tag);
  std::vector<FaultSpec> on_transfer(int buffer);
  std::vector<FaultSpec> on_step(int rank, std::int64_t step);
  /// Storage site: one durability syscall (`op` is an int(StorageOp)).
  /// Write-shape faults (torn/short/bit-rot) only match WriteChunk events;
  /// StorageCrash matches any op its filter allows.
  std::vector<FaultSpec> on_storage(int op);

  [[nodiscard]] InjectorStats stats() const;
  [[nodiscard]] std::size_t num_armed() const;
  /// True once every counted spec has fired its full repeat budget.
  [[nodiscard]] bool exhausted() const;

  /// Rewind all counters and PRNG streams to the armed state, so an
  /// identical run reproduces the identical fault sequence.
  void reset();

 private:
  struct Armed {
    FaultSpec spec;
    std::uint64_t seen = 0;       // matching events observed so far
    int fired = 0;                // counted firings consumed
    std::uint64_t rng_state = 0;  // per-spec PRNG stream (probabilistic mode)
  };

  // One matching event: advance + decide. Assumes mutex_ is held.
  bool fires(Armed& arm) MPAS_REQUIRES(mutex_);

  mutable util::Mutex mutex_{"resilience.fault_injector",
                             util::lockrank::kFaultInjector};
  std::uint64_t seed_;
  std::vector<Armed> armed_ MPAS_GUARDED_BY(mutex_);
  InjectorStats stats_ MPAS_GUARDED_BY(mutex_);
};

/// Bounded-retry policy shared by the message channel and the offload link.
struct RetryPolicy {
  int max_attempts = 4;        // delivery attempts per message/transfer
  Real resend_wait_ms = 1.0;   // patience before declaring a posted-but-
                               // missing message dropped (a transport may
                               // still be delivering it)
  Real total_timeout_ms = 30000;  // hard deadline per receive
};

}  // namespace mpas::resilience
