// Offload data-transfer runtime for the host<->accelerator link.
//
// Functionally all kernels run in host memory (the accelerator is modeled;
// see DESIGN.md), so this runtime is pure residency bookkeeping: it tracks
// which buffers are valid on the device, charges PCIe time for every
// transfer, and implements the two policies compared in Section IV.A:
//
//   * OnDemand     — inputs are uploaded before every device kernel and
//                    outputs downloaded after (the naive strategy);
//   * ResidentMesh — all mesh (connectivity/metric) buffers are uploaded
//                    once at startup and stay resident; only compute data
//                    moves per step. The paper reports this cuts average
//                    transfer volume by >= 4x on the 30-km mesh.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "machine/machine_model.hpp"
#include "obs/metrics.hpp"
#include "resilience/fault.hpp"
#include "util/types.hpp"

namespace mpas::exec {

enum class BufferKind : std::uint8_t {
  MeshData,     // connectivity + metrics: immutable during time stepping
  ComputeData,  // prognostic/diagnostic fields: change every step
};

enum class TransferPolicy : std::uint8_t { OnDemand, ResidentMesh };

using BufferId = int;

class OffloadRuntime {
 public:
  OffloadRuntime(machine::TransferLink link, TransferPolicy policy,
                 std::size_t device_memory_bytes);

  BufferId register_buffer(std::string name, std::size_t bytes,
                           BufferKind kind);

  /// Upload at model startup: under ResidentMesh this pushes *all* buffers
  /// (mesh and initial compute data) once, as the paper does "at the very
  /// beginning of the code". Returns modeled seconds.
  Real initial_upload();

  /// Make `id` valid on the device before a device kernel reads it.
  /// Returns the modeled transfer seconds (0 if already valid).
  Real ensure_on_device(BufferId id);

  /// Make `id` valid on the host before a host kernel (or MPI) reads it.
  Real ensure_on_host(BufferId id);

  /// A kernel on the given side wrote `id`: the other side's copy becomes
  /// stale. Mesh buffers are never written during stepping.
  void mark_written_on_device(BufferId id);
  void mark_written_on_host(BufferId id);

  /// End of one offload region. Under OnDemand this models the default
  /// `#pragma offload in/out` semantics: nothing persists on the device, so
  /// every buffer (mesh included) must be re-shipped next region. Under
  /// ResidentMesh it is a no-op — device allocations persist.
  void end_offload_region();

  /// Hook fault injection into the transfer link (non-owning; nullptr
  /// detaches). Every transfer attempt is one injector event; a fired
  /// TransferFail/TransferCorrupt costs the attempt's wire time and is
  /// retried up to `retry.max_attempts` total attempts, then escalates
  /// with mpas::Error. With `recover` off the first fault escalates —
  /// the link detects, it never silently delivers garbage.
  void set_resilience(resilience::FaultInjector* injector,
                      resilience::RetryPolicy retry, bool recover = true);

  /// Drop all device residency; the host copies become authoritative.
  /// Called when the health monitor quarantines the accelerator: a real
  /// port would restore device-only buffers from checkpoint, but here every
  /// kernel functionally wrote host memory (the device is modeled), so the
  /// host copy is already current and recovery is pure bookkeeping.
  void invalidate_device();

  /// Round-trip a synthetic `bytes`-sized payload through the link and the
  /// full fault/retry machinery — the probation probe the health monitor
  /// sends before trusting a quarantined device again. The probe presents
  /// buffer id -1 to the injector, so wildcard transfer-fault specs hit it
  /// exactly like real traffic. Returns modeled round-trip seconds; throws
  /// mpas::Error when the retry budget escalates (probe failed).
  Real probe_link(std::size_t bytes);

  struct Stats {
    // Byte/transfer counts are for *successful* deliveries only; the
    // modeled time additionally charges every failed attempt.
    std::uint64_t bytes_to_device = 0;
    std::uint64_t bytes_to_host = 0;
    std::uint64_t transfers = 0;
    std::uint64_t transfer_faults = 0;   // injected & detected on this link
    std::uint64_t transfer_retries = 0;  // re-attempts after a fault
    Real modeled_seconds = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  [[nodiscard]] TransferPolicy policy() const { return policy_; }
  [[nodiscard]] std::size_t total_buffer_bytes() const;
  [[nodiscard]] std::size_t mesh_buffer_bytes() const;
  [[nodiscard]] std::size_t buffer_bytes(BufferId id) const;
  [[nodiscard]] const std::string& buffer_name(BufferId id) const;

 private:
  struct Buffer {
    std::string name;
    std::size_t bytes = 0;
    BufferKind kind = BufferKind::ComputeData;
    bool valid_on_device = false;
    bool valid_on_host = true;
  };

  Real transfer(BufferId id, bool to_device);

  machine::TransferLink link_;
  TransferPolicy policy_;
  std::size_t device_memory_bytes_;
  std::vector<Buffer> buffers_;
  resilience::FaultInjector* injector_ = nullptr;
  resilience::RetryPolicy retry_;
  bool recover_ = true;
  Stats stats_;

  // Global metrics, resolved once here so the transfer hot path is an
  // atomic bump instead of a registry lookup (the SectionHandle idiom).
  obs::Counter* metric_bytes_ = nullptr;
  obs::Counter* metric_transfers_ = nullptr;
  obs::Counter* metric_retries_ = nullptr;
  obs::Histogram* metric_transfer_bytes_ = nullptr;
};

}  // namespace mpas::exec
