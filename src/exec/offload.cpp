#include "exec/offload.hpp"

#include <numeric>

#include "obs/trace.hpp"
#include "resilience/fault_env.hpp"
#include "util/error.hpp"

namespace mpas::exec {

OffloadRuntime::OffloadRuntime(machine::TransferLink link,
                               TransferPolicy policy,
                               std::size_t device_memory_bytes)
    : link_(link), policy_(policy), device_memory_bytes_(device_memory_bytes) {
  auto& metrics = obs::MetricsRegistry::global();
  metric_bytes_ = &metrics.counter("offload.bytes_transferred");
  metric_transfers_ = &metrics.counter("offload.transfers");
  metric_retries_ = &metrics.counter("offload.transfer_retries");
  metric_transfer_bytes_ = &metrics.histogram("offload.transfer_bytes");
  // An MPAS_FAULT campaign attaches automatically so soak runs can inject
  // link faults without code changes; an explicit set_resilience call
  // overrides (or detaches with nullptr).
  if (auto* env = resilience::env_fault_injector())
    set_resilience(env, resilience::RetryPolicy{});
}

BufferId OffloadRuntime::register_buffer(std::string name, std::size_t bytes,
                                         BufferKind kind) {
  MPAS_CHECK_MSG(total_buffer_bytes() + bytes <= device_memory_bytes_,
                 "device memory exhausted registering '"
                     << name << "' (" << bytes << " B on top of "
                     << total_buffer_bytes() << " B, capacity "
                     << device_memory_bytes_ << " B)");
  buffers_.push_back(Buffer{std::move(name), bytes, kind, false, true});
  return static_cast<BufferId>(buffers_.size() - 1);
}

void OffloadRuntime::set_resilience(resilience::FaultInjector* injector,
                                    resilience::RetryPolicy retry,
                                    bool recover) {
  MPAS_CHECK_MSG(retry.max_attempts >= 1, "max_attempts must be >= 1");
  injector_ = injector;
  retry_ = retry;
  recover_ = recover;
}

Real OffloadRuntime::transfer(BufferId id, bool to_device) {
  Buffer& b = buffers_.at(static_cast<std::size_t>(id));
  // The span measures the bookkeeping call's wall time; the modeled wire
  // time rides along in args so the trace shows both.
  auto& rec = obs::TraceRecorder::global();
  obs::TraceSpan span(rec,
                      rec.enabled() ? "offload:" + b.name : std::string());
  Real total = 0;
  for (int attempt = 1;; ++attempt) {
    // Every attempt, failed or not, occupies the link for the full wire
    // time (a failed DMA is detected at completion, not at launch).
    const Real t = link_.time(static_cast<std::int64_t>(b.bytes));
    stats_.modeled_seconds += t;
    total += t;
    const char* fault = nullptr;
    if (injector_ != nullptr) {
      for (const auto& spec : injector_->on_transfer(id)) {
        fault = spec.kind == resilience::FaultKind::TransferCorrupt
                    ? "failed its integrity check"
                    : "aborted";
      }
    }
    if (fault == nullptr) break;
    stats_.transfer_faults += 1;
    MPAS_CHECK_MSG(recover_, "transfer of '" << b.name << "' " << fault
                                             << " (recovery disabled)");
    MPAS_CHECK_MSG(attempt < retry_.max_attempts,
                   "transfer of '" << b.name << "' " << fault << " on all "
                                   << retry_.max_attempts << " attempts");
    stats_.transfer_retries += 1;
    metric_retries_->add(1);
    MPAS_TRACE_INSTANT_ARGS("offload:retry",
                            obs::trace_arg("buffer", b.name) + "," +
                                obs::trace_arg("attempt", static_cast<
                                                   std::int64_t>(attempt)));
  }
  stats_.transfers += 1;
  if (to_device) {
    stats_.bytes_to_device += b.bytes;
    b.valid_on_device = true;
  } else {
    stats_.bytes_to_host += b.bytes;
    b.valid_on_host = true;
  }
  metric_transfers_->add(1);
  metric_bytes_->add(b.bytes);
  metric_transfer_bytes_->record(static_cast<double>(b.bytes));
  if (span.active())
    span.set_args(
        obs::trace_arg("bytes", static_cast<std::uint64_t>(b.bytes)) + "," +
        obs::trace_arg("direction", to_device ? "to_device" : "to_host") +
        "," + obs::trace_arg("modeled_s", static_cast<double>(total)));
  return total;
}

Real OffloadRuntime::initial_upload() {
  Real total = 0;
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    if (policy_ == TransferPolicy::ResidentMesh) {
      total += transfer(static_cast<BufferId>(i), /*to_device=*/true);
    }
    // OnDemand uploads nothing up front.
  }
  return total;
}

Real OffloadRuntime::ensure_on_device(BufferId id) {
  const Buffer& b = buffers_.at(static_cast<std::size_t>(id));
  if (b.valid_on_device) return 0;
  return transfer(id, /*to_device=*/true);
}

Real OffloadRuntime::ensure_on_host(BufferId id) {
  const Buffer& b = buffers_.at(static_cast<std::size_t>(id));
  if (b.valid_on_host) return 0;
  return transfer(id, /*to_device=*/false);
}

void OffloadRuntime::mark_written_on_device(BufferId id) {
  Buffer& b = buffers_.at(static_cast<std::size_t>(id));
  MPAS_CHECK_MSG(b.kind == BufferKind::ComputeData,
                 "mesh buffer '" << b.name << "' written during stepping");
  b.valid_on_device = true;
  b.valid_on_host = false;
}

void OffloadRuntime::mark_written_on_host(BufferId id) {
  Buffer& b = buffers_.at(static_cast<std::size_t>(id));
  MPAS_CHECK_MSG(b.kind == BufferKind::ComputeData,
                 "mesh buffer '" << b.name << "' written during stepping");
  b.valid_on_host = true;
  // Under OnDemand the device copy is re-uploaded before the next device
  // read; under ResidentMesh compute buffers behave the same way.
  b.valid_on_device = false;
}

void OffloadRuntime::end_offload_region() {
  if (policy_ != TransferPolicy::OnDemand) return;
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    // `#pragma offload out(...)`: device-written compute buffers are copied
    // back when the region closes; then nothing persists on the device.
    if (!buffers_[i].valid_on_host)
      transfer(static_cast<BufferId>(i), /*to_device=*/false);
    buffers_[i].valid_on_device = false;
  }
}

void OffloadRuntime::invalidate_device() {
  for (auto& b : buffers_) {
    b.valid_on_device = false;
    // Functionally every kernel wrote host memory (the device is modeled),
    // so the host copy is current even for buffers the bookkeeping had as
    // device-only; a real port would restore those from checkpoint.
    b.valid_on_host = true;
  }
  MPAS_TRACE_INSTANT("offload:invalidate_device");
}

Real OffloadRuntime::probe_link(std::size_t bytes) {
  MPAS_CHECK_MSG(bytes > 0, "probe payload must be non-empty");
  auto& rec = obs::TraceRecorder::global();
  obs::TraceSpan span(rec, rec.enabled() ? "offload:probe" : std::string());
  Real total = 0;
  // Two legs (up, back) so a one-way fault on either direction is seen.
  for (int leg = 0; leg < 2; ++leg) {
    for (int attempt = 1;; ++attempt) {
      const Real t = link_.time(static_cast<std::int64_t>(bytes));
      stats_.modeled_seconds += t;
      total += t;
      const char* fault = nullptr;
      if (injector_ != nullptr) {
        for (const auto& spec : injector_->on_transfer(/*buffer=*/-1)) {
          fault = spec.kind == resilience::FaultKind::TransferCorrupt
                      ? "failed its integrity check"
                      : "aborted";
        }
      }
      if (fault == nullptr) break;
      stats_.transfer_faults += 1;
      MPAS_CHECK_MSG(recover_,
                     "probe transfer " << fault << " (recovery disabled)");
      MPAS_CHECK_MSG(attempt < retry_.max_attempts,
                     "probe transfer " << fault << " on all "
                                       << retry_.max_attempts << " attempts");
      stats_.transfer_retries += 1;
      metric_retries_->add(1);
    }
  }
  if (span.active())
    span.set_args(
        obs::trace_arg("bytes", static_cast<std::uint64_t>(bytes)) + "," +
        obs::trace_arg("modeled_s", static_cast<double>(total)));
  return total;
}

std::size_t OffloadRuntime::total_buffer_bytes() const {
  return std::accumulate(buffers_.begin(), buffers_.end(), std::size_t{0},
                         [](std::size_t s, const Buffer& b) { return s + b.bytes; });
}

std::size_t OffloadRuntime::mesh_buffer_bytes() const {
  std::size_t s = 0;
  for (const auto& b : buffers_)
    if (b.kind == BufferKind::MeshData) s += b.bytes;
  return s;
}

std::size_t OffloadRuntime::buffer_bytes(BufferId id) const {
  return buffers_.at(static_cast<std::size_t>(id)).bytes;
}

const std::string& OffloadRuntime::buffer_name(BufferId id) const {
  return buffers_.at(static_cast<std::size_t>(id)).name;
}

}  // namespace mpas::exec
