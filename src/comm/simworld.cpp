#include "comm/simworld.hpp"

#include <cstring>
#include <sstream>
#include <tuple>

#include "obs/trace.hpp"
#include "resilience/fault_env.hpp"
#include "util/error.hpp"

namespace mpas::comm {

namespace {

void flip_bit(std::vector<Real>& payload, std::uint64_t word,
              std::uint32_t bit) {
  if (payload.empty()) return;
  Real& target = payload[word % payload.size()];
  std::uint64_t raw;
  std::memcpy(&raw, &target, sizeof(raw));
  raw ^= std::uint64_t{1} << bit;
  std::memcpy(&target, &raw, sizeof(raw));
}

}  // namespace

SimWorld::SimWorld(int num_ranks) : num_ranks_(num_ranks) {
  MPAS_CHECK(num_ranks >= 1);
  depth_gauge_ = &obs::MetricsRegistry::global().gauge("simworld.queue_depth");
  // An MPAS_FAULT campaign attaches automatically so any fabric picks up
  // the environment's faults without code changes; a later explicit
  // set_fault_injector call overrides (or detaches with nullptr).
  injector_ = resilience::env_fault_injector();
}

void SimWorld::publish_depth_locked() {
  depth_gauge_->set(static_cast<double>(in_flight_));
  MPAS_TRACE_COUNTER("simworld.queue_depth", static_cast<double>(in_flight_));
}

void SimWorld::set_fault_injector(resilience::FaultInjector* injector) {
  util::LockGuard lock(mutex_);
  injector_ = injector;
}

void SimWorld::enqueue_locked(const Key& key, std::vector<Real> payload) {
  stats_.messages += 1;
  stats_.bytes += payload.size() * sizeof(Real);
  queues_[key].push_back(std::move(payload));
  in_flight_ += 1;
  publish_depth_locked();
}

void SimWorld::flush_delayed_locked(const Key& key) {
  const auto it = delayed_.find(key);
  if (it == delayed_.end()) return;
  for (auto& payload : it->second) enqueue_locked(key, std::move(payload));
  delayed_.erase(it);
}

void SimWorld::send(int from, int to, int tag, std::vector<Real> payload) {
  MPAS_CHECK(from >= 0 && from < num_ranks_);
  MPAS_CHECK(to >= 0 && to < num_ranks_);
  MPAS_CHECK_MSG(from != to, "self-send (rank " << from << ")");
  const Key key{from, to, tag};
  bool drop = false, delay = false;
  {
    util::LockGuard lock(mutex_);
    if (injector_ != nullptr) {
      for (const auto& fault : injector_->on_message(from, to, tag)) {
        switch (fault.kind) {
          case resilience::FaultKind::MsgDrop: drop = true; break;
          case resilience::FaultKind::MsgDelay: delay = true; break;
          case resilience::FaultKind::MsgCorrupt:
            flip_bit(payload, fault.word, fault.bit);
            break;
          default: break;
        }
      }
    }
    // Any earlier delayed message on this stream is delivered first — it
    // was slow, not lost, and arrives behind the traffic that overtook it.
    flush_delayed_locked(key);
    if (drop) return;  // vanished on the wire, silently
    if (delay) {
      delayed_[key].push_back(std::move(payload));
    } else {
      enqueue_locked(key, std::move(payload));
    }
  }
}

std::vector<Real> SimWorld::recv(int to, int from, int tag) {
  auto payload = try_recv(to, from, tag);
  MPAS_CHECK_MSG(payload.has_value(),
                 "recv with no matching message: " << from << " -> " << to
                                                   << " tag " << tag);
  return std::move(*payload);
}

std::optional<std::vector<Real>> SimWorld::try_recv(int to, int from,
                                                    int tag) {
  util::LockGuard lock(mutex_);
  const auto it = queues_.find(Key{from, to, tag});
  if (it == queues_.end() || it->second.empty()) return std::nullopt;
  std::vector<Real> payload = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) queues_.erase(it);
  in_flight_ -= 1;
  publish_depth_locked();
  return payload;
}

bool SimWorld::has_pending() const {
  util::LockGuard lock(mutex_);
  return !queues_.empty();
}

std::vector<SimWorld::PendingQueue> SimWorld::pending() const {
  util::LockGuard lock(mutex_);
  std::vector<PendingQueue> out;
  out.reserve(queues_.size());
  for (const auto& [key, queue] : queues_)
    out.push_back({key.from, key.to, key.tag, queue.size()});
  return out;
}

std::string SimWorld::pending_summary() const {
  const auto queues = pending();
  if (queues.empty()) return "none";
  std::ostringstream os;
  bool first = true;
  for (const auto& q : queues) {
    if (!first) os << ", ";
    first = false;
    os << q.from << " -> " << q.to << " tag " << q.tag << " x" << q.depth;
  }
  return os.str();
}

SimWorld::Stats SimWorld::stats() const {
  util::LockGuard lock(mutex_);
  return stats_;
}

void SimWorld::reset_stats() {
  util::LockGuard lock(mutex_);
  stats_ = {};
}

}  // namespace mpas::comm
