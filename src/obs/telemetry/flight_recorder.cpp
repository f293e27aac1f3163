#include "obs/telemetry/flight_recorder.hpp"

#include <fstream>

#include "util/env.hpp"

namespace mpas::obs::telemetry {

// The ring grows to capacity on demand: most sessions hold a handful of
// facts, and the manager keeps every session's ring for its lifetime.
FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::record(WideEvent fact) {
  const util::LockGuard lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(fact));
  } else {
    ring_[head_] = std::move(fact);
    head_ = (head_ + 1) % capacity_;
  }
  recorded_ += 1;
}

std::vector<WideEvent> FlightRecorder::held_locked() const {
  std::vector<WideEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<WideEvent> FlightRecorder::events() const {
  const util::LockGuard lock(mutex_);
  return held_locked();
}

std::uint64_t FlightRecorder::recorded() const {
  const util::LockGuard lock(mutex_);
  return recorded_;
}

std::size_t FlightRecorder::size() const {
  const util::LockGuard lock(mutex_);
  return ring_.size();
}

std::size_t FlightRecorder::count(const std::string& kind) const {
  const util::LockGuard lock(mutex_);
  std::size_t n = 0;
  for (const WideEvent& fact : ring_) {
    if (fact.kind == kind) n += 1;
  }
  return n;
}

bool FlightRecorder::dump_to_file(const std::string& path,
                                  WideEvent& header) const {
  std::vector<WideEvent> held;
  std::uint64_t total = 0;
  {
    const util::LockGuard lock(mutex_);
    held = held_locked();
    total = recorded_;
  }
  header.add("capacity", capacity_)
      .add("recorded", total)
      .add("dropped", total - held.size());
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return false;
  out << to_jsonl(header) << '\n';
  for (const WideEvent& fact : held) out << to_jsonl(fact) << '\n';
  return out.good();
}

FlightDumpPolicy FlightDumpPolicy::parse(const std::string& spec) {
  FlightDumpPolicy policy;
  if (spec.empty()) return policy;
  if (spec == "all") {
    policy.dump_all = true;
    policy.dir = "flight_dumps";
  } else if (spec.rfind("all:", 0) == 0) {
    policy.dump_all = true;
    policy.dir = spec.substr(4);
    if (policy.dir.empty()) policy.dir = "flight_dumps";
  } else {
    policy.dir = spec;
  }
  return policy;
}

FlightDumpPolicy FlightDumpPolicy::from_env() {
  return parse(env::text("MPAS_FLIGHT_DUMP").value_or(""));
}

}  // namespace mpas::obs::telemetry
