#include "obs/telemetry/slo.hpp"

#include <algorithm>

namespace mpas::obs::telemetry {

const char* to_string(SloDimension dimension) {
  switch (dimension) {
    case SloDimension::AdmissionLatency:
      return "admission_latency";
    case SloDimension::DeadlineMiss:
      return "deadline";
    case SloDimension::DegradedFidelity:
      return "fidelity";
    case SloDimension::ErrorRate:
      return "errors";
  }
  return "unknown";
}

SloTracker::SloTracker(SloPolicy policy) : policy_(policy) {
  if (policy_.window == 0) policy_.window = 1;
}

Real SloTracker::attainment_of(const Window& w) const {
  if (w.count == 0) return Real(1);
  return static_cast<Real>(w.successes) / static_cast<Real>(w.count);
}

Real SloTracker::burn_of(const Window& w, SloDimension d) const {
  if (w.count == 0) return Real(0);
  const Real miss = Real(1) - attainment_of(w);
  const Real budget =
      std::max(Real(1) - policy_.target[static_cast<int>(d)], Real(1e-6));
  return miss / budget;
}

SloSample SloTracker::record(const std::string& tenant,
                             SloDimension dimension, bool ok) {
  const util::LockGuard lock(mutex_);
  Window& w = tenants_[tenant][static_cast<int>(dimension)];
  if (w.ring.empty()) w.ring.assign(policy_.window, 0);
  if (w.count == w.ring.size()) {
    // Full: the slot at head is the oldest sample, about to be evicted.
    w.successes -= static_cast<std::size_t>(w.ring[w.head]);
  } else {
    w.count += 1;
  }
  w.ring[w.head] = ok ? 1 : 0;
  w.head = (w.head + 1) % w.ring.size();
  if (ok) w.successes += 1;

  SloSample sample;
  sample.attainment = attainment_of(w);
  sample.burn_rate = burn_of(w, dimension);
  sample.breach =
      sample.attainment < policy_.target[static_cast<int>(dimension)];
  return sample;
}

Real SloTracker::attainment(const std::string& tenant,
                            SloDimension dimension) const {
  const util::LockGuard lock(mutex_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return Real(1);
  return attainment_of(it->second[static_cast<int>(dimension)]);
}

Real SloTracker::burn_rate(const std::string& tenant,
                           SloDimension dimension) const {
  const util::LockGuard lock(mutex_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return Real(0);
  return burn_of(it->second[static_cast<int>(dimension)], dimension);
}

Real SloTracker::worst_burn_rate(const std::string& tenant) const {
  const util::LockGuard lock(mutex_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return Real(0);
  Real worst = 0;
  for (int d = 0; d < kSloDimensions; ++d) {
    worst = std::max(
        worst, burn_of(it->second[d], static_cast<SloDimension>(d)));
  }
  return worst;
}

std::uint64_t SloTracker::samples(const std::string& tenant,
                                  SloDimension dimension) const {
  const util::LockGuard lock(mutex_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return 0;
  return it->second[static_cast<int>(dimension)].count;
}

std::vector<std::string> SloTracker::tenants() const {
  const util::LockGuard lock(mutex_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, windows] : tenants_) names.push_back(name);
  return names;
}

}  // namespace mpas::obs::telemetry
