#include "obs/profiling/drift.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace mpas::obs::profiling {

namespace {

constexpr Real kTinySeconds = 1e-18;

}  // namespace

ModelDriftMonitor::ModelDriftMonitor(DriftPolicy policy) : policy_(policy) {
  MPAS_CHECK_MSG(policy_.warmup >= 1 && policy_.confirm >= 1,
                 "drift warmup and confirm must be >= 1");
  MPAS_CHECK_MSG(policy_.ratio_threshold > 1.0,
                 "drift ratio_threshold must be > 1");
  MPAS_CHECK_MSG(policy_.ph_lambda > 0 && policy_.clamp_log > 0,
                 "drift lambda and clamp must be > 0");
  MPAS_CHECK_MSG(policy_.alpha > 0 && policy_.alpha <= 1,
                 "drift alpha must be in (0, 1]");
}

void ModelDriftMonitor::set_metric_scope(std::string scope) {
  const util::LockGuard lock(mutex_);
  metric_scope_ = std::move(scope);
}

void ModelDriftMonitor::add_alarm_listener(AlarmListener listener) {
  const util::LockGuard lock(mutex_);
  listeners_.push_back(std::move(listener));
}

ModelDriftMonitor::Channel& ModelDriftMonitor::channel_ref(
    const std::string& name) {
  return channels_[name];
}

void ModelDriftMonitor::observe(const std::string& channel, std::int64_t step,
                                Real predicted_s, Real measured_s) {
  if (!policy_.enabled) return;
  {
    const util::LockGuard lock(mutex_);
    Channel& c = channel_ref(channel);
    const Real r = measured_s / std::max(predicted_s, kTinySeconds);
    c.last_ratio = r;
    c.ewma_ratio = c.observations == 0
                       ? r
                       : (1 - policy_.alpha) * c.ewma_ratio + policy_.alpha * r;
    c.observations += 1;

    auto& registry = MetricsRegistry::global();
    if (!c.baseline_set) {
      // Warmup: learn the frozen machine-speed baseline; no alarms yet.
      c.baseline_sum += r;
      if (c.observations >= policy_.warmup) {
        c.baseline = std::max<Real>(
            c.baseline_sum / static_cast<Real>(c.observations), kTinySeconds);
        c.baseline_set = true;
      }
      registry.gauge(metric_scope_ + "obs.profile.drift.ratio." + channel)
          .set(1.0);
      return;
    }

    const Real rel = r / c.baseline;
    c.worst = std::max(c.worst, rel);
    const Real x = std::clamp(std::log(std::max(rel, kTinySeconds)),
                              -policy_.clamp_log, policy_.clamp_log);
    c.ph_m += x - policy_.ph_delta;
    c.ph_min = std::min(c.ph_min, c.ph_m);
    const Real score = c.ph_m - c.ph_min;
    const bool over = rel > policy_.ratio_threshold;
    c.over_streak = over ? c.over_streak + 1 : 0;

    registry.gauge(metric_scope_ + "obs.profile.drift.ratio." + channel)
        .set(rel);
    registry.gauge(metric_scope_ + "obs.profile.drift.score." + channel)
        .set(score);
    MPAS_TRACE_COUNTER(metric_scope_ + "obs.profile.drift.ratio." + channel,
                       rel);

    if (!over && c.drifting) {
      c.drifting = false;
      MPAS_TRACE_INSTANT_ARGS(
          "drift:clear",
          trace_arg("channel", channel) + "," + trace_arg("step", step) +
              "," + trace_arg("ratio", rel));
    }

    if (!c.drifting && score > policy_.ph_lambda &&
        c.over_streak >= policy_.confirm) {
      c.drifting = true;
      // Restart Page-Hinkley so a later, separate shift re-alarms instead
      // of riding the old accumulator.
      c.ph_m = 0;
      c.ph_min = 0;
      alarms_.fetch_add(1, std::memory_order_relaxed);
      const DriftAlarm alarm{channel, step, rel, c.baseline, score};
      alarm_log_.push_back(alarm);
      pending_notifications_.push_back(alarm);
      registry.counter(metric_scope_ + "obs.profile.drift.alarms").add(1);
      MPAS_TRACE_INSTANT_ARGS(
          "drift:alarm",
          trace_arg("channel", channel) + "," + trace_arg("step", step) +
              "," + trace_arg("ratio", rel) + "," +
              trace_arg("baseline", c.baseline) + "," +
              trace_arg("score", score));
    }
  }
  notify_listeners();
}

void ModelDriftMonitor::notify_listeners() {
  // Listener delivery happens outside the mutex: the health layer's
  // listeners take lower-ranked locks (HealthMonitor is rank 30, this
  // monitor 58), and a re-entrant listener must not self-deadlock.
  for (;;) {
    std::vector<DriftAlarm> pending;
    std::vector<AlarmListener> listeners;
    {
      const util::LockGuard lock(mutex_);
      if (pending_notifications_.empty()) return;
      pending.swap(pending_notifications_);
      listeners = listeners_;
    }
    for (const DriftAlarm& alarm : pending)
      for (const AlarmListener& listener : listeners) listener(alarm);
  }
}

void ModelDriftMonitor::reset(const std::string& channel) {
  const util::LockGuard lock(mutex_);
  const auto it = channels_.find(channel);
  if (it == channels_.end()) return;
  Channel& c = it->second;
  const Real worst = c.worst;  // survives: worst drift is a run property
  c = Channel{};
  c.worst = worst;
}

void ModelDriftMonitor::reset_all() {
  std::vector<std::string> names;
  {
    const util::LockGuard lock(mutex_);
    for (const auto& [name, c] : channels_) names.push_back(name);
  }
  for (const std::string& name : names) reset(name);
}

Real ModelDriftMonitor::ratio(const std::string& channel) const {
  const util::LockGuard lock(mutex_);
  const auto it = channels_.find(channel);
  return it == channels_.end() ? 1.0 : it->second.ewma_ratio;
}

Real ModelDriftMonitor::drift(const std::string& channel) const {
  const util::LockGuard lock(mutex_);
  const auto it = channels_.find(channel);
  if (it == channels_.end() || !it->second.baseline_set) return 1.0;
  return it->second.ewma_ratio / it->second.baseline;
}

bool ModelDriftMonitor::drifting(const std::string& channel) const {
  const util::LockGuard lock(mutex_);
  const auto it = channels_.find(channel);
  return it != channels_.end() && it->second.drifting;
}

Real ModelDriftMonitor::worst_ratio() const {
  const util::LockGuard lock(mutex_);
  Real worst = 1.0;
  for (const auto& [name, c] : channels_) worst = std::max(worst, c.worst);
  return worst;
}

std::vector<DriftAlarm> ModelDriftMonitor::alarm_log() const {
  const util::LockGuard lock(mutex_);
  return alarm_log_;
}

}  // namespace mpas::obs::profiling
