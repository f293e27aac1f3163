#include "obs/profiling/perf_profiler.hpp"

#include <cstdlib>
#include <thread>

#include "obs/profiling/profile_trace.hpp"
#include "obs/trace.hpp"

namespace mpas::obs::profiling {

namespace {

/// The per-thread counter group for sampled calls. Opened lazily on the
/// first sampled call of each thread, closed at thread exit.
HwCounterGroup& thread_counters() {
  thread_local HwCounterGroup group;
  return group;
}

util::Mutex& profile_session_mutex() {
  // Guards only the session path string; never held across a write or
  // together with the profiler's registry mutex.
  static util::Mutex mutex{"obs.profiler.session",
                           util::lockrank::kPerfProfiler};
  return mutex;
}

std::string& profile_session_path() {
  static std::string path;
  return path;
}

}  // namespace

// ---- Slot -----------------------------------------------------------------

void ProfileHandle::Slot::record(double seconds) {
  micros.record(seconds * 1e6);
  const std::uint64_t n = calls.fetch_add(1, std::memory_order_relaxed);
  double cur = total_s.load(std::memory_order_relaxed);
  while (!total_s.compare_exchange_weak(cur, cur + seconds,
                                        std::memory_order_relaxed)) {
  }
  if (n == 0) {
    min_s.store(seconds, std::memory_order_relaxed);
    max_s.store(seconds, std::memory_order_relaxed);
    return;
  }
  cur = min_s.load(std::memory_order_relaxed);
  while (seconds < cur && !min_s.compare_exchange_weak(
                              cur, seconds, std::memory_order_relaxed)) {
  }
  cur = max_s.load(std::memory_order_relaxed);
  while (seconds > cur && !max_s.compare_exchange_weak(
                              cur, seconds, std::memory_order_relaxed)) {
  }
}

void ProfileHandle::Slot::add_counters(const HwCounterSample& s) {
  if (!s.valid) return;
  counter_samples.fetch_add(1, std::memory_order_relaxed);
  auto add = [](std::atomic<double>& acc, double delta) {
    double cur = acc.load(std::memory_order_relaxed);
    while (!acc.compare_exchange_weak(cur, cur + delta,
                                      std::memory_order_relaxed)) {
    }
  };
  add(cycles, static_cast<double>(s.cycles));
  add(instructions, static_cast<double>(s.instructions));
  add(llc_misses, static_cast<double>(s.llc_misses));
  if (s.stalled_valid)
    add(stalled_cycles, static_cast<double>(s.stalled_cycles));
}

// ---- ProfileScope ---------------------------------------------------------

ProfileScope::ProfileScope(PerfProfiler& profiler,
                           const ProfileHandle& handle) {
  if (!profiler.enabled() || !handle.valid()) return;
  slot_ = handle.slot_;
  TraceRecorder& tracer = TraceRecorder::global();
  if (tracer.enabled()) tracer_ = &tracer;
  const std::uint32_t every = profiler.sample_every();
  if (every != 0 && HwCounterGroup::available() &&
      slot_->calls.load(std::memory_order_relaxed) % every == 0) {
    sampling_ = true;
    thread_counters().start();
  }
  start_s_ = monotonic_seconds();
}

ProfileScope::~ProfileScope() {
  if (slot_ == nullptr) return;
  const double elapsed = monotonic_seconds() - start_s_;
  if (sampling_) slot_->add_counters(thread_counters().stop());
  slot_->record(elapsed);
  // The tracer's now_us() is monotonic_seconds() * 1e6, so the span lines
  // up with every other span on the measured track.
  if (tracer_ != nullptr)
    tracer_->complete(slot_->span_name, start_s_ * 1e6, elapsed * 1e6);
}

// ---- PerfProfiler ---------------------------------------------------------

ProfileHandle::Slot* PerfProfiler::find_or_create(const ProfileKey& key) {
  const util::LockGuard lock(mutex_);
  std::unique_ptr<ProfileHandle::Slot>& slot = slots_[key.flat()];
  if (!slot) {
    slot = std::make_unique<ProfileHandle::Slot>();
    slot->key = key;
    slot->span_name =
        "kernel:" + key.kernel + "/" + key.pattern + "@" + key.device;
  }
  return slot.get();
}

ProfileHandle PerfProfiler::handle(const ProfileKey& key) {
  return ProfileHandle(find_or_create(key));
}

void PerfProfiler::set_prediction(const ProfileKey& key,
                                  double seconds_per_call) {
  find_or_create(key)->predicted_s.store(seconds_per_call,
                                         std::memory_order_relaxed);
}

std::uint64_t PerfProfiler::calls(const ProfileHandle& h) const {
  return h.valid() ? h.slot_->calls.load(std::memory_order_relaxed) : 0;
}

double PerfProfiler::total_seconds(const ProfileHandle& h) const {
  return h.valid() ? h.slot_->total_s.load(std::memory_order_relaxed) : 0.0;
}

Profile PerfProfiler::to_profile(const std::string& backend, int threads,
                                 int mesh_level) const {
  Profile profile;
  profile.env = bench_harness::current_fingerprint();
  profile.env.mesh_level = mesh_level;
  profile.threads = threads;
  profile.backend = backend;
  profile.counters_available = HwCounterGroup::available();
  {
    const util::LockGuard lock(mutex_);
    for (const auto& [flat, slot] : slots_) {
      ProfileEntry e;
      e.key = slot->key;
      e.calls = slot->calls.load(std::memory_order_relaxed);
      e.total_s = slot->total_s.load(std::memory_order_relaxed);
      e.min_s = slot->min_s.load(std::memory_order_relaxed);
      e.max_s = slot->max_s.load(std::memory_order_relaxed);
      e.p50_s = slot->micros.quantile(0.50) / 1e6;
      e.p95_s = slot->micros.quantile(0.95) / 1e6;
      e.p99_s = slot->micros.quantile(0.99) / 1e6;
      e.predicted_s_per_call =
          slot->predicted_s.load(std::memory_order_relaxed);
      e.counters.samples =
          slot->counter_samples.load(std::memory_order_relaxed);
      e.counters.cycles = slot->cycles.load(std::memory_order_relaxed);
      e.counters.instructions =
          slot->instructions.load(std::memory_order_relaxed);
      e.counters.llc_misses =
          slot->llc_misses.load(std::memory_order_relaxed);
      e.counters.stalled_cycles =
          slot->stalled_cycles.load(std::memory_order_relaxed);
      profile.entries.push_back(std::move(e));
    }
  }
  profile.sort_entries();
  return profile;
}

void PerfProfiler::reset() {
  const util::LockGuard lock(mutex_);
  for (auto& [flat, slot] : slots_) {
    slot->micros.reset();
    slot->calls.store(0, std::memory_order_relaxed);
    slot->total_s.store(0, std::memory_order_relaxed);
    slot->min_s.store(0, std::memory_order_relaxed);
    slot->max_s.store(0, std::memory_order_relaxed);
    slot->counter_samples.store(0, std::memory_order_relaxed);
    slot->cycles.store(0, std::memory_order_relaxed);
    slot->instructions.store(0, std::memory_order_relaxed);
    slot->llc_misses.store(0, std::memory_order_relaxed);
    slot->stalled_cycles.store(0, std::memory_order_relaxed);
  }
}

PerfProfiler& PerfProfiler::global() {
  // Heap singleton + armed-from-env session, the MPAS_TRACE/MPAS_METRICS
  // idiom: never destroyed, so worker threads and other atexit hooks may
  // record safely during shutdown.
  static PerfProfiler* profiler = [] {
    auto* p = new PerfProfiler();
    if (const auto path = env_profile_path()) {
      p->set_enabled(true);
      {
        const util::LockGuard lock(profile_session_mutex());
        profile_session_path() = *path;
      }
      std::atexit([] { write_profile_now(); });
    }
    return p;
  }();
  return *profiler;
}

// ---- environment/file session ---------------------------------------------

std::optional<std::string> env_profile_path() {
  const char* path = std::getenv("MPAS_PROFILE");
  if (path == nullptr || *path == '\0') return std::nullopt;
  return std::string(path);
}

void start_profile_file(std::string path) {
  PerfProfiler::global().set_enabled(true);
  {
    const util::LockGuard lock(profile_session_mutex());
    profile_session_path() = std::move(path);
  }
  static bool registered = [] {
    std::atexit([] { write_profile_now(); });
    return true;
  }();
  (void)registered;
}

std::string profile_file_path() {
  const util::LockGuard lock(profile_session_mutex());
  return profile_session_path();
}

void write_profile_now() {
  std::string path;
  {
    const util::LockGuard lock(profile_session_mutex());
    path = profile_session_path();
  }
  if (path.empty()) return;
  const Profile profile = PerfProfiler::global().to_profile(
      "process", static_cast<int>(std::thread::hardware_concurrency()));
  // When a trace session is live, lay the measured-vs-modeled overlay into
  // it before flushing, so one Perfetto file carries prediction,
  // measurement, and divergence on adjacent lanes regardless of which
  // exit hook runs first.
  auto& recorder = TraceRecorder::global();
  static std::atomic<bool> overlay_done{false};
  if (recorder.enabled() && !profile.entries.empty() &&
      !overlay_done.exchange(true, std::memory_order_relaxed)) {
    record_profile_overlay(profile, recorder, "profile: measured vs modeled");
    write_trace_now();
  }
  write_profile_file(profile, path);  // never throws from an atexit hook
}

}  // namespace mpas::obs::profiling
