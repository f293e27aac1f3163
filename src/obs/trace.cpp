#include "obs/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/trace_export.hpp"
#include "util/env.hpp"
#include "util/lock_ranks.hpp"
#include "util/mutex.hpp"
#include "util/timer.hpp"

namespace mpas::obs {

namespace {

std::uint64_t next_recorder_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Thread-local pointer into one recorder's buffer list. The recorder id
/// disambiguates: a thread that switches recorders (tests create local
/// ones) re-registers on the first event for the new recorder.
struct ThreadCache {
  std::uint64_t recorder_id = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache t_cache;

std::string& session_path() {
  static std::string path;
  return path;
}

util::Mutex& session_mutex() {
  static util::Mutex m{"obs.trace_session", util::lockrank::kTraceSession};
  return m;
}

}  // namespace

TraceRecorder::TraceRecorder() : id_(next_recorder_id()) {
  tracks_.push_back({kMeasuredTrack, "measured (wall clock)"});
}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder& TraceRecorder::global() {
  // Leaked on purpose: pool workers and atexit handlers may record or
  // flush during static destruction; a destructed recorder would dangle.
  static TraceRecorder* recorder = [] {
    auto* rec = new TraceRecorder();
    if (const auto path = env::text("MPAS_TRACE")) {
      rec->set_enabled(true);
      {
        util::LockGuard lock(session_mutex());
        session_path() = *path;
      }
      std::atexit([] { write_trace_now(); });
    }
    return rec;
  }();
  return *recorder;
}

double TraceRecorder::now_us() const { return monotonic_seconds() * 1e6; }

TraceRecorder::ThreadBuffer& TraceRecorder::local_buffer() {
  if (t_cache.recorder_id == id_)
    return *static_cast<ThreadBuffer*>(t_cache.buffer);
  util::LockGuard lock(registry_mutex_);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->lane = static_cast<int>(buffers_.size());
  ThreadBuffer& ref = *buffer;
  buffers_.push_back(std::move(buffer));
  t_cache.recorder_id = id_;
  t_cache.buffer = &ref;
  return ref;
}

void TraceRecorder::complete(std::string name, double ts_us, double dur_us,
                             std::string args) {
  ThreadBuffer& buf = local_buffer();
  util::LockGuard lock(buf.mutex);
  buf.events.push_back({TraceEvent::Kind::Complete, std::move(name),
                        std::move(args), ts_us, dur_us, 0, kMeasuredTrack,
                        buf.lane});
}

void TraceRecorder::instant(std::string name, std::string args) {
  ThreadBuffer& buf = local_buffer();
  const double ts = now_us();
  util::LockGuard lock(buf.mutex);
  buf.events.push_back({TraceEvent::Kind::Instant, std::move(name),
                        std::move(args), ts, 0, 0, kMeasuredTrack, buf.lane});
}

void TraceRecorder::counter(std::string name, double value) {
  ThreadBuffer& buf = local_buffer();
  const double ts = now_us();
  util::LockGuard lock(buf.mutex);
  buf.events.push_back({TraceEvent::Kind::Counter, std::move(name), {}, ts, 0,
                        value, kMeasuredTrack, buf.lane});
}

void TraceRecorder::set_thread_name(std::string name) {
  const int lane = local_buffer().lane;
  set_lane_name(kMeasuredTrack, lane, std::move(name));
}

int TraceRecorder::allocate_track(std::string name) {
  util::LockGuard lock(registry_mutex_);
  const int track = next_track_++;
  tracks_.push_back({track, std::move(name)});
  return track;
}

void TraceRecorder::set_lane_name(int track, int lane, std::string name) {
  util::LockGuard lock(registry_mutex_);
  for (auto& info : lanes_) {
    if (info.track == track && info.lane == lane) {
      info.name = std::move(name);
      return;
    }
  }
  lanes_.push_back({track, lane, std::move(name)});
}

void TraceRecorder::record(TraceEvent event) {
  util::LockGuard lock(shared_.mutex);
  shared_.events.push_back(std::move(event));
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<TraceEvent> out;
  {
    util::LockGuard registry(registry_mutex_);
    for (const auto& buf : buffers_) {
      util::LockGuard lock(buf->mutex);
      out.insert(out.end(), buf->events.begin(), buf->events.end());
    }
  }
  {
    util::LockGuard lock(shared_.mutex);
    out.insert(out.end(), shared_.events.begin(), shared_.events.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.track != b.track) return a.track < b.track;
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

std::size_t TraceRecorder::event_count() const {
  std::size_t n = 0;
  {
    util::LockGuard registry(registry_mutex_);
    for (const auto& buf : buffers_) {
      util::LockGuard lock(buf->mutex);
      n += buf->events.size();
    }
  }
  util::LockGuard lock(shared_.mutex);
  return n + shared_.events.size();
}

std::vector<TraceRecorder::TrackInfo> TraceRecorder::tracks() const {
  util::LockGuard lock(registry_mutex_);
  return tracks_;
}

std::vector<TraceRecorder::LaneInfo> TraceRecorder::lanes() const {
  util::LockGuard lock(registry_mutex_);
  return lanes_;
}

void TraceRecorder::clear() {
  util::LockGuard registry(registry_mutex_);
  for (const auto& buf : buffers_) {
    util::LockGuard lock(buf->mutex);
    buf->events.clear();
  }
  util::LockGuard lock(shared_.mutex);
  shared_.events.clear();
}

// ---- environment/file session ----------------------------------------------

void start_trace_file(std::string path) {
  TraceRecorder& rec = TraceRecorder::global();
  {
    util::LockGuard lock(session_mutex());
    session_path() = std::move(path);
  }
  rec.set_thread_name("main");  // the session usually starts on main
  rec.set_enabled(true);
  static bool registered = [] {
    std::atexit([] { write_trace_now(); });
    return true;
  }();
  (void)registered;
}

std::string trace_file_path() {
  util::LockGuard lock(session_mutex());
  return session_path();
}

void write_trace_now() {
  std::string path;
  {
    util::LockGuard lock(session_mutex());
    path = session_path();
  }
  if (path.empty()) return;
  write_chrome_trace(path, TraceRecorder::global());
}

// ---- args helpers -----------------------------------------------------------

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  return std::string(buf, end);
}

std::string trace_arg(const char* key, double value) {
  return '"' + std::string(key) + "\":" + json_number(value);
}

std::string trace_arg(const char* key, std::int64_t value) {
  return '"' + std::string(key) + "\":" + std::to_string(value);
}

std::string trace_arg(const char* key, std::uint64_t value) {
  return '"' + std::string(key) + "\":" + std::to_string(value);
}

std::string trace_arg(const char* key, const std::string& value) {
  return '"' + std::string(key) + "\":\"" + json_escape(value) + '"';
}

std::string trace_arg(const char* key, const char* value) {
  return trace_arg(key, std::string(value));
}

}  // namespace mpas::obs
