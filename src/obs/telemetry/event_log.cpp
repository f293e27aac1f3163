#include "obs/telemetry/event_log.hpp"

#include <charconv>

#include "obs/trace.hpp"  // json_escape, json_number
#include "util/env.hpp"
#include "util/timer.hpp"

namespace mpas::obs::telemetry {

namespace {

template <typename Int>
void append_integer(std::string& out, Int value) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out.append(buf, end);
}

void append_attrs(std::string& out, const std::vector<Attr>& attrs) {
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    const Attr& attr = attrs[i];
    if (i > 0) out += ',';
    out += '"';
    out += attr.key;
    out += "\":";
    if (const auto* d = std::get_if<double>(&attr.value)) {
      out += json_number(*d);
    } else if (const auto* n = std::get_if<std::int64_t>(&attr.value)) {
      append_integer(out, *n);
    } else if (const auto* u = std::get_if<std::uint64_t>(&attr.value)) {
      append_integer(out, *u);
    } else if (const auto* b = std::get_if<bool>(&attr.value)) {
      out += *b ? "true" : "false";
    } else {
      out += '"';
      out += json_escape(std::get<std::string>(attr.value));
      out += '"';
    }
  }
}

// `{"ts":..,"tenant":..,"session":..,"kind":..` — the envelope without its
// attrs and closing brace.
std::string open_line(double ts_s, const std::string& tenant,
                      std::uint64_t session, const std::string& kind) {
  std::string line = "{\"ts\":";
  line += json_number(ts_s);
  line += ",\"tenant\":\"";
  line += json_escape(tenant);
  line += "\",\"session\":";
  append_integer(line, session);
  line += ",\"kind\":\"";
  line += json_escape(kind);
  line += '"';
  return line;
}

std::string render(const WideEvent& event, double ts_s) {
  std::string line = open_line(ts_s, event.tenant, event.session, event.kind);
  if (!event.attrs.empty()) {
    line += ",\"attrs\":{";
    append_attrs(line, event.attrs);
    line += '}';
  }
  line += '}';
  return line;
}

// Room for a typical fact's attrs at its first add, so a fact is one
// allocation however many attrs it carries.
void reserve_attrs(std::vector<Attr>& attrs) {
  if (attrs.capacity() == 0) attrs.reserve(8);
}

}  // namespace

WideEvent& WideEvent::add(const char* key, double value) & {
  reserve_attrs(attrs);
  attrs.emplace_back(key, value);
  return *this;
}

WideEvent& WideEvent::add(const char* key, std::int64_t value) & {
  reserve_attrs(attrs);
  attrs.emplace_back(key, value);
  return *this;
}

WideEvent& WideEvent::add(const char* key, std::uint64_t value) & {
  reserve_attrs(attrs);
  attrs.emplace_back(key, value);
  return *this;
}

WideEvent& WideEvent::add(const char* key, bool value) & {
  reserve_attrs(attrs);
  attrs.emplace_back(key, value);
  return *this;
}

WideEvent& WideEvent::add(const char* key, std::string value) & {
  reserve_attrs(attrs);
  attrs.emplace_back(key, std::move(value));
  return *this;
}

WideEvent& WideEvent::add(const char* key, const char* value) & {
  reserve_attrs(attrs);
  attrs.emplace_back(key, std::string(value));
  return *this;
}

std::string to_jsonl(const WideEvent& event) {
  return render(event, event.ts_s);
}

std::string attrs_json(const WideEvent& event) {
  std::string members;
  append_attrs(members, event.attrs);
  return members;
}

EventLog& EventLog::global() {
  static EventLog log;
  static const bool armed = [] {
    if (const auto path = env::text("MPAS_EVENTS")) log.open(*path);
    return true;
  }();
  (void)armed;
  return log;
}

void EventLog::open(const std::string& path, Mode mode) {
  // concurrency-lint: allow(blocking-under-lock) serializing the sink is this lock's purpose
  const util::LockGuard lock(mutex_);
  if (out_.is_open()) out_.close();
  out_.open(path, mode == Mode::Append ? std::ios::app : std::ios::trunc);
  path_ = path;
  written_ = 0;
  enabled_.store(out_.good(), std::memory_order_relaxed);
}

void EventLog::close() {
  const util::LockGuard lock(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
  if (out_.is_open()) {
    out_.flush();
    out_.close();
  }
  path_.clear();
}

void EventLog::emit(const WideEvent& event) {
  if (!enabled()) return;
  write_line(render(event,
                    event.ts_s < 0 ? monotonic_seconds() : event.ts_s));
}

void EventLog::emit(const std::string& kind, const std::string& tenant,
                    std::uint64_t session, const std::string& attrs) {
  if (!enabled()) return;
  std::string line = open_line(monotonic_seconds(), tenant, session, kind);
  if (!attrs.empty()) line += ",\"attrs\":{" + attrs + '}';
  line += '}';
  write_line(line);
}

void EventLog::write_line(const std::string& line) {
  const util::LockGuard lock(mutex_);
  if (!out_.is_open()) return;
  // Flush per line: the event log is the black-box companion — it must be
  // complete up to the instant of a crash, and the event rate (one per
  // service decision) is far too low for buffering to matter.
  out_ << line << '\n' << std::flush;
  written_ += 1;
}

std::string EventLog::path() const {
  const util::LockGuard lock(mutex_);
  return path_;
}

std::uint64_t EventLog::events_written() const {
  const util::LockGuard lock(mutex_);
  return written_;
}

}  // namespace mpas::obs::telemetry
