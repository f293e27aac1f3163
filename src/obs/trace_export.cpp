#include "obs/trace_export.hpp"

#include <fstream>
#include <sstream>

#include "util/env.hpp"
#include "util/error.hpp"

namespace mpas::obs {

namespace {

/// One event object. `body` is the per-phase middle part ("\"ph\":\"X\"...").
void emit_event(std::ostringstream& os, bool& first, const std::string& body) {
  if (!first) os << ",\n";
  first = false;
  os << "  " << body;
}

std::string metadata_event(const char* kind, int pid, int tid,
                           const std::string& name, bool with_tid) {
  std::ostringstream os;
  os << "{\"name\":\"" << kind << "\",\"ph\":\"M\",\"pid\":" << pid;
  if (with_tid) os << ",\"tid\":" << tid;
  os << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  return os.str();
}

}  // namespace

std::string to_chrome_json(const TraceRecorder& recorder) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed;
  os << "{\n\"traceEvents\": [\n";
  bool first = true;

  for (const auto& track : recorder.tracks())
    emit_event(os, first,
               metadata_event("process_name", track.track, 0, track.name,
                              /*with_tid=*/false));
  for (const auto& lane : recorder.lanes())
    emit_event(os, first,
               metadata_event("thread_name", lane.track, lane.lane, lane.name,
                              /*with_tid=*/true));

  for (const TraceEvent& e : recorder.snapshot()) {
    std::ostringstream ev;
    ev.precision(3);
    ev << std::fixed;
    ev << "{\"name\":\"" << json_escape(e.name) << "\",\"pid\":" << e.track
       << ",\"tid\":" << e.lane << ",\"ts\":" << e.ts_us;
    switch (e.kind) {
      case TraceEvent::Kind::Complete:
        ev << ",\"ph\":\"X\",\"dur\":" << e.dur_us;
        if (!e.args.empty()) ev << ",\"args\":{" << e.args << "}";
        break;
      case TraceEvent::Kind::Instant:
        ev << ",\"ph\":\"i\",\"s\":\"t\"";
        if (!e.args.empty()) ev << ",\"args\":{" << e.args << "}";
        break;
      case TraceEvent::Kind::Counter:
        ev << ",\"ph\":\"C\",\"args\":{\"value\":" << e.value << "}";
        break;
    }
    ev << "}";
    emit_event(os, first, ev.str());
  }

  // The configuration the run used, one string per MPAS_* variable.
  os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {";
  first = true;
  for (const auto& [name, value] : env::resolved()) {
    os << (first ? "" : ",") << "\"" << name << "\":\"" << json_escape(value)
       << "\"";
    first = false;
  }
  os << "}\n}\n";
  return os.str();
}

void write_chrome_trace(const std::string& path,
                        const TraceRecorder& recorder) {
  std::ofstream out(path, std::ios::trunc);
  MPAS_CHECK_MSG(out.good(), "cannot open trace file '" << path << "'");
  out << to_chrome_json(recorder);
  MPAS_CHECK_MSG(out.good(), "failed writing trace file '" << path << "'");
}

}  // namespace mpas::obs
