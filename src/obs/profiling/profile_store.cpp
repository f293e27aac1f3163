#include "obs/profiling/profile_store.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "obs/trace.hpp"  // json_escape
#include "util/error.hpp"
#include "util/logging.hpp"

namespace mpas::obs::profiling {

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  // Built up in place (gcc 12's -Wrestrict misfires on the one-liner
  // "\"" + ... + "\"" concatenation chain).
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  out += json_escape(s);
  out += '"';
  return out;
}

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

std::string ProfileKey::flat() const {
  return pattern + "|" + kernel + "|" + device + "|L" +
         std::to_string(mesh_level);
}

void Profile::sort_entries() {
  std::sort(entries.begin(), entries.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              return a.key < b.key;
            });
}

std::string Profile::to_json() const {
  Profile sorted = *this;
  sorted.sort_entries();
  std::string out = "{\n";
  out += "  \"schema\": \"mpas-profile-v1\",\n";
  out += "  \"env\": " + env.to_json() + ",\n";
  out += "  \"threads\": " + std::to_string(threads) + ",\n";
  out += "  \"backend\": " + quoted(backend) + ",\n";
  out += std::string("  \"counters_available\": ") +
         (counters_available ? "true" : "false") + ",\n";
  out += "  \"entries\": [";
  bool first = true;
  for (const ProfileEntry& e : sorted.entries) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"pattern\": " + quoted(e.key.pattern) +
           ", \"kernel\": " + quoted(e.key.kernel) +
           ", \"device\": " + quoted(e.key.device) +
           ", \"mesh_level\": " + std::to_string(e.key.mesh_level) + ",\n";
    out += "     \"calls\": " + fmt_u64(e.calls) +
           ", \"total_s\": " + fmt_double(e.total_s) +
           ", \"min_s\": " + fmt_double(e.min_s) +
           ", \"max_s\": " + fmt_double(e.max_s) + ",\n";
    out += "     \"p50_s\": " + fmt_double(e.p50_s) +
           ", \"p95_s\": " + fmt_double(e.p95_s) +
           ", \"p99_s\": " + fmt_double(e.p99_s) + ",\n";
    out += "     \"predicted_s_per_call\": " +
           fmt_double(e.predicted_s_per_call) + ",\n";
    out += "     \"counters\": {\"samples\": " + fmt_u64(e.counters.samples) +
           ", \"cycles\": " + fmt_double(e.counters.cycles) +
           ", \"instructions\": " + fmt_double(e.counters.instructions) +
           ", \"llc_misses\": " + fmt_double(e.counters.llc_misses) +
           ", \"stalled_cycles\": " + fmt_double(e.counters.stalled_cycles) +
           "}}";
  }
  out += first ? "]" : "\n  ]";
  out += "\n}\n";
  return out;
}

Profile Profile::from_json(const std::string& text) {
  const json::Value doc = json::parse(text);
  MPAS_CHECK_MSG(doc.at("schema").as_string() == "mpas-profile-v1",
                 "unknown profile schema '" << doc.at("schema").as_string()
                                            << "'");
  Profile p;
  p.env = bench_harness::EnvFingerprint::from_json(doc.at("env"));
  p.threads = static_cast<int>(doc.at("threads").as_number());
  p.backend = doc.at("backend").as_string();
  p.counters_available = doc.at("counters_available").as_bool();
  for (const json::Value& je : doc.at("entries").as_array()) {
    ProfileEntry e;
    e.key.pattern = je.at("pattern").as_string();
    e.key.kernel = je.at("kernel").as_string();
    e.key.device = je.at("device").as_string();
    e.key.mesh_level = static_cast<int>(je.at("mesh_level").as_number());
    e.calls = static_cast<std::uint64_t>(je.at("calls").as_number());
    e.total_s = je.at("total_s").as_number();
    e.min_s = je.at("min_s").as_number();
    e.max_s = je.at("max_s").as_number();
    e.p50_s = je.at("p50_s").as_number();
    e.p95_s = je.at("p95_s").as_number();
    e.p99_s = je.at("p99_s").as_number();
    e.predicted_s_per_call = je.at("predicted_s_per_call").as_number();
    const json::Value& c = je.at("counters");
    e.counters.samples =
        static_cast<std::uint64_t>(c.at("samples").as_number());
    e.counters.cycles = c.at("cycles").as_number();
    e.counters.instructions = c.at("instructions").as_number();
    e.counters.llc_misses = c.at("llc_misses").as_number();
    e.counters.stalled_cycles = c.at("stalled_cycles").as_number();
    p.entries.push_back(std::move(e));
  }
  p.sort_entries();
  return p;
}

bool write_profile_file(const Profile& profile, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    MPAS_LOG_WARN << "profile: cannot open '" << path << "' for writing";
    return false;
  }
  out << profile.to_json();
  out.flush();
  if (!out) {
    MPAS_LOG_WARN << "profile: short write to '" << path << "'";
    return false;
  }
  return true;
}

Profile read_profile_file(const std::string& path) {
  std::ifstream in(path);
  MPAS_CHECK_MSG(in.good(), "profile: cannot read '" << path << "'");
  std::ostringstream text;
  text << in.rdbuf();
  return Profile::from_json(text.str());
}

machine::Calibration calibrate(const Profile& profile) {
  struct Sums {
    double measured = 0;
    double predicted = 0;
  };
  std::map<std::string, Sums> by_kernel;
  Sums all;
  for (const ProfileEntry& e : profile.entries) {
    if (e.predicted_s_per_call <= 0 || e.calls == 0) continue;
    const double predicted =
        e.predicted_s_per_call * static_cast<double>(e.calls);
    by_kernel[e.key.kernel].measured += e.total_s;
    by_kernel[e.key.kernel].predicted += predicted;
    all.measured += e.total_s;
    all.predicted += predicted;
  }
  machine::Calibration cal;
  for (const auto& [kernel, sums] : by_kernel)
    if (sums.predicted > 0)
      cal.kernel_scale[kernel] = sums.measured / sums.predicted;
  if (all.predicted > 0) cal.default_scale = all.measured / all.predicted;
  return cal;
}

}  // namespace mpas::obs::profiling
