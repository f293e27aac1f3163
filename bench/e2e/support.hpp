// Measurement support for mpas_e2e: the clock, percentiles, in-memory spans,
// the metric report and its JSON/text rendering, and host facts read from
// sysfs and /proc. Deliberately independent of src/bench_harness, so edits to that
// module cannot move the benchmark's numbers.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call (process start, in
/// practice: main() calls it first).
inline double now_s() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

/// Linear-interpolated quantile (numpy's default), q in [0, 1].
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Time `reps` calls of `fn` and return the median seconds per call.
template <class Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn(i);
    t.push_back(now_s() - t0);
  }
  return median(std::move(t));
}

/// Peak resident set of this process so far, in MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- spans -----------------------------------------------------------------

/// Spans kept in memory and written once at exit. Each has a name, the
/// layer whose public call it brackets, start and duration, the index of
/// the span that caused it (-1 for roots), and the request id (step index
/// or session id).
class Trace {
 public:
  /// Names and layers are string literals, so recording allocates nothing
  /// beyond the vector's amortized growth.
  struct Span {
    const char* name = "";
    const char* layer = "";
    double start_us = 0;
    double dur_us = 0;
    int parent = -1;
    std::int64_t rid = -1;
  };

  Trace() { spans_.reserve(std::size_t{1} << 16); }

  int begin(const char* name, const char* layer, std::int64_t rid,
            int parent = -1) {
    return add(name, layer, now_s() * 1e6, 0, parent, rid);
  }
  void end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.dur_us = now_s() * 1e6 - s.start_us;
  }
  /// A span whose interval was measured by the caller.
  int add(const char* name, const char* layer, double start_us, double dur_us,
          int parent, std::int64_t rid) {
    spans_.push_back({name, layer, start_us, dur_us, parent, rid});
    return static_cast<int>(spans_.size()) - 1;
  }
  void set_rid(int id, std::int64_t rid) {
    spans_[static_cast<std::size_t>(id)].rid = rid;
  }
  void write(const std::filesystem::path& path,
             const std::string& workload) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null trace records nothing (untraced operations).
class Scope {
 public:
  Scope(Trace* trace, const char* name, const char* layer, std::int64_t rid,
        int parent = -1)
      : trace_(trace),
        id_(trace != nullptr ? trace->begin(name, layer, rid, parent) : -1) {}
  ~Scope() {
    if (trace_ != nullptr) trace_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Trace* trace_;
  int id_;
};

// ---- report ----------------------------------------------------------------

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Full precision: the value exactly as measured.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Every metric of one run: end-to-end ("e2e"), per-layer ("layer"), and
/// ungated diagnostics ("diag"), plus the resolved configuration and the
/// ledger text.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    std::string kind;
  };

  void e2e(const std::string& n, double v, const std::string& u) {
    add(n, v, u, "e2e");
  }
  void layer(const std::string& n, double v, const std::string& u) {
    add(n, v, u, "layer");
  }
  void diag(const std::string& n, double v, const std::string& u) {
    add(n, v, u, "diag");
  }
  void config(const std::string& key, const std::string& json_value) {
    config_[key] = json_value;
  }
  void ledger_line(const std::string& line) { ledger_.push_back(line); }

  [[nodiscard]] double value(const std::string& n) const {
    for (const Metric& m : metrics_)
      if (m.name == n) return m.value;
    return 0;
  }

  /// Human-readable lines: "workload metric value unit [kind]".
  void print(const std::string& workload) const {
    for (const Metric& m : metrics_)
      std::printf("%s %s %.6g %s%s\n", workload.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str(),
                  m.kind == "e2e" ? "" : (" [" + m.kind + "]").c_str());
    for (const std::string& line : ledger_) std::printf("%s\n", line.c_str());
  }

  void write(const std::filesystem::path& path, const std::string& workload,
             bool correct, std::int64_t attempted,
             std::int64_t failed) const {
    std::ofstream os(path);
    os << "{\n  \"workload\": " << json_string(workload)
       << ",\n  \"correct\": " << (correct ? "true" : "false")
       << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
       << ",\n  \"config\": {";
    bool first = true;
    for (const auto& [k, v] : config_) {
      os << (first ? "\n    " : ",\n    ") << json_string(k) << ": " << v;
      first = false;
    }
    os << "\n  },\n  \"metrics\": {";
    first = true;
    for (const Metric& m : metrics_) {
      os << (first ? "\n    " : ",\n    ") << json_string(m.name)
         << ": {\"value\": " << json_number(m.value)
         << ", \"unit\": " << json_string(m.unit)
         << ", \"kind\": " << json_string(m.kind) << "}";
      first = false;
    }
    os << "\n  },\n  \"ledger\": [";
    first = true;
    for (const std::string& line : ledger_) {
      os << (first ? "\n    " : ",\n    ") << json_string(line);
      first = false;
    }
    os << "\n  ]\n}\n";
  }

 private:
  void add(const std::string& n, double v, const std::string& u,
           const char* kind) {
    metrics_.push_back({n, v, u, kind});
  }

  std::vector<Metric> metrics_;
  std::map<std::string, std::string> config_;
  std::vector<std::string> ledger_;
};

inline void Trace::write(const std::filesystem::path& path,
                         const std::string& workload) const {
  std::ofstream os(path);
  os << "{\"workload\": " << json_string(workload) << ", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i
       << ", \"name\": " << json_string(s.name)
       << ", \"layer\": " << json_string(s.layer)
       << ", \"start_us\": " << json_number(s.start_us)
       << ", \"dur_us\": " << json_number(s.dur_us)
       << ", \"parent\": " << s.parent << ", \"rid\": " << s.rid << "}";
  }
  os << "\n]}\n";
}

// ---- host facts --------------------------------------------------------------

/// Total bytes of the unified/data caches at `level` across the machine,
/// counting each shared instance once (sysfs shared_cpu_list identifies
/// it). 0 when sysfs does not say.
inline std::uint64_t total_cache_bytes(int level) {
  namespace fs = std::filesystem;
  auto read = [](const fs::path& p) {
    std::ifstream is(p);
    std::string s;
    std::getline(is, s);
    return s;
  };
  std::set<std::string> seen;
  std::uint64_t total = 0;
  const long ncpu = sysconf(_SC_NPROCESSORS_ONLN);
  for (long cpu = 0; cpu < ncpu; ++cpu) {
    const fs::path base = "/sys/devices/system/cpu/cpu" +
                          std::to_string(cpu) + "/cache";
    std::error_code ec;
    for (const auto& dir : fs::directory_iterator(base, ec)) {
      if (dir.path().filename().string().rfind("index", 0) != 0) continue;
      if (read(dir.path() / "level") != std::to_string(level)) continue;
      if (read(dir.path() / "type") == "Instruction") continue;
      const std::string shared = read(dir.path() / "shared_cpu_list");
      if (!seen.insert(shared).second) continue;
      const std::string size = read(dir.path() / "size");  // e.g. "2048K"
      std::uint64_t bytes = std::strtoull(size.c_str(), nullptr, 10);
      if (!size.empty() && size.back() == 'K') bytes <<= 10;
      if (!size.empty() && size.back() == 'M') bytes <<= 20;
      total += bytes;
    }
  }
  return total;
}

/// CPU time the hypervisor took from this VM ("steal" in /proc/stat), as a
/// share of all CPU time since construction. 0 where /proc/stat is absent.
class StealMeter {
 public:
  StealMeter() : start_(read()) {}
  [[nodiscard]] double share() const {
    const Jiffies now = read();
    const double total = now.total - start_.total;
    return total > 0 ? (now.steal - start_.steal) / total : 0.0;
  }

 private:
  struct Jiffies {
    double steal = 0;
    double total = 0;
  };
  static Jiffies read() {
    std::ifstream is("/proc/stat");
    std::string cpu;
    double v[8] = {};  // user nice system idle iowait irq softirq steal
    is >> cpu;
    for (double& x : v) is >> x;
    Jiffies j;
    j.steal = v[7];
    for (const double x : v) j.total += x;
    return j;
  }
  Jiffies start_;
};

}  // namespace e2e
