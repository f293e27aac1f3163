#include "bench_harness/report.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/trace.hpp"  // json_escape, json_number
#include "util/error.hpp"

namespace mpas::bench_harness {

using obs::json_number;

namespace {

// ---- writing ----------------------------------------------------------------

std::string str(const std::string& s) {
  return '"' + obs::json_escape(s) + '"';
}

void write_stats(std::ostringstream& os, const SampleStats& s) {
  os << "{\"count\":" << s.count << ",\"min\":" << json_number(s.min)
     << ",\"max\":" << json_number(s.max)
     << ",\"mean\":" << json_number(s.mean)
     << ",\"median\":" << json_number(s.median)
     << ",\"stddev\":" << json_number(s.stddev)
     << ",\"p25\":" << json_number(s.p25) << ",\"p75\":" << json_number(s.p75)
     << ",\"iqr\":" << json_number(s.iqr) << ",\"outliers\":" << s.outliers
     << "}";
}

void write_string_map(std::ostringstream& os,
                      const std::map<std::string, double>& map) {
  os << "{";
  bool first = true;
  for (const auto& [key, value] : map) {
    if (!first) os << ",";
    first = false;
    os << str(key) << ":" << json_number(value);
  }
  os << "}";
}

void write_attribution(std::ostringstream& os, const AttributionReport& a) {
  os << "{\"track\":" << str(a.track_name)
     << ",\"span_us\":" << json_number(a.span_us)
     << ",\"imbalance\":" << json_number(a.imbalance)
     << ",\"overlap_efficiency\":" << json_number(a.overlap_efficiency)
     << ",\"transfer_total_us\":" << json_number(a.transfer_total_us)
     << ",\"transfer_exposed_us\":" << json_number(a.transfer_exposed_us)
     << ",\"lanes\":[";
  for (std::size_t i = 0; i < a.lanes.size(); ++i) {
    const LaneUsage& lane = a.lanes[i];
    if (i) os << ",";
    os << "{\"lane\":" << lane.lane << ",\"name\":" << str(lane.name)
       << ",\"role\":" << str(to_string(lane.role))
       << ",\"busy_us\":" << json_number(lane.busy_us) << "}";
  }
  os << "],\"per_pattern_us\":";
  write_string_map(os, a.per_pattern_us);
  os << ",\"per_kernel_us\":";
  write_string_map(os, a.per_kernel_us);
  os << ",\"devices\":[";
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    const DeviceUtilization& d = a.devices[i];
    if (i) os << ",";
    os << "{\"device\":" << str(d.device)
       << ",\"busy_s\":" << json_number(d.busy_s)
       << ",\"flops\":" << json_number(d.flops)
       << ",\"bytes\":" << json_number(d.bytes)
       << ",\"achieved_gflops\":" << json_number(d.achieved_gflops)
       << ",\"peak_gflops\":" << json_number(d.peak_gflops)
       << ",\"achieved_gbs\":" << json_number(d.achieved_gbs)
       << ",\"peak_gbs\":" << json_number(d.peak_gbs)
       << ",\"flop_utilization\":" << json_number(d.flop_utilization)
       << ",\"bandwidth_utilization\":" << json_number(d.bandwidth_utilization)
       << ",\"roofline_utilization\":" << json_number(d.roofline_utilization)
       << "}";
  }
  os << "]}";
}

// ---- reading ----------------------------------------------------------------

Direction direction_from(const std::string& s) {
  if (s == "lower") return Direction::LowerIsBetter;
  if (s == "higher") return Direction::HigherIsBetter;
  if (s == "info") return Direction::Informational;
  throw std::runtime_error("bench report: unknown direction '" + s + "'");
}

SeriesKind kind_from(const std::string& s) {
  if (s == "modeled") return SeriesKind::Modeled;
  if (s == "measured") return SeriesKind::Measured;
  throw std::runtime_error("bench report: unknown series kind '" + s + "'");
}

LaneRole role_from(const std::string& s) {
  if (s == "compute") return LaneRole::Compute;
  if (s == "transfer") return LaneRole::Transfer;
  if (s == "comm") return LaneRole::Comm;
  if (s == "other") return LaneRole::Other;
  throw std::runtime_error("bench report: unknown lane role '" + s + "'");
}

SampleStats stats_from(const json::Value& v) {
  SampleStats s;
  s.count = static_cast<int>(v.at("count").as_number());
  s.min = v.at("min").as_number();
  s.max = v.at("max").as_number();
  s.mean = v.at("mean").as_number();
  s.median = v.at("median").as_number();
  s.stddev = v.at("stddev").as_number();
  s.p25 = v.at("p25").as_number();
  s.p75 = v.at("p75").as_number();
  s.iqr = v.at("iqr").as_number();
  s.outliers = static_cast<int>(v.at("outliers").as_number());
  return s;
}

std::map<std::string, double> string_map_from(const json::Value& v) {
  std::map<std::string, double> out;
  for (const auto& [key, value] : v.as_object())
    out.emplace(key, value.as_number());
  return out;
}

AttributionReport attribution_from(const json::Value& v) {
  AttributionReport a;
  a.track_name = v.at("track").as_string();
  a.span_us = v.at("span_us").as_number();
  a.imbalance = v.at("imbalance").as_number();
  a.overlap_efficiency = v.at("overlap_efficiency").as_number();
  a.transfer_total_us = v.at("transfer_total_us").as_number();
  a.transfer_exposed_us = v.at("transfer_exposed_us").as_number();
  for (const auto& lv : v.at("lanes").as_array()) {
    LaneUsage lane;
    lane.lane = static_cast<int>(lv.at("lane").as_number());
    lane.name = lv.at("name").as_string();
    lane.role = role_from(lv.at("role").as_string());
    lane.busy_us = lv.at("busy_us").as_number();
    a.lanes.push_back(std::move(lane));
  }
  a.per_pattern_us = string_map_from(v.at("per_pattern_us"));
  a.per_kernel_us = string_map_from(v.at("per_kernel_us"));
  for (const auto& dv : v.at("devices").as_array()) {
    DeviceUtilization d;
    d.device = dv.at("device").as_string();
    d.busy_s = dv.at("busy_s").as_number();
    d.flops = dv.at("flops").as_number();
    d.bytes = dv.at("bytes").as_number();
    d.achieved_gflops = dv.at("achieved_gflops").as_number();
    d.peak_gflops = dv.at("peak_gflops").as_number();
    d.achieved_gbs = dv.at("achieved_gbs").as_number();
    d.peak_gbs = dv.at("peak_gbs").as_number();
    d.flop_utilization = dv.at("flop_utilization").as_number();
    d.bandwidth_utilization = dv.at("bandwidth_utilization").as_number();
    d.roofline_utilization = dv.at("roofline_utilization").as_number();
    a.devices.push_back(std::move(d));
  }
  return a;
}

}  // namespace

const char* to_string(Direction d) {
  switch (d) {
    case Direction::LowerIsBetter: return "lower";
    case Direction::HigherIsBetter: return "higher";
    case Direction::Informational: return "info";
  }
  return "?";
}

const char* to_string(SeriesKind k) {
  switch (k) {
    case SeriesKind::Modeled: return "modeled";
    case SeriesKind::Measured: return "measured";
  }
  return "?";
}

void BenchReport::add_value(const std::string& name, double value,
                            const std::string& unit, SeriesKind kind,
                            Direction direction) {
  add_samples(name, {value}, unit, kind, direction);
}

void BenchReport::add_samples(const std::string& name,
                              std::vector<double> samples,
                              const std::string& unit, SeriesKind kind,
                              Direction direction) {
  MetricSeries s;
  s.name = name;
  s.unit = unit;
  s.kind = kind;
  s.direction = direction;
  s.stats = SampleStats::from_samples(samples);
  s.samples = std::move(samples);
  add_series(std::move(s));
}

void BenchReport::add_series(MetricSeries series) {
  MPAS_CHECK_MSG(find_series(series.name) == nullptr,
                 "duplicate bench series '" << series.name << "'");
  series_.push_back(std::move(series));
}

void BenchReport::add_table(const Table& table, const std::string& name) {
  TableDump dump;
  dump.name = name;
  dump.headers = table.headers();
  dump.rows = table.rows();
  tables_.push_back(std::move(dump));
}

void BenchReport::add_attribution(AttributionReport attribution) {
  attributions_.push_back(std::move(attribution));
}

const MetricSeries* BenchReport::find_series(const std::string& name) const {
  for (const MetricSeries& s : series_)
    if (s.name == name) return &s;
  return nullptr;
}

std::string BenchReport::to_json() const {
  std::ostringstream os;
  os << "{\"schema_version\":" << kReportSchemaVersion
     << ",\"suite\":" << str(suite_)
     << ",\"environment\":" << environment_.to_json();

  os << ",\"series\":[";
  for (std::size_t i = 0; i < series_.size(); ++i) {
    const MetricSeries& s = series_[i];
    if (i) os << ",";
    os << "{\"name\":" << str(s.name) << ",\"unit\":" << str(s.unit)
       << ",\"kind\":" << str(to_string(s.kind))
       << ",\"direction\":" << str(to_string(s.direction)) << ",\"samples\":[";
    for (std::size_t j = 0; j < s.samples.size(); ++j) {
      if (j) os << ",";
      os << json_number(s.samples[j]);
    }
    os << "],\"stats\":";
    write_stats(os, s.stats);
    os << "}";
  }
  os << "]";

  os << ",\"tables\":[";
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    const TableDump& t = tables_[i];
    if (i) os << ",";
    os << "{\"name\":" << str(t.name) << ",\"headers\":[";
    for (std::size_t j = 0; j < t.headers.size(); ++j) {
      if (j) os << ",";
      os << str(t.headers[j]);
    }
    os << "],\"rows\":[";
    for (std::size_t r = 0; r < t.rows.size(); ++r) {
      if (r) os << ",";
      os << "[";
      for (std::size_t c = 0; c < t.rows[r].size(); ++c) {
        if (c) os << ",";
        os << str(t.rows[r][c]);
      }
      os << "]";
    }
    os << "]}";
  }
  os << "]";

  os << ",\"attributions\":[";
  for (std::size_t i = 0; i < attributions_.size(); ++i) {
    if (i) os << ",";
    write_attribution(os, attributions_[i]);
  }
  os << "]}";
  return os.str();
}

void BenchReport::write_json(const std::string& path) const {
  std::ofstream out(path);
  MPAS_CHECK_MSG(out.good(), "cannot open bench report file " << path);
  out << to_json() << "\n";
}

BenchReport BenchReport::from_json(const json::Value& doc) {
  const int version = static_cast<int>(doc.at("schema_version").as_number());
  if (version != kReportSchemaVersion)
    throw std::runtime_error("bench report: unsupported schema_version " +
                             std::to_string(version));
  BenchReport report(doc.at("suite").as_string());

  report.environment_ = EnvFingerprint::from_json(doc.at("environment"));

  for (const auto& sv : doc.at("series").as_array()) {
    MetricSeries s;
    s.name = sv.at("name").as_string();
    s.unit = sv.at("unit").as_string();
    s.kind = kind_from(sv.at("kind").as_string());
    s.direction = direction_from(sv.at("direction").as_string());
    for (const auto& sample : sv.at("samples").as_array())
      s.samples.push_back(sample.as_number());
    s.stats = stats_from(sv.at("stats"));
    report.series_.push_back(std::move(s));
  }

  for (const auto& tv : doc.at("tables").as_array()) {
    TableDump t;
    t.name = tv.at("name").as_string();
    for (const auto& h : tv.at("headers").as_array())
      t.headers.push_back(h.as_string());
    for (const auto& row : tv.at("rows").as_array()) {
      std::vector<std::string> cells;
      for (const auto& cell : row.as_array())
        cells.push_back(cell.as_string());
      t.rows.push_back(std::move(cells));
    }
    report.tables_.push_back(std::move(t));
  }

  for (const auto& av : doc.at("attributions").as_array())
    report.attributions_.push_back(attribution_from(av));
  return report;
}

BenchReport BenchReport::read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good())
    throw std::runtime_error("cannot read bench report file " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return from_json(json::parse(buffer.str()));
}

}  // namespace mpas::bench_harness
