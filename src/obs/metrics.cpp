#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/trace.hpp"  // json_escape, json_number
#include "util/env.hpp"
#include "util/lock_ranks.hpp"
#include "util/mutex.hpp"

namespace mpas::obs {

namespace {

std::string& metrics_session_path() {
  static std::string path;
  return path;
}

util::Mutex& metrics_session_mutex() {
  static util::Mutex m{"obs.metrics_session",
                       util::lockrank::kMetricsSession};
  return m;
}

}  // namespace

int Histogram::bucket_index(double value) {
  if (!(value > 0.0)) return 0;  // v <= 0 and NaN collapse to bucket 0
  const int e = std::ilogb(value);  // floor(log2(value))
  const int index = e + kZeroOffset + 1;
  if (index < 1) return 0;
  if (index > kBuckets - 1) return kBuckets - 1;
  return index;
}

double Histogram::bucket_lower_edge(int index) {
  if (index <= 0) return 0.0;
  return std::ldexp(1.0, index - 1 - kZeroOffset);
}

double Histogram::quantile_lower_bound(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += bucket_count(i);
    if (seen > target) return bucket_lower_edge(i);
  }
  return bucket_lower_edge(kBuckets - 1);
}

double Histogram::bucket_upper_edge(int index) {
  if (index <= 0) return bucket_lower_edge(1);
  if (index >= kBuckets - 1) return 2.0 * bucket_lower_edge(kBuckets - 1);
  return bucket_lower_edge(index + 1);
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Target rank on the 0-based sorted-sample axis, located in its bucket;
  // the bucket's samples are assumed spread uniformly across the bucket,
  // each occupying a rank-interval of width 1 centred on rank + 0.5.
  const double rank = q * static_cast<double>(n - 1);
  double seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const double c = static_cast<double>(bucket_count(i));
    if (c == 0) continue;
    if (rank < seen + c) {
      const double lower = bucket_lower_edge(i);
      const double upper = bucket_upper_edge(i);
      const double frac = (rank - seen + 0.5) / c;
      return std::min(upper, lower + (upper - lower) * frac);
    }
    seen += c;
  }
  return bucket_upper_edge(kBuckets - 1);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked like the trace recorder: offload/pool destructors may publish
  // metrics during static teardown. The MPAS_METRICS exit hook arms here,
  // on the first global() call of the process.
  static MetricsRegistry* registry = [] {
    auto* reg = new MetricsRegistry();
    if (const auto path = env::text("MPAS_METRICS")) {
      {
        util::LockGuard lock(metrics_session_mutex());
        metrics_session_path() = *path;
      }
      std::atexit([] { write_metrics_now(); });
    }
    return reg;
  }();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  util::LockGuard lock(mutex_);
  return counters_[name];  // std::map: node stability keeps pointers valid
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  util::LockGuard lock(mutex_);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  util::LockGuard lock(mutex_);
  return histograms_[name];
}

bool MetricsRegistry::contains(const std::string& name) const {
  util::LockGuard lock(mutex_);
  return counters_.count(name) > 0 || gauges_.count(name) > 0 ||
         histograms_.count(name) > 0;
}

namespace {

/// Histogram::quantile() logic over a copied bucket array: every read
/// comes from the same point-in-time copy, so count and quantiles agree.
double quantile_from(
    const std::array<std::uint64_t, Histogram::kBuckets>& buckets,
    std::uint64_t n, double q) {
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(n - 1);
  double seen = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    const double c = static_cast<double>(buckets[i]);
    if (c == 0) continue;
    if (rank < seen + c) {
      const double lower = Histogram::bucket_lower_edge(i);
      const double upper = Histogram::bucket_upper_edge(i);
      const double frac = (rank - seen + 0.5) / c;
      return std::min(upper, lower + (upper - lower) * frac);
    }
    seen += c;
  }
  return Histogram::bucket_upper_edge(Histogram::kBuckets - 1);
}

}  // namespace

MetricsSnapshot MetricsRegistry::snapshot() const {
  util::LockGuard lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c.value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g.value();
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramValues hv;
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
    std::uint64_t n = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      buckets[i] = h.bucket_count(i);
      n += buckets[i];
    }
    // Count derived from the copied buckets (not h.count()): a racing
    // record() bumps them at different instants and the snapshot must be
    // internally consistent.
    hv.count = n;
    hv.sum = h.sum();
    hv.mean = n == 0 ? 0.0 : hv.sum / static_cast<double>(n);
    hv.p50 = quantile_from(buckets, n, 0.50);
    hv.p95 = quantile_from(buckets, n, 0.95);
    hv.p99 = quantile_from(buckets, n, 0.99);
    for (int i = 0; i < Histogram::kBuckets; ++i)
      if (buckets[i] != 0)
        hv.buckets.emplace_back(Histogram::bucket_lower_edge(i), buckets[i]);
    snap.histograms.emplace(name, std::move(hv));
  }
  return snap;
}

Table MetricsRegistry::to_table() const {
  const MetricsSnapshot snap = snapshot();
  Table table({"metric", "kind", "value", "mean", "p50", "p95", "p99"});
  for (const auto& [name, v] : snap.counters)
    table.add_row({name, "counter", std::to_string(v), "-", "-", "-", "-"});
  for (const auto& [name, v] : snap.gauges)
    table.add_row({name, "gauge", Table::num(v), "-", "-", "-", "-"});
  for (const auto& [name, h] : snap.histograms)
    table.add_row({name, "histogram", std::to_string(h.count),
                   Table::num(h.mean), Table::num(h.p50), Table::num(h.p95),
                   Table::num(h.p99)});
  return table;
}

std::string MetricsRegistry::to_json() const {
  // Formatting runs on the snapshot, outside the registry mutex: the exit
  // dump must not stall (or tear against) worker threads still publishing.
  const MetricsSnapshot snap = snapshot();
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    if (!first) os << ",";
    first = false;
    os << '"' << json_escape(name) << "\":" << v;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    if (!first) os << ",";
    first = false;
    os << '"' << json_escape(name) << "\":" << json_number(v);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) os << ",";
    first = false;
    os << '"' << json_escape(name) << "\":{\"count\":" << h.count
       << ",\"sum\":" << json_number(h.sum)
       << ",\"mean\":" << json_number(h.mean)
       << ",\"p50\":" << json_number(h.p50) << ",\"p95\":" << json_number(h.p95)
       << ",\"p99\":" << json_number(h.p99) << ",\"buckets\":[";
    bool first_bucket = true;
    for (const auto& [edge, c] : h.buckets) {
      if (!first_bucket) os << ",";
      first_bucket = false;
      os << "[" << json_number(edge) << "," << c << "]";
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

std::string MetricsRegistry::to_string() const { return to_table().to_ascii(); }

void MetricsRegistry::reset() {
  util::LockGuard lock(mutex_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

// ---- environment/file session ---------------------------------------------

void start_metrics_file(std::string path) {
  (void)MetricsRegistry::global();  // ensure the registry outlives the hook
  {
    util::LockGuard lock(metrics_session_mutex());
    metrics_session_path() = std::move(path);
  }
  static bool registered = [] {
    std::atexit([] { write_metrics_now(); });
    return true;
  }();
  (void)registered;
}

std::string metrics_file_path() {
  util::LockGuard lock(metrics_session_mutex());
  return metrics_session_path();
}

void write_metrics_now() {
  std::string path;
  {
    util::LockGuard lock(metrics_session_mutex());
    path = metrics_session_path();
  }
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out.good()) return;  // never throw from an atexit handler
  out << MetricsRegistry::global().to_json() << "\n";
}

}  // namespace mpas::obs
