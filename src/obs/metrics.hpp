// Process-wide metrics: named counters, gauges, and fixed-bucket log-scale
// histograms, rendered through util/table so a metrics report reads like
// every other table in the repo.
//
// Counters/gauges are registered once (pointer-stable; a hot path resolves
// its Counter* in a constructor and bumps an atomic per event — no map
// lookup per call, mirroring profiling::ProfileHandle). Histograms use 64
// base-2 buckets so recording is an ilogb + one atomic increment, and two
// histograms are always mergeable bucket-by-bucket.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/annotations.hpp"
#include "util/lock_ranks.hpp"
#include "util/mutex.hpp"
#include "util/table.hpp"

namespace mpas::obs {

class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) {
    // fetch_add on atomic<double> needs C++20 + lock-free support; a CAS
    // loop is portable and these are low-rate bookkeeping sites.
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Log-scale (base-2) histogram with a fixed bucket layout:
/// bucket i (1 <= i < kBuckets-1) covers [2^(i-1-kZeroOffset), 2^(i-kZeroOffset));
/// bucket 0 collects v <= 0 and underflow, the last bucket overflow.
/// With kZeroOffset = 30 the resolvable range is ~[2^-30, 2^32) — nanoseconds
/// to gigabytes in one layout.
class Histogram {
 public:
  static constexpr int kBuckets = 64;
  static constexpr int kZeroOffset = 30;

  /// Bucket index a value lands in (pure function — tested directly).
  [[nodiscard]] static int bucket_index(double value);
  /// Inclusive lower edge of bucket i (bucket 0 reports 0).
  [[nodiscard]] static double bucket_lower_edge(int index);

  void record(double value) {
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // Relaxed CAS sum: histograms are statistics, not synchronization.
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + value,
                                       std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const {
    const auto n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  [[nodiscard]] std::uint64_t bucket_count(int index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }
  /// Smallest bucket lower edge q of the data's quantile (0 <= q <= 1).
  [[nodiscard]] double quantile_lower_bound(double q) const;

  /// Interpolated quantile estimate (0 <= q <= 1): the target rank
  /// q*(count-1) is located in its bucket and the value is interpolated
  /// assuming the bucket's samples are spread uniformly across it. Exact
  /// when a bucket holds one distinct value at its midpoint-equivalent
  /// rank; always within one bucket width of the true sample quantile.
  [[nodiscard]] double quantile(double q) const;

  /// Inclusive upper edge of bucket i (the overflow bucket reports twice
  /// its lower edge so interpolation stays finite).
  [[nodiscard]] static double bucket_upper_edge(int index);

  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// Point-in-time copy of every metric, taken under one mutex acquisition.
/// Exports format from this instead of the live registry: a dump racing
/// still-running worker threads (the MPAS_METRICS atexit hook) otherwise
/// re-reads each atomic several times while formatting and can render a
/// histogram whose count, quantiles, and buckets disagree.
struct MetricsSnapshot {
  struct HistogramValues {
    std::uint64_t count = 0;
    double sum = 0;
    double mean = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    /// Non-empty buckets as (lower_edge, count) pairs.
    std::vector<std::pair<double, std::uint64_t>> buckets;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramValues> histograms;
};

class MetricsRegistry {
 public:
  /// The process-wide registry the runtime layers publish into.
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create; returned pointers are stable for the registry's life.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Copy every metric under one mutex acquisition. Histogram statistics
  /// (count, quantiles) are derived from the copied buckets, so each
  /// histogram's numbers are mutually consistent even while workers
  /// record concurrently.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// One row per metric: name, kind, value/count, mean, interpolated
  /// p50/p95/p99 estimates.
  [[nodiscard]] Table to_table() const;
  [[nodiscard]] std::string to_string() const;

  /// JSON rendering of every metric (counters, gauges, histograms with
  /// count/sum/mean, interpolated p50/p95/p99, and non-empty buckets as
  /// [lower_edge, count] pairs) — what MPAS_METRICS dumps at exit and the
  /// bench reports embed.
  [[nodiscard]] std::string to_json() const;

  /// Zero every metric (registrations survive, pointers stay valid).
  void reset();

 private:
  mutable util::Mutex mutex_{"obs.metrics", util::lockrank::kMetrics};
  // Map nodes are pointer-stable; the mutex guards the maps' structure.
  // Metric values themselves are atomics, updated lock-free through the
  // references counter()/gauge()/histogram() hand out.
  std::map<std::string, Counter> counters_ MPAS_GUARDED_BY(mutex_);
  std::map<std::string, Gauge> gauges_ MPAS_GUARDED_BY(mutex_);
  std::map<std::string, Histogram> histograms_ MPAS_GUARDED_BY(mutex_);
};

// ---- environment/file session ---------------------------------------------
// Zero-code-change metrics capture, mirroring the MPAS_TRACE hook in
// obs/trace.hpp: if the MPAS_METRICS environment variable names a file, the
// global registry's JSON is written there at process exit. The hook arms on
// the first MetricsRegistry::global() call, which every instrumented
// runtime layer makes.

/// Arrange for the global registry's JSON to be written to `path` at
/// process exit (and on write_metrics_now()). Called automatically when
/// MPAS_METRICS is set.
void start_metrics_file(std::string path);

/// Path of the active metrics session ("" when none).
std::string metrics_file_path();

/// Flush the global registry to the session file immediately. No-op
/// without an active session.
void write_metrics_now();

}  // namespace mpas::obs
