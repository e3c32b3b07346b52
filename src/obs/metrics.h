// Named counters and log-bucketed latency histograms.
//
// One registry absorbs the runtime's counters and phase histograms — the
// engine's Fig. 2 decision-loop counters, per-run RunMetrics, the
// specialization cache — so any layer can report through the same path
// and any consumer (Engine::StatsReport(), /metrics, tests) can query it.
// Histogram is also the per-node accumulator of the plan profiles
// (obs/profile.h), whose samples /metrics rolls up per op.
//
// Counters and histogram buckets are relaxed atomics: recording is
// wait-free and safe from pool worker threads; reads are snapshots that
// may trail concurrent writers by a few increments but never tear.
#ifndef JANUS_OBS_METRICS_H_
#define JANUS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace janus {
namespace obs {

class Counter {
 public:
  void Add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  std::int64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Log2-bucketed histogram for non-negative values (nanoseconds, bytes).
// Bucket 0 holds value 0; bucket i >= 1 holds values whose bit width is i,
// i.e. the range [2^(i-1), 2^i - 1]. Percentile queries interpolate
// linearly inside the selected bucket and clamp to the observed min/max,
// so single-valued distributions report that exact value.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  void Record(std::int64_t value);

  std::int64_t Count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  std::int64_t Min() const;  // 0 when empty
  std::int64_t Max() const;  // 0 when empty
  double Mean() const;

  // p in [0, 100]. Returns 0 when empty.
  std::int64_t Percentile(double p) const;

  void Reset();

  // Bucket geometry, exposed for tests.
  static int BucketFor(std::int64_t value);
  static std::int64_t BucketLowerBound(int bucket);
  static std::int64_t BucketUpperBound(int bucket);
  std::int64_t BucketCount(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> buckets_[kNumBuckets] = {};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{0};  // valid iff count_ > 0
  std::atomic<std::int64_t> max_{0};
};

// Name -> metric map. Returned references are stable for the registry's
// lifetime (metrics are heap-allocated and never removed except by
// ResetForTesting).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry for cross-engine metrics. Engines
  // additionally own a private registry for their counters and phase
  // histograms.
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  // nullptr when the metric does not exist yet.
  Counter* FindCounter(std::string_view name) const;
  Histogram* FindHistogram(std::string_view name) const;

  std::vector<std::pair<std::string, std::int64_t>> CounterValues() const;
  std::vector<std::string> HistogramNames() const;

  // Human-readable summary: every counter, then every histogram with
  // count / mean / p50 / p95 / p99 / max.
  std::string TextReport() const;

  // Same format, restricted to metrics whose name starts with `prefix`
  // (e.g. "cache." for the specialization-cache section of a report).
  std::string TextReportForPrefix(std::string_view prefix) const;

  // Drops every metric. Only for test isolation.
  void ResetForTesting();

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace janus

#endif  // JANUS_OBS_METRICS_H_
