#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

namespace janus {
namespace obs {

void Histogram::Record(std::int64_t value) {
  if (value < 0) value = 0;
  buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  // min/max: CAS loops, first Record seeds both. `count_` is bumped last
  // with release so a reader that observes count > 0 also observes a
  // seeded min/max.
  if (count_.load(std::memory_order_relaxed) == 0) {
    std::int64_t expected = 0;
    min_.compare_exchange_strong(expected, value, std::memory_order_relaxed);
  }
  std::int64_t seen_min = min_.load(std::memory_order_relaxed);
  while (value < seen_min &&
         !min_.compare_exchange_weak(seen_min, value,
                                     std::memory_order_relaxed)) {
  }
  std::int64_t seen_max = max_.load(std::memory_order_relaxed);
  while (value > seen_max &&
         !max_.compare_exchange_weak(seen_max, value,
                                     std::memory_order_relaxed)) {
  }
  count_.fetch_add(1, std::memory_order_release);
}

std::int64_t Histogram::Min() const {
  return Count() > 0 ? min_.load(std::memory_order_relaxed) : 0;
}

std::int64_t Histogram::Max() const {
  return Count() > 0 ? max_.load(std::memory_order_relaxed) : 0;
}

double Histogram::Mean() const {
  const std::int64_t count = Count();
  return count > 0 ? static_cast<double>(Sum()) / static_cast<double>(count)
                   : 0.0;
}

int Histogram::BucketFor(std::int64_t value) {
  if (value <= 0) return 0;
  const int width = std::bit_width(static_cast<std::uint64_t>(value));
  return std::min(width, kNumBuckets - 1);
}

std::int64_t Histogram::BucketLowerBound(int bucket) {
  if (bucket <= 0) return 0;
  return std::int64_t{1} << (bucket - 1);
}

std::int64_t Histogram::BucketUpperBound(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket >= 63) return std::numeric_limits<std::int64_t>::max();
  return (std::int64_t{1} << bucket) - 1;
}

std::int64_t Histogram::Percentile(double p) const {
  const std::int64_t count = count_.load(std::memory_order_acquire);
  if (count <= 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the requested percentile, 1-based (nearest-rank definition).
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(p / 100.0 *
                                             static_cast<double>(count))));
  std::int64_t cumulative = 0;
  for (int bucket = 0; bucket < kNumBuckets; ++bucket) {
    const std::int64_t in_bucket =
        buckets_[bucket].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    // Interpolate by rank position inside the bucket's value range, then
    // clamp to the observed extremes so e.g. a single-valued histogram
    // reports that exact value at every percentile.
    const std::int64_t lower = BucketLowerBound(bucket);
    const std::int64_t upper = BucketUpperBound(bucket);
    const double fraction =
        in_bucket > 1 ? static_cast<double>(rank - cumulative - 1) /
                            static_cast<double>(in_bucket - 1)
                      : 1.0;
    const double interpolated =
        static_cast<double>(lower) +
        fraction * static_cast<double>(upper - lower);
    const std::int64_t result = static_cast<std::int64_t>(interpolated);
    return std::clamp(result, Min(), Max());
  }
  return Max();
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked so late recorders (thread exits, atexit exporters) always find
  // a live registry.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  const MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  const MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  const MutexLock lock(mu_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second.get() : nullptr;
}

Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  const MutexLock lock(mu_);
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second.get() : nullptr;
}

std::vector<std::pair<std::string, std::int64_t>>
MetricsRegistry::CounterValues() const {
  const MutexLock lock(mu_);
  std::vector<std::pair<std::string, std::int64_t>> values;
  values.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    values.emplace_back(name, counter->Value());
  }
  return values;
}

std::vector<std::string> MetricsRegistry::HistogramNames() const {
  const MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) names.push_back(name);
  return names;
}

namespace {

// Appends one formatted "name count=... mean=... p50=..." line.
void AppendHistogramLine(std::string& out, const std::string& name,
                         const Histogram& histogram) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-32s count=%lld mean=%.0f p50=%lld p95=%lld p99=%lld "
                "max=%lld\n",
                name.c_str(), static_cast<long long>(histogram.Count()),
                histogram.Mean(),
                static_cast<long long>(histogram.Percentile(50)),
                static_cast<long long>(histogram.Percentile(95)),
                static_cast<long long>(histogram.Percentile(99)),
                static_cast<long long>(histogram.Max()));
  out += line;
}

}  // namespace

std::string MetricsRegistry::TextReport() const {
  return TextReportForPrefix("");
}

std::string MetricsRegistry::TextReportForPrefix(
    std::string_view prefix) const {
  std::string out;
  for (const auto& [name, value] : CounterValues()) {
    if (name.rfind(prefix, 0) != 0) continue;
    char line[192];
    std::snprintf(line, sizeof(line), "%-32s %lld\n", name.c_str(),
                  static_cast<long long>(value));
    out += line;
  }
  for (const std::string& name : HistogramNames()) {
    if (name.rfind(prefix, 0) != 0) continue;
    const Histogram* histogram = FindHistogram(name);
    if (histogram != nullptr) AppendHistogramLine(out, name, *histogram);
  }
  return out;
}

void MetricsRegistry::ResetForTesting() {
  const MutexLock lock(mu_);
  counters_.clear();
  histograms_.clear();
}

}  // namespace obs
}  // namespace janus
