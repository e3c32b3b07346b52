// Summary statistics used by the zoo step benchmark. Header-only so the
// benchmark binary's --check-helpers mode can test them on fixed inputs.
#ifndef JANUS_E2EBENCH_STATS_H_
#define JANUS_E2EBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace e2ebench {

// Geometric mean of positive values; 0 when `values` is empty or holds a
// value <= 0 (a geomean is undefined there, and 0 never passes for a rate).
inline double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
inline std::size_t PercentileRank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

// Samples strictly above the nearest-rank percentile: a percentile is only
// reported as trustworthy when this is at least 10.
inline std::size_t SamplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - PercentileRank(n, p);
}

// Nearest-rank percentile (no interpolation, so the result is always one of
// the samples); 0 for an empty input.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t rank = PercentileRank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace e2ebench

#endif  // JANUS_E2EBENCH_STATS_H_
