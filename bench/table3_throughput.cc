// Table 3: single-machine training throughput of all 11 models under
// (A) the imperative executor, (B) JANUS, and (C) the symbolic baseline.
// Prints the same columns the paper reports: absolute throughput, the
// JANUS-over-imperative speedup (B)/(A), and the gap to the symbolic upper
// bound (B)/(C) - 1. JANUS and Symbolic run the same generated graphs, so
// their gap is small against host-load drift: after both sessions warm up,
// they are timed in kWindows alternating windows, each column is the
// configs' median window, and the gap is the median of the per-window
// ratios with their min-max.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace janus::bench {
namespace {

constexpr int kWindows = 9;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

int Run() {
  std::printf("Table 3: single-machine training throughput\n");
  std::printf("%-14s %-12s %12s %12s %12s %9s %9s %17s\n", "Model", "Unit",
              "(A) Imp.", "(B) JANUS", "(C) Sym.", "(B)/(A)", "(B)/(C)-1",
              "[min, max]");
  PrintRule(104);

  // Iteration budget per model (heavier models get fewer iterations). The
  // warmup must cover both batch shapes (every 8th batch is smaller) so
  // shape relaxation completes before measurement.
  const auto budget = [](const std::string& name) {
    if (name == "ResNet50" || name == "Inception-v3" || name == "LM" ||
        name == "pix2pix") {
      return std::pair<int, int>{10, 24};
    }
    return std::pair<int, int>{10, 48};
  };

  for (const models::ModelSpec& spec : models::ModelZoo()) {
    const auto [warmup, steps] = budget(spec.name);

    models::ModelSession imperative(spec, ImperativeConfig());
    const ThroughputResult imp = MeasureThroughput(imperative, 2, steps / 2);

    models::ModelSession janus_session(spec, JanusConfig());
    models::ModelSession symbolic(spec, SymbolicConfig());
    for (int i = 0; i < warmup; ++i) {
      janus_session.Step();
      symbolic.Step();
    }
    std::vector<double> jns, sym, gaps;
    for (int w = 0; w < kWindows; ++w) {
      jns.push_back(
          MeasureThroughput(janus_session, 0, 2 * steps).items_per_second);
      sym.push_back(MeasureThroughput(symbolic, 0, 2 * steps).items_per_second);
      gaps.push_back((jns.back() / sym.back() - 1.0) * 100.0);
    }
    std::printf(
        "%-14s %-12s %12.1f %12.1f %12.1f %8.2fx %8.1f%% [%+6.1f, %+6.1f]\n",
        spec.name.c_str(), spec.unit.c_str(), imp.items_per_second,
        Median(jns), Median(sym), Median(jns) / imp.items_per_second,
        Median(gaps), *std::min_element(gaps.begin(), gaps.end()),
        *std::max_element(gaps.begin(), gaps.end()));
    std::fflush(stdout);
  }
  PrintRule(104);
  std::printf(
      "Expected shape (paper): (B)/(A) from ~1.06x (coarse-grained CNNs) to\n"
      "~47.6x (TreeRNN); (B)/(C)-1 within a few percent of zero.\n");
  return 0;
}

}  // namespace
}  // namespace janus::bench

int main() { return janus::bench::Run(); }
