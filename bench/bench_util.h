// Shared helpers for the per-table/per-figure benchmark harnesses.
#ifndef JANUS_BENCH_BENCH_UTIL_H_
#define JANUS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/timer.h"
#include "models/zoo.h"

namespace janus::bench {

// "release" when the JANUS sources were compiled with NDEBUG, "debug"
// otherwise. Every BENCH_*.json embeds this so CI can reject timing
// numbers from unoptimized builds (google-benchmark's own
// library_build_type context field reports how libbenchmark itself was
// built, which says nothing about our code).
inline const char* BuildTypeString() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

// Calibrated per-op dispatch cost of the imperative executor, standing in
// for CPython + TF Eager overhead (~tens of microseconds per op in the
// paper's era), paid once per eager op, forward or backward. All framework
// configs share it: JANUS and the symbolic executor only pay it during
// profiling and fallbacks and in the imperative code a model keeps outside
// its converted functions, exactly as the paper's systems only pay Python
// costs outside the graph.
inline constexpr std::int64_t kEagerDispatchPenaltyNs = 30000;

// The framework configurations compared throughout the evaluation.
inline EngineOptions ImperativeConfig() {
  EngineOptions options = EngineOptions::ImperativePreset();
  options.eager_dispatch_penalty_ns = kEagerDispatchPenaltyNs;
  return options;
}

inline EngineOptions JanusConfig() {
  EngineOptions options;
  options.eager_dispatch_penalty_ns = kEagerDispatchPenaltyNs;
  return options;
}

// "Symbolic" baseline (hand-written TF graph in the paper): the same
// compiled graph executed without JANUS's speculation machinery — no
// assertion ops, immediate conversion after a single profiling run. Entry
// validation stays on (it is the feed/placeholder plumbing a hand-written
// graph would also need). This is the upper bound of Table 3 ((B)/(C)-1).
inline EngineOptions SymbolicConfig() {
  EngineOptions options;
  options.profile_threshold = 1;
  options.generator.insert_assertions = false;
  options.eager_dispatch_penalty_ns = kEagerDispatchPenaltyNs;
  return options;
}

inline EngineOptions TracingConfig() {
  EngineOptions options = EngineOptions::TracingPreset();
  options.eager_dispatch_penalty_ns = kEagerDispatchPenaltyNs;
  return options;
}

struct ThroughputResult {
  double items_per_second = 0.0;
  double seconds = 0.0;
  std::int64_t iterations = 0;
};

// Warmups (profiling + conversion), then measures wall-clock throughput.
inline ThroughputResult MeasureThroughput(models::ModelSession& session,
                                          int warmup_steps,
                                          int measure_steps) {
  for (int i = 0; i < warmup_steps; ++i) session.Step();
  Timer timer;
  for (int i = 0; i < measure_steps; ++i) session.Step();
  ThroughputResult result;
  result.seconds = timer.Seconds();
  result.iterations = measure_steps;
  result.items_per_second =
      measure_steps * session.spec().items_per_iteration / result.seconds;
  return result;
}

// Fixed-width row printing.
inline void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace janus::bench

#endif  // JANUS_BENCH_BENCH_UTIL_H_
