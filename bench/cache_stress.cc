// Specialization-cache replay stress: a heavy-tailed (Zipf) request stream
// over many conversion units, driven through an engine whose cache budget
// is deliberately too small for the working set. Reports hit / miss /
// eviction / fallback rates and cache-lookup latency percentiles. Results
// land in BENCH_cache_stress.json.
//
// The run fails (non-zero exit) if the steady-state fallback-to-imperative
// rate reaches 5% or the budget pressure produced no evictions — the two
// properties the cache subsystem exists to hold under stress.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "frontend/builtins.h"

namespace janus::bench {
namespace {

constexpr int kNumModels = 24;
constexpr int kWarmupRequests = 800;
constexpr int kSteadyRequests = 2400;
constexpr double kZipfExponent = 1.1;

// Deterministic 64-bit LCG (same constants as MMIX) so runs are replayable.
struct Lcg {
  std::uint64_t state;
  double NextUnit() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) /
           static_cast<double>(1ULL << 53);
  }
};

// Zipf sampler over [0, n): rank r drawn with weight 1 / (r+1)^s.
struct Zipf {
  std::vector<double> cumulative;
  explicit Zipf(int n) {
    cumulative.reserve(static_cast<std::size_t>(n));
    double total = 0.0;
    for (int r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cumulative.push_back(total);
    }
    for (double& c : cumulative) c /= total;
  }
  int Sample(Lcg& rng) const {
    const double u = rng.NextUnit();
    for (std::size_t r = 0; r < cumulative.size(); ++r) {
      if (u <= cumulative[r]) return static_cast<int>(r);
    }
    return static_cast<int>(cumulative.size()) - 1;
  }
};

struct Session {
  VariableStore variables;
  Rng rng{7};
  minipy::Interpreter interp{&variables, &rng};
  JanusEngine engine;

  explicit Session(EngineOptions options) : engine(&interp, options) {
    minipy::InstallBuiltins(interp);
    engine.Attach();
  }
};

EngineOptions StressOptions() {
  EngineOptions options;
  // The working set is kNumModels units; budget half of it so the Zipf
  // tail keeps evicting and regenerating.
  options.cache.max_entries = kNumModels / 2;
  options.cache.max_entries_per_key = 2;
  return options;
}

// One loss function per model, with per-model weight/batch sizes so the
// compiled artifacts differ in size (exercising the byte accounting).
void DefineModels(Session& session) {
  std::string program;
  for (int m = 0; m < kNumModels; ++m) {
    const int features = 4 + (m % 8) * 4;
    const int rows = 4 + (m % 5) * 4;
    const std::string id = std::to_string(m);
    program += "w_" + id + " = variable('w_" + id + "', zeros([" +
               std::to_string(features) + ", 1]))\n";
    program += "b_" + id + " = zeros([" + std::to_string(rows) + ", " +
               std::to_string(features) + "])\n";
    program += "def loss_" + id + "():\n    return reduce_mean(matmul(b_" +
               id + ", w_" + id + "))\n";
  }
  session.interp.Run(program);
}

void Replay(Session& session, const Zipf& zipf, Lcg& rng, int requests) {
  for (int i = 0; i < requests; ++i) {
    const int model = zipf.Sample(rng);
    session.interp.Run("optimize(loss_" + std::to_string(model) +
                       ", 0.01)\n");
  }
}

std::int64_t CounterValue(const Session& session, const char* name) {
  const obs::Counter* counter = session.engine.metrics().FindCounter(name);
  return counter != nullptr ? counter->Value() : 0;
}

int Run(const char* out_path) {
  std::printf("Specialization-cache replay stress (%d models, Zipf s=%.2f, "
              "budget %d entries)\n\n",
              kNumModels, kZipfExponent, kNumModels / 2);

  Session session(StressOptions());
  DefineModels(session);
  const Zipf zipf(kNumModels);
  Lcg rng{2026};

  // Warmup: profiling runs + first generations for the popular head.
  Replay(session, zipf, rng, kWarmupRequests);
  const EngineStats warm = session.engine.stats();
  const std::int64_t warm_hits = CounterValue(session, "cache.hits");
  const std::int64_t warm_misses = CounterValue(session, "cache.misses");
  const std::int64_t warm_evictions =
      CounterValue(session, "cache.evictions");
  const std::int64_t warm_insertions =
      CounterValue(session, "cache.insertions");

  // Steady state: the measured window.
  Replay(session, zipf, rng, kSteadyRequests);
  const EngineStats stats = session.engine.stats();

  const std::int64_t hits = CounterValue(session, "cache.hits") - warm_hits;
  const std::int64_t misses =
      CounterValue(session, "cache.misses") - warm_misses;
  const std::int64_t evictions =
      CounterValue(session, "cache.evictions") - warm_evictions;
  const std::int64_t insertions =
      CounterValue(session, "cache.insertions") - warm_insertions;
  const std::int64_t fallbacks = stats.fallbacks - warm.fallbacks;
  const std::int64_t churn = CounterValue(session, "cache.churn_events");
  const std::int64_t despecializations =
      CounterValue(session, "cache.despecializations");

  // cache.hits counts every successful graph run, including the run right
  // after a regeneration insert; the resident-hit rate excludes those.
  const double hit_rate = static_cast<double>(hits - insertions) /
                          static_cast<double>(kSteadyRequests);
  const double eviction_rate =
      insertions > 0
          ? static_cast<double>(evictions) / static_cast<double>(insertions)
          : 0.0;
  const double fallback_rate = static_cast<double>(fallbacks) /
                               static_cast<double>(kSteadyRequests);

  const obs::Histogram* lookup =
      session.engine.metrics().FindHistogram("cache.lookup_ns");
  const std::int64_t lookup_p50 =
      lookup != nullptr ? lookup->Percentile(50) : 0;
  const std::int64_t lookup_p99 =
      lookup != nullptr ? lookup->Percentile(99) : 0;

  std::printf("steady state over %d requests:\n", kSteadyRequests);
  std::printf("  %-26s %8lld (resident-hit rate %.3f)\n", "graph runs",
              static_cast<long long>(hits), hit_rate);
  std::printf("  %-26s %8lld validated-none, %lld regenerations\n",
              "misses", static_cast<long long>(misses),
              static_cast<long long>(insertions));
  std::printf("  %-26s %8lld (per insertion %.3f)\n", "evictions",
              static_cast<long long>(evictions), eviction_rate);
  std::printf("  %-26s %8lld (rate %.4f)\n", "fallbacks",
              static_cast<long long>(fallbacks), fallback_rate);
  std::printf("  %-26s %8lld\n", "churn events",
              static_cast<long long>(churn));
  std::printf("  %-26s %8lld\n", "despecializations",
              static_cast<long long>(despecializations));
  std::printf("  %-26s %8lld / %lld ns\n", "lookup p50 / p99",
              static_cast<long long>(lookup_p50),
              static_cast<long long>(lookup_p99));

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"janus_build_type\": \"%s\",\n"
               "  \"requests\": %d,\n"
               "  \"models\": %d,\n"
               "  \"entry_budget\": %d,\n"
               "  \"hits\": %lld,\n"
               "  \"misses\": %lld,\n"
               "  \"evictions\": %lld,\n"
               "  \"insertions\": %lld,\n"
               "  \"fallbacks\": %lld,\n"
               "  \"churn_events\": %lld,\n"
               "  \"despecializations\": %lld,\n"
               "  \"hit_rate\": %.4f,\n"
               "  \"eviction_rate\": %.4f,\n"
               "  \"fallback_rate\": %.4f,\n"
               "  \"lookup_p50_ns\": %lld,\n"
               "  \"lookup_p99_ns\": %lld\n"
               "}\n",
               BuildTypeString(), kSteadyRequests, kNumModels,
               kNumModels / 2,
               static_cast<long long>(hits), static_cast<long long>(misses),
               static_cast<long long>(evictions),
               static_cast<long long>(insertions),
               static_cast<long long>(fallbacks),
               static_cast<long long>(churn),
               static_cast<long long>(despecializations), hit_rate,
               eviction_rate, fallback_rate,
               static_cast<long long>(lookup_p50),
               static_cast<long long>(lookup_p99));
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);

  // The properties the subsystem must hold under budget stress.
  int failed = 0;
  if (eviction_rate < 0.30) {
    std::fprintf(stderr,
                 "FAIL: eviction rate %.3f < 0.30 — budget pressure did "
                 "not materialize\n",
                 eviction_rate);
    failed = 1;
  }
  if (fallback_rate >= 0.05) {
    std::fprintf(stderr,
                 "FAIL: steady-state fallback rate %.4f >= 0.05\n",
                 fallback_rate);
    failed = 1;
  }
  if (failed == 0) std::printf("all stress criteria held\n");
  return failed;
}

}  // namespace
}  // namespace janus::bench

int main(int argc, char** argv) {
  return janus::bench::Run(argc > 1 ? argv[1]
                                    : "BENCH_cache_stress.json");
}
