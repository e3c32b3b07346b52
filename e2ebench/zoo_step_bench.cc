// End-to-end training-step benchmark over the JANUS model zoo, with an
// outside-in per-layer split.
//
//   zoo_step_bench --workload zoo_fine|zoo_coarse|zoo_cold --seed N
//                  --seconds S --trace 0|1 [--trace-out PATH] [--break-gate]
//   zoo_step_bench --check-helpers
//
// Every model runs through models::ModelSession with default EngineOptions
// (no eager dispatch penalty), driven as a closed loop by this thread. The
// untraced run (--trace 0) reports the end-to-end metrics; the traced run
// (--trace 1) splits the step into layers from the outside only: spans this
// file records around calls into public functions (feed, the `optimize` /
// `janus_function` builtins, the call interceptor) plus counter and
// histogram deltas read by name from JanusEngine::metrics() and the global
// registry. A name the program no longer exports is reported as absent.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. See README.md for the metric definitions.
#include <sched.h>
#include <time.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "frontend/interpreter.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "stats.h"

namespace e2ebench {
namespace {

namespace minipy = janus::minipy;
using janus::models::ModelSession;
using janus::models::ModelSpec;

// Sessions use kSubSeeds seeds derived from the run's seed (see SessionSeed),
// so seed-dependent inputs such as tree shapes average out within a run.
constexpr int kSubSeeds = 4;
// A zoo_cold session: 3 profiling steps, generation, the step-8 relaxation
// and 11 graph steps, so its median step is a graph step rather than the
// boundary between the imperative and graph modes.
constexpr int kColdSteps = 16;
constexpr int kGateSteps = kColdSteps;  // the gate is the cold reference
constexpr int kConvertSteps = 16;  // steady setup: through the relaxation
constexpr int kWarmupSteps = 64;   // then untimed, past guard promotion
constexpr int kChunk = 8;          // image feeds halve the batch every 8th step
// Steady setup samples: each derived seed kSetupPerSubSeed times, so the
// seed-dependent part of conversion (tree shapes) weighs the same in every
// run, and a burst of host noise moves only a few samples.
constexpr int kSetupPerSubSeed = 4;
constexpr int kSetupSamples = kSubSeeds * kSetupPerSubSeed;
// Round-robin rounds of one slice per model. Every other round starts with
// a setup sample; with the one that builds the measured sessions, that
// makes kSetupSamples.
constexpr int kRounds = 2 * (kSetupSamples - 1);
constexpr std::size_t kMinSamples = 200;  // >= 10 samples beyond p95
constexpr int kOpsProbeSteps = 64;
constexpr int kHandoffProbes = 2000;
constexpr double kTolerance = 5e-2;  // relative, as in the zoo's own tests

// "release" when the JANUS sources were compiled with NDEBUG.
const char* BuildTypeString() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPUs this process may run on, as `nproc` prints.
int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

std::int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct Workload {
  std::string name;
  bool cold = false;
  std::vector<std::string> models;
};

std::vector<Workload> Workloads() {
  std::vector<std::string> all;
  for (const ModelSpec& spec : janus::models::ModelZoo()) {
    all.push_back(spec.name);
  }
  return {
      {"zoo_fine", false,
       {"LSTM", "TreeRNN", "TreeLSTM", "A3C", "PPO", "AN", "pix2pix"}},
      {"zoo_coarse", false, {"LeNet", "ResNet50", "Inception-v3", "LM"}},
      {"zoo_cold", true, all},
  };
}

// ---------------------------------------------------------------------------
// Spans, kept in memory and written as one Chrome trace at the end.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  int model = 0;    // index into the workload's model list
  int parent = -1;  // index into the log; -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::int64_t cpu_ns = 0;  // driver-thread CPU inside a bench.engine span
};

class SpanLog {
 public:
  int Open(const char* name, int model, int parent) {
    spans_.push_back({name, model, parent, NowNs(), 0, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id, std::int64_t cpu_ns = 0) {
    Span& span = spans_[id];
    span.dur_ns = NowNs() - span.start_ns;
    span.cpu_ns = cpu_ns;
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Each span's duration minus its children's. All spans come from one
  // thread and nest strictly, so children never overlap.
  std::vector<std::int64_t> SelfTimes() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].dur_ns;
      if (spans_[i].parent >= 0) self[spans_[i].parent] -= spans_[i].dur_ns;
    }
    return self;
  }

  bool WriteChromeTrace(const std::string& path, const std::string& workload,
                        const std::vector<std::string>& models) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", out);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{"
                   "\"model\":\"%s\",\"workload\":\"%s\",\"id\":%zu,"
                   "\"parent\":%d,\"cpu_ns\":%lld}}",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3,
                   models[s.model].c_str(), workload.c_str(), i, s.parent,
                   static_cast<long long>(s.cpu_ns));
    }
    std::fputs("\n]}\n", out);
    return std::fclose(out) == 0;
  }

 private:
  std::vector<Span> spans_;
};

// Opens a span on construction when `log` is non-null; closes it on scope
// exit, exceptions included.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, int model, int parent)
      : log_(log), id_(log ? log->Open(name, model, parent) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->Close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Hooks on one session: they record bench.feed and bench.engine spans while
// `on`, and cost one branch otherwise.
// ---------------------------------------------------------------------------

struct Probe {
  SpanLog* log = nullptr;
  int model = 0;
  bool on = false;
  int session_span = -1;
  int step_span = -1;
  int engine_depth = 0;  // nested engine entries are not timed again
  std::unordered_set<const void*> roots;  // janus_function units

  SpanLog* active_log() const { return on ? log : nullptr; }
  int step_or_session() const {
    return step_span >= 0 ? step_span : session_span;
  }
};

// Identity of a conversion unit, as the engine keys it.
const void* UnitKey(const minipy::FunctionValue& fn) {
  return fn.def != nullptr ? static_cast<const void*>(fn.def)
                           : static_cast<const void*>(fn.lambda);
}

// Outermost engine entry of a step: a bench.engine span carrying the
// driver thread's CPU time, so off-CPU waiting inside the engine shows.
class EngineScope {
 public:
  explicit EngineScope(Probe& probe) : probe_(probe) {
    if (probe_.on && probe_.engine_depth == 0) {
      span_ = probe_.log->Open("bench.engine", probe_.model,
                               probe_.step_or_session());
      cpu0_ = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    }
    ++probe_.engine_depth;
  }
  ~EngineScope() {
    --probe_.engine_depth;
    if (span_ >= 0) {
      probe_.log->Close(span_, CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu0_);
    }
  }
  EngineScope(const EngineScope&) = delete;
  EngineScope& operator=(const EngineScope&) = delete;

 private:
  Probe& probe_;
  int span_ = -1;
  std::int64_t cpu0_ = 0;
};

// Forwards to the engine's interceptor, timing calls of janus_function
// roots (the A3C and PPO policies) as engine time.
class InterceptProbe final : public minipy::CallInterceptor {
 public:
  InterceptProbe(minipy::CallInterceptor* inner, Probe* probe)
      : inner_(inner), probe_(probe) {}
  bool MaybeIntercept(const std::shared_ptr<minipy::FunctionValue>& fn,
                      std::span<minipy::Value> args,
                      minipy::Value* result) override {
    if (probe_->roots.count(UnitKey(*fn)) == 0) {
      return inner_->MaybeIntercept(fn, args, result);
    }
    const EngineScope scope(*probe_);
    return inner_->MaybeIntercept(fn, args, result);
  }

 private:
  minipy::CallInterceptor* inner_;
  Probe* probe_;
};

// Re-registers builtin `name` with a wrapper around the original. With
// `time_engine`, the call is engine time; otherwise the wrapper records the
// function argument as a conversion root. Returns false when the builtin
// does not exist.
bool WrapBuiltin(minipy::Interpreter& interp, const std::string& name,
                 Probe* probe, bool time_engine) {
  minipy::BuiltinFunction::Fn original;
  try {
    const minipy::Value value = interp.GetGlobal(name);
    const auto* builtin =
        std::get_if<std::shared_ptr<minipy::BuiltinFunction>>(&value);
    if (builtin == nullptr) return false;
    original = (*builtin)->fn;
  } catch (const std::exception&) {
    return false;
  }
  interp.RegisterBuiltin(
      name, [original, probe, time_engine](
                minipy::Interpreter& in,
                std::span<minipy::Value> args) -> minipy::Value {
        if (!time_engine) {
          if (!args.empty()) {
            if (const auto* fn =
                    std::get_if<std::shared_ptr<minipy::FunctionValue>>(
                        &args[0])) {
              probe->roots.insert(UnitKey(**fn));
            }
          }
          return original(in, args);
        }
        const EngineScope scope(*probe);
        return original(in, args);
      });
  return true;
}

// A copy of `spec` whose feed records bench.feed spans and whose setup
// (which runs after the engine attaches, before the definition) wraps the
// engine builtins.
ModelSpec ProbedSpec(const ModelSpec& spec, Probe* probe) {
  ModelSpec copy = spec;
  if (spec.feed) {
    copy.feed = [feed = spec.feed, probe](minipy::Interpreter& interp,
                                          janus::Rng& rng, std::int64_t step) {
      const SpanScope span(probe->active_log(), "bench.feed", probe->model,
                           probe->step_span);
      feed(interp, rng, step);
    };
  }
  copy.setup = [setup = spec.setup, probe](minipy::Interpreter& interp,
                                           std::uint64_t seed) {
    if (setup) setup(interp, seed);
    WrapBuiltin(interp, "optimize", probe, /*time_engine=*/true);
    WrapBuiltin(interp, "janus_function", probe, /*time_engine=*/false);
  };
  return copy;
}

// ---------------------------------------------------------------------------
// Program counters, read by name.
// ---------------------------------------------------------------------------

const char* const kCounterNames[] = {
    "engine.graph_executions", "engine.imperative_executions",
    "engine.graph_generations", "engine.cache_misses", "engine.fallbacks",
    "engine.graph_ops_executed", "engine.fused_ops", "engine.bytes_allocated",
    "engine.pool_hits", "engine.pool_misses", "cache.lookups", "cache.hits"};
// Histograms whose sums (nanoseconds) the split uses.
const char* const kHistogramNames[] = {
    "engine.validation_ns", "engine.graph_execution_ns",
    "engine.generation_ns", "engine.imperative_ns"};
const char* const kLookupHistogram = "cache.lookup_ns";
// Counters that must not move during a steady step: it has to be a cached
// graph execution, with no imperative run, cache miss, new generation or
// fallback.
const char* const kSteadyGuardNames[] = {
    "engine.imperative_executions", "engine.cache_misses",
    "engine.graph_generations", "engine.fallbacks"};
constexpr std::size_t kSteadyGuards = std::size(kSteadyGuardNames);

const janus::obs::Counter* FindCounter(const janus::JanusEngine& engine,
                                       std::string_view name) {
  if (const auto* c = engine.metrics().FindCounter(name)) return c;
  return janus::obs::MetricsRegistry::Global().FindCounter(name);
}

const janus::obs::Histogram* FindHistogram(const janus::JanusEngine& engine,
                                           std::string_view name) {
  if (const auto* h = engine.metrics().FindHistogram(name)) return h;
  return janus::obs::MetricsRegistry::Global().FindHistogram(name);
}

// Counter values and histogram sums by name (absent names are missing),
// plus the cache lookup-latency buckets (empty when absent).
struct Snapshot {
  std::map<std::string, double> values;
  std::vector<std::int64_t> lookup_buckets;
};

Snapshot Take(const janus::JanusEngine& engine) {
  Snapshot snap;
  for (const char* name : kCounterNames) {
    if (const auto* c = FindCounter(engine, name)) {
      snap.values[name] = static_cast<double>(c->Value());
    }
  }
  for (const char* name : kHistogramNames) {
    if (const auto* h = FindHistogram(engine, name)) {
      snap.values[name] = static_cast<double>(h->Sum());
    }
  }
  if (const auto* h = FindHistogram(engine, kLookupHistogram)) {
    for (int b = 0; b < janus::obs::Histogram::kNumBuckets; ++b) {
      snap.lookup_buckets.push_back(h->BucketCount(b));
    }
  }
  return snap;
}

// Deltas accumulated over the traced part of a run.
struct Tally {
  std::map<std::string, double> deltas;
  std::vector<std::int64_t> lookup_buckets;
  bool lookup_seen = false;

  void Add(const Snapshot& before, const Snapshot& after) {
    for (const auto& [name, value] : after.values) {
      const auto it = before.values.find(name);
      deltas[name] += value - (it == before.values.end() ? 0.0 : it->second);
    }
    if (!after.lookup_buckets.empty() &&
        after.lookup_buckets.size() == before.lookup_buckets.size()) {
      lookup_seen = true;
      lookup_buckets.resize(after.lookup_buckets.size());
      for (std::size_t b = 0; b < after.lookup_buckets.size(); ++b) {
        lookup_buckets[b] += after.lookup_buckets[b] - before.lookup_buckets[b];
      }
    }
  }
  std::optional<double> Get(const std::string& name) const {
    const auto it = deltas.find(name);
    if (it == deltas.end()) return std::nullopt;
    return it->second;
  }
};

// Percentile of a delta of log2-bucketed histogram counts, interpolating
// inside the selected bucket as obs::Histogram does.
double BucketPercentile(const std::vector<std::int64_t>& buckets, double p) {
  std::int64_t total = 0;
  for (const std::int64_t c : buckets) total += c;
  if (total <= 0) return 0.0;
  const auto rank = static_cast<std::int64_t>(
      PercentileRank(static_cast<std::size_t>(total), p));
  std::int64_t below = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] <= 0) continue;
    if (below + buckets[b] >= rank) {
      const auto lo = static_cast<double>(
          janus::obs::Histogram::BucketLowerBound(static_cast<int>(b)));
      const auto hi = static_cast<double>(
          janus::obs::Histogram::BucketUpperBound(static_cast<int>(b)));
      const double frac =
          static_cast<double>(rank - below) / static_cast<double>(buckets[b]);
      return lo + frac * (hi - lo);
    }
    below += buckets[b];
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Sessions and steps.
// ---------------------------------------------------------------------------

struct Totals {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool gate_failed = false;

  void Count(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (failed < 5) std::fprintf(stderr, "step failed: %s\n", what.c_str());
    ++failed;
  }
};

// Per-model measurements. "Untraced" samples feed the end-to-end metrics;
// "traced" ones (only in --trace 1) feed the per-layer split. A slice is
// the model's share of one round (cold: one session).
struct ModelResult {
  std::vector<double> step_us;       // untraced step latencies
  // Steps/s per 8-step chunk (cold: per session). Each chunk is one cycle
  // of the image feeds' batch sizes; short chunks let the median skip the
  // ones a host stall hit.
  std::vector<double> chunk_rate;    // untraced
  std::vector<double> slice_cpu_us;  // untraced process CPU µs per step
  std::vector<double> setup_ms;      // steady: per SetupSample()
  std::vector<double> session_ms;    // cold: whole session per cycle
  std::vector<double> construct_ms;
  std::vector<double> traced_rate;   // as chunk_rate, traced
  std::int64_t traced_steps = 0;
  std::int64_t traced_wall_ns = 0;
  std::int64_t traced_cpu_ns = 0;
  std::int64_t traced_sessions = 0;
  std::optional<double> ops_per_step;
  std::map<int, double> cold_ops_per_step;  // by sub-seed; sessions repeat
  Tally tally;
};

struct LiveModel {
  const ModelSpec* spec = nullptr;
  Probe probe;
  ModelSpec probed_spec;
  std::unique_ptr<InterceptProbe> intercept;
  std::unique_ptr<ModelSession> session;
  // kSteadyGuardNames of the session's engine; null where absent.
  std::array<const janus::obs::Counter*, kSteadyGuards> steady_guards{};
  // Imperative losses from the gate, per sub-seed.
  std::vector<std::vector<double>> reference;
  ModelResult result;
};

struct Run {
  Workload workload;
  std::uint64_t seed = 0;
  double seconds = 1;
  bool trace = false;
  bool break_gate = false;
  SpanLog log;
  Totals totals;
  std::vector<std::unique_ptr<LiveModel>> models;
};

std::uint64_t SessionSeed(const Run& run, int sub_seed) {
  return run.seed * kSubSeeds + static_cast<std::uint64_t>(sub_seed);
}

// Constructs the model's session (hooked in traced runs); returns the
// constructor's wall time in ms, or a negative value when it threw.
double OpenSession(Run& run, LiveModel& m, int sub_seed) {
  const std::int64_t t0 = NowNs();
  try {
    m.probe.roots.clear();
    m.session = std::make_unique<ModelSession>(
        run.trace ? m.probed_spec : *m.spec, janus::EngineOptions{},
        SessionSeed(run, sub_seed));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: session construction failed: %s\n",
                 m.spec->name.c_str(), e.what());
    return -1.0;
  }
  const double ms = static_cast<double>(NowNs() - t0) / 1e6;
  if (run.trace) {
    m.intercept =
        std::make_unique<InterceptProbe>(&m.session->engine(), &m.probe);
    m.session->interpreter().set_interceptor(m.intercept.get());
  }
  for (std::size_t g = 0; g < kSteadyGuards; ++g) {
    m.steady_guards[g] = FindCounter(m.session->engine(), kSteadyGuardNames[g]);
  }
  return ms;
}

void CloseSession(LiveModel& m) {
  m.session.reset();  // detaches the engine, which clears the interceptor
  m.intercept.reset();
  m.steady_guards.fill(nullptr);
}

struct StepOutcome {
  double loss = 0;
  std::int64_t ns = 0;
  bool ok = false;
};

// One closed-loop step. In a steady window a step must also be a cached
// graph execution: a move of any kSteadyGuardNames counter fails it.
StepOutcome RunStep(LiveModel& m, bool steady) {
  StepOutcome out;
  std::array<std::int64_t, kSteadyGuards> guards_before{};
  for (std::size_t g = 0; g < kSteadyGuards; ++g) {
    if (m.steady_guards[g]) guards_before[g] = m.steady_guards[g]->Value();
  }
  {
    const SpanScope span(m.probe.active_log(), "bench.step", m.probe.model,
                         m.probe.session_span);
    m.probe.step_span = span.id();
    const std::int64_t t0 = NowNs();
    try {
      out.loss = m.session->Step();
      out.ok = std::isfinite(out.loss);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: step threw: %s\n", m.spec->name.c_str(),
                   e.what());
    }
    out.ns = NowNs() - t0;
    m.probe.step_span = -1;
  }
  for (std::size_t g = 0; steady && g < kSteadyGuards; ++g) {
    if (m.steady_guards[g] &&
        m.steady_guards[g]->Value() != guards_before[g]) {
      out.ok = false;
    }
  }
  return out;
}

bool LossMatches(double loss, double reference) {
  return std::isfinite(loss) && std::isfinite(reference) &&
         std::fabs(loss - reference) <=
             kTolerance * std::max(1.0, std::fabs(reference));
}

// Correctness gate: each model under JANUS and under the imperative preset
// with sub-seed 0, the seed of the steady workloads' measured sessions;
// losses must agree. zoo_cold also records the imperative losses of the
// other sub-seeds: each cold session is a JANUS run checked against them.
void RunGate(Run& run) {
  const int sub_seeds = run.workload.cold ? kSubSeeds : 1;
  for (auto& mp : run.models) {
    LiveModel& m = *mp;
    m.reference.assign(sub_seeds, {});
    for (int j = 0; j < sub_seeds; ++j) {
      const std::uint64_t seed = SessionSeed(run, j);
      const std::string where =
          "gate " + m.spec->name + " seed " + std::to_string(seed);
      try {
        std::optional<ModelSession> janus;
        if (j == 0) janus.emplace(*m.spec, janus::EngineOptions{}, seed);
        ModelSession imperative(*m.spec,
                                janus::EngineOptions::ImperativePreset(), seed);
        for (int i = 0; i < kGateSteps; ++i) {
          const double got = janus ? janus->Step() : 0.0;
          double want = imperative.Step();
          if (run.break_gate) want += 1.0 + std::fabs(want);
          m.reference[j].push_back(want);
          if (!janus) continue;
          const bool ok = LossMatches(got, want);
          if (!ok) run.totals.gate_failed = true;
          run.totals.Count(ok, where + " step " + std::to_string(i) +
                                   ": janus " + std::to_string(got) +
                                   " vs imperative " + std::to_string(want));
        }
      } catch (const std::exception& e) {
        run.totals.gate_failed = true;
        run.totals.Count(false, where + ": " + e.what());
      }
    }
  }
}

// Runs steps in chunks of kChunk until `budget_ns` has passed; records an
// untraced or traced slice.
void RunSlice(Run& run, LiveModel& m, std::int64_t budget_ns, bool traced) {
  ModelResult& r = m.result;
  Snapshot before;
  if (traced) before = Take(m.session->engine());
  m.probe.on = traced;
  const std::int64_t wall0 = NowNs();
  const std::int64_t cpu0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  std::int64_t steps = 0;
  do {
    const std::int64_t chunk0 = NowNs();
    for (int k = 0; k < kChunk; ++k) {
      const StepOutcome out = RunStep(m, /*steady=*/true);
      run.totals.Count(out.ok, m.spec->name + " steady step");
      if (!traced) r.step_us.push_back(static_cast<double>(out.ns) / 1e3);
      ++steps;
    }
    (traced ? r.traced_rate : r.chunk_rate)
        .push_back(kChunk * 1e9 / static_cast<double>(NowNs() - chunk0));
  } while (NowNs() - wall0 < budget_ns);
  const std::int64_t wall = NowNs() - wall0;
  const std::int64_t cpu = CpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  m.probe.on = false;
  if (traced) {
    r.tally.Add(before, Take(m.session->engine()));
    r.traced_steps += steps;
    r.traced_wall_ns += wall;
    r.traced_cpu_ns += cpu;
  } else {
    r.slice_cpu_us.push_back(static_cast<double>(cpu) / 1e3 /
                             static_cast<double>(steps));
  }
}

// Constructs a fresh session of every model and runs it through conversion
// (kConvertSteps); returns the wall time in seconds. With `keep`, the
// sessions become the measured ones. Otherwise they are built from the
// plain specs, so they leave the probes alone, and destroyed untimed.
double SetupSample(Run& run, int sub_seed, bool keep) {
  std::vector<std::unique_ptr<ModelSession>> throwaway;
  const std::int64_t t0 = NowNs();
  for (auto& mp : run.models) {
    LiveModel& m = *mp;
    const std::int64_t m0 = NowNs();
    try {
      if (keep) {
        if (run.trace) {
          m.probe.session_span =
              run.log.Open("bench.session", m.probe.model, -1);
        }
        const double construct_ms = OpenSession(run, m, sub_seed);
        if (construct_ms < 0) {
          run.totals.Count(false, m.spec->name + " construction");
          continue;
        }
        m.result.construct_ms.push_back(construct_ms);
        for (int i = 0; i < kConvertSteps; ++i) {
          run.totals.Count(RunStep(m, /*steady=*/false).ok,
                           m.spec->name + " conversion step");
        }
      } else {
        throwaway.push_back(std::make_unique<ModelSession>(
            *m.spec, janus::EngineOptions{}, SessionSeed(run, sub_seed)));
        m.result.construct_ms.push_back(static_cast<double>(NowNs() - m0) /
                                        1e6);
        for (int i = 0; i < kConvertSteps; ++i) {
          run.totals.Count(std::isfinite(throwaway.back()->Step()),
                           m.spec->name + " conversion step");
        }
      }
    } catch (const std::exception& e) {
      run.totals.Count(false, m.spec->name + " setup: " + e.what());
      continue;
    }
    m.result.setup_ms.push_back(static_cast<double>(NowNs() - m0) / 1e6);
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

// zoo_fine / zoo_coarse. Returns the setup times in seconds of
// kSetupSamples SetupSample()s, spread over the rounds (the first one builds
// the measured sessions).
std::vector<double> RunSteady(Run& run) {
  std::vector<double> setup_s = {SetupSample(run, 0, /*keep=*/true)};
  for (auto& mp : run.models) {
    if (!mp->session) return setup_s;
    for (int i = 0; i < kWarmupSteps; ++i) {
      run.totals.Count(RunStep(*mp, /*steady=*/false).ok,
                       mp->spec->name + " warm-up step");
    }
  }

  if (run.trace) {
    // Graph ops per step over a fixed step count, so the count repeats.
    for (auto& mp : run.models) {
      LiveModel& m = *mp;
      const auto* ops =
          FindCounter(m.session->engine(), "engine.graph_ops_executed");
      const std::int64_t ops0 = ops ? ops->Value() : 0;
      for (int i = 0; i < kOpsProbeSteps; ++i) {
        run.totals.Count(RunStep(m, /*steady=*/true).ok,
                         m.spec->name + " ops-probe step");
      }
      if (ops != nullptr) {
        m.result.ops_per_step =
            static_cast<double>(ops->Value() - ops0) / kOpsProbeSteps;
      }
    }
  }

  // The setup samples share the --seconds window with the slices, which
  // split whatever time is left.
  const auto n = static_cast<std::int64_t>(run.models.size());
  const std::int64_t end =
      NowNs() + static_cast<std::int64_t>(run.seconds * 1e9);
  for (int round = 0; round < kRounds; ++round) {
    if (round % 2 == 0) {
      const int sub_seed = static_cast<int>(setup_s.size()) % kSubSeeds;
      setup_s.push_back(SetupSample(run, sub_seed, /*keep=*/false));
    }
    const std::int64_t slice_ns =
        std::max<std::int64_t>(0, end - NowNs()) / ((kRounds - round) * n);
    for (auto& mp : run.models) {
      if (!run.trace) {
        RunSlice(run, *mp, slice_ns, false);
      } else {
        // Alternate which half goes first, also among the rounds that
        // start with a setup sample, so drift hits both equally.
        const bool traced_first = (round / 2) % 2 == 1;
        RunSlice(run, *mp, slice_ns / 2, traced_first);
        RunSlice(run, *mp, slice_ns / 2, !traced_first);
      }
    }
  }
  for (auto& mp : run.models) {
    while (mp->result.step_us.size() < kMinSamples) {
      RunSlice(run, *mp, 0, false);
    }
  }
  for (auto& mp : run.models) {
    if (mp->probe.session_span >= 0) run.log.Close(mp->probe.session_span);
    mp->probe.session_span = -1;
    CloseSession(*mp);
  }
  return setup_s;
}

// One zoo_cold session: construct, kColdSteps steps checked against the
// gate's imperative reference for the sub-seed, destroy.
void RunColdCycle(Run& run, LiveModel& m, int sub_seed, bool traced) {
  ModelResult& r = m.result;
  m.probe.on = traced;
  const std::int64_t t0 = NowNs();
  const std::int64_t cpu0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  if (traced) {
    m.probe.session_span = run.log.Open("bench.session", m.probe.model, -1);
  }
  const double construct_ms = OpenSession(run, m, sub_seed);
  const std::vector<double>& reference = m.reference[sub_seed];
  if (construct_ms < 0) {
    run.totals.Count(false, m.spec->name + " construction");
  } else {
    const Snapshot before = traced ? Take(m.session->engine()) : Snapshot{};
    std::int64_t step_ns = 0;
    std::vector<double> step_us;
    for (int i = 0; i < kColdSteps; ++i) {
      const StepOutcome out = RunStep(m, /*steady=*/false);
      const bool ok =
          out.ok && i < static_cast<int>(reference.size()) &&
          LossMatches(out.loss, reference[i]);
      run.totals.Count(ok, m.spec->name + " cold step " + std::to_string(i));
      step_ns += out.ns;
      step_us.push_back(static_cast<double>(out.ns) / 1e3);
    }
    const double rate = kColdSteps * 1e9 / static_cast<double>(step_ns);
    if (traced) {
      const Snapshot after = Take(m.session->engine());
      r.tally.Add(before, after);
      r.traced_rate.push_back(rate);
      r.traced_steps += kColdSteps;
      ++r.traced_sessions;
      Tally session;
      session.Add(before, after);
      if (const auto ops = session.Get("engine.graph_ops_executed")) {
        r.cold_ops_per_step[sub_seed] = *ops / kColdSteps;
        std::vector<double> per_seed;
        for (const auto& [seed, value] : r.cold_ops_per_step) {
          per_seed.push_back(value);
        }
        r.ops_per_step = Mean(per_seed);
      }
    } else {
      r.step_us.insert(r.step_us.end(), step_us.begin(), step_us.end());
      r.chunk_rate.push_back(rate);
    }
    r.construct_ms.push_back(construct_ms);
  }
  CloseSession(m);
  if (traced) {
    run.log.Close(m.probe.session_span);
    m.probe.session_span = -1;
  }
  m.probe.on = false;
  const std::int64_t wall = NowNs() - t0;
  const std::int64_t cpu = CpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  if (traced) {
    r.traced_wall_ns += wall;
    r.traced_cpu_ns += cpu;
  } else {
    r.session_ms.push_back(static_cast<double>(wall) / 1e6);
    r.slice_cpu_us.push_back(static_cast<double>(cpu) / 1e3 / kColdSteps);
  }
}

// zoo_cold. Rounds of one session of every model, cycling through the
// sub-seeds, until the time is up and every model has enough samples.
// Returns the wall time in seconds of each round.
std::vector<double> RunCold(Run& run) {
  std::vector<double> round_s;
  const std::size_t min_cycles = (kMinSamples + kColdSteps - 1) / kColdSteps;
  const std::int64_t end =
      NowNs() + static_cast<std::int64_t>(run.seconds * 1e9);
  for (int cycle = 0;; ++cycle) {
    bool more = NowNs() < end;
    for (auto& m : run.models) {
      more = more || m->result.session_ms.size() < min_cycles;
    }
    if (!more) break;
    const std::int64_t t0 = NowNs();
    for (auto& m : run.models) {
      RunColdCycle(run, *m, cycle % kSubSeeds,
                   run.trace && (cycle / kSubSeeds) % 2 == 1);
    }
    round_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return round_s;
}

// Schedule-to-start latency on an idle pool of the engine's default size.
std::vector<double> PoolHandoffNs() {
  janus::ThreadPool pool(janus::ResolveThreadPoolSize(0));
  std::vector<double> samples;
  samples.reserve(kHandoffProbes);
  for (int i = 0; i < kHandoffProbes; ++i) {
    std::atomic<std::int64_t> started{0};
    const std::int64_t t0 = NowNs();
    pool.Schedule([&started] {
      started.store(NowNs(), std::memory_order_release);
      started.notify_one();
    });
    started.wait(0, std::memory_order_acquire);
    samples.push_back(static_cast<double>(started.load() - t0));
  }
  return samples;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  // A metric the program or workload cannot provide: printed as 0 and
  // listed as absent.
  void Add(const std::string& name, std::optional<double> value,
           const std::string& unit) {
    if (!value) absent_.push_back(name);
    Add(name, value.value_or(0.0), unit);
  }
  void Print(const Totals& totals, bool correct) const {
    for (const Metric& m : metrics_) {
      std::printf("%-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("absent:");
    for (const std::string& name : absent_) std::printf(" %s", name.c_str());
    std::printf("\n");
    std::printf(
        "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
        "\"metrics\": {",
        correct ? "true" : "false", static_cast<long long>(totals.attempted),
        static_cast<long long>(totals.failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> absent_;
};

std::optional<double> Ratio(std::optional<double> num,
                            std::optional<double> den) {
  if (!num || !den || *den <= 0) return std::nullopt;
  return *num / *den;
}

// Mean over models of the per-model values that exist; absent if none do.
std::optional<double> MeanOf(const std::vector<std::optional<double>>& values) {
  std::vector<double> present;
  for (const auto& v : values) {
    if (v) present.push_back(*v);
  }
  if (present.empty()) return std::nullopt;
  return Mean(present);
}

// Adds the bounded end-to-end metrics; returns step_p95_us_geomean, which
// a burst of host steal moves far more than the others, so it is reported
// with the per-layer metrics instead.
double AddEndToEnd(const Run& run, const std::vector<double>& setup_s,
                   Report& report) {
  std::vector<double> rate, p50, p95, cpu, session;
  std::printf("%-14s %8s %8s %12s %12s %12s %12s %12s\n", "model", "samples",
              ">p95", "steps/s", "p50_us", "p95_us", "cpu_us/step",
              "session_ms");
  for (const auto& mp : run.models) {
    const ModelResult& r = mp->result;
    const double model_session =
        Median(run.workload.cold ? r.session_ms : r.setup_ms);
    rate.push_back(Median(r.chunk_rate));
    p50.push_back(Percentile(r.step_us, 50));
    p95.push_back(Percentile(r.step_us, 95));
    cpu.push_back(Median(r.slice_cpu_us));
    session.push_back(model_session);
    std::printf("%-14s %8zu %8zu %12.2f %12.1f %12.1f %12.1f %12.2f\n",
                mp->spec->name.c_str(), r.step_us.size(),
                SamplesBeyond(r.step_us.size(), 95), rate.back(), p50.back(),
                p95.back(), cpu.back(), model_session);
  }
  report.Add("step_rate_geomean", Geomean(rate), "steps/s");
  report.Add("step_p50_us_geomean", Geomean(p50), "us");
  report.Add("cpu_us_per_step_geomean", Geomean(cpu), "us");
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("session_ms_geomean", Geomean(session), "ms");
  return Geomean(p95);
}

void AddPerLayer(const Run& run, Report& report) {
  const std::vector<Span>& spans = run.log.spans();
  const std::vector<std::int64_t> self = run.log.SelfTimes();
  const std::size_t n = run.models.size();
  std::vector<double> step_self(n), feed_self(n), engine_self(n),
      engine_cpu(n), engine_calls(n);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int m = spans[i].model;
    const std::string_view name = spans[i].name;
    if (name == "bench.step") step_self[m] += static_cast<double>(self[i]);
    if (name == "bench.feed") feed_self[m] += static_cast<double>(self[i]);
    if (name == "bench.engine") {
      engine_self[m] += static_cast<double>(self[i]);
      engine_cpu[m] += static_cast<double>(spans[i].cpu_ns);
      engine_calls[m] += 1;
    }
  }

  std::vector<std::optional<double>> interp, feed, engine, wait, validate,
      execute, other, profile, generate, ops, ns_per_op, fused, cpu_wall,
      bytes, pool_hit, overhead;
  std::map<std::string, std::optional<double>> wait_by_model, cpu_by_model,
      p50_by_model;
  Tally all;  // workload-wide sums
  double calls_total = 0;
  for (std::size_t m = 0; m < n; ++m) {
    const ModelResult& r = run.models[m]->result;
    const Tally& t = r.tally;
    const std::string& name = run.models[m]->spec->name;
    const auto steps = static_cast<double>(r.traced_steps);
    if (steps <= 0) continue;
    const auto us_per_step = [&](std::optional<double> ns) {
      return ns ? std::optional<double>(*ns / steps / 1e3) : std::nullopt;
    };
    interp.push_back(step_self[m] / steps / 1e3);
    feed.push_back(feed_self[m] / steps / 1e3);
    engine.push_back(engine_self[m] / steps / 1e3);
    const std::optional<double> model_wait =
        engine_self[m] > 0
            ? std::optional<double>(1.0 - engine_cpu[m] / engine_self[m])
            : std::nullopt;
    wait.push_back(model_wait);
    validate.push_back(us_per_step(t.Get("engine.validation_ns")));
    execute.push_back(us_per_step(t.Get("engine.graph_execution_ns")));
    const auto gen = t.Get("engine.generation_ns");
    const auto imp = t.Get("engine.imperative_ns");
    if (validate.back() && execute.back() && gen && imp) {
      other.push_back(*engine.back() - *validate.back() - *execute.back() -
                      (*gen + *imp) / steps / 1e3);
    }
    const double sessions = run.workload.cold
                                ? static_cast<double>(r.traced_sessions)
                                : 1.0;
    if (imp && sessions > 0) profile.push_back(*imp / sessions / 1e6);
    if (gen && sessions > 0) generate.push_back(*gen / sessions / 1e6);
    ops.push_back(r.ops_per_step);
    ns_per_op.push_back(Ratio(t.Get("engine.graph_execution_ns"),
                              t.Get("engine.graph_ops_executed")));
    fused.push_back(
        Ratio(t.Get("engine.fused_ops"), t.Get("engine.graph_ops_executed")));
    const double model_cpu_wall =
        static_cast<double>(r.traced_cpu_ns) /
        static_cast<double>(std::max<std::int64_t>(1, r.traced_wall_ns));
    cpu_wall.push_back(model_cpu_wall);
    const auto bytes_delta = t.Get("engine.bytes_allocated");
    bytes.push_back(bytes_delta ? std::optional<double>(*bytes_delta / steps)
                                : std::nullopt);
    const auto hits = t.Get("engine.pool_hits");
    const auto misses = t.Get("engine.pool_misses");
    pool_hit.push_back(
        hits && misses ? Ratio(hits, *hits + *misses) : std::nullopt);
    if (!r.traced_rate.empty() && !r.chunk_rate.empty()) {
      overhead.push_back(1.0 - Median(r.traced_rate) / Median(r.chunk_rate));
    }
    wait_by_model[name] = model_wait;
    cpu_by_model[name] = model_cpu_wall;
    p50_by_model[name] = Percentile(r.step_us, 50);
    for (const auto& [key, value] : t.deltas) all.deltas[key] += value;
    if (t.lookup_seen) {
      all.lookup_seen = true;
      all.lookup_buckets.resize(t.lookup_buckets.size());
      for (std::size_t b = 0; b < t.lookup_buckets.size(); ++b) {
        all.lookup_buckets[b] += t.lookup_buckets[b];
      }
    }
    calls_total += engine_calls[m];
  }

  std::vector<double> cold_construct;
  for (const auto& mp : run.models) {
    cold_construct.push_back(Median(mp->result.construct_ms));
  }
  const std::vector<double> handoff = PoolHandoffNs();

  report.Add("frontend.interp_us_per_step", MeanOf(interp), "us");
  report.Add("frontend.construct_ms", Mean(cold_construct), "ms");
  report.Add("models.feed_us_per_step", MeanOf(feed), "us");
  report.Add("core.engine_us_per_step", MeanOf(engine), "us");
  report.Add("core.engine_wait_share", MeanOf(wait), "ratio");
  report.Add("core.validate_us_per_step", MeanOf(validate), "us");
  report.Add("core.execute_us_per_step", MeanOf(execute), "us");
  report.Add("core.engine_other_us_per_step", MeanOf(other), "us");
  report.Add("core.graph_run_share",
             Ratio(all.Get("engine.graph_executions"),
                   calls_total > 0 ? std::optional<double>(calls_total)
                                   : std::nullopt),
             "ratio");
  report.Add("core.fallbacks", all.Get("engine.fallbacks"), "count");
  report.Add("core.cache_misses", all.Get("engine.cache_misses"), "count");
  report.Add("core.generations", all.Get("engine.graph_generations"), "count");
  report.Add("core.profile_ms_per_session", MeanOf(profile), "ms");
  report.Add("core.generate_ms_per_session", MeanOf(generate), "ms");
  report.Add("runtime.ops_per_step", MeanOf(ops), "count");
  report.Add("runtime.execute_ns_per_op", MeanOf(ns_per_op), "ns");
  report.Add("runtime.fused_op_share", MeanOf(fused), "ratio");
  report.Add("runtime.cpu_per_wall", MeanOf(cpu_wall), "ratio");
  report.Add("common.pool_handoff_ns_p50", Percentile(handoff, 50), "ns");
  report.Add("common.pool_handoff_ns_p95", Percentile(handoff, 95), "ns");
  report.Add("tensor.bytes_per_step", MeanOf(bytes), "bytes");
  report.Add("tensor.pool_hit_rate", MeanOf(pool_hit), "ratio");
  std::optional<double> lookup_p50;
  if (all.lookup_seen) lookup_p50 = BucketPercentile(all.lookup_buckets, 50);
  report.Add("cache.lookup_ns_p50", lookup_p50, "ns");
  report.Add("cache.hit_rate",
             Ratio(all.Get("cache.hits"), all.Get("cache.lookups")), "ratio");
  // One row per zoo model; models outside this workload are absent.
  for (const ModelSpec& spec : janus::models::ModelZoo()) {
    const auto find = [&](const auto& by_model) -> std::optional<double> {
      const auto it = by_model.find(spec.name);
      return it == by_model.end() ? std::nullopt : it->second;
    };
    report.Add("model." + spec.name + ".step_us_p50", find(p50_by_model), "us");
    report.Add("model." + spec.name + ".engine_wait_share",
               find(wait_by_model), "ratio");
    report.Add("model." + spec.name + ".cpu_per_wall", find(cpu_by_model),
               "ratio");
  }
  report.Add("trace.overhead_share", MeanOf(overhead), "ratio");
}

int CheckHelpers() {
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "helper check failed: %s\n", what);
      ++failures;
    }
  };
  std::vector<double> ramp;
  for (int i = 1; i <= 200; ++i) ramp.push_back(i);
  check(std::fabs(Geomean({1, 4, 16}) - 4.0) < 1e-12, "geomean {1,4,16} = 4");
  check(Geomean({}) == 0.0 && Geomean({2, 0}) == 0.0, "geomean of none / 0");
  check(Percentile(ramp, 50) == 100.0, "p50 of 1..200 = 100");
  check(Percentile(ramp, 95) == 190.0, "p95 of 1..200 = 190");
  check(SamplesBeyond(200, 95) == 10, "200 samples leave 10 beyond p95");
  check(SamplesBeyond(199, 95) == 9, "199 samples leave 9 beyond p95");
  check(SamplesBeyond(0, 95) == 0, "no samples");
  check(Median({3, 1, 2}) == 2.0 && Percentile({7}, 95) == 7.0, "median");
  std::vector<std::int64_t> buckets(janus::obs::Histogram::kNumBuckets, 0);
  buckets[janus::obs::Histogram::BucketFor(100)] = 4;  // [64, 127]
  const double p50 = BucketPercentile(buckets, 50);
  check(p50 >= 64 && p50 <= 127, "bucket p50 inside its bucket");
  check(BucketPercentile(std::vector<std::int64_t>(64, 0), 50) == 0.0,
        "empty bucket percentile");
  SpanLog log;
  const int parent = log.Open("p", 0, -1);
  const int child = log.Open("c", 0, parent);
  log.Close(child);
  log.Close(parent);
  const std::vector<std::int64_t> self = log.SelfTimes();
  check(self[parent] == log.spans()[parent].dur_ns - log.spans()[child].dur_ns,
        "self time = span minus child");
  std::printf("helper checks: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::string workload_name, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool break_gate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--check-helpers") return CheckHelpers();
    if (arg == "--workload") {
      workload_name = value();
    } else if (arg == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = value() == "1";
    } else if (arg == "--trace-out") {
      trace_out = value();
    } else if (arg == "--break-gate") {
      break_gate = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (std::strcmp(BuildTypeString(), "release") != 0) {
    std::fprintf(stderr, "refusing to report timings from a %s build\n",
                 BuildTypeString());
    return 3;
  }
  Run run;
  bool found = false;
  for (const Workload& w : Workloads()) {
    if (w.name == workload_name) {
      run.workload = w;
      found = true;
    }
  }
  if (!found || !(seconds > 0)) {
    std::fprintf(stderr,
                 "usage: zoo_step_bench --workload zoo_fine|zoo_coarse|"
                 "zoo_cold --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  run.seed = seed;
  run.seconds = seconds;
  run.trace = trace;
  run.break_gate = break_gate;
  for (std::size_t i = 0; i < run.workload.models.size(); ++i) {
    auto m = std::make_unique<LiveModel>();
    m->spec = &janus::models::FindModel(run.workload.models[i]);
    m->probe.log = &run.log;
    m->probe.model = static_cast<int>(i);
    m->probed_spec = ProbedSpec(*m->spec, &m->probe);
    run.models.push_back(std::move(m));
  }
  std::printf(
      "build=%s nproc=%d pool_threads=%zu seed=%llu workload=%s trace=%d "
      "seconds=%g loop=closed(1 driver thread)\n",
      BuildTypeString(), Nproc(),
      janus::ResolveThreadPoolSize(0), static_cast<unsigned long long>(seed),
      run.workload.name.c_str(), trace ? 1 : 0, seconds);

  const std::int64_t gate0 = NowNs();
  RunGate(run);
  std::printf("gate: %lld steps in %.2f s\n",
              static_cast<long long>(run.totals.attempted),
              static_cast<double>(NowNs() - gate0) / 1e9);
  if (run.totals.gate_failed) {
    std::printf("correctness gate FAILED: JANUS losses differ from the "
                "imperative reference\n");
    Report().Print(run.totals, false);
    return 1;
  }
  const std::int64_t measure0 = NowNs();
  const std::vector<double> setup_s =
      run.workload.cold ? RunCold(run) : RunSteady(run);
  std::printf("measured: %zu setup samples in %.2f s\n", setup_s.size(),
              static_cast<double>(NowNs() - measure0) / 1e9);

  Report end_to_end;
  const double p95 = AddEndToEnd(run, setup_s, end_to_end);
  std::printf("step_p95_us_geomean %.6g us\n", p95);
  const auto attempted = std::max<std::int64_t>(1, run.totals.attempted);
  std::printf("step_error_rate %.6g ratio (%lld failed of %lld attempted)\n",
              static_cast<double>(run.totals.failed) /
                  static_cast<double>(attempted),
              static_cast<long long>(run.totals.failed),
              static_cast<long long>(run.totals.attempted));
  bool correct = run.totals.failed == 0;
  if (!trace) {
    end_to_end.Print(run.totals, correct);
    return correct ? 0 : 1;
  }
  Report per_layer;
  per_layer.Add("step_p95_us_geomean", p95, "us");
  AddPerLayer(run, per_layer);
  if (!trace_out.empty()) {
    if (!run.log.WriteChromeTrace(trace_out, run.workload.name,
                                  run.workload.models)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      correct = false;
    }
    std::printf("trace: %zu spans -> %s\n", run.log.spans().size(),
                trace_out.c_str());
  }
  std::printf("-- end-to-end (untraced slices of this traced run) --\n");
  end_to_end.Print(run.totals, correct);
  std::printf("-- per-layer --\n");
  per_layer.Print(run.totals, correct);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
