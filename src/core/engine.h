// The JANUS engine: orchestrates the execution model of Fig. 2.
//
// It attaches to a MiniPy interpreter as Profiler (observer) + Speculative
// Graph Executor (call interceptor + `optimize` builtin). Every conversion
// unit (a function passed to optimize(), or one marked via MarkRoot /
// the janus_function builtin) flows through:
//
//   profile imperatively (A) -> after `profile_threshold` calls, generate a
//   speculative graph (B) -> cache it -> execute the graph when its entry
//   assumptions hold (D) -> on entry mismatch: cache miss, imperative run,
//   regenerate with relaxed assumptions -> on AssertOp failure mid-graph:
//   discard staged state, fall back to the imperative executor (E), mark
//   the assumption so regeneration stops speculating on it -> programs the
//   generator refuses (C) stay imperative forever.
//
// Configuration presets reproduce the paper's comparison systems:
//   Imperative (TF Eager)        : enabled = false
//   JANUS                        : defaults
//   JANUS ablations (Fig. 7)     : generator.{speculative_unroll,specialize},
//                                  parallel_execution
//   Tracing (TF defun)           : TracingPreset() — single-trace conversion
//                                  with no assertions, no entry validation,
//                                  baked state reads and dropped state
//                                  writes, reproducing defun's silent
//                                  incorrectness on DCF/IF programs.
#ifndef JANUS_CORE_ENGINE_H_
#define JANUS_CORE_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "cache/specialization_cache.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/generator.h"
#include "core/host_state.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/executor.h"

namespace janus {

struct EngineOptions {
  bool enabled = true;
  GeneratorOptions generator;
  bool parallel_execution = true;  // +PARL
  // Executor pool size; <= 0 means auto (JANUS_NUM_THREADS env var, else 4).
  // See ResolveThreadPoolSize in common/thread_pool.h.
  int pool_threads = 0;
  int profile_threshold = 3;  // §3.1 footnote 3
  bool validate_entry_checks = true;
  // Budgets of this engine's compiled-graph cache (src/cache). Each engine
  // owns one SpecializationCache built from these options; its cache.*
  // counters and histograms land in the engine's registry. The former
  // max_cached_graphs_per_unit knob is cache.max_entries_per_key.
  cache::CacheOptions cache = cache::CacheOptions::FromEnv();
  // Calibrated per-op cost (ns) of the imperative executor's dispatch,
  // standing in for CPython + TF Eager overhead (the MiniPy interpreter is
  // a compiled tree-walker, orders of magnitude faster than CPython; the
  // benchmarks set this to reproduce the paper's framework-overhead
  // ratios). Applied at Attach().
  std::int64_t eager_dispatch_penalty_ns = 0;
  // Plan-time fusion of elementwise regions into superops (runtime/fusion.h).
  // ANDed with the process-wide JANUS_FUSION kill switch; applies to every
  // plan this engine builds (main graphs and library functions).
  bool enable_fusion = true;
  // When in [0, 3], every generation uses this despecialization-ladder
  // level instead of the cache's churn-driven one. For tools/janus_verify
  // and tests that need plans at a specific ladder rung; -1 = off.
  int force_despecialization_level = -1;

  static EngineOptions ImperativePreset();
  static EngineOptions TracingPreset();
};

// The engine's counters, each named once: the list expands into the
// EngineCounters field, its "engine.<name>" registry counter and stats()'s
// copy, so adding a counter is one line. graph_executions through
// graph_ops_executed follow the Fig. 2 decision loop; plan_builds counts
// the plans built at generation time (runtime/plan.h: cached-graph runs
// never build one, the compile-once/run-many split the paper's
// amortization relies on); bytes_allocated through in_place_reuses the
// buffer-pool traffic of graph runs (tensor/buffer_pool.h); fused_regions
// and fused_ops the regions run by the superop interpreter and the member
// ops they covered (runtime/fusion.h; also counted in graph_ops_executed).
#define JANUS_ENGINE_COUNTERS(X) \
  X(graph_executions)            \
  X(imperative_executions)       \
  X(graph_generations)           \
  X(cache_misses)                \
  X(assumption_failures)         \
  X(fallbacks)                   \
  X(not_convertible)             \
  X(graph_ops_executed)          \
  X(plan_builds)                 \
  X(bytes_allocated)             \
  X(pool_hits)                   \
  X(pool_misses)                 \
  X(in_place_reuses)             \
  X(fused_regions)               \
  X(fused_ops)

// One field per engine counter: EngineCounters<std::int64_t> is the
// snapshot stats() returns, EngineCounters<obs::Counter*> the live registry
// cells behind it (atomic, safe against pool worker threads).
template <typename T>
struct EngineCounters {
#define JANUS_ENGINE_COUNTER_FIELD(name) T name{};
  JANUS_ENGINE_COUNTERS(JANUS_ENGINE_COUNTER_FIELD)
#undef JANUS_ENGINE_COUNTER_FIELD
};
using EngineStats = EngineCounters<std::int64_t>;

class JanusEngine : public minipy::CallInterceptor {
 public:
  JanusEngine(minipy::Interpreter* interp, EngineOptions options);
  ~JanusEngine() override;

  // Installs the profiler, interceptor, and engine builtins (`optimize`,
  // `janus_function`) into the interpreter.
  void Attach();
  void Detach();

  // Marks a function as a conversion root: calls to it are intercepted.
  void MarkRoot(const std::shared_ptr<minipy::FunctionValue>& fn);

  // Training step on a conversion unit: the engine's `optimize`.
  minipy::Value RunTraining(const std::shared_ptr<minipy::FunctionValue>& fn,
                            double lr);

  // ---- CallInterceptor ----
  bool MaybeIntercept(const std::shared_ptr<minipy::FunctionValue>& fn,
                      std::span<minipy::Value> args,
                      minipy::Value* result) override;

  EngineStats stats() const;
  Profiler& profiler() { return profiler_; }
  const EngineOptions& options() const { return options_; }

  // The engine's own registry: the JANUS_ENGINE_COUNTERS counters
  // ("engine.*") plus per-phase latency histograms ("engine.*_ns").
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  // Human-readable observability summary: the engine registry's counters
  // and phase latency histograms (p50/p95/p99), the specialization cache,
  // fusion and buffer-pool traffic. Per-op kernel time is in the plan
  // profiles (/profilez, janus_kernel_ns on /metrics).
  std::string StatsReport() const;

  // The graph cache this engine stores its specializations in.
  cache::SpecializationCache& graph_cache() { return cache_; }

  // Visits every compiled unit currently resident in the engine's cache
  // (each variant of each conversion unit), passing the unit's qualified
  // name. For offline analysis (tools/janus_verify); touches cache LRU
  // state like any lookup. Do not call from inside a conversion.
  void ForEachCompiledUnit(
      const std::function<void(const std::string& name,
                               const CompiledGraph& unit)>& visit);

 private:
  struct CachedUnit;
  struct UnitState;

  // A unit's key, name and variants, copied under units_mu_ for readers
  // off the engine thread (StatsReport via /statusz) and slow visitors.
  struct UnitVariants {
    const void* key;
    std::string name;
    std::vector<std::uint64_t> variants;
  };
  std::vector<UnitVariants> SnapshotUnits() const;

  // Identity of a conversion unit: its def or lambda AST node.
  static const void* UnitKey(const minipy::FunctionValue& fn);
  // Variant discriminator within a unit (training mode + learning rate).
  static std::uint64_t VariantKey(bool training, double lr);

  minipy::Value Run(const std::shared_ptr<minipy::FunctionValue>& fn,
                    std::vector<minipy::Value> args, bool training,
                    double lr);
  minipy::Value RunImperative(const std::shared_ptr<minipy::FunctionValue>& fn,
                              std::vector<minipy::Value> args, bool training,
                              double lr);
  // RunImperative wrapped in a trace span named `phase` ("profile",
  // "imperative", "fallback") carrying the unit and `detail`, and the
  // engine.imperative_ns histogram.
  minipy::Value RunImperativePhase(
      const char* phase, const std::shared_ptr<minipy::FunctionValue>& fn,
      std::vector<minipy::Value> args, bool training, double lr,
      std::string detail = {});
  // The unit identity a decision-loop trace event carries: "unit" (the
  // UnitKey as hex, the join key cache events share), "name", "variant".
  static obs::TraceArgs UnitArgs(const minipy::FunctionValue& fn,
                                 bool training, double lr);
  // First entry-guard that rejected a cached entry, rendered for the
  // entry_mismatch decision: which assumption, what the graph assumed,
  // what the live context held.
  struct EntryMismatch {
    std::string assumption;
    std::string assumed;
    std::string observed;
  };
  // The one entry-guard path (Fig. 2 (1)): the closure, every entry check
  // and every capture's kind and shape. Resolves each capture once, into
  // `captured` (one value per CompiledGraph::captures entry), which
  // ExecuteCompiled feeds from.
  bool EntryValid(const CachedUnit& entry,
                  const std::shared_ptr<minipy::FunctionValue>& fn,
                  std::span<const minipy::Value> args,
                  std::vector<minipy::Value>* captured,
                  EntryMismatch* mismatch = nullptr);
  // Runs `entry` on the capture values EntryValid resolved, and adds the
  // run's volume (ops, bytes, fused regions and ops) to `span`, the
  // caller's graph_execution span.
  minipy::Value ExecuteCompiled(const CachedUnit& entry,
                                std::span<const minipy::Value> captured,
                                obs::TraceScope& span);

  minipy::Interpreter* interp_;
  EngineOptions options_;
  Profiler profiler_;
  GraphGenerator generator_;
  InterpreterHostState host_state_;
  std::unique_ptr<ThreadPool> pool_;
  obs::MetricsRegistry metrics_;
  EngineCounters<obs::Counter*> counters_;
  obs::Histogram* imperative_ns_ = nullptr;
  obs::Histogram* graph_execution_ns_ = nullptr;
  obs::Histogram* generation_ns_ = nullptr;
  obs::Histogram* validation_ns_ = nullptr;
  cache::SpecializationCache cache_;  // reports into metrics_
  // Guards the units_ map plus each unit's name/variants against the
  // introspection thread (StatsReport via /statusz); the remaining
  // UnitState fields stay engine-thread-only.
  mutable Mutex units_mu_;
  std::map<const void*, std::unique_ptr<UnitState>> units_
      GUARDED_BY(units_mu_);
  std::map<const void*, bool> roots_;
  bool attached_ = false;
  bool in_imperative_run_ = false;
  int status_source_id_ = 0;  // IntrospectionHub registration (0 = none)
};

}  // namespace janus

#endif  // JANUS_CORE_ENGINE_H_
