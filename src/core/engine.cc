#include "core/engine.h"

#include <bit>
#include <cstdio>
#include <optional>
#include <set>

#include "common/logging.h"
#include "frontend/builtins.h"
#include "obs/http_export.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/fusion.h"
#include "tensor/buffer_pool.h"
#include "verify/plan_verifier.h"

namespace janus {

using minipy::FunctionValue;
using minipy::Value;

namespace {

// Renders a live context value for mismatch attribution (short, symbolic —
// never tensor contents).
std::string DescribeValue(const Value& value) {
  struct Visitor {
    std::string operator()(const minipy::NoneType&) { return "None"; }
    std::string operator()(bool b) { return b ? "True" : "False"; }
    std::string operator()(std::int64_t i) { return std::to_string(i); }
    std::string operator()(double d) { return std::to_string(d); }
    std::string operator()(const std::string& s) {
      return "'" + (s.size() > 40 ? s.substr(0, 40) + "..." : s) + "'";
    }
    std::string operator()(const Tensor& t) {
      return std::string("Tensor<") + DTypeName(t.dtype()) + ", " +
             t.shape().ToString() + ">";
    }
    std::string operator()(const minipy::VariableRef& v) {
      return "Variable('" + v.name + "')";
    }
    std::string operator()(const std::shared_ptr<minipy::ListValue>& l) {
      return "list@" + std::to_string(l->heap_id()) + " (len " +
             std::to_string(l->items.size()) + ")";
    }
    std::string operator()(const std::shared_ptr<minipy::DictValue>& d) {
      return "dict@" + std::to_string(d->heap_id());
    }
    std::string operator()(const std::shared_ptr<minipy::ObjectValue>& o) {
      return "object@" + std::to_string(o->heap_id());
    }
    std::string operator()(const std::shared_ptr<minipy::FunctionValue>& f) {
      return "function " + f->qualified_name;
    }
    std::string operator()(const std::shared_ptr<minipy::ClassValue>& c) {
      return "class " + c->name;
    }
    std::string operator()(const std::shared_ptr<minipy::BuiltinFunction>&) {
      return "builtin";
    }
  };
  return std::visit(Visitor{}, value);
}

// What a CaptureSpec speculates about its context slot, rendered on the
// same vocabulary as DescribeValue so assumed/observed line up.
std::string DescribeCaptureAssumption(const CaptureSpec& capture) {
  if (capture.kind == ObservedKind::kTensor) {
    return std::string("Tensor<") + DTypeName(capture.dtype) + ", " +
           capture.shape.ToString() + ">";
  }
  return ObservedKindName(capture.kind);
}

// Whether a resolved context value still fits its capture's assumption:
// kind, plus dtype and shape for tensors.
bool CaptureMatches(const CaptureSpec& capture, const Value& value) {
  switch (capture.kind) {
    case ObservedKind::kTensor: {
      const auto* tensor = std::get_if<Tensor>(&value);
      return tensor != nullptr && tensor->dtype() == capture.dtype &&
             capture.shape.Matches(tensor->shape());
    }
    case ObservedKind::kInt:
      return std::holds_alternative<std::int64_t>(value);
    case ObservedKind::kFloat:
      return std::holds_alternative<double>(value);
    case ObservedKind::kBool:
      return std::holds_alternative<bool>(value);
    case ObservedKind::kObject:
      return std::holds_alternative<std::shared_ptr<minipy::ObjectValue>>(
          value);
    case ObservedKind::kList:
      return std::holds_alternative<std::shared_ptr<minipy::ListValue>>(value);
    case ObservedKind::kDict:
      return std::holds_alternative<std::shared_ptr<minipy::DictValue>>(value);
    default:
      return false;
  }
}

}  // namespace

EngineOptions EngineOptions::ImperativePreset() {
  EngineOptions options;
  options.enabled = false;
  return options;
}

EngineOptions EngineOptions::TracingPreset() {
  EngineOptions options;
  options.profile_threshold = 1;
  options.validate_entry_checks = false;
  options.generator.insert_assertions = false;
  options.generator.tracing_semantics = true;
  return options;
}

// The SpecializationCache payload: the compiled artifact plus the closure
// it was generated against. EntryValid checks the closure before any other
// guard on every use: a different closure is a different program, not a
// drifted assumption.
struct JanusEngine::CachedUnit {
  std::unique_ptr<CompiledGraph> compiled;
  std::shared_ptr<minipy::Environment> closure;
};

struct JanusEngine::UnitState {
  std::int64_t calls = 0;
  bool imperative_only = false;
  int failed_generations = 0;
  std::int64_t next_generation_attempt = 0;
  std::string refusal_reason;
  // Guarded by units_mu_ (read by the introspection thread in
  // StatsReport); everything above is engine-thread-only.
  std::string name;
  std::set<std::uint64_t> variants;
};

JanusEngine::JanusEngine(minipy::Interpreter* interp, EngineOptions options)
    : interp_(interp),
      options_(options),
      generator_(interp, &profiler_, options.generator),
      host_state_(interp),
      cache_(options_.cache, &metrics_) {
  if (options_.enabled && options_.parallel_execution) {
    pool_ = std::make_unique<ThreadPool>(
        ResolveThreadPoolSize(options_.pool_threads));
  }
#define JANUS_ENGINE_COUNTER_CELL(name) \
  counters_.name = &metrics_.GetCounter("engine." #name);
  JANUS_ENGINE_COUNTERS(JANUS_ENGINE_COUNTER_CELL)
#undef JANUS_ENGINE_COUNTER_CELL
  imperative_ns_ = &metrics_.GetHistogram("engine.imperative_ns");
  graph_execution_ns_ = &metrics_.GetHistogram("engine.graph_execution_ns");
  generation_ns_ = &metrics_.GetHistogram("engine.generation_ns");
  validation_ns_ = &metrics_.GetHistogram("engine.validation_ns");
}

JanusEngine::~JanusEngine() {
  if (attached_) Detach();
}

void JanusEngine::Attach() {
  JANUS_EXPECTS(!attached_);
  attached_ = true;
  // Post-build plan verification (src/verify): the hook is process-wide and
  // idempotent; whether it actually checks is gated by JANUS_VERIFY
  // (default: debug builds only).
  verify::InstallPlanVerifier();
  // Publish this engine to the live-introspection endpoints: its private
  // registry feeds /metrics, its StatsReport() feeds /statusz. Detach()
  // retires both so a scrape after teardown still sees the final totals.
  obs::IntrospectionHub::Global().RegisterMetricsSource(&metrics_);
  status_source_id_ = obs::IntrospectionHub::Global().RegisterStatusSource(
      "engine " + obs::PointerToHex(this), [this] { return StatsReport(); });
  interp_->set_observer(&profiler_);
  interp_->set_interceptor(this);
  interp_->eager().set_dispatch_penalty_ns(options_.eager_dispatch_penalty_ns);
  // Engine-aware training entry point, replacing the imperative builtin.
  interp_->RegisterBuiltin(
      "optimize", [this](minipy::Interpreter&, std::span<Value> args) -> Value {
        minipy::CheckArity(*minipy::FindBuiltin("optimize"), args.size());
        const auto* fn = std::get_if<std::shared_ptr<FunctionValue>>(&args[0]);
        if (fn == nullptr) {
          throw minipy::MiniPyError("optimize(): expected a function");
        }
        double lr = 0.01;
        if (args.size() == 2) {
          if (const auto* d = std::get_if<double>(&args[1])) {
            lr = *d;
          } else if (const auto* i = std::get_if<std::int64_t>(&args[1])) {
            lr = static_cast<double>(*i);
          } else {
            throw minipy::MiniPyError("optimize(): bad learning rate");
          }
        }
        return RunTraining(*fn, lr);
      });
  // Marks a function for graph conversion on ordinary (inference) calls.
  interp_->RegisterBuiltin(
      "janus_function", [this](minipy::Interpreter&,
                               std::span<Value> args) -> Value {
        if (args.size() != 1) {
          throw minipy::MiniPyError("janus_function(): expected a function");
        }
        const auto* fn = std::get_if<std::shared_ptr<FunctionValue>>(&args[0]);
        if (fn == nullptr) {
          throw minipy::MiniPyError("janus_function(): expected a function");
        }
        MarkRoot(*fn);
        return args[0];
      });
}

void JanusEngine::Detach() {
  attached_ = false;
  // Retirement must happen while the engine is still alive: the hub
  // captures a final StatsReport() and folds the registry's counts.
  if (status_source_id_ != 0) {
    obs::IntrospectionHub::Global().UnregisterStatusSource(status_source_id_);
    status_source_id_ = 0;
  }
  obs::IntrospectionHub::Global().UnregisterMetricsSource(&metrics_);
  interp_->set_observer(nullptr);
  interp_->set_interceptor(nullptr);
}

const void* JanusEngine::UnitKey(const FunctionValue& fn) {
  return fn.def != nullptr ? static_cast<const void*>(fn.def)
                           : static_cast<const void*>(fn.lambda);
}

std::uint64_t JanusEngine::VariantKey(bool training, double lr) {
  // Inference is variant 0; training variants fold the learning-rate bits
  // in (shifted past the sign bit, which is always 0 for a real lr) and
  // set bit 0 so training-with-lr-0 cannot collide with inference.
  if (!training) return 0;
  return (std::bit_cast<std::uint64_t>(lr) << 1) | 1u;
}

void JanusEngine::MarkRoot(const std::shared_ptr<FunctionValue>& fn) {
  roots_[UnitKey(*fn)] = true;
}

bool JanusEngine::MaybeIntercept(const std::shared_ptr<FunctionValue>& fn,
                                 std::span<Value> args, Value* result) {
  if (!options_.enabled || in_imperative_run_) return false;
  const auto it = roots_.find(UnitKey(*fn));
  if (it == roots_.end() || !it->second) return false;
  std::vector<Value> full_args;
  // Bound receiver becomes argument 0, matching CallFunction's convention.
  if (!std::holds_alternative<minipy::NoneType>(fn->self)) {
    full_args.push_back(fn->self);
  }
  full_args.insert(full_args.end(), args.begin(), args.end());
  *result = Run(fn, std::move(full_args), /*training=*/false, 0.0);
  return true;
}

minipy::Value JanusEngine::RunTraining(
    const std::shared_ptr<FunctionValue>& fn, double lr) {
  std::vector<Value> args;
  if (!std::holds_alternative<minipy::NoneType>(fn->self)) {
    args.push_back(fn->self);
  }
  return Run(fn, std::move(args), /*training=*/true, lr);
}

minipy::Value JanusEngine::Run(const std::shared_ptr<FunctionValue>& fn,
                               std::vector<Value> args, bool training,
                               double lr) {
  if (!options_.enabled) {
    return RunImperativePhase("imperative", fn, std::move(args), training,
                              lr);
  }
  const void* key = UnitKey(*fn);
  UnitState* unit = nullptr;
  {
    const MutexLock lock(units_mu_);
    auto& slot = units_[key];
    if (slot == nullptr) slot = std::make_unique<UnitState>();
    unit = slot.get();
    if (unit->name.empty()) unit->name = fn->qualified_name;
    unit->variants.insert(VariantKey(training, lr));
  }
  ++unit->calls;

  if (unit->imperative_only) {
    counters_.imperative_executions->Increment();
    return RunImperativePhase("imperative", fn, std::move(args), training,
                              lr, unit->refusal_reason);
  }

  const cache::SpecializationCache::Key cache_key{key,
                                                  VariantKey(training, lr)};
  // Runs a cached (cache_hit 1) or freshly generated (0) entry whose entry
  // assumptions hold. On a speculation failure nothing was committed:
  // records it, drops the entry, and returns nullopt with `failure` set.
  std::string failure;
  std::vector<Value> captured;  // EntryValid's resolved capture values
  const auto try_graph = [&](CachedUnit& entry,
                             const cache::SpecializationCache::EntryRef& ref,
                             int cache_hit,
                             std::int64_t check_ns) -> std::optional<Value> {
    // Where the run sat: the ladder level, whether a cached entry ran, and
    // what its entry guard cost (a fresh entry's check is not timed). Built
    // only while tracing, as every event arg of this run.
    const auto run_args = [&] {
      obs::TraceArgs args = UnitArgs(*fn, training, lr);
      args.push_back({"level", entry.compiled->despecialization_level});
      args.push_back({"cache_hit", cache_hit});
      if (check_ns >= 0) args.push_back({"validate_ns", check_ns});
      return args;
    };
    try {
      obs::TraceScope span("graph_execution", "engine");
      Value result = ExecuteCompiled(entry, captured, span);
      counters_.graph_executions->Increment();
      cache_.OnRunSuccess(cache_key);
      if (span.armed()) span.AddArgs(run_args());
      return result;
    } catch (const AssumptionFailed& assumption) {
      // (E) Runtime assumption failure: mark the assumption so
      // regeneration relaxes it (§3.2).
      counters_.assumption_failures->Increment();
      counters_.fallbacks->Increment();
      if (obs::Trace::Enabled()) {
        obs::TraceArgs args = run_args();
        args.push_back({"assumption", assumption.assumption_id()});
        args.push_back({"assumed", assumption.assumed()});
        args.push_back({"observed", assumption.observed()});
        obs::Trace::RecordDecision("fallback", std::move(args));
      }
      profiler_.MarkAssumptionFailed(assumption.assumption_id());
      failure = assumption.assumption_id();
    } catch (const Error& error) {
      // A kernel crashed on data that violates an assumption before the
      // guarding AssertOp ran (assertions execute in parallel with the
      // network, §6.3.1). Re-profiling relaxes the assumption.
      counters_.fallbacks->Increment();
      JANUS_LOG(kInfo) << "speculative graph failed (" << error.what()
                       << "); falling back";
      if (obs::Trace::Enabled()) {
        obs::TraceArgs args = run_args();
        args.push_back({"detail", std::string(error.what())});
        obs::Trace::RecordDecision("fallback", std::move(args));
      }
      failure = error.what();
    }
    cache_.OnEntryFailure(cache_key, ref);
    return std::nullopt;
  };

  // (D) Try cached graphs whose entry assumptions hold (Fig. 2 ①). The
  // SpecializationCache owns the candidate population (budgets, eviction,
  // churn accounting); the engine owns validation and execution.
  const auto candidates = cache_.Lookup(cache_key);
  for (const auto& entry_ref : candidates) {
    auto& entry = *static_cast<CachedUnit*>(entry_ref->payload.get());
    cache_.BeginUse(entry_ref);
    EntryMismatch mismatch;
    const std::int64_t check_start_ns = obs::Trace::NowNs();
    const bool tracing = obs::Trace::Enabled();
    const bool valid = EntryValid(entry, fn, args, &captured,
                                  tracing ? &mismatch : nullptr);
    const std::int64_t check_ns = obs::Trace::NowNs() - check_start_ns;
    validation_ns_->Record(check_ns);
    // Guard cost charged to the unit it protects, so /profilez shows
    // validation alongside execution per unit.
    entry.compiled->plan->profile()->AddValidationNs(check_ns);
    if (!valid) {
      if (tracing) {
        obs::TraceArgs decision = UnitArgs(*fn, training, lr);
        decision.push_back({"level", entry.compiled->despecialization_level});
        decision.push_back({"validate_ns", check_ns});
        decision.push_back({"assumption", std::move(mismatch.assumption)});
        decision.push_back({"assumed", std::move(mismatch.assumed)});
        decision.push_back({"observed", std::move(mismatch.observed)});
        obs::Trace::RecordDecision("entry_mismatch", std::move(decision));
      }
      continue;
    }
    if (auto result = try_graph(entry, entry_ref, /*cache_hit=*/1, check_ns)) {
      return *std::move(result);
    }
    // (E) Fall back to the imperative executor.
    counters_.imperative_executions->Increment();
    return RunImperativePhase("fallback", fn, std::move(args), training, lr,
                              failure);
  }
  if (!candidates.empty()) {
    counters_.cache_misses->Increment();
    cache_.OnMiss(cache_key);
    if (obs::Trace::Enabled()) {
      obs::TraceArgs decision = UnitArgs(*fn, training, lr);
      decision.push_back(
          {"candidates", static_cast<std::int64_t>(candidates.size())});
      obs::Trace::RecordDecision("cache_miss", std::move(decision));
    }
  }

  // (B) Generate once enough profile information exists (§3.1). After a
  // refusal, retry with exponential backoff — later profiles may relax the
  // assumption that made the program unconvertible.
  if (unit->calls > options_.profile_threshold &&
      unit->calls >= unit->next_generation_attempt) {
    try {
      // The cache's churn ladder decides how specialized this regeneration
      // may be: a key that keeps failing or being evicted-and-rebuilt
      // descends the Fig. 4 lattice instead of thrashing at full
      // specialization.
      GraphGenerator::CompileHints hints;
      hints.despecialization_level =
          options_.force_despecialization_level >= 0
              ? options_.force_despecialization_level
              : cache_.DespecializationLevel(cache_key);
      std::unique_ptr<CompiledGraph> compiled;
      std::int64_t build_cost_ns = 0;
      std::int64_t bytes = 0;
      {
        obs::TraceScope span("graph_generation", "engine");
        const std::int64_t start_ns = obs::Trace::NowNs();
        compiled = generator_.Compile(fn, args, training, lr, hints);
        // Pay the scheduling cost once, here, with the rest of the
        // conversion cost: compile execution plans for the graph and every
        // library function so no ExecuteCompiled ever plans on the hot
        // path.
        counters_.plan_builds->Add(
            compiled->BuildPlans(options_.enable_fusion));
        build_cost_ns = obs::Trace::NowNs() - start_ns;
        generation_ns_->Record(build_cost_ns);
        compiled->plan->profile()->SetGenerationNs(build_cost_ns);
        bytes = compiled->EstimateBytes();
        if (span.armed()) {
          span.AddArgs(UnitArgs(*fn, training, lr));
          span.AddArg("level", hints.despecialization_level);
          span.AddArg("bytes", bytes);
          span.AddArg("asserts", compiled->num_assert_ops);
          span.AddArg("entry_checks",
                      static_cast<std::int64_t>(compiled->entry_checks.size()));
          span.AddArg("captures",
                      static_cast<std::int64_t>(compiled->captures.size()));
        }
      }
      counters_.graph_generations->Increment();
      auto cached = std::make_shared<CachedUnit>();
      cached->compiled = std::move(compiled);
      cached->closure = fn->closure;
      // Eviction weight: what this artifact cost to build (generation +
      // plan compilation) against what it occupies.
      const auto entry_ref =
          cache_.Insert(cache_key, cached, bytes, build_cost_ns);
      CachedUnit& fresh = *cached;
      if (EntryValid(fresh, fn, args, &captured)) {
        if (auto result = try_graph(fresh, entry_ref, /*cache_hit=*/0, -1)) {
          return *std::move(result);
        }
      }
    } catch (const NotConvertible& refusal) {
      // (C) Outside the convertible subset (§4.3). Pin to the imperative
      // executor after repeated refusals.
      counters_.not_convertible->Increment();
      ++unit->failed_generations;
      unit->refusal_reason = refusal.what();
      unit->next_generation_attempt = unit->calls * 2;
      if (unit->failed_generations >= 4) unit->imperative_only = true;
      if (obs::Trace::Enabled()) {
        obs::TraceArgs decision = UnitArgs(*fn, training, lr);
        decision.push_back({"detail", std::string(refusal.what())});
        decision.push_back({"pinned", unit->imperative_only ? 1 : 0});
        obs::Trace::RecordDecision("refusal", std::move(decision));
      }
      JANUS_LOG(kInfo) << "not convertible: " << refusal.what();
    }
  }
  counters_.imperative_executions->Increment();
  // Pre-conversion runs are the profiling phase of Fig. 2 (A).
  return RunImperativePhase("profile", fn, std::move(args), training, lr);
}

minipy::Value JanusEngine::RunImperativePhase(
    const char* phase, const std::shared_ptr<FunctionValue>& fn,
    std::vector<Value> args, bool training, double lr, std::string detail) {
  obs::TraceScope span(phase, "engine");
  if (span.armed()) {
    span.AddArgs(UnitArgs(*fn, training, lr));
    if (!detail.empty()) span.AddArg("detail", std::move(detail));
  }
  const std::int64_t start_ns = obs::Trace::NowNs();
  Value result = RunImperative(fn, std::move(args), training, lr);
  imperative_ns_->Record(obs::Trace::NowNs() - start_ns);
  return result;
}

obs::TraceArgs JanusEngine::UnitArgs(const FunctionValue& fn, bool training,
                                     double lr) {
  return {{"unit", obs::PointerToHex(UnitKey(fn))},
          {"name", fn.qualified_name},
          {"variant", std::to_string(VariantKey(training, lr))}};
}

minipy::Value JanusEngine::RunImperative(
    const std::shared_ptr<FunctionValue>& fn, std::vector<Value> args,
    bool training, double lr) {
  // Reentrancy guard: nested calls run plainly (and keep being profiled).
  const bool saved = in_imperative_run_;
  in_imperative_run_ = true;
  struct Restore {
    bool* flag;
    bool value;
    ~Restore() { *flag = value; }
  } restore{&in_imperative_run_, saved};

  // Strip the bound receiver again: CallFunction re-inserts it.
  std::vector<Value> call_args = std::move(args);
  if (!std::holds_alternative<minipy::NoneType>(fn->self) &&
      !call_args.empty()) {
    call_args.erase(call_args.begin());
  }
  if (!training) {
    return interp_->CallFunction(fn, std::move(call_args));
  }
  return minipy::ImperativeTrainingStep(*interp_, fn, std::move(call_args),
                                        static_cast<float>(lr));
}

bool JanusEngine::EntryValid(const CachedUnit& entry,
                             const std::shared_ptr<FunctionValue>& fn,
                             std::span<const Value> args,
                             std::vector<Value>* captured,
                             EntryMismatch* mismatch) {
  // Renders the first failing guard for the entry_mismatch decision; the
  // rendering work only happens on the (already slow) rejection path, and
  // only when the caller wants attribution.
  const auto report = [mismatch](const std::string& assumption,
                                 std::string assumed, std::string observed) {
    if (mismatch == nullptr) return;
    mismatch->assumption = assumption;
    mismatch->assumed = std::move(assumed);
    mismatch->observed = std::move(observed);
  };
  if (entry.closure != fn->closure) {
    report("closure", "generation-time closure", "different closure");
    return false;
  }
  // Without entry checks (TracingPreset) the captures are still resolved:
  // they are the graph's feeds.
  const bool check = options_.validate_entry_checks;
  captured->clear();
  captured->reserve(entry.compiled->captures.size());
  const CaptureSpec* current_capture = nullptr;
  try {
    if (check) {
      for (const EntryCheck& entry_check : entry.compiled->entry_checks) {
        const Value actual = entry_check.ref.Resolve(args);
        if (!EntryValueMatches(actual, entry_check.expected)) {
          report(entry_check.assumption_id,
                 DescribeValue(entry_check.expected), DescribeValue(actual));
          return false;
        }
      }
    }
    for (const CaptureSpec& capture : entry.compiled->captures) {
      current_capture = &capture;
      Value value = capture.ref.Resolve(args);
      if (check) {
        // Every validation is also a profile observation, so shape/constant
        // assumptions keep relaxing along the Fig. 4 lattice.
        profiler_.ObserveContext(*capture.context_profile, value);
        if (!CaptureMatches(capture, value)) {
          report(capture.assumption_id, DescribeCaptureAssumption(capture),
                 DescribeValue(value));
          return false;
        }
      }
      captured->push_back(std::move(value));
    }
  } catch (const Error& error) {
    // Ref no longer resolves: the surrounding context changed shape.
    report(current_capture != nullptr ? current_capture->assumption_id
                                      : std::string("context"),
           "resolvable context reference", error.what());
    return false;
  }
  return true;
}

minipy::Value JanusEngine::ExecuteCompiled(const CachedUnit& entry,
                                           std::span<const Value> captured,
                                           obs::TraceScope& span) {
  const std::int64_t start_ns = obs::Trace::NowNs();
  const CompiledGraph& compiled = *entry.compiled;
  JANUS_EXPECTS(captured.size() == compiled.captures.size());
  std::vector<Tensor> args(compiled.plan->arguments().size());
  for (std::size_t i = 0; i < captured.size(); ++i) {
    if (const int slot = compiled.captures[i].arg_slot; slot >= 0) {
      args[static_cast<std::size_t>(slot)] = EncodeValueAsTensor(captured[i]);
    }
  }
  ExecutorOptions exec_options;
  exec_options.parallel = options_.parallel_execution && pool_ != nullptr;
  exec_options.pool = pool_.get();
  Executor executor(&compiled.function_plans, interp_->variables(),
                    &host_state_, interp_->rng(), exec_options);
  RunMetrics metrics;
  std::vector<Tensor> results = executor.Run(*compiled.plan, args, &metrics);
  counters_.graph_ops_executed->Add(metrics.ops_executed);
  counters_.bytes_allocated->Add(metrics.bytes_allocated);
  counters_.pool_hits->Add(metrics.pool_hits);
  counters_.pool_misses->Add(metrics.pool_misses);
  counters_.in_place_reuses->Add(metrics.in_place_reuses);
  counters_.fused_regions->Add(metrics.fused_regions);
  counters_.fused_ops->Add(metrics.fused_ops);
  graph_execution_ns_->Record(obs::Trace::NowNs() - start_ns);
  span.AddArg("ops", metrics.ops_executed);
  span.AddArg("bytes", metrics.bytes_allocated);
  span.AddArg("fused_regions", metrics.fused_regions);
  span.AddArg("fused_ops", metrics.fused_ops);
  return results.at(0);
}

std::vector<JanusEngine::UnitVariants> JanusEngine::SnapshotUnits() const {
  const MutexLock lock(units_mu_);
  std::vector<UnitVariants> snapshot;
  snapshot.reserve(units_.size());
  for (const auto& [key, unit] : units_) {
    snapshot.push_back({key, unit->name,
                        {unit->variants.begin(), unit->variants.end()}});
  }
  return snapshot;
}

EngineStats JanusEngine::stats() const {
  EngineStats s;
#define JANUS_ENGINE_COUNTER_VALUE(name) s.name = counters_.name->Value();
  JANUS_ENGINE_COUNTERS(JANUS_ENGINE_COUNTER_VALUE)
#undef JANUS_ENGINE_COUNTER_VALUE
  return s;
}

std::string JanusEngine::StatsReport() const {
  std::string out = "=== JANUS engine observability report ===\n";
  out += metrics_.TextReportForPrefix("engine.");
  out += "--- specialization cache ---\n";
  out += cache_.TextReport();  // the registry's cache.* metrics
  // Per-unit ladder state: which rung of the Fig. 4 lattice each
  // conversion unit sits on, and how its candidates are doing. /statusz
  // reads this from the HTTP thread, hence the units_mu_ snapshot.
  {
    std::string ladder;
    for (const UnitVariants& unit : SnapshotUnits()) {
      for (const std::uint64_t variant : unit.variants) {
        const cache::KeyStats ks = cache_.Stats({unit.key, variant});
        if (ks.insertions == 0 && ks.misses == 0 && ks.hits == 0) continue;
        std::string variant_text = "inference";
        if ((variant & 1u) != 0) {
          char lr_text[32];
          std::snprintf(lr_text, sizeof(lr_text), "lr=%g",
                        std::bit_cast<double>(variant >> 1));
          variant_text = std::string("training ") + lr_text;
        }
        char line[320];
        std::snprintf(
            line, sizeof(line),
            "%s [%s]: ladder_level=%d resident=%lld "
            "hits=%lld misses=%lld failures=%lld churn=%lld\n",
            unit.name.empty() ? obs::PointerToHex(unit.key).c_str()
                              : unit.name.c_str(),
            variant_text.c_str(), ks.ladder_level,
            static_cast<long long>(ks.resident_entries),
            static_cast<long long>(ks.hits),
            static_cast<long long>(ks.misses),
            static_cast<long long>(ks.failures),
            static_cast<long long>(ks.churn_events));
        ladder += line;
      }
    }
    if (!ladder.empty()) {
      out += "--- per-unit despecialization ladder ---\n";
      out += ladder;
    }
  }
  // Fusion state (the engine's fused_regions/fused_ops counters are in the
  // registry section above).
  out += "--- fusion ---\n";
  out += "enabled=";
  out += options_.enable_fusion && fusion::GloballyEnabled() ? "1\n" : "0\n";
  const BufferPool::Stats pool = BufferPool::Global().Snapshot();
  out += "--- buffer pool (process-wide) ---\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "allocations=%lld hits=%lld misses=%lld bytes=%lld "
                "retained=%lld in_place=%lld\n",
                static_cast<long long>(pool.allocations),
                static_cast<long long>(pool.pool_hits),
                static_cast<long long>(pool.pool_misses),
                static_cast<long long>(pool.bytes_allocated),
                static_cast<long long>(pool.retained_bytes),
                static_cast<long long>(pool.in_place_reuses));
  out += line;
  return out;
}

void JanusEngine::ForEachCompiledUnit(
    const std::function<void(const std::string& name,
                             const CompiledGraph& unit)>& visit) {
  // Walk the cache outside units_mu_: Lookup takes the cache mutex and the
  // visitor may be arbitrarily slow.
  for (const UnitVariants& unit : SnapshotUnits()) {
    for (const std::uint64_t variant : unit.variants) {
      for (const auto& entry_ref : cache_.Lookup({unit.key, variant})) {
        const auto& cached =
            *static_cast<const CachedUnit*>(entry_ref->payload.get());
        if (cached.compiled != nullptr) {
          visit(unit.name, *cached.compiled);
        }
      }
    }
  }
}

}  // namespace janus
