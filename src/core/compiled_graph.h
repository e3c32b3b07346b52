// The artifact produced by the Speculative Graph Generator and stored in
// the Graph Cache: the symbolic graph, how to feed it from the live program
// context, the entry-time checks that guard cache hits (Fig. 2 ①), the
// fetches (loss value + deferred-update anchor), and the execution plans,
// bound at generation to their arguments and callees.
#ifndef JANUS_CORE_COMPILED_GRAPH_H_
#define JANUS_CORE_COMPILED_GRAPH_H_

#include <memory>
#include <string>
#include <vector>

#include "core/assumptions.h"
#include "frontend/value.h"
#include "graph/graph.h"
#include "runtime/plan.h"

namespace janus {

// A path from the live program context to a value. The root is either a
// positional argument of the converted call or a name in a (still-live)
// lexical environment; steps descend through object attributes and list
// indices. Resolved once per cache-candidate check: the same values
// validate the entry assumptions and feed the placeholders.
struct ContextRef {
  int arg_index = -1;  // >= 0: root is argument #arg_index
  std::shared_ptr<minipy::Environment> env;  // else: `name` in this env
  std::string name;

  struct Step {
    bool is_attr = true;
    std::string attr;
    std::int64_t index = 0;
  };
  std::vector<Step> steps;

  // Reads the referenced value from the given call arguments + captured
  // environments. Throws if the path no longer resolves.
  minipy::Value Resolve(std::span<const minipy::Value> args) const;

  std::string ToString() const;
};

// A placeholder fed from the live context at every execution.
struct CaptureSpec {
  ContextRef ref;
  std::string placeholder_name;
  ObservedKind kind = ObservedKind::kTensor;
  DType dtype = DType::kFloat32;
  // Entry-checked shape assumption (Fig. 4 lattice); Unknown = type-only.
  ShapeAssumption shape = ShapeAssumption::Unknown();
  std::string assumption_id;
  // The profiler's slot for `ref` (Profiler::ObserveContext), which every
  // entry validation observes into. Set by the generator; the engine owns
  // both the profiler and the cache, so the slot outlives the unit.
  ValueProfile* context_profile = nullptr;
  // This capture's position among the main plan's arguments, bound by
  // CompiledGraph::BuildPlans; -1 when optimization pruned its placeholder
  // (its value feeds nothing). Such a capture is still checked at entry: the
  // graph may have baked its shape, since len() and static indexing read a
  // pruned capture's shape.
  int arg_slot = -1;
};

// A context value baked into the graph at generation time; re-validated on
// every cache lookup (identity for heap values, equality for scalars).
struct EntryCheck {
  ContextRef ref;
  minipy::Value expected;
  std::string assumption_id;
};

struct CompiledGraph {
  Graph graph;
  std::shared_ptr<FunctionLibrary> library;  // Invoke/While bodies + grads
  std::vector<CaptureSpec> captures;
  std::vector<EntryCheck> entry_checks;
  // [0] = function result (loss); [1] = side-effect anchor.
  std::vector<NodeOutput> fetches;
  // Ids of assumptions asserted inside the graph (Fig. 2 ②).
  std::vector<std::string> runtime_assumptions;
  bool training = false;
  double learning_rate = 0.0;
  // Qualified name of the imperative unit this graph was generated from;
  // used as the profiler's unit label (obs::PlanProfile::SetKey).
  std::string unit_name;
  int num_assert_ops = 0;
  // Ladder level (GraphGenerator::CompileHints) this graph was generated
  // at; 0 = fully specialized.
  int despecialization_level = 0;

  // Compile-once execution plans, the only plans this unit runs: `plan` is
  // the main graph's schedule for `fetches`, its arguments the surviving
  // capture placeholders in capture order; `function_plans` holds one plan
  // per library function, which the Invoke/While kernels look up by name.
  // Built right after generation (Fig. 2's pay-once conversion cost) and
  // reused by every subsequent ExecuteCompiled.
  std::shared_ptr<const ExecutionPlan> plan;
  FunctionPlans function_plans;

  // Binds each capture's arg_slot and builds `plan` and `function_plans`,
  // all with PlanOptions{enable_fusion}. Returns the number of plans built,
  // for EngineStats::plan_builds accounting.
  int BuildPlans(bool enable_fusion = true);

  // Rough resident size in bytes (nodes, captures, checks, plans), used as
  // the SpecializationCache eviction weight. An estimate is fine: eviction
  // only needs relative order, not allocator truth.
  std::int64_t EstimateBytes() const;
};

// Compares a resolved context value against an expectation: identity for
// heap values and functions, equality for scalars/strings/variables.
bool EntryValueMatches(const minipy::Value& actual,
                       const minipy::Value& expected);

}  // namespace janus

#endif  // JANUS_CORE_COMPILED_GRAPH_H_
