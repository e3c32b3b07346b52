// The symbolic graph executor.
//
// Scheduling is compiled once per graph into an ExecutionPlan
// (runtime/plan.h); Run dispatches a prebuilt plan with zero per-run
// schedule construction. Every plan runs on one path (dag_executor.cc): its
// nodes execute in topological order, each counted down from its
// incoming-edge count along its producers' out-edges, and Switch/Merge
// conditionals propagate a dead bit per value, the dataflow deadness of
// TF 1.x that the paper builds on (§4.2.1). When the executor has a pool
// (the +PARL knob of Fig. 7), each plan decides once, from the mean node
// cost of its first few runs (sequential, all but the first timed), whether
// to use it: plans whose nodes average less than a pool handoff run exactly
// as without a pool; coarse plans fan ready ops out over atomic pending
// counts (PoolDecision in runtime/plan.h).
//
// Nested executions (InvokeOp function calls, While bodies) run inline on
// the calling thread and share the caller's RunContext, so staged state and
// tapes have run-wide scope and thread-pool deadlock is impossible. Each
// function body's plan is cached on its own Graph (and pre-built at
// generation time by CompiledGraph), so nested calls never replan.
#ifndef JANUS_RUNTIME_EXECUTOR_H_
#define JANUS_RUNTIME_EXECUTOR_H_

#include <map>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "runtime/kernel.h"
#include "runtime/plan.h"
#include "runtime/run_context.h"

namespace janus {

struct ExecutorOptions {
  // Offers `pool` to every plan; each plan's PoolDecision says whether its
  // runs use it. Requires `pool`.
  bool parallel = false;
  ThreadPool* pool = nullptr;
};

// Per-run observability, filled from the RunContext after a run. The
// allocator counters are deltas of the process-wide BufferPool statistics
// over the run, attributing pool traffic to the run that caused it.
struct RunMetrics {
  std::int64_t ops_executed = 0;
  std::int64_t plan_builds = 0;
  std::int64_t plan_cache_hits = 0;
  std::int64_t bytes_allocated = 0;
  std::int64_t pool_hits = 0;
  std::int64_t pool_misses = 0;
  std::int64_t in_place_reuses = 0;
  std::int64_t buffers_released = 0;  // dead intermediates dropped mid-run
  // Fused-region dispatch: regions executed through the superop interpreter
  // and the member ops they covered (also counted in ops_executed).
  std::int64_t fused_regions = 0;
  std::int64_t fused_ops = 0;
  // Plan nodes executed off the calling thread, on the executor pool.
  std::int64_t offloaded_nodes = 0;
};

class Executor {
 public:
  Executor(const FunctionLibrary* library, VariableStore* variables,
           StateInterface* host_state, Rng* rng,
           ExecutorOptions options = {});

  // Runs `graph`, feeding placeholders by name and returning the fetched
  // values in order. The graph's plan is taken from its plan cache (built on
  // first use). On success commits all staged state; on any exception
  // (including AssumptionFailed) nothing is committed. `metrics`, when
  // given, receives the run's kernel count and plan-cache accounting.
  std::vector<Tensor> Run(const Graph& graph,
                          const std::map<std::string, Tensor>& feeds,
                          std::span<const NodeOutput> fetches,
                          RunMetrics* metrics = nullptr);

  // Runs a prebuilt plan directly: the pure dispatch hot path. No plan
  // cache is consulted and no scheduling state is derived.
  std::vector<Tensor> Run(const ExecutionPlan& plan,
                          const std::map<std::string, Tensor>& feeds,
                          RunMetrics* metrics = nullptr);

  // Executes a library function with the given arguments inside an ongoing
  // run, reusing the function graph's cached plan. Used by the Invoke and
  // While kernels; never commits.
  static std::vector<Tensor> RunFunction(RunContext& run,
                                         const GraphFunction& fn,
                                         std::span<const Tensor> args);

 private:
  std::vector<Tensor> RunPlan(const ExecutionPlan& plan,
                              const std::map<std::string, Tensor>& feeds,
                              RunContext& run);

  const FunctionLibrary* library_;
  VariableStore* variables_;
  StateInterface* host_state_;
  Rng* rng_;
  ExecutorOptions options_;
};

namespace internal {

// Binds function parameters for nested runs: Param nodes resolve through
// this map, Placeholders through RunContext::feeds.
using Bindings = std::map<const Node*, Tensor>;

// Optional per-node precomputed outputs: nodes present in this map are not
// re-executed; their recorded outputs are used directly. The eager tape uses
// this to run gradient subgraphs without recomputing the forward pass.
using Precomputed = std::map<const Node*, std::vector<Tensor>>;

// Runs one kernel (defined in executor.cc; fused regions call it for
// per-member fallback dispatch).
void ExecuteKernel(RunContext& run, const Node& node, const KernelFn& kernel,
                   std::span<const Tensor> inputs,
                   std::vector<Tensor>& outputs, bool allow_in_place = false);

// Runs one plan; fetches come from the plan. Throws InternalError if a
// fetched value is dead.
std::vector<Tensor> ExecuteDag(RunContext& run, const ExecutionPlan& plan,
                               const Bindings& bindings, bool parallel,
                               const Precomputed* precomputed = nullptr);

}  // namespace internal
}  // namespace janus

#endif  // JANUS_RUNTIME_EXECUTOR_H_
