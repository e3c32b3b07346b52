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
// A run takes its inputs positionally: one tensor per plan argument
// (ExecutionPlan::arguments), no lookup by name. Nested executions
// (InvokeOp function calls, While bodies) run inline on the calling thread
// and share the caller's RunContext, so staged state and tapes have
// run-wide scope and thread-pool deadlock is impossible. Each callee's plan
// comes from the FunctionPlans table built with the caller's plan (by
// CompiledGraph at generation time), so nested calls never plan.
//
// Every kernel in the process, graph or eager, runs through one dispatch,
// internal::ExecuteKernel below.
#ifndef JANUS_RUNTIME_EXECUTOR_H_
#define JANUS_RUNTIME_EXECUTOR_H_

#include <span>
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
  // `functions` holds the plans of every function the run's plans call by
  // name (Invoke, While, WhileGrad); it may be null when they call none.
  Executor(const FunctionPlans* functions, VariableStore* variables,
           StateInterface* host_state, Rng* rng,
           ExecutorOptions options = {});

  // Runs a prebuilt plan with one tensor per plan argument, in order, and
  // returns the fetched values in order. On success commits all staged
  // state; on any exception (including AssumptionFailed) nothing is
  // committed. Throws InvalidArgument if the argument count is wrong.
  // `metrics`, when given, receives the run's counters.
  std::vector<Tensor> Run(const ExecutionPlan& plan,
                          std::span<const Tensor> args,
                          RunMetrics* metrics = nullptr);

  // Executes a function's plan with the given arguments inside an ongoing
  // run. Used by the Invoke, While and WhileGrad kernels; never commits.
  static std::vector<Tensor> RunFunction(RunContext& run,
                                         const ExecutionPlan& plan,
                                         std::span<const Tensor> args);

 private:
  const FunctionPlans* functions_;
  VariableStore* variables_;
  StateInterface* host_state_;
  Rng* rng_;
  ExecutorOptions options_;
};

namespace internal {

// Runs one kernel: the one place a KernelContext is built and the calibrated
// dispatch penalty (RunContext::dispatch_penalty_ns) is paid. Its callers
// are the plan executor, a fused region's per-member fallback, the eager
// executor's per-op dispatch (frontend/eager.h) and constant folding. A
// kernel Error is rethrown as InvalidArgument with an "[at <node>]" suffix.
void ExecuteKernel(RunContext& run, const Node& node, const KernelFn& kernel,
                   std::span<const Tensor> inputs,
                   std::vector<Tensor>& outputs, bool allow_in_place = false);

// Runs one plan on one tensor per plan argument; fetches come from the
// plan. Throws InvalidArgument if the argument count is wrong and
// InternalError if a fetched value is dead.
std::vector<Tensor> ExecuteDag(RunContext& run, const ExecutionPlan& plan,
                               std::span<const Tensor> args, bool parallel);

}  // namespace internal
}  // namespace janus

#endif  // JANUS_RUNTIME_EXECUTOR_H_
