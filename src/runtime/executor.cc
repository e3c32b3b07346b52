// Executor::Run hands a prebuilt ExecutionPlan and its arguments to the
// executor in dag_executor.cc and commits the run. All schedule
// construction lives in plan.cc; nothing here is per-node work.
#include "runtime/executor.h"

#include <chrono>

#include "common/logging.h"
#include "common/stack.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "tensor/buffer_pool.h"

namespace janus {
namespace internal {

void ExecuteKernel(RunContext& run, const Node& node, const KernelFn& kernel,
                   std::span<const Tensor> inputs,
                   std::vector<Tensor>& outputs, bool allow_in_place) {
  if (run.dispatch_penalty_ns > 0) {
    // Calibrated stand-in for CPython + framework dispatch cost on the
    // imperative executor (see DESIGN.md: interpreter substitution).
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(run.dispatch_penalty_ns);
    while (std::chrono::steady_clock::now() < deadline) {
    }
  }
  KernelContext ctx;
  ctx.node = &node;
  ctx.inputs = inputs;
  ctx.outputs.resize(static_cast<std::size_t>(node.num_outputs()));
  ctx.run = &run;
  try {
    // Opens the in-place window only for nodes the memory plan marked
    // capable AND whose executor guarantees the inputs vector is the sole
    // holder of dead input buffers (see runtime/memory_plan.h).
    const InPlaceScope scope(allow_in_place);
    kernel(ctx);
  } catch (const AssumptionFailed& failure) {
    // Expected speculative abort; no annotation needed, but the trace
    // wants the kernel-site view (the engine adds unit context in its own
    // fallback decision, joined on assumption id).
    if (obs::Trace::Enabled()) {
      obs::Trace::RecordDecision(
          "assert_failure", {{"assumption", failure.assumption_id()},
                             {"assumed", failure.assumed()},
                             {"observed", failure.observed()},
                             {"node", node.op() + ":" + node.name()}});
    }
    throw;
  } catch (const Error& e) {
    throw InvalidArgument(std::string(e.what()) + " [at " +
                          node.DebugString() + "]");
  }
  run.ops_executed.fetch_add(1, std::memory_order_relaxed);
  outputs = std::move(ctx.outputs);
}

}  // namespace internal

namespace {

// Fills `metrics` from the run's counters plus the delta of the
// process-wide BufferPool statistics across the run. Deltas are approximate
// under concurrent runs (the pool is shared), exact otherwise.
void FillMetrics(const RunContext& run, const BufferPool::Stats& before,
                 RunMetrics* metrics) {
  if (metrics == nullptr) return;
  const BufferPool::Stats after = BufferPool::Global().Snapshot();
  metrics->ops_executed = run.ops_executed.load(std::memory_order_relaxed);
  metrics->buffers_released =
      run.buffers_released.load(std::memory_order_relaxed);
  metrics->fused_regions = run.fused_regions.load(std::memory_order_relaxed);
  metrics->fused_ops = run.fused_ops.load(std::memory_order_relaxed);
  metrics->offloaded_nodes =
      run.offloaded_nodes.load(std::memory_order_relaxed);
  metrics->bytes_allocated =
      static_cast<std::int64_t>(after.bytes_allocated - before.bytes_allocated);
  metrics->pool_hits =
      static_cast<std::int64_t>(after.pool_hits - before.pool_hits);
  metrics->pool_misses =
      static_cast<std::int64_t>(after.pool_misses - before.pool_misses);
  metrics->in_place_reuses =
      static_cast<std::int64_t>(after.in_place_reuses - before.in_place_reuses);
}

}  // namespace

Executor::Executor(const FunctionPlans* functions, VariableStore* variables,
                   StateInterface* host_state, Rng* rng,
                   ExecutorOptions options)
    : functions_(functions),
      variables_(variables),
      host_state_(host_state),
      rng_(rng),
      options_(options) {}

std::vector<Tensor> Executor::Run(const ExecutionPlan& plan,
                                  std::span<const Tensor> args,
                                  RunMetrics* metrics) {
  RunContext run;
  const BufferPool::Stats before = BufferPool::Global().Snapshot();
  obs::TraceScope span("execute_plan", "executor");
  span.AddArg("nodes", static_cast<std::int64_t>(plan.nodes().size()));
  run.variables = variables_;
  run.host_state = host_state_;
  run.functions = functions_;
  run.rng = rng_;
  run.pool = options_.parallel ? options_.pool : nullptr;
  if (obs::PlanProfile* profile = plan.profile()) profile->AddRun();

  std::vector<Tensor> results = internal::ExecuteDag(
      run, plan, args, options_.parallel && options_.pool);
  run.Commit();
  FillMetrics(run, before, metrics);
  return results;
}

std::vector<Tensor> Executor::RunFunction(RunContext& run,
                                          const ExecutionPlan& plan,
                                          std::span<const Tensor> args) {
  // Nested runs execute inline on the calling thread (never on the pool) to
  // avoid pool-thread starvation; see header comment. Too deep a nesting
  // fails the run, and the engine falls back with nothing committed.
  if (StackNearlyExhausted()) {
    throw Error("maximum recursion depth exceeded in a nested graph function");
  }
  return internal::ExecuteDag(run, plan, args, /*parallel=*/false);
}

}  // namespace janus
