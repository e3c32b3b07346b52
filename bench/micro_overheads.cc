// Microbenchmarks (google-benchmark) for the framework layers the paper's
// evaluation reasons about: eager per-op dispatch, graph execution per op,
// interpreter statement throughput, graph generation latency, and the
// assumption-validation cost that §6.3.1 reports as negligible.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "frontend/builtins.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "opt/passes.h"
#include "runtime/executor.h"
#include "runtime/plan.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"

namespace janus {
namespace {

// Appends a chain of N Adds of an 8x8 constant onto `v`.
NodeOutput AddChainOnto(Graph& g, NodeOutput v, int n) {
  const NodeOutput one = g.Constant(Tensor::Full(Shape{8, 8}, 1.0f));
  for (int i = 0; i < n; ++i) {
    v = {g.AddNode("Add", {v, one}), 0};
  }
  return v;
}

// Builds a chain of N Adds: the shape shared by the plan-layer benchmarks
// below so plan-build cost and per-run dispatch cost are comparable.
NodeOutput BuildAddChain(Graph& g, int n) {
  return AddChainOnto(g, g.Constant(Tensor::Full(Shape{8, 8}, 1.0f)), n);
}

void BM_EagerOpDispatch(benchmark::State& state) {
  VariableStore variables;
  Rng rng(1);
  minipy::EagerContext eager(&variables, &rng);
  const Tensor a = Tensor::Full(Shape{8, 8}, 1.0f);
  const Tensor b = Tensor::Full(Shape{8, 8}, 2.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eager.Execute("Add", {a, b}));
  }
}
BENCHMARK(BM_EagerOpDispatch);

void BM_GraphExecutionPerOp(benchmark::State& state) {
  // A chain of N adds executed through the executor (plan built once, as
  // the engine builds it at generation, so this measures the cached-graph
  // hot path). With fusion on (the default) the chain fuses into one
  // region, so this is a fused-region benchmark: one superop dispatch
  // covering N members, and the per-op figure is that dispatch divided
  // by N. Per-node dispatch is BM_PrebuiltPlanDispatch under
  // JANUS_FUSION=0. Allocator counters report the memory-planner effect:
  // allocs/op should be near zero (in-place reuse) and the pool hit rate
  // near 1 after warmup.
  const int n = static_cast<int>(state.range(0));
  Graph g;
  const NodeOutput v = BuildAddChain(g, n);
  VariableStore variables;
  Rng rng(1);
  Executor executor(nullptr, &variables, nullptr, &rng);
  const auto plan = ExecutionPlan::Build(g, std::vector<NodeOutput>{v}, {});
  const BufferPool::Stats before = BufferPool::Global().Snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(*plan, {}));
  }
  state.SetItemsProcessed(state.iterations() * n);
  const BufferPool::Stats after = BufferPool::Global().Snapshot();
  const double ops =
      static_cast<double>(state.iterations()) * static_cast<double>(n);
  const double freshes =
      static_cast<double>(after.pool_hits - before.pool_hits +
                          after.pool_misses - before.pool_misses);
  state.counters["allocs_per_op"] =
      ops > 0 ? static_cast<double>(after.allocations - before.allocations) /
                    ops
              : 0;
  state.counters["in_place_per_op"] =
      ops > 0 ? static_cast<double>(after.in_place_reuses -
                                    before.in_place_reuses) /
                    ops
              : 0;
  state.counters["pool_hit_rate"] =
      freshes > 0
          ? static_cast<double>(after.pool_hits - before.pool_hits) / freshes
          : 1.0;
}
BENCHMARK(BM_GraphExecutionPerOp)->Arg(16)->Arg(128);

void BM_BufferPoolAllocRelease(benchmark::State& state) {
  // Raw pooled alloc/release round trip at a typical kernel-output size;
  // steady state is a thread-cache pop + push with no system allocator.
  const Shape shape{8, 8};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Tensor::Uninitialized(DType::kFloat32, shape));
  }
}
BENCHMARK(BM_BufferPoolAllocRelease);

void BM_PlanBuild(benchmark::State& state) {
  // Cost of compiling an ExecutionPlan from scratch: the one-time price the
  // engine pays at generation time so runs never schedule.
  const int n = static_cast<int>(state.range(0));
  Graph g;
  const NodeOutput v = BuildAddChain(g, n);
  const std::vector<NodeOutput> fetches{v};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecutionPlan::Build(g, fetches, {}));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PlanBuild)->Arg(16)->Arg(128);

void BM_PrebuiltPlanDispatch(benchmark::State& state) {
  // Pure dispatch over a prebuilt plan (Executor::Run(plan, ...)): the
  // cached-graph path without the engine around it. Arg 1 = 1 puts
  // the same chain behind one taken Switch, with an Identity on the
  // untaken side and a Merge joining them: deadness costs a conditional
  // plan no more per op than a plain one.
  const int n = static_cast<int>(state.range(0));
  Graph g;
  NodeOutput v;
  if (state.range(1) != 0) {
    Node* sw = g.AddNode("Switch",
                         {g.Constant(Tensor::Full(Shape{8, 8}, 1.0f)),
                          g.Constant(Tensor::ScalarBool(true))},
                         {}, 2);
    const NodeOutput taken = AddChainOnto(g, {sw, 1}, n);
    Node* untaken = g.AddNode("Identity", {{sw, 0}});
    v = {g.AddNode("Merge", {taken, {untaken, 0}}, {}, 2), 0};
  } else {
    v = BuildAddChain(g, n);
  }
  VariableStore variables;
  Rng rng(1);
  Executor executor(nullptr, &variables, nullptr, &rng);
  const auto plan = ExecutionPlan::Build(g, std::vector<NodeOutput>{v}, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(*plan, {}));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PrebuiltPlanDispatch)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({128, 0})
    ->Args({128, 1});

void BM_FusedChain(benchmark::State& state) {
  // The fusion pass's headline effect: the same 16-op elementwise chain
  // dispatched per node (Arg 0) vs as one fused superop region (Arg 1).
  // Both run over prebuilt plans, so the delta is pure dispatch + memory
  // traffic: one kernel invocation and zero intermediate tensors against
  // sixteen invocations with an intermediate per hop.
  constexpr int kChainOps = 16;
  const bool fuse = state.range(0) != 0;
  Graph g;
  const NodeOutput v = BuildAddChain(g, kChainOps);
  VariableStore variables;
  Rng rng(1);
  Executor executor(nullptr, &variables, nullptr, &rng);
  const std::vector<NodeOutput> fetches{v};
  const auto plan =
      ExecutionPlan::Build(g, fetches, {}, {.enable_fusion = fuse});
  RunMetrics metrics;
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(*plan, {}, &metrics));
  }
  state.SetItemsProcessed(state.iterations() * kChainOps);
  state.counters["fused_regions"] = static_cast<double>(metrics.fused_regions);
  state.counters["fused_ops"] = static_cast<double>(metrics.fused_ops);
}
BENCHMARK(BM_FusedChain)->Arg(0)->Arg(1);

void BM_BroadcastKernels(benchmark::State& state) {
  // The strided kernels at shapes the coarse zoo models run them on: batch
  // norm's broadcast Mul, a bias Add, the bias gradient's ReduceToShape,
  // BroadcastLike's BroadcastTo and a SliceGrad. Arg 0 is the same-shape
  // Mul the broadcast Mul (Arg 1) is compared against: walking operands
  // by runs, a broadcast costs a small multiple of the plain loop.
  const Tensor x = Tensor::Full(Shape{8, 8, 8, 8}, 1.5f);
  const Tensor row = Tensor::Full(Shape{8}, 0.5f);
  const Tensor act = Tensor::Full(Shape{16, 256}, 1.0f);
  const Tensor bias = Tensor::Full(Shape{256}, 0.25f);
  const Tensor grad = Tensor::Full(Shape{16, 64}, 1.0f);
  const Shape sliced{16, 256};
  const std::vector<std::int64_t> begin{0, 64};
  const auto run = [&]() -> Tensor {
    switch (state.range(0)) {
      case 0:
        return ops::Mul(x, x);
      case 1:
        return ops::Mul(x, row);
      case 2:
        return ops::Add(act, bias);
      case 3:
        return ops::ReduceToShape(x, row.shape());
      case 4:
        return ops::BroadcastTo(row, x.shape());
      default:
        return ops::SliceGrad(grad, sliced, begin);
    }
  };
  static constexpr const char* kLabels[] = {
      "Mul [8,8,8,8]x[8,8,8,8]",   "Mul [8,8,8,8]x[8]",
      "Add [16,256]+[256]",        "ReduceToShape [8,8,8,8]->[8]",
      "BroadcastTo [8]->[8,8,8,8]", "SliceGrad [16,64]->[16,256]"};
  state.SetLabel(kLabels[state.range(0)]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run());
  }
}
BENCHMARK(BM_BroadcastKernels)->DenseRange(0, 5);

void BM_ContractionKernels(benchmark::State& state) {
  // The one contraction loop at the shapes the coarse zoo models run it on:
  // LM's gate MatMul (Arg 0) and its two gradients as flagged products —
  // the input gradient with transpose_b (Arg 1), the weight gradient with
  // transpose_a (Arg 2); ResNet50's block Conv2D and its two gradients;
  // Inception-v3's 5x5 and 1x1 Conv2D. Args 1 and 2 do the multiply-adds
  // of Arg 0, so a strided slow path shows as a ratio to it.
  Rng rng(1);
  const auto values = [&](const Shape& shape) {
    return ops::RandomUniform(shape, -1.0f, 1.0f, rng);
  };
  const Tensor xh = values(Shape{16, 128});
  const Tensor wg = values(Shape{128, 256});
  const Tensor dz = values(Shape{16, 256});
  const Tensor x = values(Shape{8, 8, 8, 8});
  const Tensor w = values(Shape{3, 3, 8, 8});
  const Tensor dy = values(Shape{8, 8, 8, 8});
  const Tensor x16 = values(Shape{8, 8, 8, 16});
  const Tensor w5 = values(Shape{5, 5, 16, 4});
  const Tensor w1 = values(Shape{1, 1, 16, 4});
  const auto run = [&]() -> Tensor {
    switch (state.range(0)) {
      case 0:
        return ops::MatMul(xh, wg);
      case 1:
        return ops::MatMul(dz, wg, false, true);
      case 2:
        return ops::MatMul(xh, dz, true, false);
      case 3:
        return ops::Conv2D(x, w, 1, "SAME");
      case 4:
        return ops::Conv2DGradInput(x.shape(), w, dy, 1, "SAME");
      case 5:
        return ops::Conv2DGradFilter(x, w.shape(), dy, 1, "SAME");
      case 6:
        return ops::Conv2D(x16, w5, 1, "SAME");
      default:
        return ops::Conv2D(x16, w1, 1, "SAME");
    }
  };
  static constexpr const char* kLabels[] = {
      "MatMul [16,128]x[128,256]",
      "MatMul [16,256]x[128,256]^T",
      "MatMul [16,128]^Tx[16,256]",
      "Conv2D [8,8,8,8]*[3,3,8,8]",
      "Conv2DGradInput [8,8,8,8]*[3,3,8,8]",
      "Conv2DGradFilter [8,8,8,8]*[3,3,8,8]",
      "Conv2D [8,8,8,16]*[5,5,16,4]",
      "Conv2D [8,8,8,16]*[1,1,16,4]"};
  state.SetLabel(kLabels[state.range(0)]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run());
  }
}
BENCHMARK(BM_ContractionKernels)->DenseRange(0, 7);

void BM_EnginePlanCaching(benchmark::State& state) {
  // Steady-state engine loop on a cached graph; the plan_builds counter
  // surfaces the compile-once/run-many split (it stays at its
  // post-generation value however many runs follow). Arg 0 runs without
  // an executor pool, arg 1 with one (the default): the plan's nodes are
  // far cheaper than a pool handoff, so after calibration its runs stay on
  // the calling thread and the two arms should match.
  VariableStore variables;
  Rng rng(1);
  minipy::Interpreter interp(&variables, &rng);
  minipy::InstallBuiltins(interp);
  EngineOptions options;
  options.parallel_execution = state.range(0) != 0;
  JanusEngine engine(&interp, options);
  engine.Attach();
  interp.Run(R"(
w = variable('w', constant([[0.5]]))
x = constant([[1.0], [2.0]])
def fn():
    return reduce_mean(matmul(x, w))
for i in range(6):
    optimize(fn, 0.01)
)");
  for (auto _ : state) {
    interp.Run("optimize(fn, 0.01)\n");
  }
  state.counters["plan_builds"] =
      static_cast<double>(engine.stats().plan_builds);
}
BENCHMARK(BM_EnginePlanCaching)->Arg(0)->Arg(1);

void BM_InterpreterStatements(benchmark::State& state) {
  VariableStore variables;
  Rng rng(1);
  minipy::Interpreter interp(&variables, &rng);
  minipy::InstallBuiltins(interp);
  interp.Run("def f(n):\n    total = 0\n    for i in range(n):\n"
             "        total = total + i\n    return total\n");
  for (auto _ : state) {
    benchmark::DoNotOptimize(interp.EvaluateExpression("f(100)"));
  }
}
BENCHMARK(BM_InterpreterStatements);

void BM_GraphGeneration(benchmark::State& state) {
  // Full profile->generate cycle for a small training function.
  for (auto _ : state) {
    state.PauseTiming();
    VariableStore variables;
    Rng rng(1);
    minipy::Interpreter interp(&variables, &rng);
    minipy::InstallBuiltins(interp);
    JanusEngine engine(&interp, EngineOptions{});
    engine.Attach();
    interp.Run(R"(
w = variable('w', constant([[0.5]]))
x = constant([[1.0], [2.0]])
def fn():
    return reduce_mean(matmul(x, w))
for i in range(3):
    optimize(fn, 0.01)
)");
    state.ResumeTiming();
    interp.Run("optimize(fn, 0.01)\n");  // triggers the generation
  }
}
BENCHMARK(BM_GraphGeneration);

void BM_AssertionOverhead(benchmark::State& state) {
  // Graph execution with and without AssertOps (§6.3.1): toggled by arg.
  const bool with_asserts = state.range(0) != 0;
  VariableStore variables;
  Rng rng(1);
  minipy::Interpreter interp(&variables, &rng);
  minipy::InstallBuiltins(interp);
  EngineOptions options;
  options.generator.insert_assertions = with_asserts;
  JanusEngine engine(&interp, options);
  engine.Attach();
  interp.Run(R"(
w = variable('w', constant([2.0]))
mode = constant([1.0])
def fn():
    if reduce_sum(mode) > 0.0:
        h = w * 2.0
    else:
        h = w * 3.0
    return reduce_sum(h * h)
for i in range(6):
    optimize(fn, 0.0)
)");
  for (auto _ : state) {
    interp.Run("optimize(fn, 0.0)\n");
  }
}
BENCHMARK(BM_AssertionOverhead)->Arg(0)->Arg(1);

void BM_TraceOverhead(benchmark::State& state) {
  // Graph execution with the span tracer off (arg 0) vs on (arg 1), same
  // 16-op chain as BM_GraphExecutionPerOp/16. The disabled path must stay
  // within 5% of baseline: recording sites reduce to a relaxed atomic load
  // plus a branch. The enabled delta prices a full capture (spans + sampled
  // kernels into per-thread ring buffers).
  const bool tracing = state.range(0) != 0;
  const int n = 16;
  Graph g;
  const NodeOutput v = BuildAddChain(g, n);
  VariableStore variables;
  Rng rng(1);
  Executor executor(nullptr, &variables, nullptr, &rng);
  const auto plan = ExecutionPlan::Build(g, std::vector<NodeOutput>{v}, {});
  if (tracing) {
    obs::Trace::Enable();
  } else {
    obs::Trace::Disable();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(*plan, {}));
  }
  state.SetItemsProcessed(state.iterations() * n);
  if (tracing) {
    state.counters["events_recorded"] =
        static_cast<double>(obs::Trace::TotalRecorded());
    obs::Trace::Disable();
    obs::Trace::Reset();
  }
}
BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1);

void BM_ProfileOverhead(benchmark::State& state) {
  // Graph execution with the source-attributed profiler off (arg 0) vs on
  // (arg 1), same 16-op chain as BM_GraphExecutionPerOp/16. The disabled
  // path must stay within noise of baseline: the per-node hook is one
  // relaxed atomic load plus a branch. The enabled delta prices a jittered
  // 1-in-64 sample (two clock reads + relaxed adds on the node's own
  // histogram) amortized over every node execution.
  const bool profiling = state.range(0) != 0;
  const int n = 16;
  Graph g;
  const NodeOutput v = BuildAddChain(g, n);
  VariableStore variables;
  Rng rng(1);
  Executor executor(nullptr, &variables, nullptr, &rng);
  const auto plan = ExecutionPlan::Build(g, std::vector<NodeOutput>{v}, {});
  if (profiling) {
    obs::EnableProfiling();
  } else {
    obs::DisableProfiling();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(*plan, {}));
  }
  state.SetItemsProcessed(state.iterations() * n);
  if (profiling) {
    std::uint64_t sampled = 0;
    for (const auto& profile : obs::ProfileRegistry::Global().Profiles()) {
      for (int i = 0; i < profile->num_nodes(); ++i) {
        if (const obs::Histogram* samples = profile->Samples(i)) {
          sampled += static_cast<std::uint64_t>(samples->Count());
        }
      }
    }
    state.counters["samples_recorded"] = static_cast<double>(sampled);
    obs::DisableProfiling();
    obs::ProfileRegistry::Global().Reset();
  }
}
BENCHMARK(BM_ProfileOverhead)->Arg(0)->Arg(1);

void BM_OptimizationPasses(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Graph g;
    NodeOutput v = g.Constant(Tensor::Scalar(1.0f));
    for (int i = 0; i < 200; ++i) {
      const NodeOutput c = g.Constant(Tensor::Scalar(static_cast<float>(i)));
      v = {g.AddNode("Add", {v, c}), 0};
    }
    std::vector<NodeOutput> fetches{v};
    state.ResumeTiming();
    benchmark::DoNotOptimize(OptimizeGraph(g, fetches));
  }
}
BENCHMARK(BM_OptimizationPasses);

}  // namespace
}  // namespace janus

// Expanded BENCHMARK_MAIN so the JSON context embeds how *our* sources
// were compiled; CI fails benchmark artifacts whose janus_build_type is
// not "release".
int main(int argc, char** argv) {
  benchmark::AddCustomContext("janus_build_type",
                              janus::bench::BuildTypeString());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
