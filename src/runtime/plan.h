// Compile-once execution plans.
//
// An ExecutionPlan is the immutable compiled schedule of one graph that
// moves every piece of per-run scheduling work out of the dispatch hot
// path: the fetch-reachable node set in topological (Kahn) order, dense
// node indices, incoming-edge counts, per-slot out-edges, resolved KernelFn
// pointers, pre-classified op kinds (no string compares at run time), fetch
// slots, and each source node's argument position. A plan is built once per
// (graph, fetches, arguments) and reused across every subsequent
// Executor::Run / nested RunFunction call — the compile-once/run-many split
// the paper's amortization argument (§3.1, Fig. 2) relies on, mirroring how
// TensorFlow caches a compiled executor per graph.
//
// Every plan, conditional or not, has one node form (PlanNode) and runs on
// one executor, the way TF runs every graph on one dataflow executor
// (§4.2.1): Switch/Merge conditionals need no frames, only a dead bit per
// value. Loops are the functional While and recursion is Invoke, so the
// graph is acyclic. Fusion, the memory plan, the profiler and the verifier
// each read that one form.
//
// A run receives its inputs positionally, the way TF Eager calls a traced
// function with a flat list of tensors: Build takes the graph's source
// nodes (Placeholders of a compiled graph, Params of a function body) in
// call order, and each run passes one tensor per argument. Plans live with
// what they were built for: CompiledGraph owns its main plan and the
// FunctionPlans table of its library, built together at generation time;
// the eager tape builds its one-shot backward plan directly, unfused, with
// one Placeholder argument per recorded forward value it reads. Nothing
// looks a plan up at run time except a callee by name in its caller's
// FunctionPlans.
#ifndef JANUS_RUNTIME_PLAN_H_
#define JANUS_RUNTIME_PLAN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "runtime/kernel.h"
#include "runtime/memory_plan.h"

namespace janus {

struct FusedRegionPlan;

namespace obs {
class PlanProfile;
}  // namespace obs

namespace verify {
class PlanCorruptor;
}  // namespace verify

// Per-build knobs. `enable_fusion` is ANDed with the process-wide
// fusion::GloballyEnabled() switch (JANUS_FUSION).
struct PlanOptions {
  bool enable_fusion = true;
};

// Whether a plan's runs use the executor's thread pool, decided once per
// plan from its measured mean node cost (DESIGN.md §6). The first runs
// offered a pool execute sequentially; after an untimed first run, one
// timed run decides when its mean is under half or over twice
// kPoolHandoffNs, else kCalibrationRuns timed runs are averaged. The run
// that completes calibration publishes the mode. A plan whose nodes take
// less than kPoolHandoffNs on average never touches the pool: a handoff
// would cost more than the work it moves. Otherwise its runs fan out.
// Thread-safe: concurrent runs of one plan calibrate one at a time, the
// rest run sequentially until the mode is published.
class PoolDecision {
 public:
  enum class Mode : std::uint8_t { kCalibrate, kSequential, kFanOut };

  static constexpr int kCalibrationRuns = 2;
  // About one executor-pool handoff on a 4-core x86 VM (e2ebench's
  // common.pool_handoff_ns_p50 reads ~7.5 us there), rounded up: plans
  // that calibrate near it gain nothing from fanning out.
  static constexpr std::int64_t kPoolHandoffNs = 8000;

  // This run's mode. A kCalibrate claim (run sequentially) must be
  // followed by exactly one Record (the run finished) or Abandon (it
  // threw).
  Mode Claim();
  // Records a calibration run that took `run_ns` over `nodes` plan nodes.
  void Record(std::int64_t run_ns, std::size_t nodes);
  void Abandon();

 private:
  std::atomic<Mode> mode_{Mode::kCalibrate};
  // Held by the one run currently calibrating; guards the fields below.
  std::atomic<bool> calibrating_{false};
  bool warmed_up_ = false;
  int runs_recorded_ = 0;
  std::int64_t calibrated_ns_ = 0;
};

class ExecutionPlan {
 public:
  // Node classification resolved at plan-build time so the run loop never
  // compares op-name strings or consults the kernel registry.
  enum class OpKind : std::uint8_t {
    kConst,
    // A Placeholder or Param: the run's argument at PlanNode::arg_index.
    kArgument,
    kSwitch,
    kMerge,
    kKernel,
    // A fused elementwise region (runtime/fusion.h): one plan node standing
    // in for a chain/tree of kernels, executed with a single dispatch.
    kFusedRegion,
  };

  // Output `slot` of the node at dense index `producer`: the coordinate of
  // a node input and of a fetch.
  struct Endpoint {
    int producer = 0;
    int slot = 0;
  };

  // A delivery target: input slot `input_slot` of the node at dense index
  // `consumer`.
  struct Edge {
    int consumer = 0;
    int input_slot = 0;
  };

  // The fields the executor reads for every node come first and fill the
  // first 128 bytes; the rest are read rarely.
  struct PlanNode {
    const Node* node = nullptr;
    OpKind kind = OpKind::kKernel;
    // inputs.size() + control_producers.size(): where the DAG countdown
    // starts. Every out-edge and control edge into the node counts it down
    // by one, so duplicate producers need no deduplication.
    int in_edges = 0;
    const KernelFn* kernel = nullptr;  // resolved iff kind == kKernel
    const FusedRegionPlan* fused = nullptr;  // valid iff kind == kFusedRegion
    // Producer coordinate of each input slot, and the dense index of each
    // control-input producer.
    std::vector<Endpoint> inputs;
    std::vector<int> control_producers;
    // Consumers per output slot, and control-edge consumers (fired when
    // output 0 is delivered).
    std::vector<std::vector<Edge>> out_edges;
    std::vector<int> control_edges;
    Tensor const_value;  // valid iff kind == kConst
    int arg_index = -1;  // valid iff kind == kArgument
  };

  // Builds the plan for `fetches`. `args` are the graph's source nodes in
  // call order: each run passes one tensor per entry, and a fetch-reachable
  // Placeholder or Param takes the tensor at its position. Throws
  // InvalidArgument if an argument is not a Placeholder or Param or is
  // listed twice, if a fetch-reachable Placeholder or Param is not an
  // argument, or if an op other than a source, Switch or Merge has no
  // registered kernel.
  static std::shared_ptr<const ExecutionPlan> Build(
      const Graph& graph, std::span<const NodeOutput> fetches,
      std::span<Node* const> args, PlanOptions options = {});

  std::span<const NodeOutput> fetches() const { return fetches_; }
  // The source nodes a run's arguments bind to, in call order.
  std::span<const Node* const> arguments() const { return arguments_; }

  // The dense node array, in topological order.
  const std::vector<PlanNode>& nodes() const { return nodes_; }
  // One endpoint per fetch, in fetch order.
  const std::vector<Endpoint>& fetch_slots() const { return fetch_slots_; }
  // Dense index of a node (a fused-region interior resolves to its
  // region's), or -1 if the node is not part of the plan.
  int IndexOf(const Node* node) const;

  // The full node -> dense-index map behind IndexOf. Exposed for the plan
  // verifier's bijectivity and coverage checks (src/verify).
  const std::unordered_map<const Node*, int>& index_map() const {
    return index_;
  }

  // Liveness + in-place analysis, computed once at plan-build time.
  const MemoryPlan& memory() const { return memory_; }

  // Fused regions owned by this plan (referenced by kFusedRegion nodes).
  const std::vector<std::shared_ptr<const FusedRegionPlan>>& fused_regions()
      const {
    return fused_regions_;
  }

  // Per-node cost accumulator for the source-attributed profiler
  // (obs/profile.h), sized to the plan's dense node array and registered
  // with the global ProfileRegistry at build. Executors record into it
  // when profiling is enabled; never null after Build.
  obs::PlanProfile* profile() const { return profile_.get(); }

  // The plan's pool decision. Internally synchronized run-time state: the
  // one part of a plan its runs write.
  PoolDecision& pool_decision() const { return pool_decision_; }

 private:
  // The seeded-corruption harness (src/verify/corruption.h) mutates plan
  // internals to prove the verifier catches each class of damage.
  friend class verify::PlanCorruptor;

  ExecutionPlan() = default;

  // Builds the node array over `order` (the fetch-reachable nodes in
  // topological order): one PlanNode per node, wired both ways.
  void BuildNodes(const std::vector<const Node*>& order);
  // Stores each argument's position on its plan node, rejecting arguments
  // that are not sources or repeat, and reachable sources that are not
  // arguments.
  void BindArguments();

  std::vector<NodeOutput> fetches_;
  std::vector<const Node*> arguments_;

  std::vector<PlanNode> nodes_;
  std::vector<Endpoint> fetch_slots_;
  std::unordered_map<const Node*, int> index_;

  std::vector<std::shared_ptr<const FusedRegionPlan>> fused_regions_;

  MemoryPlan memory_;

  std::shared_ptr<obs::PlanProfile> profile_;

  mutable PoolDecision pool_decision_;
};

// Post-build verification hook. When set, ExecutionPlan::Build invokes it
// on every finished plan (after fusion and memory planning); the hook may
// throw to reject the plan. Installed process-wide by
// verify::InstallPlanVerifier() — a function pointer (not std::function)
// so the runtime layer carries no dependency on src/verify and the
// disabled path is one relaxed atomic load.
using PlanVerifyHookFn = void (*)(const Graph& graph,
                                  const ExecutionPlan& plan);
void SetPlanVerifyHook(PlanVerifyHookFn hook);
PlanVerifyHookFn GetPlanVerifyHook();

// The plans of a library's functions by name: what Invoke, While and
// WhileGrad call. Built once, beside the calling graph's own plan; a run
// only looks callees up, and a missing one is an error.
using FunctionPlans =
    std::map<std::string, std::shared_ptr<const ExecutionPlan>, std::less<>>;

// One plan per function of `library`: its arguments the function's
// parameters, its fetches the function's results.
FunctionPlans BuildFunctionPlans(const FunctionLibrary& library,
                                 PlanOptions options = {});

}  // namespace janus

#endif  // JANUS_RUNTIME_PLAN_H_
