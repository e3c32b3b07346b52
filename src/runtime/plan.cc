#include "runtime/plan.h"

#include <algorithm>
#include <atomic>
#include <queue>
#include <unordered_set>
#include <utility>

#include "common/error.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/fusion.h"
#include "runtime/run_context.h"

namespace janus {
namespace {

ExecutionPlan::OpKind ClassifyOp(const std::string& op) {
  using OpKind = ExecutionPlan::OpKind;
  if (op == "Const") return OpKind::kConst;
  if (op == "Placeholder") return OpKind::kPlaceholder;
  if (op == "Param") return OpKind::kParam;
  if (op == "Switch") return OpKind::kSwitch;
  if (op == "Merge") return OpKind::kMerge;
  if (op == "Enter") return OpKind::kEnter;
  if (op == "Exit") return OpKind::kExit;
  if (op == "NextIteration") return OpKind::kNextIteration;
  return OpKind::kKernel;
}

bool IsControlFlowKind(ExecutionPlan::OpKind kind) {
  using OpKind = ExecutionPlan::OpKind;
  return kind == OpKind::kSwitch || kind == OpKind::kMerge ||
         kind == OpKind::kEnter || kind == OpKind::kExit ||
         kind == OpKind::kNextIteration;
}

bool IsSourceKind(ExecutionPlan::OpKind kind) {
  using OpKind = ExecutionPlan::OpKind;
  return kind == OpKind::kConst || kind == OpKind::kPlaceholder ||
         kind == OpKind::kParam;
}

// The installed post-build verification hook (nullptr = none). Relaxed is
// enough: installation happens once at engine attach / static init, and a
// build that misses a just-installed hook only skips one verification.
std::atomic<PlanVerifyHookFn> g_plan_verify_hook{nullptr};

}  // namespace

void SetPlanVerifyHook(PlanVerifyHookFn hook) {
  g_plan_verify_hook.store(hook, std::memory_order_relaxed);
}

PlanVerifyHookFn GetPlanVerifyHook() {
  return g_plan_verify_hook.load(std::memory_order_relaxed);
}

bool GraphNeedsDynamicExecution(const Graph& graph) {
  for (const auto& node : graph.nodes()) {
    if (IsControlFlowKind(ClassifyOp(node->op()))) return true;
  }
  return false;
}

std::shared_ptr<const ExecutionPlan> ExecutionPlan::Build(
    const Graph& graph, std::span<const NodeOutput> fetches,
    PlanOptions options) {
  obs::TraceScope span("plan_build", "runtime");
  span.set_arg("graph_nodes",
               static_cast<std::int64_t>(graph.nodes().size()));
  auto plan = std::shared_ptr<ExecutionPlan>(new ExecutionPlan());
  plan->fetches_.assign(fetches.begin(), fetches.end());
  plan->graph_version_ = graph.version();
  if (GraphNeedsDynamicExecution(graph)) {
    plan->strategy_ = Strategy::kDynamic;
    plan->BuildDynamic(graph);
  } else {
    plan->strategy_ = Strategy::kDag;
    plan->BuildDag(graph);
  }
  // Fusion rewrites the schedule in place (interior members disappear) and
  // must run before the memory plan: liveness is computed over the fused
  // node array, so interior values are never materialized or tracked.
  if (options.enable_fusion && fusion::GloballyEnabled()) {
    obs::TraceScope fusion_span("fusion", "runtime");
    int regions = 0;
    if (plan->strategy_ == Strategy::kDag) {
      regions = FuseDagPlan(plan->dag_nodes_, plan->dag_fetch_slots_,
                            plan->dag_index_, plan->fused_regions_);
    } else {
      regions = FuseDynPlan(plan->dyn_nodes_, plan->dyn_fetch_slots_,
                            plan->fused_regions_);
    }
    fusion_span.set_arg("regions", static_cast<std::int64_t>(regions));
  }
  plan->memory_ = BuildMemoryPlan(*plan);

  // Attach the source-attributed profiler's per-node accumulator, copying
  // each node's provenance (graph-layer SourceSite -> obs ProfileSite) so
  // the obs layer stays link-independent of the graph. Fused regions keep
  // per-member sites; cost recorded against the region is split across
  // them at export. Registration is unconditional — plan build is a cold
  // path, and a later EnableProfiling() must see already-built plans.
  {
    const auto site_of = [](const Node* node) {
      obs::ProfileSite site;
      if (node != nullptr) {
        site.function = node->site().function;
        site.line = node->site().line;
        site.stmt = node->site().stmt;
      }
      return site;
    };
    const auto info_of = [&](const Node* node, OpKind kind,
                             const FusedRegionPlan* fused) {
      obs::ProfileNodeInfo info;
      if (node != nullptr) {
        info.name = node->name();
        info.op = node->op();
        info.site = site_of(node);
      }
      if (kind == OpKind::kFusedRegion && fused != nullptr) {
        info.op = "FusedRegion";
        for (const FusedRegionPlan::Member& member : fused->members) {
          obs::ProfileNodeInfo member_info;
          member_info.name = member.node->name();
          member_info.op = member.node->op();
          member_info.site = site_of(member.node);
          info.members.push_back(std::move(member_info));
        }
      }
      return info;
    };
    std::vector<obs::ProfileNodeInfo> infos;
    if (plan->strategy_ == Strategy::kDag) {
      infos.reserve(plan->dag_nodes_.size());
      for (const DagNode& dag_node : plan->dag_nodes_) {
        infos.push_back(
            info_of(dag_node.node, dag_node.kind, dag_node.fused));
      }
    } else {
      infos.reserve(plan->dyn_nodes_.size());
      for (const DynNode& dyn_node : plan->dyn_nodes_) {
        infos.push_back(
            info_of(dyn_node.node, dyn_node.kind, dyn_node.fused));
      }
    }
    plan->profile_ = std::make_shared<obs::PlanProfile>(std::move(infos));
    obs::ProfileRegistry::Global().Register(plan->profile_);
  }

  if (const PlanVerifyHookFn hook = GetPlanVerifyHook(); hook != nullptr) {
    hook(graph, *plan);
  }
  return plan;
}

void ExecutionPlan::BuildDag(const Graph& graph) {
  // Restrict execution to the nodes the fetches transitively need (through
  // data and control edges): side-effecting ops only run when anchored to a
  // fetch (the update-anchor NoOp convention).
  std::unordered_set<const Node*> needed;
  std::vector<const Node*> stack;
  for (const NodeOutput& fetch : fetches_) stack.push_back(fetch.node);
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (!needed.insert(node).second) continue;
    for (const NodeOutput& input : node->inputs()) stack.push_back(input.node);
    for (const Node* control : node->control_inputs()) {
      stack.push_back(control);
    }
  }

  // Dense schedule in stable topological order. Freshly generated graphs
  // insert nodes topologically, but optimization passes append replacement
  // nodes (folded constants, ZerosLike) at the END of the graph while
  // rewiring earlier consumers onto them — and both fusion's region
  // collection and the plan verifier rely on producers preceding consumers
  // in the dense array. Kahn's algorithm with a min-heap on graph position
  // keeps the order deterministic and as close to insertion order as the
  // edges allow.
  std::vector<const Node*> order;
  {
    std::vector<const Node*> graph_order;
    graph_order.reserve(needed.size());
    std::unordered_map<const Node*, int> position;
    for (const auto& node : graph.nodes()) {
      if (needed.find(node.get()) == needed.end()) continue;
      position[node.get()] = static_cast<int>(graph_order.size());
      graph_order.push_back(node.get());
    }
    std::unordered_map<const Node*, int> indegree;
    std::unordered_map<const Node*, std::vector<const Node*>> dependents;
    for (const Node* node : graph_order) {
      std::unordered_set<const Node*> producers;
      for (const NodeOutput& input : node->inputs()) {
        producers.insert(input.node);
      }
      for (const Node* control : node->control_inputs()) {
        producers.insert(control);
      }
      indegree[node] = static_cast<int>(producers.size());
      for (const Node* producer : producers) {
        dependents[producer].push_back(node);
      }
    }
    std::priority_queue<std::pair<int, const Node*>,
                        std::vector<std::pair<int, const Node*>>,
                        std::greater<>>
        ready;
    for (const Node* node : graph_order) {
      if (indegree[node] == 0) ready.emplace(position[node], node);
    }
    order.reserve(graph_order.size());
    while (!ready.empty()) {
      const Node* node = ready.top().second;
      ready.pop();
      order.push_back(node);
      for (const Node* consumer : dependents[node]) {
        if (--indegree[consumer] == 0) {
          ready.emplace(position[consumer], consumer);
        }
      }
    }
    if (order.size() != graph_order.size()) {
      // Cycle: schedule in graph order and let the executor's
      // executed-count check report it.
      order = std::move(graph_order);
    }
  }

  dag_nodes_.reserve(needed.size());
  for (const Node* node : order) {
    dag_index_[node] = static_cast<int>(dag_nodes_.size());
    DagNode entry;
    entry.node = node;
    entry.kind = ClassifyOp(node->op());
    if (entry.kind == OpKind::kKernel) {
      entry.kernel = &KernelRegistry::Global().Lookup(node->op());
    } else if (entry.kind == OpKind::kConst) {
      entry.const_value = node->GetTensorAttr("value");
    }
    dag_nodes_.push_back(std::move(entry));
  }

  for (std::size_t i = 0; i < dag_nodes_.size(); ++i) {
    DagNode& entry = dag_nodes_[i];
    const Node* node = entry.node;
    std::unordered_set<int> producers;
    entry.inputs.reserve(node->inputs().size());
    for (const NodeOutput& input : node->inputs()) {
      const int producer = dag_index_.at(input.node);
      entry.inputs.push_back({producer, input.index});
      producers.insert(producer);
    }
    for (const Node* control : node->control_inputs()) {
      producers.insert(dag_index_.at(control));
    }
    entry.initial_pending = static_cast<int>(producers.size());
    for (const int producer : producers) {
      dag_nodes_[static_cast<std::size_t>(producer)].consumers.push_back(
          static_cast<int>(i));
    }
  }

  dag_fetch_slots_.reserve(fetches_.size());
  for (const NodeOutput& fetch : fetches_) {
    dag_fetch_slots_.push_back({dag_index_.at(fetch.node), fetch.index});
  }
}

void ExecutionPlan::BuildDynamic(const Graph& graph) {
  // The dynamic strategy covers the whole graph: deadness propagation, not
  // reachability pruning, decides what executes.
  std::unordered_map<const Node*, int> index;
  dyn_nodes_.reserve(graph.num_nodes());
  for (const auto& node : graph.nodes()) {
    index[node.get()] = static_cast<int>(dyn_nodes_.size());
    DynNode entry;
    entry.node = node.get();
    entry.kind = ClassifyOp(node->op());
    if (entry.kind == OpKind::kKernel) {
      entry.kernel = &KernelRegistry::Global().Lookup(node->op());
    }
    if (entry.kind == OpKind::kEnter) {
      entry.frame = node->GetStringAttr("frame");
      entry.is_constant_enter = node->HasAttr("is_constant") &&
                                node->GetBoolAttr("is_constant");
    }
    entry.is_root_source =
        IsSourceKind(entry.kind) ||
        (entry.kind == OpKind::kKernel && node->num_inputs() == 0 &&
         node->control_inputs().empty());
    entry.out_edges.resize(
        static_cast<std::size_t>(std::max(1, node->num_outputs())));
    dyn_nodes_.push_back(std::move(entry));
  }
  for (std::size_t i = 0; i < dyn_nodes_.size(); ++i) {
    DynNode& entry = dyn_nodes_[i];
    const Node* node = entry.node;
    entry.inputs.reserve(node->inputs().size());
    for (int slot = 0; slot < node->num_inputs(); ++slot) {
      const NodeOutput input = node->input(slot);
      const int producer = index.at(input.node);
      entry.inputs.push_back({producer, input.index});
      dyn_nodes_[static_cast<std::size_t>(producer)]
          .out_edges[static_cast<std::size_t>(input.index)]
          .push_back({static_cast<int>(i), slot});
    }
    entry.control_producers.reserve(node->control_inputs().size());
    for (const Node* control : node->control_inputs()) {
      const int producer = index.at(control);
      entry.control_producers.push_back(producer);
      dyn_nodes_[static_cast<std::size_t>(producer)].control_edges.push_back(
          {static_cast<int>(i), -1});
    }
  }
  dyn_fetch_slots_.reserve(fetches_.size());
  for (const NodeOutput& fetch : fetches_) {
    dyn_fetch_slots_.push_back({index.at(fetch.node), fetch.index});
  }
}

PoolDecision::Mode PoolDecision::Claim() {
  if (const Mode mode = mode_.load(std::memory_order_acquire);
      mode != Mode::kCalibrate) {
    return mode;
  }
  // Another run is calibrating: run sequentially, untimed.
  if (calibrating_.exchange(true, std::memory_order_acquire)) {
    return Mode::kSequential;
  }
  // The previous holder may have published between the two loads.
  if (const Mode mode = mode_.load(std::memory_order_acquire);
      mode != Mode::kCalibrate) {
    calibrating_.store(false, std::memory_order_release);
    return mode;
  }
  return Mode::kCalibrate;
}

void PoolDecision::Record(std::int64_t run_ns, std::size_t nodes) {
  // A plan's first run is cold, and often the one whose unusual input (say,
  // the odd batch a shape relaxation admits) caused the plan to be built:
  // only the runs after it are timed.
  if (warmed_up_) {
    calibrated_ns_ += run_ns;
    ++runs_recorded_;
    // What the timed runs would have cost at one handoff per node.
    const std::int64_t handoffs_ns =
        kPoolHandoffNs * runs_recorded_ * static_cast<std::int64_t>(nodes);
    // A mean node cost under half or over twice a handoff needs no second
    // run; one nearer the threshold averages kCalibrationRuns runs.
    const bool clear =
        2 * calibrated_ns_ < handoffs_ns || calibrated_ns_ >= 2 * handoffs_ns;
    if (clear || runs_recorded_ == kCalibrationRuns) {
      mode_.store(calibrated_ns_ < handoffs_ns ? Mode::kSequential
                                               : Mode::kFanOut,
                  std::memory_order_release);
    }
  }
  warmed_up_ = true;
  calibrating_.store(false, std::memory_order_release);
}

void PoolDecision::Abandon() {
  calibrating_.store(false, std::memory_order_release);
}

int ExecutionPlan::DagIndexOf(const Node* node) const {
  const auto it = dag_index_.find(node);
  return it == dag_index_.end() ? -1 : it->second;
}

std::shared_ptr<const ExecutionPlan> GetOrBuildPlan(
    const Graph& graph, std::span<const NodeOutput> fetches,
    RunContext* run, PlanOptions options) {
  cache::PlanCache& plan_cache = graph.plan_cache();
  // The PlanCache is type-erased; fetch endpoints map 1:1 onto FetchIds.
  std::vector<cache::PlanCache::FetchId> fetch_ids;
  fetch_ids.reserve(fetches.size());
  for (const NodeOutput& fetch : fetches) {
    fetch_ids.push_back({fetch.node, fetch.index});
  }
  if (std::shared_ptr<const void> cached =
          plan_cache.Find(graph.version(), fetch_ids);
      cached != nullptr) {
    if (run != nullptr) {
      run->plan_cache_hits.fetch_add(1, std::memory_order_relaxed);
    }
    return std::static_pointer_cast<const ExecutionPlan>(cached);
  }
  auto plan = ExecutionPlan::Build(graph, fetches, options);
  if (run != nullptr) {
    run->plan_builds.fetch_add(1, std::memory_order_relaxed);
  }
  plan_cache.Insert(graph.version(), fetch_ids, plan);
  return plan;
}

}  // namespace janus
