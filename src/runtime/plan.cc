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

namespace janus {
namespace {

ExecutionPlan::OpKind ClassifyOp(const std::string& op) {
  using OpKind = ExecutionPlan::OpKind;
  if (op == "Const") return OpKind::kConst;
  if (op == "Placeholder" || op == "Param") return OpKind::kArgument;
  if (op == "Switch") return OpKind::kSwitch;
  if (op == "Merge") return OpKind::kMerge;
  return OpKind::kKernel;
}

// The nodes the fetches transitively need (through data and control edges),
// in graph order. Side-effecting ops only run when anchored to a fetch (the
// update-anchor NoOp convention); inside a conditional, deadness then
// decides which of them execute.
std::vector<const Node*> FetchReachable(const Graph& graph,
                                        std::span<const NodeOutput> fetches) {
  std::unordered_set<const Node*> needed;
  std::vector<const Node*> stack;
  for (const NodeOutput& fetch : fetches) stack.push_back(fetch.node);
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (!needed.insert(node).second) continue;
    for (const NodeOutput& input : node->inputs()) stack.push_back(input.node);
    for (const Node* control : node->control_inputs()) {
      stack.push_back(control);
    }
  }
  std::vector<const Node*> order;
  order.reserve(needed.size());
  for (const auto& node : graph.nodes()) {
    if (needed.find(node.get()) != needed.end()) order.push_back(node.get());
  }
  return order;
}

// Stable topological order of `nodes` (given in graph order). Freshly
// generated graphs insert nodes topologically, but optimization passes
// append replacement nodes (folded constants, ZerosLike) at the END of the
// graph while rewiring earlier consumers onto them — and both fusion's
// region collection and the plan verifier rely on producers preceding
// consumers. Kahn's algorithm with a min-heap on graph position keeps the
// order deterministic and as close to graph order as the edges allow. On a
// cycle, returns `nodes` unchanged and lets the executor's executed-count
// check report it.
std::vector<const Node*> TopologicalOrder(std::vector<const Node*> nodes) {
  std::unordered_map<const Node*, int> position;
  position.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    position[nodes[i]] = static_cast<int>(i);
  }
  // One count per edge, duplicates included: each edge is counted off once.
  std::vector<int> indegree(nodes.size(), 0);
  std::vector<std::vector<int>> dependents(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto depend_on = [&](const Node* producer) {
      dependents[static_cast<std::size_t>(position.at(producer))].push_back(
          static_cast<int>(i));
      ++indegree[i];
    };
    for (const NodeOutput& input : nodes[i]->inputs()) depend_on(input.node);
    for (const Node* control : nodes[i]->control_inputs()) depend_on(control);
  }
  std::priority_queue<int, std::vector<int>, std::greater<>> ready;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (indegree[i] == 0) ready.push(static_cast<int>(i));
  }
  std::vector<const Node*> order;
  order.reserve(nodes.size());
  while (!ready.empty()) {
    const auto i = static_cast<std::size_t>(ready.top());
    ready.pop();
    order.push_back(nodes[i]);
    for (const int dependent : dependents[i]) {
      if (--indegree[static_cast<std::size_t>(dependent)] == 0) {
        ready.push(dependent);
      }
    }
  }
  return order.size() == nodes.size() ? order : nodes;
}

obs::ProfileSite SiteOf(const Node* node) {
  obs::ProfileSite site;
  site.function = node->site().function;
  site.line = node->site().line;
  site.stmt = node->site().stmt;
  return site;
}

// A plan node's profiler identity: graph-layer SourceSite -> obs
// ProfileSite, so the obs layer stays link-independent of the graph. Fused
// regions keep per-member sites; cost recorded against the region is split
// across them at export.
obs::ProfileNodeInfo ProfileInfoOf(const ExecutionPlan::PlanNode& entry) {
  obs::ProfileNodeInfo info;
  info.name = entry.node->name();
  info.op = entry.node->op();
  info.site = SiteOf(entry.node);
  if (entry.kind == ExecutionPlan::OpKind::kFusedRegion) {
    info.op = "FusedRegion";
    for (const FusedRegionPlan::Member& member : entry.fused->members) {
      obs::ProfileNodeInfo member_info;
      member_info.name = member.node->name();
      member_info.op = member.node->op();
      member_info.site = SiteOf(member.node);
      info.members.push_back(std::move(member_info));
    }
  }
  return info;
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

std::shared_ptr<const ExecutionPlan> ExecutionPlan::Build(
    const Graph& graph, std::span<const NodeOutput> fetches,
    std::span<Node* const> args, PlanOptions options) {
  obs::TraceScope span("plan_build", "runtime");
  span.AddArg("graph_nodes",
               static_cast<std::int64_t>(graph.nodes().size()));
  auto plan = std::shared_ptr<ExecutionPlan>(new ExecutionPlan());
  plan->fetches_.assign(fetches.begin(), fetches.end());
  plan->arguments_.assign(args.begin(), args.end());
  plan->BuildNodes(TopologicalOrder(FetchReachable(graph, fetches)));
  plan->BindArguments();
  // Fusion rewrites the node array in place (interior members disappear)
  // and must run before the memory plan: liveness is computed over the
  // fused node array, so interior values are never materialized or tracked.
  if (options.enable_fusion && fusion::GloballyEnabled()) {
    obs::TraceScope fusion_span("fusion", "runtime");
    const int regions = FusePlan(plan->nodes_, plan->fetch_slots_,
                                 plan->index_, plan->fused_regions_);
    fusion_span.AddArg("regions", static_cast<std::int64_t>(regions));
  }
  plan->memory_ = BuildMemoryPlan(*plan);

  // Attach the source-attributed profiler's per-node accumulator.
  // Registration is unconditional — plan build is a cold path, and a later
  // EnableProfiling() must see already-built plans.
  std::vector<obs::ProfileNodeInfo> infos;
  infos.reserve(plan->nodes_.size());
  for (const PlanNode& entry : plan->nodes_) {
    infos.push_back(ProfileInfoOf(entry));
  }
  plan->profile_ = std::make_shared<obs::PlanProfile>(std::move(infos));
  obs::ProfileRegistry::Global().Register(plan->profile_);

  if (const PlanVerifyHookFn hook = GetPlanVerifyHook(); hook != nullptr) {
    hook(graph, *plan);
  }
  return plan;
}

void ExecutionPlan::BuildNodes(const std::vector<const Node*>& order) {
  nodes_.resize(order.size());
  index_.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Node* node = order[i];
    index_[node] = static_cast<int>(i);
    PlanNode& entry = nodes_[i];
    entry.node = node;
    entry.kind = ClassifyOp(node->op());
    if (entry.kind == OpKind::kKernel) {
      entry.kernel = &KernelRegistry::Global().Lookup(node->op());
    } else if (entry.kind == OpKind::kConst) {
      entry.const_value = node->GetTensorAttr("value");
    }
    entry.out_edges.resize(
        static_cast<std::size_t>(std::max(1, node->num_outputs())));
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    PlanNode& entry = nodes_[i];
    const Node* node = entry.node;
    entry.inputs.reserve(node->inputs().size());
    for (int slot = 0; slot < node->num_inputs(); ++slot) {
      const NodeOutput input = node->input(slot);
      const int producer = index_.at(input.node);
      entry.inputs.push_back({producer, input.index});
      nodes_[static_cast<std::size_t>(producer)]
          .out_edges.at(static_cast<std::size_t>(input.index))
          .push_back({static_cast<int>(i), slot});
    }
    entry.control_producers.reserve(node->control_inputs().size());
    for (const Node* control : node->control_inputs()) {
      const int producer = index_.at(control);
      entry.control_producers.push_back(producer);
      nodes_[static_cast<std::size_t>(producer)].control_edges.push_back(
          static_cast<int>(i));
    }
    entry.in_edges = static_cast<int>(entry.inputs.size() +
                                      entry.control_producers.size());
  }
  fetch_slots_.reserve(fetches_.size());
  for (const NodeOutput& fetch : fetches_) {
    fetch_slots_.push_back({index_.at(fetch.node), fetch.index});
  }
}

void ExecutionPlan::BindArguments() {
  for (std::size_t i = 0; i < arguments_.size(); ++i) {
    const Node* arg = arguments_[i];
    if (ClassifyOp(arg->op()) != OpKind::kArgument) {
      throw InvalidArgument("plan argument " + std::to_string(i) + " ('" +
                            arg->name() + "') is a " + arg->op() +
                            ", not a Placeholder or Param");
    }
    const int index = IndexOf(arg);
    if (index < 0) continue;  // not needed by these fetches
    PlanNode& entry = nodes_[static_cast<std::size_t>(index)];
    if (entry.arg_index >= 0) {
      throw InvalidArgument("'" + arg->name() +
                            "' is listed twice among the plan arguments");
    }
    entry.arg_index = static_cast<int>(i);
  }
  for (const PlanNode& entry : nodes_) {
    if (entry.kind == OpKind::kArgument && entry.arg_index < 0) {
      throw InvalidArgument(entry.node->op() + " '" + entry.node->name() +
                            "' is needed by the fetches but is not a plan "
                            "argument");
    }
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

int ExecutionPlan::IndexOf(const Node* node) const {
  const auto it = index_.find(node);
  return it == index_.end() ? -1 : it->second;
}

FunctionPlans BuildFunctionPlans(const FunctionLibrary& library,
                                 PlanOptions options) {
  FunctionPlans plans;
  for (const std::string& name : library.FunctionNames()) {
    const GraphFunction& fn = library.Lookup(name);
    plans.emplace(name, ExecutionPlan::Build(fn.graph, fn.results,
                                             fn.parameters, options));
  }
  return plans;
}

}  // namespace janus
