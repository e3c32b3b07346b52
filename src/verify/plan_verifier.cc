#include "verify/plan_verifier.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"
#include "runtime/fusion.h"
#include "runtime/memory_plan.h"

namespace janus {
namespace verify {
namespace {

using Edge = ExecutionPlan::Edge;
using Endpoint = ExecutionPlan::Endpoint;
using OpKind = ExecutionPlan::OpKind;
using PlanNode = ExecutionPlan::PlanNode;

// Mirror of plan.cc's ClassifyOp — deliberately re-derived here so a
// classification bug in the builder cannot hide from the checker.
OpKind ClassifyOp(const std::string& op) {
  if (op == "Const") return OpKind::kConst;
  if (op == "Placeholder" || op == "Param") return OpKind::kArgument;
  if (op == "Switch") return OpKind::kSwitch;
  if (op == "Merge") return OpKind::kMerge;
  return OpKind::kKernel;
}

const char* KindName(OpKind kind) {
  switch (kind) {
    case OpKind::kConst: return "Const";
    case OpKind::kArgument: return "Argument";
    case OpKind::kSwitch: return "Switch";
    case OpKind::kMerge: return "Merge";
    case OpKind::kKernel: return "Kernel";
    case OpKind::kFusedRegion: return "FusedRegion";
  }
  return "?";
}

// Accumulates issues with one-line helpers; every Check() call counts
// toward Report::checks so reports show coverage, not just violations.
class Checker {
 public:
  explicit Checker(Report* report) : report_(report) {}

  // Evaluates one assertion; on failure records (invariant, node, message).
  void Check(bool ok, const char* invariant, const Node* node,
             std::string message) {
    ++report_->checks;
    if (ok) return;
    report_->issues.push_back(Issue{
        invariant, node != nullptr ? node->name() : std::string("<plan>"),
        std::move(message)});
  }

 private:
  Report* report_;
};

std::string Coord(int producer, int slot) {
  return "{" + std::to_string(producer) + ", " + std::to_string(slot) + "}";
}

// The number of output slots a dense plan node exposes. A fused region
// stands in for its root and produces exactly one value.
int PlanNodeOutputs(OpKind kind, const Node* node) {
  if (kind == OpKind::kFusedRegion) return 1;
  return std::max(1, node != nullptr ? node->num_outputs() : 1);
}

// ---- Fused-region checks ----
//
// `in_plan` answers whether a graph node participates in the plan at all
// (only fetch-reachable nodes do); `region_of` maps a member node to its
// region so cross-region consumption is distinguishable from in-region use.
struct RegionIndex {
  // Member node -> region it belongs to (interiors and roots).
  std::unordered_map<const Node*, const FusedRegionPlan*> region_of;
};

void CheckRegion(Checker& check, const Graph& graph,
                 const ExecutionPlan& plan, const FusedRegionPlan& region,
                 const Node* region_node, int num_region_inputs,
                 const RegionIndex& index,
                 const std::unordered_set<const Node*>& in_plan) {
  check.Check(region.members.size() >= 2, "fusion.too_small", region_node,
              "region has " + std::to_string(region.members.size()) +
                  " member(s); fusion must dissolve regions under 2");
  check.Check(region.num_externals >= 0 &&
                  region.num_values ==
                      region.num_externals +
                          static_cast<int>(region.members.size()),
              "fusion.value_count", region_node,
              "num_values " + std::to_string(region.num_values) +
                  " != num_externals " +
                  std::to_string(region.num_externals) + " + " +
                  std::to_string(region.members.size()) + " members");
  check.Check(num_region_inputs == region.num_externals,
              "fusion.external_arity", region_node,
              "region node has " + std::to_string(num_region_inputs) +
                  " plan inputs but num_externals is " +
                  std::to_string(region.num_externals));
  if (region.members.empty()) return;
  check.Check(region.members.back().node == region_node,
              "fusion.root_mismatch", region_node,
              "plan node is not the region's last (root) member");

  bool saw_reduction = false;
  for (std::size_t j = 0; j < region.members.size(); ++j) {
    const FusedRegionPlan::Member& member = region.members[j];
    const bool is_root = j + 1 == region.members.size();
    if (member.node == nullptr) {
      check.Check(false, "fusion.member_node_null", region_node,
                  "member " + std::to_string(j) + " has no node");
      continue;
    }
    check.Check(member.kernel != nullptr, "fusion.member_kernel_null",
                member.node,
                "member has no fallback kernel; per-member dispatch would "
                "crash");
    const int expected_id = region.num_externals + static_cast<int>(j);
    check.Check(member.value_id == expected_id, "fusion.value_id_order",
                member.node,
                "value_id " + std::to_string(member.value_id) +
                    " != " + std::to_string(expected_id));
    check.Check(member.a >= 0 && member.a < member.value_id,
                "fusion.operand_range", member.node,
                "operand a=" + std::to_string(member.a) +
                    " outside [0, " + std::to_string(member.value_id) + ")");
    check.Check(member.b == -1 ||
                    (member.b >= 0 && member.b < member.value_id),
                "fusion.operand_range", member.node,
                "operand b=" + std::to_string(member.b) +
                    " outside [0, " + std::to_string(member.value_id) + ")");
    if (member.reduction != FusedRegionPlan::Reduction::kNone) {
      saw_reduction = true;
      check.Check(is_root, "fusion.reduction_interior", member.node,
                  "reduction epilogue is not the region root");
    }
    if (is_root) continue;

    // Interior invariants: value never escapes the region. Every data
    // consumer that participates in the plan must be a member of THIS
    // region; nothing may fetch it; no control edge may touch it.
    check.Check(member.node->control_inputs().empty(),
                "fusion.interior_control", member.node,
                "interior member has control inputs");
    for (const NodeOutput& fetch : plan.fetches()) {
      check.Check(fetch.node != member.node, "fusion.interior_fetched",
                  member.node, "interior member feeds a fetch");
    }
    for (const auto& consumer : graph.nodes()) {
      if (consumer.get() == member.node) continue;
      const bool consumer_in_plan =
          in_plan.find(consumer.get()) != in_plan.end();
      if (!consumer_in_plan) continue;
      const auto it = index.region_of.find(consumer.get());
      const bool same_region =
          it != index.region_of.end() && it->second == &region;
      for (const NodeOutput& input : consumer->inputs()) {
        if (input.node != member.node) continue;
        check.Check(same_region, "fusion.out_of_region_consumer",
                    member.node,
                    "interior value consumed by '" + consumer->name() +
                        "' outside the region");
      }
      for (const Node* control : consumer->control_inputs()) {
        if (control != member.node) continue;
        check.Check(false, "fusion.interior_control", member.node,
                    "interior member is a control input of '" +
                        consumer->name() + "'");
      }
    }
  }
  check.Check(region.has_reduction == saw_reduction, "fusion.reduction_flag",
              region_node,
              std::string("has_reduction=") +
                  (region.has_reduction ? "true" : "false") +
                  " but root op " + (saw_reduction ? "is" : "is not") +
                  " a reduction");
}

// True when `fused` is one of the regions the plan owns (a dangling or
// foreign pointer would outlive-or-never-live the plan).
bool RegionOwnedByPlan(const ExecutionPlan& plan,
                       const FusedRegionPlan* fused) {
  for (const auto& region : plan.fused_regions()) {
    if (region.get() == fused) return true;
  }
  return false;
}

RegionIndex BuildRegionIndex(const ExecutionPlan& plan) {
  RegionIndex index;
  for (const auto& region : plan.fused_regions()) {
    for (const FusedRegionPlan::Member& member : region->members) {
      if (member.node != nullptr) {
        index.region_of[member.node] = region.get();
      }
    }
  }
  return index;
}

// ---- The plan walk ----

// Dense order: the node array is a permutation of distinct graph nodes that
// the index map round-trips, and the map covers fused interiors.
void CheckIndex(Checker& check, const ExecutionPlan& plan,
                const RegionIndex& region_index) {
  const auto& nodes = plan.nodes();
  const int n = static_cast<int>(nodes.size());
  std::unordered_set<const Node*> seen;
  for (int i = 0; i < n; ++i) {
    const PlanNode& entry = nodes[static_cast<std::size_t>(i)];
    check.Check(entry.node != nullptr, "schedule.null_node", nullptr,
                "dense slot " + std::to_string(i) + " has no graph node");
    if (entry.node == nullptr) continue;
    check.Check(seen.insert(entry.node).second, "schedule.duplicate_node",
                entry.node,
                "graph node occupies more than one dense slot");
    check.Check(plan.IndexOf(entry.node) == i, "index.roundtrip", entry.node,
                "IndexOf returns " + std::to_string(plan.IndexOf(entry.node)) +
                    " for dense slot " + std::to_string(i));
  }
  // Index-map coverage: every entry lands inside the dense array, and
  // fused interiors resolve to their region's slot.
  for (const auto& [node, dense] : plan.index_map()) {
    check.Check(dense >= 0 && dense < n, "index.range", node,
                "index-map entry " + std::to_string(dense) +
                    " outside [0, " + std::to_string(n) + ")");
    if (dense < 0 || dense >= n || node == nullptr) continue;
    const PlanNode& target = nodes[static_cast<std::size_t>(dense)];
    if (target.node == node) continue;
    const auto it = region_index.region_of.find(node);
    const bool interior_remap = it != region_index.region_of.end() &&
                                target.kind == OpKind::kFusedRegion &&
                                target.fused == it->second;
    check.Check(interior_remap, "index.roundtrip", node,
                "index-map entry " + std::to_string(dense) +
                    " points at a slot holding neither the node nor its "
                    "fused region");
  }
}

// Node `i`'s inputs and control producers: in range, in topological order,
// and each mirrored by exactly one out-edge / control edge of its producer;
// control producers mirror the graph's control inputs; the countdown starts
// at the incoming-edge count.
void CheckInEdges(Checker& check, const ExecutionPlan& plan, int i) {
  const auto& nodes = plan.nodes();
  const int n = static_cast<int>(nodes.size());
  const PlanNode& entry = nodes[static_cast<std::size_t>(i)];
  for (std::size_t s = 0; s < entry.inputs.size(); ++s) {
    const Endpoint& input = entry.inputs[s];
    const bool in_range = input.producer >= 0 && input.producer < n;
    check.Check(in_range, "adjacency.producer_range", entry.node,
                "input " + std::to_string(s) + " producer " +
                    Coord(input.producer, input.slot) + " outside [0, " +
                    std::to_string(n) + ")");
    if (!in_range) continue;
    check.Check(input.producer != i, "schedule.self_loop", entry.node,
                "node consumes its own output");
    check.Check(input.producer < i, "schedule.topological_order",
                entry.node,
                "producer at dense slot " + std::to_string(input.producer) +
                    " does not precede consumer at " + std::to_string(i));
    const PlanNode& producer = nodes[static_cast<std::size_t>(input.producer)];
    const int outputs = PlanNodeOutputs(producer.kind, producer.node);
    const bool slot_ok = input.slot >= 0 && input.slot < outputs;
    check.Check(slot_ok, "adjacency.slot_range", entry.node,
                "input " + std::to_string(s) + " reads slot " +
                    std::to_string(input.slot) + " of a " +
                    std::to_string(outputs) + "-output producer");
    if (!slot_ok) continue;
    int hits = 0;
    if (static_cast<std::size_t>(input.slot) < producer.out_edges.size()) {
      for (const Edge& edge :
           producer.out_edges[static_cast<std::size_t>(input.slot)]) {
        if (edge.consumer == i && edge.input_slot == static_cast<int>(s)) {
          ++hits;
        }
      }
    }
    check.Check(hits == 1, "adjacency.edge_mirror", entry.node,
                "input " + std::to_string(s) + " from " +
                    Coord(input.producer, input.slot) + " has " +
                    std::to_string(hits) +
                    " delivery edges (need exactly 1): " +
                    (hits == 0 ? "lost" : "duplicated") + " countdowns");
  }

  const std::vector<Node*>& graph_controls = entry.node->control_inputs();
  for (const Node* control : graph_controls) {
    check.Check(plan.IndexOf(control) >= 0, "adjacency.dangling_control",
                entry.node,
                "control input '" + control->name() + "' is not in the plan");
  }
  bool controls_match =
      entry.control_producers.size() == graph_controls.size();
  for (std::size_t k = 0; controls_match && k < graph_controls.size(); ++k) {
    controls_match =
        entry.control_producers[k] == plan.IndexOf(graph_controls[k]);
  }
  check.Check(controls_match, "adjacency.control_mirror", entry.node,
              "control producers do not mirror the graph's " +
                  std::to_string(graph_controls.size()) + " control inputs");
  for (const int producer : entry.control_producers) {
    const bool in_range = producer >= 0 && producer < n;
    check.Check(in_range, "adjacency.producer_range", entry.node,
                "control producer " + std::to_string(producer) +
                    " outside [0, " + std::to_string(n) + ")");
    if (!in_range) continue;
    const auto& edges = nodes[static_cast<std::size_t>(producer)].control_edges;
    check.Check(std::count(edges.begin(), edges.end(), i) ==
                    std::count(entry.control_producers.begin(),
                               entry.control_producers.end(), producer),
                "adjacency.control_mirror", entry.node,
                "control edges from slot " + std::to_string(producer) +
                    " do not match this node's control producers");
  }
  const std::size_t incoming =
      entry.inputs.size() + entry.control_producers.size();
  check.Check(entry.in_edges == static_cast<int>(incoming),
              "schedule.pending_count", entry.node,
              "in_edges " + std::to_string(entry.in_edges) + " != " +
                  std::to_string(incoming) + " incoming edges");
}

// Node `i`'s out-edges and control edges land on consumers that point back.
void CheckOutEdges(Checker& check, const ExecutionPlan& plan, int i) {
  const auto& nodes = plan.nodes();
  const int n = static_cast<int>(nodes.size());
  const PlanNode& entry = nodes[static_cast<std::size_t>(i)];
  for (std::size_t oslot = 0; oslot < entry.out_edges.size(); ++oslot) {
    for (const Edge& edge : entry.out_edges[oslot]) {
      const bool consumer_ok = edge.consumer >= 0 && edge.consumer < n;
      check.Check(consumer_ok, "adjacency.consumer_range", entry.node,
                  "out edge to " + Coord(edge.consumer, edge.input_slot) +
                      " outside [0, " + std::to_string(n) + ")");
      if (!consumer_ok) continue;
      const PlanNode& consumer = nodes[static_cast<std::size_t>(edge.consumer)];
      const bool slot_ok =
          edge.input_slot >= 0 &&
          edge.input_slot < static_cast<int>(consumer.inputs.size());
      check.Check(slot_ok, "adjacency.edge_mirror", entry.node,
                  "out edge targets input slot " +
                      std::to_string(edge.input_slot) +
                      " of a consumer with " +
                      std::to_string(consumer.inputs.size()) + " inputs");
      if (!slot_ok) continue;
      const Endpoint& back =
          consumer.inputs[static_cast<std::size_t>(edge.input_slot)];
      check.Check(back.producer == i && back.slot == static_cast<int>(oslot),
                  "adjacency.edge_mirror", entry.node,
                  "out edge " + Coord(edge.consumer, edge.input_slot) +
                      " is not mirrored by the consumer's input (" +
                      Coord(back.producer, back.slot) + ")");
    }
  }
  for (const int consumer : entry.control_edges) {
    const bool consumer_ok = consumer >= 0 && consumer < n;
    check.Check(consumer_ok, "adjacency.consumer_range", entry.node,
                "control edge to " + std::to_string(consumer) +
                    " outside [0, " + std::to_string(n) + ")");
    if (!consumer_ok) continue;
    const auto& back =
        nodes[static_cast<std::size_t>(consumer)].control_producers;
    check.Check(std::count(back.begin(), back.end(), i) >= 1,
                "adjacency.control_mirror", entry.node,
                "control edge not mirrored in the consumer's "
                "control_producers");
  }
}

// Fetch slots: one per fetch, remapped to the producer's dense slot.
void CheckFetches(Checker& check, const ExecutionPlan& plan) {
  const auto& nodes = plan.nodes();
  const int n = static_cast<int>(nodes.size());
  const auto& fetch_slots = plan.fetch_slots();
  check.Check(fetch_slots.size() == plan.fetches().size(),
              "fetch.slot_count", nullptr,
              std::to_string(fetch_slots.size()) + " fetch slots for " +
                  std::to_string(plan.fetches().size()) + " fetches");
  const std::size_t num_fetches =
      std::min(fetch_slots.size(), plan.fetches().size());
  for (std::size_t k = 0; k < num_fetches; ++k) {
    const Endpoint& slot = fetch_slots[k];
    const NodeOutput& fetch = plan.fetches()[k];
    const bool in_range = slot.producer >= 0 && slot.producer < n;
    check.Check(in_range, "fetch.slot_range", fetch.node,
                "fetch " + std::to_string(k) + " slot " +
                    Coord(slot.producer, slot.slot) + " outside [0, " +
                    std::to_string(n) + ")");
    if (!in_range) continue;
    const PlanNode& producer = nodes[static_cast<std::size_t>(slot.producer)];
    const int outputs = PlanNodeOutputs(producer.kind, producer.node);
    check.Check(slot.slot >= 0 && slot.slot < outputs, "fetch.slot_range",
                fetch.node,
                "fetch " + std::to_string(k) + " reads slot " +
                    std::to_string(slot.slot) + " of a " +
                    std::to_string(outputs) + "-output producer");
    check.Check(producer.node == fetch.node && slot.slot == fetch.index,
                "fetch.remap", fetch.node,
                "fetch " + std::to_string(k) + " remapped to " +
                    Coord(slot.producer, slot.slot) +
                    " which is not its producer's dense slot");
  }
}

// Arguments: each source node's argument index is in range and names the
// node itself in the plan's argument list, so indices are distinct and
// every run input lands on the one source it was passed for.
void CheckArguments(Checker& check, const ExecutionPlan& plan) {
  const int num_args = static_cast<int>(plan.arguments().size());
  for (const PlanNode& entry : plan.nodes()) {
    if (entry.kind != OpKind::kArgument) continue;
    const int index = entry.arg_index;
    const bool in_range = index >= 0 && index < num_args;
    check.Check(in_range, "schedule.argument_index", entry.node,
                "argument index " + std::to_string(index) + " outside [0, " +
                    std::to_string(num_args) + ")");
    if (!in_range) continue;
    const Node* arg = plan.arguments()[static_cast<std::size_t>(index)];
    check.Check(arg == entry.node, "schedule.argument_index", entry.node,
                "plan argument " + std::to_string(index) + " is '" +
                    (arg != nullptr ? arg->name() : "<null>") +
                    "', not this node");
  }
}

// Memory plan: recompute liveness/in-place independently and require
// equality. An undercount releases a live buffer; an overcount leaks.
void CheckMemory(Checker& check, const ExecutionPlan& plan) {
  const auto& nodes = plan.nodes();
  const int n = static_cast<int>(nodes.size());
  const MemoryPlan& memory = plan.memory();
  check.Check(memory.nodes.size() == nodes.size(), "memory.parallel_size",
              nullptr,
              "memory plan covers " + std::to_string(memory.nodes.size()) +
                  " of " + std::to_string(nodes.size()) + " plan nodes");
  if (memory.nodes.size() != nodes.size()) return;
  std::vector<int> reads(static_cast<std::size_t>(n), 0);
  for (const PlanNode& entry : nodes) {
    for (const Endpoint& input : entry.inputs) {
      if (input.producer >= 0 && input.producer < n) {
        ++reads[static_cast<std::size_t>(input.producer)];
      }
    }
  }
  std::vector<bool> fetch_protected(static_cast<std::size_t>(n), false);
  for (const Endpoint& slot : plan.fetch_slots()) {
    if (slot.producer >= 0 && slot.producer < n) {
      fetch_protected[static_cast<std::size_t>(slot.producer)] = true;
    }
  }
  for (int i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    const PlanNode& entry = nodes[u];
    const MemoryPlan::NodeInfo& info = memory.nodes[u];
    check.Check(info.output_reads >= reads[u], "liveness.undercount",
                entry.node,
                "output_reads " + std::to_string(info.output_reads) + " < " +
                    std::to_string(reads[u]) +
                    " actual data reads: the countdown would release a "
                    "buffer with a live consumer");
    check.Check(info.output_reads <= reads[u], "liveness.overcount",
                entry.node,
                "output_reads " + std::to_string(info.output_reads) + " > " +
                    std::to_string(reads[u]) +
                    " actual data reads: the buffer would never be "
                    "released mid-run");
    check.Check(!fetch_protected[u] || info.fetch_protected,
                "liveness.fetch_unprotected", entry.node,
                "fetch producer is not marked fetch_protected; its "
                "output could be dropped before the run ends");
    check.Check(fetch_protected[u] || !info.fetch_protected,
                "liveness.spurious_protection", entry.node,
                "non-fetch node marked fetch_protected; its buffer "
                "would be retained for the whole run");
    const bool expected_in_place =
        (entry.kind == OpKind::kKernel && entry.node != nullptr &&
         OpSupportsInPlace(entry.node->op())) ||
        (entry.kind == OpKind::kFusedRegion && entry.fused != nullptr &&
         !entry.fused->has_reduction);
    check.Check(!info.in_place_capable || expected_in_place,
                "inplace.illegal", entry.node,
                "in_place_capable set on an op outside the same-index "
                "elementwise allowlist: overwriting its input while "
                "reading it would corrupt the computation");
    check.Check(info.in_place_capable || !expected_in_place,
                "inplace.dropped", entry.node,
                "allowlisted op lost its in_place_capable bit (memory "
                "plan built against a stale schedule?)");
  }
}

void VerifyNodes(Checker& check, const Graph& graph,
                 const ExecutionPlan& plan) {
  const auto& nodes = plan.nodes();
  const int n = static_cast<int>(nodes.size());
  const RegionIndex region_index = BuildRegionIndex(plan);

  // Which graph nodes participate in the plan: dense entries plus fused
  // interiors (whose dense slot is their region's).
  std::unordered_set<const Node*> in_plan;
  for (const PlanNode& entry : nodes) {
    if (entry.node != nullptr) in_plan.insert(entry.node);
  }
  for (const auto& [member, region] : region_index.region_of) {
    in_plan.insert(member);
  }
  CheckIndex(check, plan, region_index);

  for (int i = 0; i < n; ++i) {
    const PlanNode& entry = nodes[static_cast<std::size_t>(i)];
    if (entry.node == nullptr) continue;

    const OpKind expected_kind =
        entry.kind == OpKind::kFusedRegion ? OpKind::kFusedRegion
                                           : ClassifyOp(entry.node->op());
    check.Check(entry.kind == expected_kind, "schedule.kind_mismatch",
                entry.node,
                std::string("plan kind ") + KindName(entry.kind) +
                    " but op '" + entry.node->op() + "' classifies as " +
                    KindName(expected_kind));
    if (entry.kind == OpKind::kKernel) {
      check.Check(entry.kernel != nullptr, "schedule.kernel_null",
                  entry.node, "kernel op with no resolved KernelFn");
    }
    if (entry.kind == OpKind::kFusedRegion) {
      check.Check(entry.fused != nullptr, "fusion.null_plan", entry.node,
                  "kFusedRegion plan node with no region plan");
      if (entry.fused != nullptr) {
        check.Check(RegionOwnedByPlan(plan, entry.fused),
                    "fusion.foreign_region", entry.node,
                    "region plan is not owned by this ExecutionPlan");
        check.Check(ClassifyOp(entry.node->op()) == OpKind::kKernel,
                    "fusion.root_not_kernel", entry.node,
                    "fused-region root op '" + entry.node->op() +
                        "' is not a kernel op");
        CheckRegion(check, graph, plan, *entry.fused, entry.node,
                    static_cast<int>(entry.inputs.size()), region_index,
                    in_plan);
      }
    }
    CheckInEdges(check, plan, i);
    CheckOutEdges(check, plan, i);
  }
  CheckFetches(check, plan);
  CheckArguments(check, plan);
  CheckMemory(check, plan);
}

// JANUS_VERIFY tri-state: unset -> build-type default; "0"/"false"/"off"
// -> off; anything else -> on.
int EnvVerifySetting() {
  const char* env = std::getenv("JANUS_VERIFY");
  if (env == nullptr || *env == '\0') return -1;
  const std::string value(env);
  if (value == "0" || value == "false" || value == "off") return 0;
  return 1;
}

std::atomic<int> g_forced_setting{-1};

// The auto-run hook: verify when enabled and reject bad plans before they
// can be cached or executed.
void VerifyHook(const Graph& graph, const ExecutionPlan& plan) {
  if (!VerifyEnabled()) return;
  obs::MetricsRegistry::Global().GetCounter("verify.plans_checked")
      .Increment();
  const Report report = VerifyPlan(graph, plan);
  if (report.ok()) return;
  obs::MetricsRegistry::Global().GetCounter("verify.violations")
      .Add(static_cast<std::int64_t>(report.issues.size()));
  throw InternalError("plan verification failed:\n" + report.ToString());
}

}  // namespace

std::string Report::ToString() const {
  if (ok()) {
    return "plan OK (" + std::to_string(checks) + " checks)";
  }
  std::string out = std::to_string(issues.size()) + " violation(s), " +
                    std::to_string(checks) + " checks:\n";
  for (const Issue& issue : issues) {
    out += "  " + issue.invariant + " at " + issue.node + ": " +
           issue.message + "\n";
  }
  return out;
}

Report VerifyPlan(const Graph& graph, const ExecutionPlan& plan) {
  Report report;
  Checker check(&report);
  VerifyNodes(check, graph, plan);
  return report;
}

bool VerifyEnabled() {
  const int forced = g_forced_setting.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  static const int env_setting = EnvVerifySetting();
  if (env_setting >= 0) return env_setting != 0;
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

void SetVerifyEnabledForTesting(int forced) {
  g_forced_setting.store(forced < 0 ? -1 : (forced != 0 ? 1 : 0),
                         std::memory_order_relaxed);
}

void InstallPlanVerifier() { SetPlanVerifyHook(&VerifyHook); }

}  // namespace verify
}  // namespace janus
