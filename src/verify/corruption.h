// Seeded plan corruption for verifier validation.
//
// A verifier is only as trustworthy as the bugs it has been shown to catch.
// This harness deliberately damages real ExecutionPlans — built from real
// graphs — in every way a plan-builder or fusion-rewrite bug plausibly
// could, then asserts the verifier diagnoses each corruption with the right
// named invariant and a node attribution. PlanCorruptor is the single
// friend-class window into ExecutionPlan's internals; the catalog in
// corruption.cc enumerates the mutations.
#ifndef JANUS_VERIFY_CORRUPTION_H_
#define JANUS_VERIFY_CORRUPTION_H_

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "runtime/fusion.h"
#include "runtime/memory_plan.h"
#include "runtime/plan.h"

namespace janus {
namespace verify {

// Mutable access to one plan's internals. The plan stays const everywhere
// else; tests own both the graph and the plan and may corrupt either side.
class PlanCorruptor {
 public:
  PlanCorruptor(Graph* graph, const ExecutionPlan* plan)
      : graph_(graph), plan_(const_cast<ExecutionPlan*>(plan)) {}

  Graph& graph() { return *graph_; }

  std::vector<ExecutionPlan::PlanNode>& nodes() { return plan_->nodes_; }
  std::vector<ExecutionPlan::Endpoint>& fetch_slots() {
    return plan_->fetch_slots_;
  }
  std::unordered_map<const Node*, int>& index() { return plan_->index_; }
  std::vector<NodeOutput>& fetches() { return plan_->fetches_; }
  std::vector<const Node*>& arguments() { return plan_->arguments_; }
  MemoryPlan& memory() { return plan_->memory_; }

  std::size_t num_regions() const { return plan_->fused_regions_.size(); }
  // Regions are shared as const; the harness alone may mutate them.
  FusedRegionPlan& mutable_region(std::size_t i) {
    return const_cast<FusedRegionPlan&>(*plan_->fused_regions_[i]);
  }

 private:
  Graph* graph_;
  ExecutionPlan* plan_;
};

// One catalogued mutation. `apply` damages the plan and returns true, or
// returns false (leaving the plan intact) when the plan lacks the feature
// the mutation targets (e.g. no fused region or no multi-input node).
struct Corruption {
  std::string name;                // e.g. "back-edge"
  std::string expected_invariant;  // invariant VerifyPlan must report
  std::function<bool(PlanCorruptor&)> apply;
};

// The full catalog. Every entry that applies
// to a given plan must be caught by VerifyPlan with `expected_invariant`
// among the reported issues.
std::vector<Corruption> PlanCorruptions();

}  // namespace verify
}  // namespace janus

#endif  // JANUS_VERIFY_CORRUPTION_H_
