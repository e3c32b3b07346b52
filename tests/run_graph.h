// Test helpers that feed a graph by placeholder name. The runtime takes
// positional arguments (ExecutionPlan::Build's `args`, Executor::Run's
// tensors); tests that build graphs by hand name their placeholders, so
// these helpers make every Placeholder a plan argument and map feed names
// to argument positions once per run.
#ifndef JANUS_TESTS_RUN_GRAPH_H_
#define JANUS_TESTS_RUN_GRAPH_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "runtime/executor.h"
#include "runtime/plan.h"

namespace janus {

// Every Placeholder of `graph`, in graph order.
inline std::vector<Node*> Placeholders(const Graph& graph) {
  std::vector<Node*> placeholders;
  for (const auto& node : graph.nodes()) {
    if (node->op() == "Placeholder") placeholders.push_back(node.get());
  }
  return placeholders;
}

// A plan for `fetches` that takes every Placeholder as an argument.
inline std::shared_ptr<const ExecutionPlan> PlanOverPlaceholders(
    const Graph& graph, std::span<const NodeOutput> fetches,
    PlanOptions options = {}) {
  return ExecutionPlan::Build(graph, fetches, Placeholders(graph), options);
}

// `plan`'s arguments, looked up by node name in `feeds`; an argument the
// fetches do not need may go unfed. Throws InvalidArgument for a needed
// argument the feeds do not name.
inline std::vector<Tensor> ArgsByName(
    const ExecutionPlan& plan, const std::map<std::string, Tensor>& feeds) {
  std::vector<Tensor> args;
  args.reserve(plan.arguments().size());
  for (const Node* arg : plan.arguments()) {
    const auto it = feeds.find(arg->name());
    if (it != feeds.end()) {
      args.push_back(it->second);
    } else if (plan.IndexOf(arg) < 0) {
      args.emplace_back();
    } else {
      throw InvalidArgument("placeholder '" + arg->name() + "' was not fed");
    }
  }
  return args;
}

// Builds the plan for `fetches` over every Placeholder and runs it once,
// feeding placeholders by name.
inline std::vector<Tensor> RunGraph(Executor& executor, const Graph& graph,
                                    const std::map<std::string, Tensor>& feeds,
                                    std::span<const NodeOutput> fetches,
                                    RunMetrics* metrics = nullptr) {
  const auto plan = PlanOverPlaceholders(graph, fetches);
  return executor.Run(*plan, ArgsByName(*plan, feeds), metrics);
}

}  // namespace janus

#endif  // JANUS_TESTS_RUN_GRAPH_H_
