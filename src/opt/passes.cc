#include "opt/passes.h"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"
#include "runtime/executor.h"
#include "runtime/kernel.h"
#include "runtime/run_context.h"

namespace janus {
namespace {

struct OutKey {
  const Node* node;
  int index;
  bool operator==(const OutKey& other) const = default;
};
struct OutKeyHash {
  std::size_t operator()(const OutKey& key) const {
    return std::hash<const void*>()(key.node) * 2654435761u ^
           static_cast<std::size_t>(key.index);
  }
};

using Replacements = std::unordered_map<OutKey, NodeOutput, OutKeyHash>;

// Rewires every use of a replaced output (including transitively chained
// replacements) to its final producer. Optionally updates fetch handles.
void ApplyReplacements(Graph& graph, const Replacements& repl,
                       std::vector<NodeOutput>* fetches) {
  const auto resolve = [&](NodeOutput v) {
    // Chase chains (a -> b -> c) with a small bound to catch cycles.
    for (int hops = 0; hops < 64; ++hops) {
      const auto it = repl.find({v.node, v.index});
      if (it == repl.end()) return v;
      v = it->second;
    }
    throw InternalError("replacement cycle in optimisation pass");
  };
  for (const auto& node : graph.nodes()) {
    for (int i = 0; i < node->num_inputs(); ++i) {
      node->set_input(i, resolve(node->input(i)));
    }
    // Control inputs: redirect to the replacement's producer node.
    for (Node* control : node->control_inputs()) {
      const auto it = repl.find({control, 0});
      if (it != repl.end()) {
        node->ReplaceControlInput(control, resolve({control, 0}).node);
      }
    }
  }
  if (fetches != nullptr) {
    for (NodeOutput& fetch : *fetches) fetch = resolve(fetch);
  }
}

bool IsConst(const Node* node) { return node->op() == "Const"; }

bool IsScalarConst(const Node* node, float value) {
  if (!IsConst(node)) return false;
  const Tensor& t = node->GetTensorAttr("value");
  if (t.num_elements() != 1) return false;
  return t.ElementAsDouble(0) == static_cast<double>(value);
}

std::string AttrSignature(const AttrMap& attrs) {
  std::ostringstream oss;
  for (const auto& [key, value] : attrs) {
    oss << key << '=';
    if (const Tensor* t = std::get_if<Tensor>(&value)) {
      // Hash small tensors by content; large ones are treated as unique so
      // we never pay to compare big weight blobs.
      if (t->num_elements() <= 256) {
        oss << DTypeName(t->dtype()) << t->shape().ToString() << ':';
        for (std::int64_t i = 0; i < t->num_elements(); ++i) {
          oss << t->ElementAsDouble(i) << ',';
        }
      } else {
        oss << "unique@" << static_cast<const void*>(t);
      }
    } else {
      oss << AttrToString(value);
    }
    oss << ';';
  }
  return oss.str();
}

}  // namespace

bool IsPureOp(const std::string& op) {
  static const std::unordered_set<std::string>* const impure = [] {
    return new std::unordered_set<std::string>{
        "Placeholder",   "Param",          "Const",
        "ReadVariable",  "AssignVariable", "ApplySGD",
        "Assert",        "PyGetAttr",      "PySetAttr",
        "PyGetSubscr",   "PySetSubscr",    "PyPrint",
        "RandomNormal",  "RandomUniform",  "NoOp",
        "Invoke",        "While",          "WhileGrad",
        "Switch",        "Merge"};
  }();
  return impure->find(op) == impure->end();
}

int ConstantFolding(Graph& graph) {
  Replacements repl;
  int folded = 0;
  // Snapshot: graph.Constant() below appends nodes while we iterate.
  std::vector<Node*> snapshot;
  snapshot.reserve(graph.num_nodes());
  for (const auto& n : graph.nodes()) snapshot.push_back(n.get());
  for (Node* node : snapshot) {
    if (!IsPureOp(node->op())) continue;
    if (node->num_inputs() == 0) continue;
    if (!node->control_inputs().empty()) continue;
    bool all_const = true;
    for (const NodeOutput& input : node->inputs()) {
      // Inputs may themselves have been folded this round; chase them.
      const Node* producer = input.node;
      const auto it = repl.find({producer, input.index});
      const Node* effective = it != repl.end() ? it->second.node : producer;
      if (!IsConst(effective)) {
        all_const = false;
        break;
      }
    }
    if (!all_const) continue;

    std::vector<Tensor> inputs;
    inputs.reserve(node->inputs().size());
    for (const NodeOutput& input : node->inputs()) {
      const auto it = repl.find({input.node, input.index});
      const Node* effective =
          it != repl.end() ? it->second.node : input.node;
      inputs.push_back(effective->GetTensorAttr("value"));
    }
    RunContext run;  // pure kernels need no services
    std::vector<Tensor> outputs;
    try {
      internal::ExecuteKernel(run, *node,
                              KernelRegistry::Global().Lookup(node->op()),
                              inputs, outputs);
    } catch (const Error&) {
      continue;  // e.g. data-dependent failure; leave for runtime
    }
    // The folded constant inherits the replaced node's source site.
    SourceSiteScope site_scope(node->site());
    for (int i = 0; i < node->num_outputs(); ++i) {
      repl[{node, i}] = graph.Constant(outputs[static_cast<std::size_t>(i)]);
    }
    ++folded;
  }
  ApplyReplacements(graph, repl, nullptr);
  return folded;
}

int CommonSubexpressionElimination(Graph& graph) {
  Replacements repl;
  std::unordered_map<std::string, Node*> seen;
  int merged = 0;
  for (const auto& node : graph.nodes()) {
    if (!IsPureOp(node->op()) && node->op() != "Const") continue;
    std::ostringstream sig;
    sig << node->op() << '(';
    for (const NodeOutput& input : node->inputs()) {
      NodeOutput v = input;
      const auto it = repl.find({v.node, v.index});
      if (it != repl.end()) v = it->second;
      sig << v.node->id() << ':' << v.index << ',';
    }
    sig << ")^[";
    for (const Node* control : node->control_inputs()) {
      sig << control->id() << ',';
    }
    sig << ']' << AttrSignature(node->attrs());
    const auto [it, inserted] = seen.emplace(sig.str(), node.get());
    if (!inserted) {
      for (int i = 0; i < node->num_outputs(); ++i) {
        repl[{node.get(), i}] = {it->second, i};
      }
      ++merged;
    }
  }
  ApplyReplacements(graph, repl, nullptr);
  return merged;
}

int ArithmeticSimplification(Graph& graph) {
  Replacements repl;
  int rewrites = 0;
  const auto replace = [&](Node* node, NodeOutput with) {
    repl[{node, 0}] = with;
    ++rewrites;
  };
  // Snapshot: the ZerosLike rewrite appends nodes while we iterate.
  std::vector<Node*> snapshot;
  snapshot.reserve(graph.num_nodes());
  for (const auto& n : graph.nodes()) snapshot.push_back(n.get());
  for (Node* node : snapshot) {
    if (!node->control_inputs().empty()) continue;
    const std::string& op = node->op();
    const auto in = [&](int i) { return node->input(i); };
    if (op == "Identity") {
      replace(node, in(0));
    } else if (op == "Add") {
      if (IsScalarConst(in(1).node, 0.0f)) {
        replace(node, in(0));
      } else if (IsScalarConst(in(0).node, 0.0f)) {
        replace(node, in(1));
      }
    } else if (op == "Sub") {
      if (IsScalarConst(in(1).node, 0.0f)) replace(node, in(0));
    } else if (op == "Mul") {
      if (IsScalarConst(in(1).node, 1.0f)) {
        replace(node, in(0));
      } else if (IsScalarConst(in(0).node, 1.0f)) {
        replace(node, in(1));
      } else if (IsScalarConst(in(1).node, 0.0f) ||
                 IsScalarConst(in(0).node, 0.0f)) {
        const NodeOutput operand =
            IsScalarConst(in(1).node, 0.0f) ? in(0) : in(1);
        // The replacement ZerosLike inherits the Mul's source site.
        SourceSiteScope site_scope(node->site());
        replace(node, {graph.AddNode("ZerosLike", {operand}), 0});
      }
    } else if (op == "Div") {
      if (IsScalarConst(in(1).node, 1.0f)) replace(node, in(0));
    } else if (op == "Neg") {
      if (in(0).node->op() == "Neg") {
        replace(node, in(0).node->input(0));
      }
    } else if (op == "Pow") {
      if (IsScalarConst(in(1).node, 1.0f)) replace(node, in(0));
    }
  }
  ApplyReplacements(graph, repl, nullptr);
  return rewrites;
}

int DeadCodeElimination(Graph& graph, std::span<const NodeOutput> fetches) {
  std::unordered_set<const Node*> live;
  std::vector<Node*> stack;
  for (const NodeOutput& fetch : fetches) stack.push_back(fetch.node);
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    if (!live.insert(node).second) continue;
    for (const NodeOutput& input : node->inputs()) stack.push_back(input.node);
    for (Node* control : node->control_inputs()) stack.push_back(control);
  }
  std::vector<Node*> keep;
  keep.reserve(live.size());
  for (const auto& node : graph.nodes()) {
    if (live.count(node.get()) != 0u) keep.push_back(node.get());
  }
  const int removed = static_cast<int>(graph.num_nodes() - keep.size());
  graph.Prune(keep);
  return removed;
}

OptimizationStats OptimizeGraph(Graph& graph,
                                std::span<const NodeOutput> fetches,
                                int max_rounds) {
  OptimizationStats stats;
  for (int round = 0; round < max_rounds; ++round) {
    const int folded = ConstantFolding(graph);
    const int simplified = ArithmeticSimplification(graph);
    const int merged = CommonSubexpressionElimination(graph);
    const int removed = DeadCodeElimination(graph, fetches);
    stats.folded += folded;
    stats.simplified += simplified;
    stats.cse_merged += merged;
    stats.dce_removed += removed;
    ++stats.rounds;
    if (folded + simplified + merged + removed == 0) break;
  }
  return stats;
}

}  // namespace janus
