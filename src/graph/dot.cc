#include "graph/dot.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "obs/profile.h"

namespace janus {
namespace {

// Per-node mean latencies from the plan profiles (obs/profile.h); the
// hottest scales the heat ramp. Empty when nothing has been sampled.
struct TimingIndex {
  std::map<std::string, double> node_mean_ns;  // node name -> mean latency
  double max_mean_ns = 0.0;
};

TimingIndex BuildTimingIndex(const Graph& graph) {
  TimingIndex index;
  const std::map<std::string, double> profiled = obs::ProfileNodeMeanNs();
  for (const auto& node : graph.nodes()) {
    if (const auto it = profiled.find(node->name()); it != profiled.end()) {
      index.node_mean_ns[node->name()] = it->second;
      index.max_mean_ns = std::max(index.max_mean_ns, it->second);
    }
  }
  return index;
}

// Buckets a node's mean latency relative to the graph's hottest node into
// a white-to-red heat ramp.
const char* HeatColor(double mean_ns, double max_mean_ns) {
  const double ratio = max_mean_ns > 0.0 ? mean_ns / max_mean_ns : 0.0;
  if (ratio >= 0.75) return "\"#e34a33\"";
  if (ratio >= 0.40) return "\"#fc8d59\"";
  if (ratio >= 0.15) return "\"#fdcc8a\"";
  return "\"#fef0d9\"";
}

std::string FormatMeanNs(double mean_ns) {
  char text[48];
  if (mean_ns >= 1e6) {
    std::snprintf(text, sizeof(text), "~%.1fms", mean_ns / 1e6);
  } else if (mean_ns >= 1e3) {
    std::snprintf(text, sizeof(text), "~%.1fus", mean_ns / 1e3);
  } else {
    std::snprintf(text, sizeof(text), "~%.0fns", mean_ns);
  }
  return text;
}

bool IsControlFlow(const std::string& op) {
  return op == "Switch" || op == "Merge" || op == "While" || op == "Invoke";
}

bool IsStateOp(const std::string& op) {
  return op == "PyGetAttr" || op == "PySetAttr" || op == "PyGetSubscr" ||
         op == "PySetSubscr" || op == "ReadVariable" ||
         op == "AssignVariable" || op == "ApplySGD" || op == "PyPrint";
}

bool IsSource(const std::string& op) {
  return op == "Const" || op == "Placeholder" || op == "Param";
}

void EmitNode(std::ostringstream& oss, const Node& node,
              const TimingIndex* timing = nullptr) {
  const std::string& op = node.op();
  const char* shape = "box";
  std::string color = "white";
  if (IsControlFlow(op)) {
    shape = "diamond";
    color = "lightblue";
  } else if (op == "Assert" || op == "AssertShape") {
    shape = "octagon";
    color = "lightsalmon";
  } else if (IsStateOp(op)) {
    color = "khaki";
  } else if (IsSource(op)) {
    shape = "ellipse";
    color = "lightgrey";
  }
  std::string timing_label;
  if (timing != nullptr) {
    if (const auto it = timing->node_mean_ns.find(node.name());
        it != timing->node_mean_ns.end()) {
      timing_label = "\\n" + FormatMeanNs(it->second);
      color = HeatColor(it->second, timing->max_mean_ns);
    }
  }
  oss << "  n" << node.id() << " [label=\"" << node.name()
      << "\\n" << op << timing_label << "\", shape=" << shape
      << ", style=filled, fillcolor=" << color << "];\n";
}

void EmitEdges(std::ostringstream& oss, const Node& node) {
  for (int i = 0; i < node.num_inputs(); ++i) {
    const NodeOutput input = node.input(i);
    oss << "  n" << input.node->id() << " -> n" << node.id();
    if (input.index != 0 || input.node->num_outputs() > 1) {
      oss << " [label=\"" << input.index << "\"]";
    }
    oss << ";\n";
  }
  for (const Node* control : node.control_inputs()) {
    oss << "  n" << control->id() << " -> n" << node.id()
        << " [style=dashed, color=gray];\n";
  }
}

}  // namespace

std::string ToDot(const Graph& graph, const std::string& title) {
  return ToDot(graph, title, DotOptions{});
}

std::string ToDot(const Graph& graph, const std::string& title,
                  const DotOptions& options) {
  TimingIndex timing;
  if (options.annotate_timing) timing = BuildTimingIndex(graph);
  const TimingIndex* timing_ptr = options.annotate_timing ? &timing : nullptr;
  std::ostringstream oss;
  oss << "digraph \"" << title << "\" {\n";
  oss << "  rankdir=TB;\n  node [fontsize=10];\n";
  for (const auto& node : graph.nodes()) EmitNode(oss, *node, timing_ptr);
  for (const auto& node : graph.nodes()) EmitEdges(oss, *node);
  oss << "}\n";
  return oss.str();
}

std::string ToDot(const GraphFunction& fn) {
  std::ostringstream oss;
  oss << "digraph \"" << fn.name << "\" {\n";
  oss << "  rankdir=TB;\n  node [fontsize=10];\n";
  std::set<const Node*> params(fn.parameters.begin(), fn.parameters.end());
  for (const auto& node : fn.graph.nodes()) {
    if (params.count(node.get()) != 0u) {
      oss << "  n" << node->id() << " [label=\"" << node->name()
          << "\\nParam\", shape=ellipse, style=filled, "
             "fillcolor=palegreen];\n";
    } else {
      EmitNode(oss, *node);
    }
  }
  for (const auto& node : fn.graph.nodes()) EmitEdges(oss, *node);
  // Mark results.
  for (std::size_t i = 0; i < fn.results.size(); ++i) {
    oss << "  result" << i << " [label=\"result " << i
        << "\", shape=plaintext];\n";
    oss << "  n" << fn.results[i].node->id() << " -> result" << i
        << " [style=bold];\n";
  }
  oss << "}\n";
  return oss.str();
}

}  // namespace janus
