// Graphviz DOT export for dataflow graphs — debugging aid for inspecting
// what the Speculative Graph Generator produced (node kinds are colour
// coded: control flow, state ops, assertions, sources).
#ifndef JANUS_GRAPH_DOT_H_
#define JANUS_GRAPH_DOT_H_

#include <string>

#include "graph/graph.h"

namespace janus {

struct DotOptions {
  // Annotate each node the plan profiles (obs/profile.h) have sampled with
  // its mean latency and a heat color scaled to the hottest node in the
  // graph, so ToDot() doubles as a visual profile. Run the graph with
  // profiling or tracing enabled first to collect the samples.
  bool annotate_timing = false;
};

// Renders the graph in DOT syntax. Control-flow ops are diamonds, state and
// assertion ops are highlighted, control edges are dashed.
std::string ToDot(const Graph& graph, const std::string& title = "graph");
std::string ToDot(const Graph& graph, const std::string& title,
                  const DotOptions& options);

// Renders a library function (parameters marked).
std::string ToDot(const GraphFunction& fn);

}  // namespace janus

#endif  // JANUS_GRAPH_DOT_H_
