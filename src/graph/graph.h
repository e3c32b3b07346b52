// Symbolic dataflow graph intermediate representation.
//
// A Graph owns Nodes; Nodes reference each other through non-owning
// NodeOutput handles (node pointer + output slot), mirroring how TensorFlow
// edges carry (producer, output_index). Control flow uses the dataflow
// conditional primitives the paper builds on, Switch and Merge (Yu et al.,
// EuroSys'18), the functional While for loops, InvokeOp for recursive
// functions (Jeong et al., EuroSys'18) and AssertOp for JANUS's speculative
// assumption checks. A Graph is IR only: the execution plans built from it
// belong to whoever built them (runtime/plan.h), so src/graph depends on no
// runtime or cache layer.
#ifndef JANUS_GRAPH_GRAPH_H_
#define JANUS_GRAPH_GRAPH_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/attr.h"
#include "graph/source_site.h"

namespace janus {

class Node;

// A reference to one output slot of a node. Non-owning: the Graph keeps the
// node alive.
struct NodeOutput {
  Node* node = nullptr;
  int index = 0;

  bool operator==(const NodeOutput& other) const = default;
};

class Node {
 public:
  Node(int id, std::string op, std::string name, std::vector<NodeOutput> inputs,
       AttrMap attrs, int num_outputs);

  int id() const { return id_; }
  const std::string& op() const { return op_; }
  const std::string& name() const { return name_; }
  int num_outputs() const { return num_outputs_; }

  const std::vector<NodeOutput>& inputs() const { return inputs_; }
  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  NodeOutput input(int i) const { return inputs_.at(static_cast<std::size_t>(i)); }
  // Rewires input slot i (used by optimisation passes).
  void set_input(int i, NodeOutput v) { inputs_.at(static_cast<std::size_t>(i)) = v; }
  // Appends an input (used to patch recursive Invoke sites once the callee's
  // full capture list is known).
  void AppendInput(NodeOutput v) { inputs_.push_back(v); }

  // Control dependencies: this node may fire only after these nodes have
  // completed (used to order state reads/writes and deferred updates).
  const std::vector<Node*>& control_inputs() const { return control_inputs_; }
  void AddControlInput(Node* node) { control_inputs_.push_back(node); }
  void ClearControlInputs() { control_inputs_.clear(); }
  void ReplaceControlInput(Node* from, Node* to);

  const AttrMap& attrs() const { return attrs_; }
  bool HasAttr(std::string_view key) const;
  const AttrValue& attr(std::string_view key) const;
  void SetAttr(std::string key, AttrValue value);

  // Typed attribute accessors (throw InternalError on kind mismatch).
  std::int64_t GetIntAttr(std::string_view key) const;
  double GetFloatAttr(std::string_view key) const;
  bool GetBoolAttr(std::string_view key) const;
  const std::string& GetStringAttr(std::string_view key) const;
  const std::vector<std::int64_t>& GetIntListAttr(std::string_view key) const;
  const Tensor& GetTensorAttr(std::string_view key) const;
  DType GetDTypeAttr(std::string_view key) const;

  // Imperative source provenance. Stamped from the ambient SourceSiteScope
  // at creation (Graph::AddNode); gradient/rewrite passes re-stamp clones
  // with the originating forward node's site. Unknown sites have
  // !site().known().
  const SourceSite& site() const { return site_; }
  void set_site(SourceSite site) { site_ = std::move(site); }

  std::string DebugString() const;

 private:
  int id_;
  std::string op_;
  std::string name_;
  std::vector<NodeOutput> inputs_;
  std::vector<Node*> control_inputs_;
  AttrMap attrs_;
  int num_outputs_;
  SourceSite site_;
};

// A named subgraph with explicit parameters and results, invoked through
// InvokeOp (possibly recursively) or used as a loop/branch body.
struct GraphFunction;

class Graph {
 public:
  Graph() = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  // Creates a node. `name` may be empty (a unique one is generated).
  Node* AddNode(std::string op, std::vector<NodeOutput> inputs,
                AttrMap attrs = {}, int num_outputs = 1,
                std::string name = {});

  // Convenience constructors for the most common node kinds.
  NodeOutput Constant(Tensor value, std::string name = {});
  NodeOutput Placeholder(std::string name, DType dtype);

  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }
  std::size_t num_nodes() const { return nodes_.size(); }
  // Node ids grow along nodes() and stay below this bound, so a vector of
  // id_bound() entries can stand in for a map keyed by node.
  int id_bound() const { return next_id_; }

  // Removes the nodes not in `keep`. Caller guarantees no kept node
  // references a removed one.
  void Prune(const std::vector<Node*>& keep);

  std::string DebugString() const;

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
  int next_id_ = 0;
};

// The nodes `fetches` transitively need through data and control edges, in
// graph order. Every fetch must be a node of `graph`. Dead-code elimination
// keeps these and plan build runs these: one walk for both.
std::vector<Node*> ReachableNodes(const Graph& graph,
                                  std::span<const NodeOutput> fetches);

struct GraphFunction {
  std::string name;
  Graph graph;
  // Parameter placeholders, in call order.
  std::vector<Node*> parameters;
  // Result values fetched when the function returns.
  std::vector<NodeOutput> results;
};

// Shared, append-only collection of functions referenced by InvokeOp nodes.
class FunctionLibrary {
 public:
  // Registers a function; returns its name. Throws on duplicates.
  const GraphFunction& Register(std::unique_ptr<GraphFunction> fn);
  bool Contains(std::string_view name) const;
  const GraphFunction& Lookup(std::string_view name) const;
  // Mutable lookup for two-phase construction (recursive gradient functions
  // register a stub first, then fill in their body).
  GraphFunction& LookupMutable(std::string_view name);
  std::vector<std::string> FunctionNames() const;

 private:
  std::map<std::string, std::unique_ptr<GraphFunction>, std::less<>> functions_;
};

}  // namespace janus

#endif  // JANUS_GRAPH_GRAPH_H_
