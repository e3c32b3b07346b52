#include "graph/graph.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace janus {

std::string AttrToString(const AttrValue& attr) {
  std::ostringstream oss;
  std::visit(
      [&oss](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          oss << '"' << v << '"';
        } else if constexpr (std::is_same_v<T, std::vector<std::int64_t>>) {
          oss << '[';
          for (std::size_t i = 0; i < v.size(); ++i) {
            if (i > 0) oss << ", ";
            oss << v[i];
          }
          oss << ']';
        } else if constexpr (std::is_same_v<T, Tensor>) {
          oss << v.ToString(4);
        } else if constexpr (std::is_same_v<T, DType>) {
          oss << DTypeName(v);
        } else if constexpr (std::is_same_v<T, bool>) {
          oss << (v ? "true" : "false");
        } else {
          oss << v;
        }
      },
      attr);
  return oss.str();
}

Node::Node(int id, std::string op, std::string name,
           std::vector<NodeOutput> inputs, AttrMap attrs, int num_outputs)
    : id_(id),
      op_(std::move(op)),
      name_(std::move(name)),
      inputs_(std::move(inputs)),
      attrs_(std::move(attrs)),
      num_outputs_(num_outputs) {
  JANUS_EXPECTS(num_outputs_ >= 0);
}

void Node::ReplaceControlInput(Node* from, Node* to) {
  std::replace(control_inputs_.begin(), control_inputs_.end(), from, to);
}

bool Node::HasAttr(std::string_view key) const {
  return attrs_.find(key) != attrs_.end();
}

const AttrValue& Node::attr(std::string_view key) const {
  const auto it = attrs_.find(key);
  if (it == attrs_.end()) {
    throw InternalError("node " + name_ + " (" + op_ + "): missing attr '" +
                        std::string(key) + "'");
  }
  return it->second;
}

void Node::SetAttr(std::string key, AttrValue value) {
  attrs_[std::move(key)] = std::move(value);
}

namespace {
template <typename T>
const T& GetAttrAs(const Node& node, std::string_view key) {
  const AttrValue& value = node.attr(key);
  const T* typed = std::get_if<T>(&value);
  if (typed == nullptr) {
    throw InternalError("node " + node.name() + ": attr '" + std::string(key) +
                        "' has unexpected kind");
  }
  return *typed;
}
}  // namespace

std::int64_t Node::GetIntAttr(std::string_view key) const {
  return GetAttrAs<std::int64_t>(*this, key);
}
double Node::GetFloatAttr(std::string_view key) const {
  return GetAttrAs<double>(*this, key);
}
bool Node::GetBoolAttr(std::string_view key) const {
  return GetAttrAs<bool>(*this, key);
}
const std::string& Node::GetStringAttr(std::string_view key) const {
  return GetAttrAs<std::string>(*this, key);
}
const std::vector<std::int64_t>& Node::GetIntListAttr(
    std::string_view key) const {
  return GetAttrAs<std::vector<std::int64_t>>(*this, key);
}
const Tensor& Node::GetTensorAttr(std::string_view key) const {
  return GetAttrAs<Tensor>(*this, key);
}
DType Node::GetDTypeAttr(std::string_view key) const {
  return GetAttrAs<DType>(*this, key);
}

std::string Node::DebugString() const {
  std::ostringstream oss;
  oss << name_ << " = " << op_ << '(';
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << inputs_[i].node->name();
    if (inputs_[i].index != 0) oss << ':' << inputs_[i].index;
  }
  oss << ')';
  if (!control_inputs_.empty()) {
    oss << " ^[";
    for (std::size_t i = 0; i < control_inputs_.size(); ++i) {
      if (i > 0) oss << ", ";
      oss << control_inputs_[i]->name();
    }
    oss << ']';
  }
  if (!attrs_.empty()) {
    oss << " {";
    bool first = true;
    for (const auto& [key, value] : attrs_) {
      if (!first) oss << ", ";
      first = false;
      oss << key << '=' << AttrToString(value);
    }
    oss << '}';
  }
  return oss.str();
}

Node* Graph::AddNode(std::string op, std::vector<NodeOutput> inputs,
                     AttrMap attrs, int num_outputs, std::string name) {
  for (const NodeOutput& input : inputs) {
    JANUS_EXPECTS(input.node != nullptr);
    JANUS_EXPECTS(input.index >= 0 && input.index < input.node->num_outputs());
  }
  if (name.empty()) {
    name = op + "_" + std::to_string(next_id_);
  }
  nodes_.push_back(std::make_unique<Node>(next_id_, std::move(op),
                                          std::move(name), std::move(inputs),
                                          std::move(attrs), num_outputs));
  ++next_id_;
  if (const SourceSite* ambient = AmbientSourceSite()) {
    nodes_.back()->set_site(*ambient);
  }
  return nodes_.back().get();
}

NodeOutput Graph::Constant(Tensor value, std::string name) {
  Node* node = AddNode("Const", {}, {{"value", std::move(value)}}, 1,
                       std::move(name));
  return {node, 0};
}

NodeOutput Graph::Placeholder(std::string name, DType dtype) {
  Node* node = AddNode("Placeholder", {}, {{"dtype", dtype}}, 1,
                       std::move(name));
  return {node, 0};
}

void Graph::Prune(const std::vector<Node*>& keep) {
  std::vector<bool> kept(static_cast<std::size_t>(next_id_));
  for (const Node* node : keep) {
    JANUS_EXPECTS(node->id() < next_id_);
    kept[static_cast<std::size_t>(node->id())] = true;
  }
  std::erase_if(nodes_, [&kept](const std::unique_ptr<Node>& node) {
    return !kept[static_cast<std::size_t>(node->id())];
  });
}

std::vector<Node*> ReachableNodes(const Graph& graph,
                                  std::span<const NodeOutput> fetches) {
  std::vector<bool> reached(static_cast<std::size_t>(graph.id_bound()));
  std::size_t count = 0;
  std::vector<Node*> stack;
  for (const NodeOutput& fetch : fetches) stack.push_back(fetch.node);
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    if (node->id() >= graph.id_bound()) {
      throw InvalidArgument("node " + node->name() + " is not in this graph");
    }
    const auto id = static_cast<std::size_t>(node->id());
    if (reached[id]) continue;
    reached[id] = true;
    ++count;
    for (const NodeOutput& input : node->inputs()) stack.push_back(input.node);
    for (Node* control : node->control_inputs()) stack.push_back(control);
  }
  std::vector<Node*> order;
  order.reserve(count);
  for (const auto& node : graph.nodes()) {
    if (reached[static_cast<std::size_t>(node->id())]) {
      order.push_back(node.get());
    }
  }
  return order;
}

std::string Graph::DebugString() const {
  std::ostringstream oss;
  for (const auto& node : nodes_) oss << node->DebugString() << '\n';
  return oss.str();
}

const GraphFunction& FunctionLibrary::Register(
    std::unique_ptr<GraphFunction> fn) {
  JANUS_EXPECTS(fn != nullptr && !fn->name.empty());
  const auto [it, inserted] = functions_.emplace(fn->name, std::move(fn));
  if (!inserted) {
    throw InvalidArgument("function '" + it->first + "' already registered");
  }
  return *it->second;
}

bool FunctionLibrary::Contains(std::string_view name) const {
  return functions_.find(name) != functions_.end();
}

const GraphFunction& FunctionLibrary::Lookup(std::string_view name) const {
  const auto it = functions_.find(name);
  if (it == functions_.end()) {
    throw InvalidArgument("unknown function '" + std::string(name) + "'");
  }
  return *it->second;
}

GraphFunction& FunctionLibrary::LookupMutable(std::string_view name) {
  const auto it = functions_.find(name);
  if (it == functions_.end()) {
    throw InvalidArgument("unknown function '" + std::string(name) + "'");
  }
  return *it->second;
}

std::vector<std::string> FunctionLibrary::FunctionNames() const {
  std::vector<std::string> names;
  names.reserve(functions_.size());
  for (const auto& [name, fn] : functions_) names.push_back(name);
  return names;
}

}  // namespace janus
