#include "opt/passes.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"
#include "runtime/executor.h"
#include "runtime/kernel.h"
#include "runtime/run_context.h"
#include "tensor/elementwise.h"

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

// A rank-0 Const holding `value`: float32 compared by bits, so -0 and +0
// differ. Only a rank-0 operand of the same dtype leaves the other
// operand's shape and dtype as they are.
bool IsFloatConst(const Node* node, float value) {
  if (!IsConst(node)) return false;
  const Tensor& t = node->GetTensorAttr("value");
  return t.rank() == 0 && t.dtype() == DType::kFloat32 &&
         std::bit_cast<std::uint32_t>(t.ScalarValue()) ==
             std::bit_cast<std::uint32_t>(value);
}

bool IsIntConst(const Node* node, std::int64_t value) {
  if (!IsConst(node)) return false;
  const Tensor& t = node->GetTensorAttr("value");
  return t.rank() == 0 && t.dtype() == DType::kInt64 &&
         t.ScalarIntValue() == value;
}

// The constants c with x + c, x - c and x * c equal to x for every x. The
// float32 zeros differ: -0 + +0 is +0, so only -0 is an additive identity,
// and only +0 a subtractive one.
bool IsAddIdentity(const Node* c) {
  return IsFloatConst(c, -0.0f) || IsIntConst(c, 0);
}
bool IsSubIdentity(const Node* c) {
  return IsFloatConst(c, 0.0f) || IsIntConst(c, 0);
}
bool IsOne(const Node* c) {
  return IsFloatConst(c, 1.0f) || IsIntConst(c, 1);
}

// Tensor attrs of up to this many elements compare by dtype, shape and
// payload bytes. Larger ones are unique to their node, so CSE never hashes
// or compares a weight blob.
constexpr std::int64_t kMaxComparedElements = 256;

bool IsCompared(const Tensor& t) {
  return t.num_elements() <= kMaxComparedElements;
}

std::size_t Mix(std::size_t seed, std::size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

std::size_t HashAttr(const AttrValue& value) {
  return std::visit(
      [](const auto& v) -> std::size_t {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, double>) {
          return std::bit_cast<std::uint64_t>(v);
        } else if constexpr (std::is_same_v<T, std::string>) {
          return std::hash<std::string>()(v);
        } else if constexpr (std::is_same_v<T, std::vector<std::int64_t>>) {
          std::size_t h = v.size();
          for (const std::int64_t x : v) {
            h = Mix(h, static_cast<std::size_t>(x));
          }
          return h;
        } else if constexpr (std::is_same_v<T, Tensor>) {
          if (!IsCompared(v)) return std::hash<const void*>()(&v);
          std::size_t h = static_cast<std::size_t>(v.dtype());
          for (const std::int64_t dim : v.shape().dims()) {
            h = Mix(h, static_cast<std::size_t>(dim));
          }
          const auto* bytes =
              static_cast<const char*>(ops::ElementData(v, v.dtype()));
          return Mix(h, std::hash<std::string_view>()({bytes, v.byte_size()}));
        } else {  // int64, bool, DType
          return static_cast<std::size_t>(v);
        }
      },
      value);
}

// Exact: doubles by their bits, small tensors by dtype, shape and bytes
// (so +0 and -0, and NaNs with different payloads, stay apart).
bool AttrEqual(const AttrValue& a, const AttrValue& b) {
  if (a.index() != b.index()) return false;
  return std::visit(
      [&b](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        const T& y = std::get<T>(b);
        if constexpr (std::is_same_v<T, double>) {
          return std::bit_cast<std::uint64_t>(x) ==
                 std::bit_cast<std::uint64_t>(y);
        } else if constexpr (std::is_same_v<T, Tensor>) {
          return IsCompared(x) && x.ElementsEqual(y);
        } else {
          return x == y;
        }
      },
      a);
}

// A pure node's CSE identity: its op, its inputs (already rewired to this
// pass's representatives), its control inputs in order and its attributes,
// hashed once and compared exactly.
struct CseEntry {
  std::size_t hash;
  Node* node;
};
struct CseHash {
  std::size_t operator()(const CseEntry& entry) const { return entry.hash; }
};
struct CseEqual {
  bool operator()(const CseEntry& a, const CseEntry& b) const {
    const Node& x = *a.node;
    const Node& y = *b.node;
    return a.hash == b.hash && x.op() == y.op() && x.inputs() == y.inputs() &&
           x.control_inputs() == y.control_inputs() &&
           std::equal(x.attrs().begin(), x.attrs().end(), y.attrs().begin(),
                      y.attrs().end(), [](const auto& p, const auto& q) {
                        return p.first == q.first &&
                               AttrEqual(p.second, q.second);
                      });
  }
};

std::size_t HashNode(const Node& node) {
  std::size_t h = std::hash<std::string>()(node.op());
  for (const NodeOutput& input : node.inputs()) {
    h = Mix(h, static_cast<std::size_t>(input.node->id()) << 8 |
                   static_cast<std::size_t>(input.index));
  }
  for (const Node* control : node.control_inputs()) {
    h = Mix(h, static_cast<std::size_t>(control->id()));
  }
  for (const auto& [key, value] : node.attrs()) h = Mix(h, HashAttr(value));
  return h;
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
  // The node each merged node's outputs now come from, by id. Graph order
  // visits a producer before most of its consumers, which then key on the
  // representative; a producer appended later is rewired only at the end.
  std::vector<Node*> representative(
      static_cast<std::size_t>(graph.id_bound()));
  std::unordered_set<CseEntry, CseHash, CseEqual> seen;
  seen.reserve(graph.num_nodes());
  int merged = 0;
  for (const auto& node : graph.nodes()) {
    if (!IsPureOp(node->op()) && node->op() != "Const") continue;
    if (merged > 0) {
      for (int i = 0; i < node->num_inputs(); ++i) {
        const NodeOutput input = node->input(i);
        const auto id = static_cast<std::size_t>(input.node->id());
        if (representative[id] != nullptr) {
          node->set_input(i, {representative[id], input.index});
        }
      }
    }
    const auto [it, inserted] = seen.insert({HashNode(*node), node.get()});
    if (!inserted) {
      Node* kept = it->node;
      representative[static_cast<std::size_t>(node->id())] = kept;
      for (int i = 0; i < node->num_outputs(); ++i) {
        repl[{node.get(), i}] = {kept, i};
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
    // Every rewrite gives the op's bytes for every operand value.
    if (op == "Identity") {
      replace(node, in(0));
    } else if (op == "Add") {
      if (IsAddIdentity(in(1).node)) {
        replace(node, in(0));
      } else if (IsAddIdentity(in(0).node)) {
        replace(node, in(1));
      }
    } else if (op == "Sub") {
      if (IsSubIdentity(in(1).node)) replace(node, in(0));
    } else if (op == "Mul") {
      if (IsOne(in(1).node)) {
        replace(node, in(0));
      } else if (IsOne(in(0).node)) {
        replace(node, in(1));
      } else if (IsIntConst(in(1).node, 0) || IsIntConst(in(0).node, 0)) {
        // Only an int64 zero: float32 x * 0 is -0 for negative x and NaN
        // for NaN or inf x.
        const NodeOutput operand =
            IsIntConst(in(1).node, 0) ? in(0) : in(1);
        // The replacement ZerosLike inherits the Mul's source site.
        SourceSiteScope site_scope(node->site());
        replace(node, {graph.AddNode("ZerosLike", {operand}), 0});
      }
    } else if (op == "Div") {
      // int64 Div yields float32, so only a float32 one is an identity.
      if (IsFloatConst(in(1).node, 1.0f)) replace(node, in(0));
    } else if (op == "Neg") {
      if (in(0).node->op() == "Neg") {
        replace(node, in(0).node->input(0));
      }
    } else if (op == "Pow") {
      if (IsOne(in(1).node)) replace(node, in(0));
    }
  }
  ApplyReplacements(graph, repl, nullptr);
  return rewrites;
}

int DeadCodeElimination(Graph& graph, std::span<const NodeOutput> fetches) {
  const std::vector<Node*> live = ReachableNodes(graph, fetches);
  const int removed = static_cast<int>(graph.num_nodes() - live.size());
  if (removed > 0) graph.Prune(live);
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
