#include "autodiff/gradients.h"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"

namespace janus {
namespace {

using OptOut = std::optional<NodeOutput>;

NodeOutput ZerosLikeOf(Graph& g, NodeOutput v) {
  return {g.AddNode("ZerosLike", {v}), 0};
}

NodeOutput OnesLikeOf(Graph& g, NodeOutput v) {
  return {g.AddNode("OnesLike", {v}), 0};
}

NodeOutput Op1(Graph& g, const char* op, NodeOutput a, AttrMap attrs = {}) {
  return {g.AddNode(op, {a}, std::move(attrs)), 0};
}

NodeOutput Op2(Graph& g, const char* op, NodeOutput a, NodeOutput b,
               AttrMap attrs = {}) {
  return {g.AddNode(op, {a, b}, std::move(attrs)), 0};
}

NodeOutput Op3(Graph& g, const char* op, NodeOutput a, NodeOutput b,
               NodeOutput c, AttrMap attrs = {}) {
  return {g.AddNode(op, {a, b, c}, std::move(attrs)), 0};
}

// Reduces gradient `g_val` back to the (runtime) shape of operand `operand`
// — the standard broadcasting-gradient correction.
NodeOutput R(Graph& g, NodeOutput g_val, NodeOutput operand) {
  return Op2(g, "ReduceToShapeOf", g_val, operand);
}

NodeOutput FloatConst(Graph& g, float v) { return g.Constant(Tensor::Scalar(v)); }

// Computes the gradients of `node`'s inputs given the gradients of its
// outputs (`gout`, one optional per output). Returns one optional per input.
std::vector<OptOut> OpGradient(Graph& g, FunctionLibrary& lib, Node* node,
                               const std::vector<OptOut>& gout) {
  const std::string& op = node->op();
  const auto in = [&](int i) { return node->input(i); };
  const NodeOutput y{node, 0};
  const int n_in = node->num_inputs();
  std::vector<OptOut> din(static_cast<std::size_t>(n_in));

  // Most rules only use the gradient of output 0.
  const OptOut& g0 = gout.at(0);
  const auto need0 = [&]() -> NodeOutput {
    JANUS_EXPECTS(g0.has_value());
    return *g0;
  };

  if (op == "Add") {
    din[0] = R(g, need0(), in(0));
    din[1] = R(g, need0(), in(1));
  } else if (op == "Sub") {
    din[0] = R(g, need0(), in(0));
    din[1] = R(g, Op1(g, "Neg", need0()), in(1));
  } else if (op == "Mul") {
    din[0] = R(g, Op2(g, "Mul", need0(), in(1)), in(0));
    din[1] = R(g, Op2(g, "Mul", need0(), in(0)), in(1));
  } else if (op == "Div") {
    din[0] = R(g, Op2(g, "Div", need0(), in(1)), in(0));
    din[1] = R(g,
               Op1(g, "Neg",
                   Op2(g, "Div", Op2(g, "Mul", need0(), in(0)),
                       Op1(g, "Square", in(1)))),
               in(1));
  } else if (op == "Pow") {
    // d/da a^b = b * a^(b-1);  d/db a^b = a^b * ln a.
    const NodeOutput bm1 = Op2(g, "Sub", in(1), OnesLikeOf(g, in(1)));
    din[0] = R(g,
               Op2(g, "Mul", need0(),
                   Op2(g, "Mul", in(1), Op2(g, "Pow", in(0), bm1))),
               in(0));
    din[1] = R(g, Op2(g, "Mul", need0(), Op2(g, "Mul", y, Op1(g, "Log", in(0)))),
               in(1));
  } else if (op == "Maximum" || op == "Minimum") {
    const char* cmp_a = op == "Maximum" ? "GreaterEqual" : "LessEqual";
    const char* cmp_b = op == "Maximum" ? "Greater" : "Less";
    const NodeOutput mask_a =
        Op1(g, "Cast", Op2(g, cmp_a, in(0), in(1)), {{"dtype", DType::kFloat32}});
    const NodeOutput mask_b =
        Op1(g, "Cast", Op2(g, cmp_b, in(1), in(0)), {{"dtype", DType::kFloat32}});
    din[0] = R(g, Op2(g, "Mul", need0(), mask_a), in(0));
    din[1] = R(g, Op2(g, "Mul", need0(), mask_b), in(1));
  } else if (op == "Neg") {
    din[0] = Op1(g, "Neg", need0());
  } else if (op == "Abs") {
    din[0] = Op2(g, "Mul", need0(), Op1(g, "Sign", in(0)));
  } else if (op == "Exp") {
    din[0] = Op2(g, "Mul", need0(), y);
  } else if (op == "Log") {
    din[0] = Op2(g, "Div", need0(), in(0));
  } else if (op == "Sqrt") {
    din[0] = Op2(g, "Div", Op2(g, "Mul", need0(), FloatConst(g, 0.5f)), y);
  } else if (op == "Square") {
    din[0] = Op2(g, "Mul", need0(),
                 Op2(g, "Mul", FloatConst(g, 2.0f), in(0)));
  } else if (op == "Tanh") {
    din[0] = Op2(g, "Mul", need0(),
                 Op2(g, "Sub", OnesLikeOf(g, y), Op1(g, "Square", y)));
  } else if (op == "Sigmoid") {
    din[0] = Op2(g, "Mul", need0(),
                 Op2(g, "Mul", y, Op2(g, "Sub", OnesLikeOf(g, y), y)));
  } else if (op == "Relu") {
    din[0] = Op2(g, "ReluGrad", need0(), in(0));
  } else if (op == "Identity" || op == "Assert" || op == "AssertShape" ||
             op == "AssignVariable" || op == "PySetAttr") {
    // Value-passthrough ops: gradient flows to the passed-through input
    // (the last data input for PySetAttr; input 0 otherwise).
    if (op == "PySetAttr") {
      din[1] = need0();
    } else {
      din[0] = need0();
    }
  } else if (op == "StopGradient" || op == "Sign" || op == "ArgMax" ||
             op == "Equal" || op == "NotEqual" || op == "Less" ||
             op == "LessEqual" || op == "Greater" || op == "GreaterEqual" ||
             op == "LogicalAnd" || op == "LogicalOr" || op == "LogicalNot" ||
             op == "OneHot" || op == "Shape" || op == "Size" ||
             op == "PyGetAttr" || op == "PyGetSubscr" || op == "FloorDiv" ||
             op == "Mod" || op == "ZerosLike" || op == "OnesLike") {
    // No gradient (integer/bool semantics or explicit gradient sinks).
  } else if (op == "MatMul") {
    // y = op(a) op(b), op(x) = x or x^T by the node's flags: each gradient
    // is one flagged MatMul, never a Transpose.
    const bool ta = node->HasAttr("transpose_a") && node->GetBoolAttr("transpose_a");
    const bool tb = node->HasAttr("transpose_b") && node->GetBoolAttr("transpose_b");
    const auto mm = [&](NodeOutput a, NodeOutput b, bool t_a, bool t_b) {
      return Op2(g, "MatMul", a, b, {{"transpose_a", t_a}, {"transpose_b", t_b}});
    };
    din[0] = ta ? mm(in(1), need0(), tb, true) : mm(need0(), in(1), false, !tb);
    din[1] = tb ? mm(need0(), in(0), true, ta) : mm(in(0), need0(), !ta, false);
  } else if (op == "Transpose") {
    din[0] = Op1(g, "Transpose", need0());
  } else if (op == "Reshape" || op == "ReshapeLike") {
    din[0] = Op2(g, "ReshapeLike", need0(), in(0));
  } else if (op == "BroadcastTo") {
    din[0] = R(g, need0(), in(0));
  } else if (op == "Concat") {
    std::vector<NodeOutput> inputs{need0()};
    for (int i = 0; i < n_in; ++i) inputs.push_back(in(i));
    Node* split = g.AddNode("ConcatGrad", inputs,
                            {{"axis", node->GetIntAttr("axis")}}, n_in);
    for (int i = 0; i < n_in; ++i) din[static_cast<std::size_t>(i)] = {split, i};
  } else if (op == "Stack") {
    Node* unstack = g.AddNode("Unstack", {need0()}, {}, n_in);
    for (int i = 0; i < n_in; ++i) {
      din[static_cast<std::size_t>(i)] = {unstack, i};
    }
  } else if (op == "Unstack") {
    std::vector<NodeOutput> parts;
    for (int i = 0; i < node->num_outputs(); ++i) {
      if (gout.at(static_cast<std::size_t>(i)).has_value()) {
        parts.push_back(*gout[static_cast<std::size_t>(i)]);
      } else {
        parts.push_back(ZerosLikeOf(g, {node, i}));
      }
    }
    din[0] = {g.AddNode("Stack", parts), 0};
  } else if (op == "Slice") {
    din[0] = Op2(g, "SliceGrad", need0(), in(0),
                 {{"begin", node->GetIntListAttr("begin")}});
  } else if (op == "Cast") {
    din[0] = Op2(g, "CastLike", need0(), in(0));
  } else if (op == "ReduceSum" || op == "ReduceMean") {
    din[0] = Op2(g, "BroadcastLike", need0(), in(0),
                 {{"axes", node->GetIntListAttr("axes")},
                  {"keep_dims", node->GetBoolAttr("keep_dims")},
                  {"mean", op == "ReduceMean"}});
  } else if (op == "ReduceMax") {
    const AttrMap bl{{"axes", node->GetIntListAttr("axes")},
                     {"keep_dims", node->GetBoolAttr("keep_dims")}};
    const NodeOutput max_b = Op2(g, "BroadcastLike", y, in(0), bl);
    const NodeOutput g_b = Op2(g, "BroadcastLike", need0(), in(0), bl);
    const NodeOutput mask = Op1(g, "Cast", Op2(g, "Equal", in(0), max_b),
                                {{"dtype", DType::kFloat32}});
    din[0] = Op2(g, "Mul", mask, g_b);
  } else if (op == "Softmax") {
    const NodeOutput gy = Op2(g, "Mul", need0(), y);
    const NodeOutput s = Op1(g, "ReduceSum", gy,
                             {{"axes", std::vector<std::int64_t>{-1}},
                              {"keep_dims", true}});
    din[0] = Op2(g, "Mul", y, Op2(g, "Sub", need0(), s));
  } else if (op == "LogSoftmax") {
    const NodeOutput s = Op1(g, "ReduceSum", need0(),
                             {{"axes", std::vector<std::int64_t>{-1}},
                              {"keep_dims", true}});
    din[0] = Op2(g, "Sub", need0(), Op2(g, "Mul", Op1(g, "Exp", y), s));
  } else if (op == "SoftmaxCrossEntropy") {
    din[0] = Op3(g, "SoftmaxCrossEntropyGrad", in(0), in(1), need0());
  } else if (op == "Gather") {
    din[0] = Op3(g, "GatherGradLike", in(0), in(1), need0());
  } else if (op == "DynamicIndex") {
    din[0] = Op3(g, "DynamicIndexGrad", in(0), in(1), need0());
  } else if (op == "Conv2D") {
    const AttrMap attrs{{"stride", node->GetIntAttr("stride")},
                        {"padding", node->GetStringAttr("padding")}};
    din[0] = Op3(g, "Conv2DGradInput", in(1), need0(), in(0), attrs);
    din[1] = Op3(g, "Conv2DGradFilter", in(0), need0(), in(1), attrs);
  } else if (op == "MaxPool2D") {
    din[0] = Op2(g, "MaxPool2DGrad", in(0), need0(),
                 {{"window", node->GetIntAttr("window")},
                  {"stride", node->GetIntAttr("stride")}});
  } else if (op == "AvgPool2D") {
    din[0] = Op2(g, "AvgPool2DGrad", need0(), in(0),
                 {{"window", node->GetIntAttr("window")},
                  {"stride", node->GetIntAttr("stride")}});
  } else if (op == "Select") {
    din[1] = R(g, Op3(g, "Select", in(0), need0(), ZerosLikeOf(g, need0())),
               in(1));
    din[2] = R(g, Op3(g, "Select", in(0), ZerosLikeOf(g, need0()), need0()),
               in(2));
  } else if (op == "AddN") {
    for (int i = 0; i < n_in; ++i) {
      din[static_cast<std::size_t>(i)] = R(g, need0(), in(i));
    }
  } else if (op == "Merge") {
    // Route the gradient to whichever input produced the forward value,
    // using the Merge's taken-index output as the predicate (only binary
    // merges, which is all the generator emits).
    JANUS_EXPECTS(n_in == 2);
    const NodeOutput zero = g.Constant(Tensor::ScalarInt(0));
    const NodeOutput took_first = Op2(g, "Equal", NodeOutput{node, 1}, zero);
    Node* sw = g.AddNode("Switch", {need0(), took_first}, {}, 2);
    din[0] = {sw, 1};  // predicate true: input 0 was taken
    din[1] = {sw, 0};
  } else if (op == "Switch") {
    // Merge the branch gradients back together; the untaken side's gradient
    // token is dead. A branch that contributes no gradient (e.g. the value
    // feeds only non-differentiable ops there) gets a ZerosLike fallback
    // anchored on that branch's Switch output, which is live exactly when
    // that branch is taken — so the Merge always sees one live input.
    const NodeOutput g_false = gout.at(0).has_value()
                                   ? *gout.at(0)
                                   : ZerosLikeOf(g, {node, 0});
    const NodeOutput g_true = gout.at(1).has_value()
                                  ? *gout.at(1)
                                  : ZerosLikeOf(g, {node, 1});
    din[0] = {g.AddNode("Merge", {g_false, g_true}, {}, 2), 0};
    // No gradient for the predicate (input 1).
  } else if (op == "Invoke") {
    const GraphFunction& fn =
        lib.Lookup(node->GetStringAttr("function"));
    const GraphFunction& grad_fn = EnsureGradientFunction(lib, fn);
    std::vector<NodeOutput> inputs;
    for (int i = 0; i < n_in; ++i) inputs.push_back(in(i));
    for (int i = 0; i < node->num_outputs(); ++i) {
      const auto& go = gout.at(static_cast<std::size_t>(i));
      inputs.push_back(go.has_value() ? *go : ZerosLikeOf(g, {node, i}));
    }
    Node* call = g.AddNode("Invoke", inputs,
                           {{"function", grad_fn.name}}, n_in);
    for (int i = 0; i < n_in; ++i) din[static_cast<std::size_t>(i)] = {call, i};
  } else if (op == "While") {
    const auto num_carried =
        static_cast<int>(node->GetIntAttr("num_carried"));
    const int num_captures = n_in - num_carried;
    const GraphFunction& body = lib.Lookup(node->GetStringAttr("body_fn"));
    const GraphFunction& body_grad =
        EnsureLoopBodyGradient(lib, body, num_carried);
    node->SetAttr("record_tape", true);
    std::vector<NodeOutput> inputs;
    for (int i = 0; i < num_carried; ++i) {
      const auto& go = gout.at(static_cast<std::size_t>(i));
      inputs.push_back(go.has_value() ? *go : ZerosLikeOf(g, {node, i}));
    }
    for (int i = num_carried; i < n_in; ++i) inputs.push_back(in(i));
    Node* wg = g.AddNode(
        "WhileGrad", inputs,
        {{"body_grad_fn", body_grad.name},
         {"forward_id", static_cast<std::int64_t>(node->id())},
         {"num_carried", static_cast<std::int64_t>(num_carried)},
         {"num_captures", static_cast<std::int64_t>(num_captures)}},
        n_in);
    // Order the gradient after the forward loop so the tape exists.
    wg->AddControlInput(node);
    for (int i = 0; i < n_in; ++i) din[static_cast<std::size_t>(i)] = {wg, i};
  } else {
    throw NotConvertible("no gradient rule for op '" + op + "'");
  }
  return din;
}

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

}  // namespace

std::vector<NodeOutput> AddGradients(Graph& graph, FunctionLibrary& library,
                                     std::span<const GradientSeed> seeds,
                                     std::span<const NodeOutput> targets) {
  // 1. Collect the backward-reachable subgraph (data edges only).
  std::unordered_set<Node*> subgraph;
  {
    std::vector<Node*> stack;
    for (const GradientSeed& seed : seeds) stack.push_back(seed.value.node);
    while (!stack.empty()) {
      Node* node = stack.back();
      stack.pop_back();
      if (!subgraph.insert(node).second) continue;
      for (const NodeOutput& input : node->inputs()) stack.push_back(input.node);
    }
  }

  // 2. Topological order via iterative DFS postorder (producers first);
  //    processed reversed, so every consumer is handled before its producer.
  std::vector<Node*> postorder;
  {
    std::unordered_set<Node*> visited;
    std::vector<std::pair<Node*, std::size_t>> stack;
    for (const GradientSeed& seed : seeds) {
      if (visited.count(seed.value.node) != 0u) continue;
      stack.push_back({seed.value.node, 0});
      visited.insert(seed.value.node);
      while (!stack.empty()) {
        auto& [node, next_input] = stack.back();
        if (next_input < node->inputs().size()) {
          Node* producer =
              node->inputs()[next_input].node;
          ++next_input;
          if (visited.insert(producer).second) stack.push_back({producer, 0});
        } else {
          postorder.push_back(node);
          stack.pop_back();
        }
      }
    }
  }

  // 3. Accumulate gradient contributions per (node, output).
  std::unordered_map<OutKey, std::vector<NodeOutput>, OutKeyHash> contribs;
  for (const GradientSeed& seed : seeds) {
    contribs[{seed.value.node, seed.value.index}].push_back(seed.gradient);
  }

  const auto total_for = [&](Node* node, int index) -> OptOut {
    const auto it = contribs.find({node, index});
    if (it == contribs.end() || it->second.empty()) return std::nullopt;
    if (it->second.size() == 1) return it->second.front();
    return NodeOutput{graph.AddNode("AddN", it->second), 0};
  };

  for (auto it = postorder.rbegin(); it != postorder.rend(); ++it) {
    Node* node = *it;
    if (node->num_inputs() == 0) continue;  // leaves: Const/Param/ReadVariable
    // Gradient nodes (including AddN accumulators built by total_for)
    // attribute to the forward node's imperative source site.
    SourceSiteScope site_scope(node->site());
    std::vector<OptOut> gout(static_cast<std::size_t>(node->num_outputs()));
    bool any = false;
    for (int i = 0; i < node->num_outputs(); ++i) {
      gout[static_cast<std::size_t>(i)] = total_for(node, i);
      if (gout[static_cast<std::size_t>(i)].has_value()) any = true;
    }
    if (!any) continue;
    const std::vector<OptOut> din = OpGradient(graph, library, node, gout);
    JANUS_ENSURES(din.size() == static_cast<std::size_t>(node->num_inputs()));
    for (int i = 0; i < node->num_inputs(); ++i) {
      const auto& d = din[static_cast<std::size_t>(i)];
      if (!d.has_value()) continue;
      const NodeOutput input = node->input(i);
      contribs[{input.node, input.index}].push_back(*d);
    }
  }

  // 4. Collect target gradients; unreached targets get zeros.
  std::vector<NodeOutput> results;
  results.reserve(targets.size());
  for (const NodeOutput& target : targets) {
    SourceSiteScope site_scope(target.node->site());
    const OptOut total = total_for(target.node, target.index);
    results.push_back(total.has_value() ? *total
                                        : ZerosLikeOf(graph, target));
  }
  return results;
}

std::vector<NodeOutput> AddGradients(Graph& graph, FunctionLibrary& library,
                                     NodeOutput loss,
                                     std::span<const NodeOutput> targets) {
  const GradientSeed seed{loss, [&] {
                            SourceSiteScope site_scope(loss.node->site());
                            return OnesLikeOf(graph, loss);
                          }()};
  return AddGradients(graph, library, std::span<const GradientSeed>(&seed, 1),
                      targets);
}

namespace {

// Copies `fn`'s body into `dst`, substituting parameters, and returns the
// node mapping. Control inputs are remapped as well.
std::unordered_map<const Node*, Node*> InlineBody(
    const GraphFunction& fn, Graph& dst,
    const std::vector<Node*>& replacement_params) {
  JANUS_EXPECTS(replacement_params.size() == fn.parameters.size());
  std::unordered_map<const Node*, Node*> mapping;
  for (std::size_t i = 0; i < fn.parameters.size(); ++i) {
    mapping[fn.parameters[i]] = replacement_params[i];
  }
  // Two passes: node creation order need not be topological (recursive
  // Invoke sites are patched with gate nodes created later), so create all
  // copies first, then wire inputs.
  for (const auto& node : fn.graph.nodes()) {
    if (mapping.find(node.get()) != mapping.end()) continue;  // a parameter
    Node* copy =
        dst.AddNode(node->op(), {}, node->attrs(), node->num_outputs());
    if (node->site().known()) copy->set_site(node->site());
    mapping[node.get()] = copy;
  }
  for (const auto& node : fn.graph.nodes()) {
    Node* copy = mapping.at(node.get());
    if (copy->num_inputs() != 0 || !copy->control_inputs().empty()) {
      continue;  // a replacement parameter, already wired by the caller
    }
    const bool is_param =
        std::find(fn.parameters.begin(), fn.parameters.end(), node.get()) !=
        fn.parameters.end();
    if (is_param) continue;
    for (const NodeOutput& input : node->inputs()) {
      copy->AppendInput({mapping.at(input.node), input.index});
    }
    for (const Node* control : node->control_inputs()) {
      copy->AddControlInput(mapping.at(control));
    }
  }
  return mapping;
}

}  // namespace

const GraphFunction& EnsureGradientFunction(FunctionLibrary& library,
                                            const GraphFunction& fn) {
  const std::string grad_name = fn.name + "__grad";
  if (library.Contains(grad_name)) return library.Lookup(grad_name);

  // Register a stub first so recursive references by name resolve while we
  // build the body.
  {
    auto stub = std::make_unique<GraphFunction>();
    stub->name = grad_name;
    library.Register(std::move(stub));
  }
  GraphFunction& grad = library.LookupMutable(grad_name);
  Graph& g = grad.graph;

  std::vector<Node*> params;
  for (std::size_t i = 0; i < fn.parameters.size(); ++i) {
    params.push_back(g.AddNode(
        "Param", {}, {{"index", static_cast<std::int64_t>(i)}}));
    params.back()->set_site(fn.parameters[i]->site());
  }
  std::vector<Node*> grad_params;
  for (std::size_t j = 0; j < fn.results.size(); ++j) {
    grad_params.push_back(g.AddNode(
        "Param", {},
        {{"index", static_cast<std::int64_t>(fn.parameters.size() + j)}}));
    grad_params.back()->set_site(fn.results[j].node->site());
  }
  grad.parameters = params;
  grad.parameters.insert(grad.parameters.end(), grad_params.begin(),
                         grad_params.end());

  // Recompute the forward body inside the gradient function.
  const auto mapping = InlineBody(fn, g, params);

  std::vector<GradientSeed> seeds;
  for (std::size_t j = 0; j < fn.results.size(); ++j) {
    seeds.push_back({{mapping.at(fn.results[j].node), fn.results[j].index},
                     {grad_params[j], 0}});
  }
  std::vector<NodeOutput> targets;
  for (Node* param : params) targets.push_back({param, 0});
  grad.results = AddGradients(g, library, seeds, targets);
  return grad;
}

const GraphFunction& EnsureLoopBodyGradient(FunctionLibrary& library,
                                            const GraphFunction& body,
                                            int num_carried) {
  const std::string grad_name = body.name + "__loopgrad";
  if (library.Contains(grad_name)) return library.Lookup(grad_name);
  JANUS_EXPECTS(static_cast<int>(body.results.size()) == num_carried);
  {
    auto stub = std::make_unique<GraphFunction>();
    stub->name = grad_name;
    library.Register(std::move(stub));
  }
  GraphFunction& grad = library.LookupMutable(grad_name);
  Graph& g = grad.graph;

  std::vector<Node*> params;
  for (std::size_t i = 0; i < body.parameters.size(); ++i) {
    params.push_back(g.AddNode(
        "Param", {}, {{"index", static_cast<std::int64_t>(i)}}));
    params.back()->set_site(body.parameters[i]->site());
  }
  std::vector<Node*> grad_params;
  for (int j = 0; j < num_carried; ++j) {
    grad_params.push_back(g.AddNode(
        "Param", {},
        {{"index",
          static_cast<std::int64_t>(body.parameters.size()) + j}}));
    grad_params.back()->set_site(
        body.results[static_cast<std::size_t>(j)].node->site());
  }
  grad.parameters = params;
  grad.parameters.insert(grad.parameters.end(), grad_params.begin(),
                         grad_params.end());

  const auto mapping = InlineBody(body, g, params);
  std::vector<GradientSeed> seeds;
  for (int j = 0; j < num_carried; ++j) {
    const NodeOutput result = body.results[static_cast<std::size_t>(j)];
    seeds.push_back(
        {{mapping.at(result.node), result.index},
         {grad_params[static_cast<std::size_t>(j)], 0}});
  }
  std::vector<NodeOutput> targets;
  for (Node* param : params) targets.push_back({param, 0});
  grad.results = AddGradients(g, library, seeds, targets);
  return grad;
}

}  // namespace janus
