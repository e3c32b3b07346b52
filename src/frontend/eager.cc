#include "frontend/eager.h"

#include <algorithm>
#include <unordered_map>

#include "autodiff/gradients.h"
#include "obs/profile.h"
#include "runtime/executor.h"
#include "runtime/kernel.h"
#include "runtime/plan.h"
#include "tensor/ops.h"

namespace janus::minipy {
namespace {

// Tape identity of a tensor: buffer pointer + dtype + dims, so reshaped
// views sharing a buffer do not collide. A plain struct key: this runs on
// every eager op and every tape record, so no string formatting.
struct TensorKey {
  const void* id = nullptr;
  DType dtype = DType::kFloat32;
  std::vector<std::int64_t> dims;

  bool operator==(const TensorKey& other) const = default;
};

struct TensorKeyHash {
  std::size_t operator()(const TensorKey& key) const {
    std::size_t h = std::hash<const void*>()(key.id);
    h = h * 1099511628211ull ^ static_cast<std::size_t>(key.dtype);
    for (const std::int64_t dim : key.dims) {
      h = h * 1099511628211ull ^ std::hash<std::int64_t>()(dim);
    }
    return h;
  }
};

TensorKey KeyFor(const Tensor& t) {
  return {t.data_id(), t.dtype(), t.shape().dims()};
}

// Records one sampled eager dispatch of `op`, begun at `start_ns`, into
// the process-wide eager profile: unit "<eager>", one node per kernel op
// registered when the first sample lands (later registrations go
// unrecorded). OpNames() is sorted, so an op finds its node by binary
// search. Pinned, so the tape plans churning through the registry's cap
// never drop it.
void RecordEagerSample(const std::string& op, std::int64_t start_ns) {
  static obs::PlanProfile* const profile = [] {
    std::vector<obs::ProfileNodeInfo> nodes;
    for (std::string& name : KernelRegistry::Global().OpNames()) {
      obs::ProfileNodeInfo info;
      info.name = name;
      info.op = std::move(name);
      nodes.push_back(std::move(info));
    }
    auto eager = std::make_shared<obs::PlanProfile>(std::move(nodes));
    eager->SetKey("<eager>", "eager", 0);
    obs::ProfileRegistry::Global().Pin(eager);
    return eager.get();
  }();
  const std::vector<obs::ProfileNodeInfo>& nodes = profile->nodes();
  const auto it = std::lower_bound(
      nodes.begin(), nodes.end(), op,
      [](const obs::ProfileNodeInfo& node, const std::string& name) {
        return node.op < name;
      });
  if (it != nodes.end() && it->op == op) {
    obs::RecordSample(*profile, static_cast<int>(it - nodes.begin()), "eager",
                      start_ns);
  }
}

}  // namespace

struct EagerContext::Tape {
  Graph graph;
  FunctionLibrary library;  // gradient functions (unused by eager bodies)
  std::unordered_map<TensorKey, NodeOutput, TensorKeyHash> value_to_node;
  std::map<std::string, NodeOutput> variable_reads;  // var name -> node
  internal::Precomputed precomputed;

  NodeOutput NodeFor(const Tensor& t) {
    const TensorKey key = KeyFor(t);
    const auto it = value_to_node.find(key);
    if (it != value_to_node.end()) return it->second;
    // External input (data batch, literal): record as a constant leaf.
    const NodeOutput leaf = graph.Constant(t);
    value_to_node.emplace(key, leaf);
    precomputed[leaf.node] = {t};
    return leaf;
  }

  void Record(const std::string& op, std::span<const Tensor> inputs,
              AttrMap attrs, const Tensor& output) {
    std::vector<NodeOutput> input_nodes;
    input_nodes.reserve(inputs.size());
    for (const Tensor& input : inputs) input_nodes.push_back(NodeFor(input));
    Node* node = graph.AddNode(op, std::move(input_nodes), std::move(attrs));
    value_to_node[KeyFor(output)] = {node, 0};
    precomputed[node] = {output};
  }
};

EagerContext::EagerContext(VariableStore* variables, Rng* rng)
    : variables_(variables), rng_(rng) {}

EagerContext::~EagerContext() = default;

Tensor EagerContext::Execute(const std::string& op,
                             std::vector<Tensor> inputs, AttrMap attrs) {
  // Execute the kernel immediately (per-op dispatch, as in TF Eager). No
  // InPlaceScope is opened here: eager inputs are caller-visible values (and
  // may be retained by the tape), so kernel outputs must always be freshly
  // allocated — only the graph executors, which prove deadness through the
  // memory plan, may reuse input buffers in place.
  RunContext run;
  run.variables = variables_;
  run.rng = rng_;
  run.dispatch_penalty_ns = dispatch_penalty_ns_;
  Graph scratch;
  Node* node = scratch.AddNode(op, {}, attrs, 1);
  KernelContext ctx;
  ctx.node = node;
  ctx.inputs = inputs;
  ctx.outputs.resize(1);
  ctx.run = &run;
  // The graph executor's sampler, so profiles and traces compare eager
  // dispatch against graph kernels under one clock.
  const bool sampled = obs::ShouldSampleProfileNode();
  const std::int64_t start_ns = sampled ? obs::Trace::NowNs() : 0;
  KernelRegistry::Global().Lookup(op)(ctx);
  if (sampled) RecordEagerSample(op, start_ns);
  ++ops_executed_;
  Tensor output = std::move(ctx.outputs[0]);
  if (tape_ != nullptr) {
    tape_->Record(op, inputs, std::move(attrs), output);
  }
  return output;
}

Tensor EagerContext::ReadVariable(const std::string& name) {
  const Tensor value = variables_->Read(name);
  ++ops_executed_;
  if (tape_ != nullptr) {
    const auto it = tape_->variable_reads.find(name);
    if (it == tape_->variable_reads.end()) {
      Node* node = tape_->graph.AddNode("ReadVariable", {}, {{"var", name}});
      tape_->variable_reads[name] = {node, 0};
      tape_->precomputed[node] = {value};
      tape_->value_to_node[KeyFor(value)] = {node, 0};
    }
  }
  return value;
}

void EagerContext::AssignVariable(const std::string& name, Tensor value) {
  variables_->Assign(name, std::move(value));
  ++ops_executed_;
}

void EagerContext::StartTape() { tape_ = std::make_unique<Tape>(); }

void EagerContext::DropTape() { tape_.reset(); }

std::map<std::string, Tensor> EagerContext::GradientsAndStopTape(
    const Tensor& loss) {
  JANUS_EXPECTS(tape_ != nullptr);
  auto tape = std::move(tape_);

  const auto loss_it = tape->value_to_node.find(KeyFor(loss));
  if (loss_it == tape->value_to_node.end()) {
    throw InvalidArgument(
        "loss tensor was not produced under the gradient tape");
  }
  std::vector<std::string> names;
  std::vector<NodeOutput> targets;
  for (const auto& [name, node] : tape->variable_reads) {
    names.push_back(name);
    targets.push_back(node);
  }
  const std::vector<NodeOutput> grads =
      AddGradients(tape->graph, tape->library, loss_it->second, targets);

  // Execute only the gradient subgraph; forward values come precomputed.
  // The tape graph has no sources to feed, so its one-shot plan takes no
  // arguments.
  const FunctionPlans functions = BuildFunctionPlans(tape->library);
  RunContext run;
  run.variables = variables_;
  run.rng = rng_;
  run.dispatch_penalty_ns = dispatch_penalty_ns_;
  run.functions = &functions;
  const std::shared_ptr<const ExecutionPlan> plan =
      ExecutionPlan::Build(tape->graph, grads, {});
  // Tape gradients run during the imperative profiling phase, before any
  // conversion unit exists; label them so /profilez does not show them as
  // unattributed.
  plan->profile()->SetKey("<imperative tape>", "eager", 0);
  const std::vector<Tensor> grad_values = internal::ExecuteDag(
      run, *plan, {}, /*parallel=*/false, &tape->precomputed);
  ops_executed_ += run.ops_executed.load();

  std::map<std::string, Tensor> result;
  for (std::size_t i = 0; i < names.size(); ++i) {
    result[names[i]] = grad_values[i];
  }
  return result;
}

}  // namespace janus::minipy
