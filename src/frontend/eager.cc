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
  // The value each forward node recorded, indexed by node id: every node
  // the tape adds records exactly one value, so the ids are dense.
  std::vector<Tensor> values;

  // Adds a forward node that recorded `value`.
  NodeOutput Add(std::string op, std::vector<NodeOutput> inputs, AttrMap attrs,
                 const Tensor& value) {
    Node* node =
        graph.AddNode(std::move(op), std::move(inputs), std::move(attrs));
    JANUS_EXPECTS(static_cast<std::size_t>(node->id()) == values.size());
    values.push_back(value);
    value_to_node[KeyFor(value)] = {node, 0};
    return {node, 0};
  }

  NodeOutput NodeFor(const Tensor& t) {
    const auto it = value_to_node.find(KeyFor(t));
    if (it != value_to_node.end()) return it->second;
    // External input (data batch, literal): record as a constant leaf.
    return Add("Const", {}, {{"value", t}}, t);
  }

  void Record(const std::string& op, std::span<const Tensor> inputs,
              AttrMap attrs, const Tensor& output) {
    std::vector<NodeOutput> input_nodes;
    input_nodes.reserve(inputs.size());
    for (const Tensor& input : inputs) input_nodes.push_back(NodeFor(input));
    Add(op, std::move(input_nodes), std::move(attrs), output);
  }
};

EagerContext::EagerContext(VariableStore* variables, Rng* rng)
    : variables_(variables), rng_(rng) {}

EagerContext::~EagerContext() = default;

Tensor EagerContext::Execute(const std::string& op,
                             std::vector<Tensor> inputs, AttrMap attrs) {
  // Execute the kernel immediately (per-op dispatch, as in TF Eager), through
  // the graph executor's dispatch: same penalty, same error annotation. In
  // place reuse stays off: eager inputs are caller-visible values (and may
  // be retained by the tape), so kernel outputs must always be freshly
  // allocated — only the graph executors, which prove deadness through the
  // memory plan, may reuse input buffers in place.
  RunContext run;
  run.variables = variables_;
  run.rng = rng_;
  run.dispatch_penalty_ns = dispatch_penalty_ns_;
  Graph scratch;
  const Node* node = scratch.AddNode(op, {}, attrs, 1);
  std::vector<Tensor> outputs;
  // The graph executor's sampler, so profiles and traces compare eager
  // dispatch against graph kernels under one clock.
  const bool sampled = obs::ShouldSampleProfileNode();
  const std::int64_t start_ns = sampled ? obs::Trace::NowNs() : 0;
  internal::ExecuteKernel(run, *node, KernelRegistry::Global().Lookup(op),
                          inputs, outputs);
  if (sampled) RecordEagerSample(op, start_ns);
  Tensor output = std::move(outputs[0]);
  if (tape_ != nullptr) {
    tape_->Record(op, inputs, std::move(attrs), output);
  }
  return output;
}

Tensor EagerContext::ReadVariable(const std::string& name) {
  const Tensor value = variables_->Read(name);
  if (tape_ != nullptr && !tape_->variable_reads.contains(name)) {
    tape_->variable_reads[name] =
        tape_->Add("ReadVariable", {}, {{"var", name}}, value);
  }
  return value;
}

void EagerContext::AssignVariable(const std::string& name, Tensor value) {
  variables_->Assign(name, std::move(value));
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
  const auto first_gradient = static_cast<int>(tape->values.size());
  std::vector<NodeOutput> grads =
      AddGradients(tape->graph, tape->library, loss_it->second, targets);

  // Execute only the gradient subgraph. Every read of a forward node, by a
  // gradient node or as a fetch, is rewired to a Placeholder standing for
  // its recorded value, so the forward nodes drop out of the plan and the
  // recorded values are its arguments.
  std::vector<Node*> args;
  std::vector<Tensor> arg_values;
  std::vector<Node*> placeholder_of(static_cast<std::size_t>(first_gradient));
  const auto argument_for = [&](NodeOutput value) -> NodeOutput {
    const int id = value.node->id();
    if (id >= first_gradient) return value;
    Node*& placeholder = placeholder_of[static_cast<std::size_t>(id)];
    if (placeholder == nullptr) {
      const Tensor& recorded = tape->values[static_cast<std::size_t>(id)];
      placeholder = tape->graph.Placeholder({}, recorded.dtype()).node;
      placeholder->set_site(value.node->site());
      args.push_back(placeholder);
      arg_values.push_back(recorded);
    }
    return {placeholder, 0};
  };
  const std::size_t gradient_end = tape->graph.num_nodes();
  for (auto i = static_cast<std::size_t>(first_gradient); i < gradient_end;
       ++i) {
    Node* node = tape->graph.nodes()[i].get();
    for (int slot = 0; slot < node->num_inputs(); ++slot) {
      node->set_input(slot, argument_for(node->input(slot)));
    }
  }
  for (NodeOutput& grad : grads) grad = argument_for(grad);

  // One-shot and unfused: TF Eager dispatches each backward op, and a fused
  // region's specialization would serve a single run.
  const FunctionPlans functions = BuildFunctionPlans(tape->library);
  RunContext run;
  run.variables = variables_;
  run.rng = rng_;
  run.dispatch_penalty_ns = dispatch_penalty_ns_;
  run.functions = &functions;
  const std::shared_ptr<const ExecutionPlan> plan = ExecutionPlan::Build(
      tape->graph, grads, args, PlanOptions{.enable_fusion = false});
  // Tape gradients run during the imperative profiling phase, before any
  // conversion unit exists; label them so /profilez does not show them as
  // unattributed.
  plan->profile()->SetKey("<imperative tape>", "eager", 0);
  const std::vector<Tensor> grad_values =
      internal::ExecuteDag(run, *plan, arg_values, /*parallel=*/false);

  std::map<std::string, Tensor> result;
  for (std::size_t i = 0; i < names.size(); ++i) {
    result[names[i]] = grad_values[i];
  }
  return result;
}

}  // namespace janus::minipy
