#include "core/compiled_graph.h"

#include <string_view>
#include <unordered_map>

#include "common/error.h"
#include "obs/profile.h"

namespace janus {

using minipy::Value;

Value ContextRef::Resolve(std::span<const Value> args) const {
  Value current;
  if (arg_index >= 0) {
    if (arg_index >= static_cast<int>(args.size())) {
      throw InvalidArgument("context ref: argument index out of range");
    }
    current = args[static_cast<std::size_t>(arg_index)];
  } else {
    if (env == nullptr) throw InternalError("context ref has no root");
    // Find through the scope chain, as a name lookup would.
    minipy::Environment* scope = env.get();
    Value* found = scope->Find(name);
    if (found == nullptr) {
      throw InvalidArgument("context ref: name '" + name +
                            "' no longer defined");
    }
    current = *found;
  }
  for (const Step& step : steps) {
    if (step.is_attr) {
      const auto* obj =
          std::get_if<std::shared_ptr<minipy::ObjectValue>>(&current);
      if (obj == nullptr) {
        throw InvalidArgument("context ref: attr step on non-object");
      }
      const auto it = (*obj)->attrs.find(step.attr);
      if (it == (*obj)->attrs.end()) {
        throw InvalidArgument("context ref: missing attribute '" +
                              step.attr + "'");
      }
      current = it->second;
    } else {
      const auto* list =
          std::get_if<std::shared_ptr<minipy::ListValue>>(&current);
      if (list == nullptr) {
        throw InvalidArgument("context ref: index step on non-list");
      }
      const auto n = static_cast<std::int64_t>((*list)->items.size());
      if (step.index < 0 || step.index >= n) {
        throw InvalidArgument("context ref: index out of range");
      }
      current = (*list)->items[static_cast<std::size_t>(step.index)];
    }
  }
  return current;
}

std::string ContextRef::ToString() const {
  std::string out = arg_index >= 0 ? "arg" + std::to_string(arg_index) : name;
  for (const Step& step : steps) {
    if (step.is_attr) {
      out += '.';
      out += step.attr;
    } else {
      out += '[';
      out += std::to_string(step.index);
      out += ']';
    }
  }
  return out;
}

int CompiledGraph::BuildPlans(bool enable_fusion) {
  // The main plan's arguments: each capture's placeholder, in capture
  // order. Optimization prunes a placeholder whose value feeds nothing;
  // that capture keeps arg_slot -1.
  std::unordered_map<std::string_view, Node*> placeholders;
  for (const auto& node : graph.nodes()) {
    if (node->op() == "Placeholder") {
      placeholders.emplace(node->name(), node.get());
    }
  }
  std::vector<Node*> arguments;
  for (CaptureSpec& capture : captures) {
    const auto it = placeholders.find(capture.placeholder_name);
    capture.arg_slot = -1;
    if (it == placeholders.end()) continue;
    capture.arg_slot = static_cast<int>(arguments.size());
    arguments.push_back(it->second);
  }
  const PlanOptions options{.enable_fusion = enable_fusion};
  plan = ExecutionPlan::Build(graph, fetches, arguments, options);
  function_plans = library != nullptr ? BuildFunctionPlans(*library, options)
                                      : FunctionPlans{};
  // Key every plan's profile accumulator by the unit that owns it, so
  // /profilez and the folded stacks can aggregate by (unit, variant, ladder
  // level).
  const std::string variant =
      training ? "training(lr=" + std::to_string(learning_rate) + ")"
               : "inference";
  plan->profile()->SetKey(unit_name, variant, despecialization_level);
  for (const auto& [name, fn_plan] : function_plans) {
    fn_plan->profile()->SetKey(unit_name, variant, despecialization_level);
  }
  return 1 + static_cast<int>(function_plans.size());
}

std::int64_t CompiledGraph::EstimateBytes() const {
  // Flat per-structure constants, sized from typical node/spec footprints.
  constexpr std::int64_t kPerNode = 256;
  constexpr std::int64_t kPerCapture = 192;
  constexpr std::int64_t kPerCheck = 128;
  constexpr std::int64_t kPerPlanNode = 96;
  std::int64_t nodes = static_cast<std::int64_t>(graph.num_nodes());
  if (library != nullptr) {
    for (const std::string& name : library->FunctionNames()) {
      nodes += static_cast<std::int64_t>(library->Lookup(name).graph.num_nodes());
    }
  }
  return nodes * (kPerNode + kPerPlanNode) +
         static_cast<std::int64_t>(captures.size()) * kPerCapture +
         static_cast<std::int64_t>(entry_checks.size()) * kPerCheck;
}

bool EntryValueMatches(const Value& actual, const Value& expected) {
  // Heap values and callables compare by identity; tensors are never entry
  // expectations (they become captures); scalars compare exactly, so 2 is
  // not 2.0 and -0.0 is not 0.0.
  if (std::holds_alternative<Tensor>(expected)) {
    throw InternalError("tensors must be captures, not entry checks");
  }
  return minipy::ValuesIdentical(actual, expected);
}

}  // namespace janus
