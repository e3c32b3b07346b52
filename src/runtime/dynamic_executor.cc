// Dynamic (tagged-token) strategy: executes a precompiled ExecutionPlan for
// graphs containing Switch/Merge/Enter/Exit/NextIteration, with tokens
// carrying (frame, iteration) tags and dead-value propagation — the classic
// TF 1.x dataflow machinery the paper builds on (§4.2.1). All adjacency,
// op classification, and kernel resolution come from the plan; per-run state
// is only the (node, tag)-keyed token table.
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "runtime/executor.h"
#include "runtime/fusion.h"

namespace janus {
namespace internal {
namespace {

using OpKind = ExecutionPlan::OpKind;

struct Token {
  Tensor value;
  bool dead = false;
};

// A tag is the textual encoding of the frame path: "" is the root frame;
// entering frame F yields "<parent>/F#0"; NextIteration bumps the trailing
// iteration counter.
std::string ChildTag(const std::string& tag, const std::string& frame) {
  return tag + "/" + frame + "#0";
}

std::string ParentTag(const std::string& tag) {
  const auto pos = tag.rfind('/');
  JANUS_EXPECTS(pos != std::string::npos);
  return tag.substr(0, pos);
}

std::string NextIterTag(const std::string& tag) {
  const auto pos = tag.rfind('#');
  JANUS_EXPECTS(pos != std::string::npos);
  const std::int64_t iter = std::stoll(tag.substr(pos + 1));
  return tag.substr(0, pos + 1) + std::to_string(iter + 1);
}

// Base of a frame instance: the tag minus its iteration counter. Used to
// track loop-invariant (constant) Enter values.
std::string FrameBase(const std::string& tag) {
  const auto pos = tag.rfind('#');
  JANUS_EXPECTS(pos != std::string::npos);
  return tag.substr(0, pos);
}

struct PendingNode {
  std::vector<std::optional<Token>> inputs;
  int control_pending = 0;
  int arrived = 0;
  bool fired = false;        // Merge: fired on first live arrival
  bool initialized = false;  // input slots sized; source inputs prefilled
  bool any_control_dead = false;
};

}  // namespace

std::vector<Tensor> ExecuteDynamic(RunContext& run, const ExecutionPlan& plan,
                                   const Bindings& bindings) {
  const std::vector<ExecutionPlan::PlanNode>& nodes = plan.nodes();
  obs::PlanProfile* const profile = plan.profile();

  // Execution state per (node, tag); nodes are dense plan indices.
  struct Key {
    int node;
    std::string tag;
    bool operator==(const Key& other) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      return static_cast<std::size_t>(key.node) * 1315423911u ^
             std::hash<std::string>()(key.tag);
    }
  };
  std::unordered_map<Key, PendingNode, KeyHash> pending;

  // Loop-invariant Enter values per frame base, plus which iterations of
  // that frame have been seeded with them already.
  struct FrameConstants {
    std::vector<std::pair<int, Token>> values;  // producer Enter node index
    std::unordered_set<std::string> seeded_tags;
  };
  std::unordered_map<std::string, FrameConstants> frame_constants;

  // Fetch bookkeeping: fetches resolve at the root tag.
  const std::vector<ExecutionPlan::Endpoint>& fetch_slots =
      plan.fetch_slots();
  std::vector<std::optional<Tensor>> fetched(fetch_slots.size());
  std::size_t fetches_outstanding = fetch_slots.size();

  std::deque<std::pair<Key, PendingNode>> ready;

  // Source values are tag-polymorphic: Const/Placeholder/Param outputs (and
  // the outputs of input-less stateful nodes, evaluated once up front) are
  // available in every frame at every iteration, so consumers inside loop
  // frames need no explicit Enter edges for them. This mirrors how TF hoists
  // loop invariants with constant Enter nodes, without burdening the graph
  // generator.
  std::vector<std::vector<Token>> source_values(nodes.size());
  const auto is_source_producer = [&](int index) {
    return nodes[static_cast<std::size_t>(index)].is_root_source;
  };

  // Forward declaration: delivering a token may enqueue ready nodes.
  std::function<void(int, int, const std::string&, const Token&)>
      deliver_output;

  const auto deliver_to = [&](int consumer, int slot, const std::string& tag,
                              const Token& token) {
    const ExecutionPlan::PlanNode& info =
        nodes[static_cast<std::size_t>(consumer)];
    const int required_inputs = static_cast<int>(info.inputs.size());
    const Key key{consumer, tag};
    auto& state = pending[key];
    if (!state.initialized) {
      state.initialized = true;
      state.inputs.resize(static_cast<std::size_t>(required_inputs));
      state.control_pending = static_cast<int>(info.control_producers.size());
      if (!tag.empty()) {
        // Prefill inputs produced by tag-polymorphic sources; at the root
        // tag they are delivered through the normal seeding pass instead.
        for (int i = 0; i < required_inputs; ++i) {
          const ExecutionPlan::Endpoint& input =
              info.inputs[static_cast<std::size_t>(i)];
          if (is_source_producer(input.producer)) {
            state.inputs[static_cast<std::size_t>(i)] =
                source_values[static_cast<std::size_t>(input.producer)].at(
                    static_cast<std::size_t>(input.slot));
            ++state.arrived;
          }
        }
        for (const int control : info.control_producers) {
          if (is_source_producer(control)) --state.control_pending;
        }
      }
    }
    // A fired Merge may receive a late token from the branch that lost the
    // race (its state was already consumed); ignore it.
    if (info.kind == OpKind::kMerge && state.fired) return;
    if (slot >= 0) {
      auto& cell = state.inputs.at(static_cast<std::size_t>(slot));
      if (cell.has_value()) {
        // Merge nodes may legitimately receive a late token on an input the
        // other side already satisfied; everything else is a bug.
        if (info.kind != OpKind::kMerge) {
          throw InternalError("duplicate token for " + info.node->name());
        }
      }
      cell = token;
      ++state.arrived;
    } else {
      --state.control_pending;
      if (token.dead) state.any_control_dead = true;
    }

    const bool controls_done = state.control_pending <= 0;
    if (info.kind == OpKind::kMerge) {
      if (state.fired) return;
      // Fire on the first live arrival, or once every input arrived dead.
      if (controls_done && slot >= 0 && !token.dead) {
        state.fired = true;
        ready.push_back({key, std::move(pending[key])});
        return;
      }
      if (controls_done && state.arrived == required_inputs) {
        bool all_dead = true;
        for (const auto& cell : state.inputs) {
          if (cell.has_value() && !cell->dead) all_dead = false;
        }
        if (all_dead) {
          state.fired = true;
          ready.push_back({key, std::move(pending[key])});
        }
      }
      return;
    }
    if (controls_done && state.arrived == required_inputs) {
      ready.push_back({key, std::move(pending[key])});
      pending.erase(key);
    }
  };

  deliver_output = [&](int producer, int index, const std::string& tag,
                       const Token& token) {
    const ExecutionPlan::PlanNode& info =
        nodes[static_cast<std::size_t>(producer)];
    // Fetches resolve only at the root tag.
    if (tag.empty()) {
      for (std::size_t i = 0; i < fetch_slots.size(); ++i) {
        if (fetch_slots[i].producer == producer &&
            fetch_slots[i].slot == index && !fetched[i].has_value() &&
            !token.dead) {
          fetched[i] = token.value;
          --fetches_outstanding;
        }
      }
    }
    for (const ExecutionPlan::Edge& edge :
         info.out_edges[static_cast<std::size_t>(index)]) {
      deliver_to(edge.consumer, edge.input_slot, tag, token);
    }
    if (index == 0) {
      for (const int consumer : info.control_edges) {
        deliver_to(consumer, -1, tag, token);
      }
    }
  };

  // Seed a newly observed loop iteration with the frame's constant values.
  const auto seed_iteration = [&](const std::string& tag) {
    auto it = frame_constants.find(FrameBase(tag));
    if (it == frame_constants.end()) return;
    if (!it->second.seeded_tags.insert(tag).second) return;
    for (const auto& [enter_index, token] : it->second.values) {
      deliver_output(enter_index, 0, tag, token);
    }
  };

  // Evaluate source nodes up front. Input-less stateful nodes (ReadVariable,
  // RandomNormal, ...) with no control dependencies execute exactly once per
  // run, so their outputs are also tag-polymorphic sources.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const ExecutionPlan::PlanNode& info = nodes[i];
    if (!info.is_root_source) continue;
    const bool prof_sampled = obs::ShouldSampleProfileNode();
    const ProfRecord prof_record{profile, static_cast<int>(i),
                                 prof_sampled ? obs::Trace::NowNs() : 0,
                                 prof_sampled};
    if (info.kind != OpKind::kKernel) {
      source_values[i] = {
          Token{ResolveSource(run, info.kind, *info.node, bindings), false}};
    } else {
      std::vector<Tensor> outputs;
      ExecuteKernel(run, *info.node, *info.kernel, {}, outputs);
      std::vector<Token> tokens;
      tokens.reserve(outputs.size());
      for (Tensor& out : outputs) {
        tokens.push_back(Token{std::move(out), false});
      }
      source_values[i] = std::move(tokens);
    }
  }
  // Deliver source outputs at the root tag (frame consumers receive them via
  // the prefill in deliver_to instead).
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].is_root_source) continue;
    const std::vector<Token>& tokens = source_values[i];
    for (std::size_t index = 0; index < tokens.size(); ++index) {
      deliver_output(static_cast<int>(i), static_cast<int>(index), "",
                     tokens[index]);
    }
  }

  while (!ready.empty() && fetches_outstanding > 0) {
    auto [key, state] = std::move(ready.front());
    ready.pop_front();
    const ExecutionPlan::PlanNode& info =
        nodes[static_cast<std::size_t>(key.node)];
    const Node& node = *info.node;
    const std::string& tag = key.tag;

    // Source-attributed profiler: RAII so the control-flow `continue`s
    // above the kernel dispatch are all covered.
    const bool prof_sampled = obs::ShouldSampleProfileNode();
    const ProfRecord prof_record{profile, key.node,
                                 prof_sampled ? obs::Trace::NowNs() : 0,
                                 prof_sampled};

    // Collect input tokens (absent cells are only legal for Merge). Tokens
    // are MOVED out of the dead pending-node state so a single-consumer
    // token's buffer reaches refcount 1 in `tokens`, making it eligible for
    // in-place reuse below. A moved-from optional still has_value(), which
    // the Merge liveness checks below rely on.
    std::vector<Token> tokens(state.inputs.size());
    bool any_dead = state.any_control_dead;
    for (std::size_t i = 0; i < state.inputs.size(); ++i) {
      if (state.inputs[i].has_value()) {
        tokens[i] = std::move(*state.inputs[i]);
        if (tokens[i].dead) any_dead = true;
      } else if (info.kind != OpKind::kMerge) {
        throw InternalError("missing token for " + node.name());
      }
    }

    switch (info.kind) {
      case OpKind::kMerge: {
        // Forward the first live input (and its index); dead if none live.
        Token out{Tensor{}, true};
        std::int64_t live_index = -1;
        for (std::size_t i = 0; i < tokens.size(); ++i) {
          if (state.inputs[i].has_value() && !tokens[i].dead) {
            out = tokens[i];
            live_index = static_cast<std::int64_t>(i);
            break;
          }
        }
        deliver_output(key.node, 0, tag, out);
        deliver_output(key.node, 1, tag,
                       Token{Tensor::ScalarInt(live_index), out.dead});
        continue;
      }
      case OpKind::kSwitch: {
        const Token& data = tokens.at(0);
        const Token& pred = tokens.at(1);
        if (data.dead || pred.dead) {
          deliver_output(key.node, 0, tag, Token{Tensor{}, true});
          deliver_output(key.node, 1, tag, Token{Tensor{}, true});
          continue;
        }
        const bool taken = pred.value.ScalarBoolValue();
        deliver_output(key.node, taken ? 1 : 0, tag, data);
        deliver_output(key.node, taken ? 0 : 1, tag, Token{Tensor{}, true});
        continue;
      }
      case OpKind::kEnter: {
        const std::string child = ChildTag(tag, info.frame);
        if (info.is_constant_enter && !tokens.at(0).dead) {
          frame_constants[FrameBase(child)].values.push_back(
              {key.node, tokens.at(0)});
          frame_constants[FrameBase(child)].seeded_tags.insert(child);
        }
        deliver_output(key.node, 0, child, tokens.at(0));
        continue;
      }
      case OpKind::kNextIteration: {
        if (tokens.at(0).dead) continue;  // loop termination: drop dead tokens
        const std::string next = NextIterTag(tag);
        seed_iteration(next);
        deliver_output(key.node, 0, next, tokens.at(0));
        continue;
      }
      case OpKind::kExit: {
        if (tokens.at(0).dead) continue;  // only the final live value escapes
        deliver_output(key.node, 0, ParentTag(tag), tokens.at(0));
        continue;
      }
      default:
        break;
    }

    // Ordinary op: dead in => dead out, kernel skipped.
    if (any_dead) {
      for (int i = 0; i < node.num_outputs(); ++i) {
        deliver_output(key.node, i, tag, Token{Tensor{}, true});
      }
      continue;
    }
    std::vector<Tensor> inputs;
    inputs.reserve(tokens.size());
    for (Token& token : tokens) inputs.push_back(std::move(token.value));
    std::vector<Tensor> outputs;
    const bool in_place =
        plan.memory().nodes[static_cast<std::size_t>(key.node)]
            .in_place_capable;
    if (info.kind == OpKind::kFusedRegion) {
      ExecuteFusedRegion(run, *info.fused, inputs, outputs, in_place,
                         /*precomputed=*/nullptr);
    } else {
      ExecuteKernel(run, node, *info.kernel, inputs, outputs, in_place);
    }
    for (int i = 0; i < node.num_outputs(); ++i) {
      deliver_output(key.node, i, tag,
                     Token{outputs.at(static_cast<std::size_t>(i)), false});
    }
  }

  if (fetches_outstanding > 0) {
    std::string detail;
    for (std::size_t i = 0; i < fetch_slots.size(); ++i) {
      if (!fetched[i].has_value()) {
        detail += " " + plan.fetches()[i].node->DebugString();
      }
    }
    detail += " | pending:";
    int listed = 0;
    for (const auto& [key, state] : pending) {
      if (listed >= 12) break;
      if (!state.initialized || state.fired) continue;
      const Node& node = *nodes[static_cast<std::size_t>(key.node)].node;
      detail += " " + node.name() + "(" + std::to_string(state.arrived) +
                "/" + std::to_string(node.num_inputs()) + ",c" +
                std::to_string(state.control_pending) + ")@" + key.tag;
      ++listed;
    }
    throw InternalError(
        "dynamic executor deadlock: " + std::to_string(fetches_outstanding) +
        " fetches unresolved:" + detail);
  }
  std::vector<Tensor> results;
  results.reserve(fetched.size());
  for (auto& value : fetched) results.push_back(std::move(*value));
  return results;
}

}  // namespace internal
}  // namespace janus
