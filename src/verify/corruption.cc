#include "verify/corruption.h"

#include <unordered_set>
#include <utility>

namespace janus {
namespace verify {
namespace {

using Endpoint = ExecutionPlan::Endpoint;
using OpKind = ExecutionPlan::OpKind;
using PlanNode = ExecutionPlan::PlanNode;

// All nodes that belong to any fused region of the plan (interiors + roots).
std::unordered_set<const Node*> RegionMembers(PlanCorruptor& c) {
  std::unordered_set<const Node*> members;
  for (std::size_t r = 0; r < c.num_regions(); ++r) {
    for (const FusedRegionPlan::Member& m : c.mutable_region(r).members) {
      members.insert(m.node);
    }
  }
  return members;
}

// First dense index whose entry satisfies `pred`, or -1.
template <typename Pred>
int FindNode(PlanCorruptor& c, Pred pred) {
  const auto& nodes = c.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (pred(nodes[i], static_cast<int>(i))) return static_cast<int>(i);
  }
  return -1;
}

bool HasInputs(const PlanNode& e, int) { return !e.inputs.empty(); }

// The first non-empty out-edge list in the plan, or null.
std::vector<ExecutionPlan::Edge>* FirstOutEdges(PlanCorruptor& c) {
  for (PlanNode& entry : c.nodes()) {
    for (auto& slot : entry.out_edges) {
      if (!slot.empty()) return &slot;
    }
  }
  return nullptr;
}

// First region with at least one interior (non-root) member, or -1.
int FindRegionWithInterior(PlanCorruptor& c) {
  for (std::size_t r = 0; r < c.num_regions(); ++r) {
    if (c.mutable_region(r).members.size() >= 2) return static_cast<int>(r);
  }
  return -1;
}

}  // namespace

std::vector<Corruption> PlanCorruptions() {
  std::vector<Corruption> out;
  const auto add = [&out](std::string name, std::string invariant,
                          std::function<bool(PlanCorruptor&)> apply) {
    out.push_back(
        Corruption{std::move(name), std::move(invariant), std::move(apply)});
  };

  // ---- Schedule and adjacency ----

  add("self-loop", "schedule.self_loop", [](PlanCorruptor& c) {
    const int i = FindNode(c, HasInputs);
    if (i < 0) return false;
    c.nodes()[static_cast<std::size_t>(i)].inputs[0].producer = i;
    return true;
  });
  add("back-edge", "schedule.topological_order", [](PlanCorruptor& c) {
    const int n = static_cast<int>(c.nodes().size());
    const int i = FindNode(c, [n](const PlanNode& e, int idx) {
      return !e.inputs.empty() && idx != n - 1;
    });
    if (i < 0) return false;
    c.nodes()[static_cast<std::size_t>(i)].inputs[0] = {n - 1, 0};
    return true;
  });
  add("producer-out-of-range", "adjacency.producer_range",
      [](PlanCorruptor& c) {
        const int i = FindNode(c, HasInputs);
        if (i < 0) return false;
        c.nodes()[static_cast<std::size_t>(i)].inputs[0].producer =
            static_cast<int>(c.nodes().size());
        return true;
      });
  add("producer-negative", "adjacency.producer_range", [](PlanCorruptor& c) {
    const int i = FindNode(c, HasInputs);
    if (i < 0) return false;
    c.nodes()[static_cast<std::size_t>(i)].inputs[0].producer = -5;
    return true;
  });
  add("slot-out-of-range", "adjacency.slot_range", [](PlanCorruptor& c) {
    const int i = FindNode(c, HasInputs);
    if (i < 0) return false;
    c.nodes()[static_cast<std::size_t>(i)].inputs[0].slot = 99;
    return true;
  });
  add("edge-drop", "adjacency.edge_mirror", [](PlanCorruptor& c) {
    auto* edges = FirstOutEdges(c);
    if (edges == nullptr) return false;
    edges->pop_back();
    return true;
  });
  add("edge-duplicate", "adjacency.edge_mirror", [](PlanCorruptor& c) {
    auto* edges = FirstOutEdges(c);
    if (edges == nullptr) return false;
    edges->push_back(edges->front());
    return true;
  });
  add("edge-slot-skew", "adjacency.edge_mirror", [](PlanCorruptor& c) {
    auto* edges = FirstOutEdges(c);
    if (edges == nullptr) return false;
    ++edges->front().input_slot;
    return true;
  });
  add("phantom-edge", "adjacency.edge_mirror", [](PlanCorruptor& c) {
    if (c.nodes().empty()) return false;
    // A node can never consume itself, so i -> i is always phantom.
    c.nodes()[0].out_edges[0].push_back({0, 0});
    return true;
  });
  add("control-drop", "adjacency.control_mirror", [](PlanCorruptor& c) {
    const int i = FindNode(c, [](const PlanNode& e, int) {
      return !e.control_edges.empty();
    });
    if (i < 0) return false;
    c.nodes()[static_cast<std::size_t>(i)].control_edges.pop_back();
    return true;
  });
  add("pending-undercount", "schedule.pending_count", [](PlanCorruptor& c) {
    const int i = FindNode(c, [](const PlanNode& e, int) {
      return e.in_edges > 0;
    });
    if (i < 0) return false;
    --c.nodes()[static_cast<std::size_t>(i)].in_edges;
    return true;
  });
  add("pending-overcount", "schedule.pending_count", [](PlanCorruptor& c) {
    if (c.nodes().empty()) return false;
    ++c.nodes()[0].in_edges;
    return true;
  });
  add("kind-flip", "schedule.kind_mismatch", [](PlanCorruptor& c) {
    const int i = FindNode(c, [](const PlanNode& e, int) {
      return e.kind == OpKind::kKernel;
    });
    if (i < 0) return false;
    c.nodes()[static_cast<std::size_t>(i)].kind = OpKind::kConst;
    return true;
  });
  add("kernel-null", "schedule.kernel_null", [](PlanCorruptor& c) {
    const int i = FindNode(c, [](const PlanNode& e, int) {
      return e.kind == OpKind::kKernel && e.kernel != nullptr;
    });
    if (i < 0) return false;
    c.nodes()[static_cast<std::size_t>(i)].kernel = nullptr;
    return true;
  });
  add("argument-index-range", "schedule.argument_index",
      [](PlanCorruptor& c) {
        const int i = FindNode(c, [](const PlanNode& e, int) {
          return e.kind == OpKind::kArgument;
        });
        if (i < 0) return false;
        c.nodes()[static_cast<std::size_t>(i)].arg_index =
            static_cast<int>(c.arguments().size());
        return true;
      });
  // ---- Index map and fetch slots ----

  add("index-skew", "index.roundtrip", [](PlanCorruptor& c) {
    if (c.nodes().size() < 2) return false;
    c.index()[c.nodes()[0].node] = 1;
    return true;
  });
  add("index-erase", "index.roundtrip", [](PlanCorruptor& c) {
    if (c.nodes().empty()) return false;
    c.index().erase(c.nodes().back().node);
    return true;
  });
  add("index-out-of-range", "index.range", [](PlanCorruptor& c) {
    if (c.nodes().empty()) return false;
    c.index()[c.nodes()[0].node] = static_cast<int>(c.nodes().size()) + 4;
    return true;
  });
  add("fetch-producer-range", "fetch.slot_range", [](PlanCorruptor& c) {
    if (c.fetch_slots().empty()) return false;
    c.fetch_slots()[0].producer = static_cast<int>(c.nodes().size()) + 3;
    return true;
  });
  add("fetch-output-slot-range", "fetch.slot_range", [](PlanCorruptor& c) {
    if (c.fetch_slots().empty()) return false;
    c.fetch_slots()[0].slot = 7;
    return true;
  });
  add("fetch-dropped-remap", "fetch.remap", [](PlanCorruptor& c) {
    if (c.fetch_slots().empty() || c.nodes().size() < 2) return false;
    // Point the fetch slot at a valid producer that is not the fetch's.
    Endpoint& slot = c.fetch_slots()[0];
    slot.producer = slot.producer == 0 ? 1 : 0;
    slot.slot = 0;
    return true;
  });

  // ---- Memory plan ----

  add("liveness-undercount", "liveness.undercount", [](PlanCorruptor& c) {
    for (MemoryPlan::NodeInfo& info : c.memory().nodes) {
      if (info.output_reads > 0) {
        --info.output_reads;
        return true;
      }
    }
    return false;
  });
  add("liveness-overcount", "liveness.overcount", [](PlanCorruptor& c) {
    if (c.memory().nodes.empty()) return false;
    ++c.memory().nodes[0].output_reads;
    return true;
  });
  add("liveness-fetch-unprotected", "liveness.fetch_unprotected",
      [](PlanCorruptor& c) {
        for (MemoryPlan::NodeInfo& info : c.memory().nodes) {
          if (info.fetch_protected) {
            info.fetch_protected = false;
            return true;
          }
        }
        return false;
      });
  add("liveness-spurious-protection", "liveness.spurious_protection",
      [](PlanCorruptor& c) {
        for (MemoryPlan::NodeInfo& info : c.memory().nodes) {
          if (!info.fetch_protected) {
            info.fetch_protected = true;
            return true;
          }
        }
        return false;
      });
  add("inplace-illegal", "inplace.illegal", [](PlanCorruptor& c) {
    for (MemoryPlan::NodeInfo& info : c.memory().nodes) {
      if (!info.in_place_capable) {
        info.in_place_capable = true;
        return true;
      }
    }
    return false;
  });
  add("inplace-dropped", "inplace.dropped", [](PlanCorruptor& c) {
    for (MemoryPlan::NodeInfo& info : c.memory().nodes) {
      if (info.in_place_capable) {
        info.in_place_capable = false;
        return true;
      }
    }
    return false;
  });
  add("memory-size-mismatch", "memory.parallel_size", [](PlanCorruptor& c) {
    if (c.memory().nodes.empty()) return false;
    c.memory().nodes.pop_back();
    return true;
  });

  // ---- Fusion-rewrite damage (applicable only to plans with regions) ----

  add("fusion-null-plan", "fusion.null_plan", [](PlanCorruptor& c) {
    const int i = FindNode(c, [](const PlanNode& e, int) {
      return e.kind == OpKind::kFusedRegion;
    });
    if (i < 0) return false;
    c.nodes()[static_cast<std::size_t>(i)].fused = nullptr;
    return true;
  });
  add("fusion-drop-root-member", "fusion.root_mismatch",
      [](PlanCorruptor& c) {
        const int r = FindRegionWithInterior(c);
        if (r < 0) return false;
        c.mutable_region(static_cast<std::size_t>(r)).members.pop_back();
        return true;
      });
  add("fusion-reduction-flag", "fusion.reduction_flag",
      [](PlanCorruptor& c) {
        if (c.num_regions() == 0) return false;
        FusedRegionPlan& region = c.mutable_region(0);
        region.has_reduction = !region.has_reduction;
        return true;
      });
  add("fusion-operand-dangling", "fusion.operand_range",
      [](PlanCorruptor& c) {
        for (std::size_t r = 0; r < c.num_regions(); ++r) {
          for (FusedRegionPlan::Member& m : c.mutable_region(r).members) {
            if (m.a >= 0) {
              m.a = m.value_id;  // a member may not consume its own value
              return true;
            }
          }
        }
        return false;
      });
  add("fusion-external-arity", "fusion.external_arity",
      [](PlanCorruptor& c) {
        if (c.num_regions() == 0) return false;
        ++c.mutable_region(0).num_externals;
        return true;
      });
  add("fusion-member-kernel-null", "fusion.member_kernel_null",
      [](PlanCorruptor& c) {
        if (c.num_regions() == 0) return false;
        FusedRegionPlan& region = c.mutable_region(0);
        if (region.members.empty()) return false;
        region.members[0].kernel = nullptr;
        return true;
      });
  add("fusion-out-of-region-consumer", "fusion.out_of_region_consumer",
      [](PlanCorruptor& c) {
        const int r = FindRegionWithInterior(c);
        if (r < 0) return false;
        const Node* interior =
            c.mutable_region(static_cast<std::size_t>(r)).members[0].node;
        const auto members = RegionMembers(c);
        // Rewire a plan node outside every region to read the interior.
        const int i = FindNode(c, [&members](const PlanNode& e, int) {
          return e.node != nullptr && e.node->num_inputs() > 0 &&
                 members.find(e.node) == members.end();
        });
        if (i < 0) return false;
        const_cast<Node*>(c.nodes()[static_cast<std::size_t>(i)].node)
            ->set_input(0, NodeOutput{const_cast<Node*>(interior), 0});
        return true;
      });
  add("fusion-interior-fetched", "fusion.interior_fetched",
      [](PlanCorruptor& c) {
        const int r = FindRegionWithInterior(c);
        if (r < 0) return false;
        const Node* interior =
            c.mutable_region(static_cast<std::size_t>(r)).members[0].node;
        c.fetches().push_back(NodeOutput{const_cast<Node*>(interior), 0});
        return true;
      });
  add("fusion-interior-control", "fusion.interior_control",
      [](PlanCorruptor& c) {
        const int r = FindRegionWithInterior(c);
        if (r < 0) return false;
        const Node* interior =
            c.mutable_region(static_cast<std::size_t>(r)).members[0].node;
        const auto members = RegionMembers(c);
        const int i = FindNode(c, [&members](const PlanNode& e, int) {
          return e.node != nullptr &&
                 members.find(e.node) == members.end();
        });
        if (i < 0) return false;
        const_cast<Node*>(c.nodes()[static_cast<std::size_t>(i)].node)
            ->AddControlInput(const_cast<Node*>(interior));
        return true;
      });
  return out;
}

}  // namespace verify
}  // namespace janus
