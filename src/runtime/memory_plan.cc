#include "runtime/memory_plan.h"

#include "runtime/fusion.h"
#include "runtime/plan.h"
#include "tensor/elementwise.h"

namespace janus {

bool OpSupportsInPlace(std::string_view op) {
  // The same-index elementwise ops. Binary ops are still gated at run time:
  // the executor's InPlaceScope plus OutputBuffer's byte-size and uniqueness
  // checks reject broadcast operands (different byte size) and shared
  // buffers, and kernels themselves fall back to fresh allocation on shape
  // mismatch.
  return ops::FindElementwiseOp(op) != nullptr;
}

MemoryPlan BuildMemoryPlan(const ExecutionPlan& plan) {
  MemoryPlan mem;
  const auto& nodes = plan.nodes();
  mem.nodes.resize(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const ExecutionPlan::PlanNode& node = nodes[i];
    // Fused-region interiors are never materialized, so only the region
    // output participates in liveness; a non-reduction region is same-index
    // elementwise end to end and may overwrite a dying input.
    mem.nodes[i].in_place_capable =
        (node.kind == ExecutionPlan::OpKind::kKernel &&
         OpSupportsInPlace(node.node->op())) ||
        (node.kind == ExecutionPlan::OpKind::kFusedRegion &&
         node.fused != nullptr && !node.fused->has_reduction);
    for (const ExecutionPlan::Endpoint& input : node.inputs) {
      ++mem.nodes[static_cast<std::size_t>(input.producer)].output_reads;
    }
  }
  for (const ExecutionPlan::Endpoint& slot : plan.fetch_slots()) {
    mem.nodes[static_cast<std::size_t>(slot.producer)].fetch_protected = true;
  }
  return mem;
}

}  // namespace janus
