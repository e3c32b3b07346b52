// Plan-build fusion of elementwise regions into superops.
//
// A fusion pass runs at ExecutionPlan build time (plan.cc) and greedily
// groups maximal chains/trees of fusable elementwise and broadcast ops —
// plus an optional reduction epilogue (ReduceSum/ReduceMean root) — into
// single OpKind::kFusedRegion plan nodes. A region executes with ONE
// dispatch through a template-interpreted superop: a compact postfix program
// over virtual register values, specialized on first run against the actual
// input dtypes + shapes (plans carry no placeholder shapes, so despecialized
// rank-only/shapeless graphs fuse exactly like exact-shape ones — the
// "runtime-count variant"). The interpreter walks the iteration space block
// by block: per instruction one function-pointer dispatch plus a tight typed
// loop over the block, with interior values living in a thread-local scratch
// arena — interior tensors are never materialized and the region's single
// output is written in one pass with zero intermediate buffer allocations.
// Each region memoizes its specialized program and rebuilds it when the
// input dtypes or shapes change.
//
// Correctness contract: fused execution is bitwise identical to unfused
// per-node execution because both run one definition of each op. A member
// is a reference to its op's entry in the elementwise table
// (tensor/elementwise.h); a block instruction runs that entry's typed
// same-index loop, the very loop the unfused kernel runs on equal shapes,
// and the entry's dtype rule decides what specializes. Reduction epilogues
// accumulate through ops::ReduceIndex, in ReduceSum's input order. Any
// shape / dtype combination the table does not mark as a plain same-index
// loop (non-identity broadcasts that are neither scalar nor full-size,
// int64 true division's float promotion, ops that may throw data-dependent
// errors like integer FloorDiv/Mod, rejected dtypes) falls back to
// per-member kernel dispatch inside the region, preserving exact error
// attribution ("[at <node>]").
//
// Kill switches: JANUS_FUSION=0 disables the pass process-wide;
// EngineOptions::enable_fusion and PlanOptions::enable_fusion disable it per
// engine / per plan build.
#ifndef JANUS_RUNTIME_FUSION_H_
#define JANUS_RUNTIME_FUSION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

#include "runtime/executor.h"
#include "runtime/plan.h"
#include "tensor/elementwise.h"

namespace janus {

namespace fusion {

// Process-wide kill switch, initialized from JANUS_FUSION ("0"/"false"/"off"
// disable; default on). ANDed with PlanOptions::enable_fusion at build time.
bool GloballyEnabled();
void SetGloballyEnabled(bool enabled);

}  // namespace fusion

struct FusedSpec;  // runtime specialization, private to fusion.cc

// The plan-time (structural) description of one fused region. Value ids form
// a register file: ids [0, num_externals) are the region's deduplicated
// external inputs in discovery order; each member then defines the next id,
// so members.back() defines the region output.
struct FusedRegionPlan {
  // Reductions are legal only as the region root (epilogue).
  enum class Reduction : std::uint8_t { kNone, kSum, kMean };

  struct Member {
    const Node* node = nullptr;
    const KernelFn* kernel = nullptr;  // fallback per-member dispatch
    // The member's elementwise op; nullptr for the reduction epilogue.
    const ops::ElementwiseOp* op = nullptr;
    Reduction reduction = Reduction::kNone;
    int value_id = -1;  // value this member defines
    int a = -1;         // operand value ids (-1 = unused)
    int b = -1;
    // Reduction epilogue parameters (node attrs).
    std::vector<int> axes;
    bool keep_dims = false;
  };

  std::vector<Member> members;  // topological order; members.back() = root
  int num_externals = 0;
  int num_values = 0;  // num_externals + members.size()
  bool has_reduction = false;

  // Memoized runtime specialization, validated against the actual inputs on
  // every execution and rebuilt on mismatch.
  mutable Mutex memo_mu;
  mutable std::shared_ptr<const FusedSpec> memo GUARDED_BY(memo_mu);
};

// The fusion pass, invoked by ExecutionPlan::Build after the node array is
// built. Rewrites the plan in place: interior members disappear, the region
// node takes the root's position (preserving schedule order), the
// externals' out-edges are rewired into it, and all indices — edges, fetch
// slots, the node -> index map (interiors resolve to their region) — are
// remapped. Returns the number of regions formed.
int FusePlan(std::vector<ExecutionPlan::PlanNode>& nodes,
             std::vector<ExecutionPlan::Endpoint>& fetch_slots,
             std::unordered_map<const Node*, int>& index,
             std::vector<std::shared_ptr<const FusedRegionPlan>>& regions);

namespace internal {

// Executes one fused region: `inputs` are the region's external values in
// value-id order; `outputs` receives the single region output at slot 0.
// Specializes (or revalidates) the region's program against the actual
// input dtypes/shapes, then either runs the block interpreter or the
// per-member fallback path.
void ExecuteFusedRegion(RunContext& run, const FusedRegionPlan& region,
                        std::span<const Tensor> inputs,
                        std::vector<Tensor>& outputs, bool allow_in_place);

}  // namespace internal
}  // namespace janus

#endif  // JANUS_RUNTIME_FUSION_H_
