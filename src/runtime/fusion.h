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
//
// Specialized programs are content-addressed (op sequence + operand wiring +
// reduction params + external dtypes/shapes) in the process-wide
// cache::FusedKernelCache so identical regions across units/specializations
// share one compiled program.
//
// Correctness contract: fused execution is bitwise identical to unfused
// per-node execution. Every block kernel replicates the corresponding
// ops_elementwise.cc lambda exactly, reduction epilogues accumulate in the
// same linear input order as ops_linalg.cc's ReduceImpl, and any shape /
// dtype combination the superop cannot prove bit-exact (non-identity
// broadcasts that are neither scalar nor full-size, int64 true division's
// float promotion, ops that may throw data-dependent errors like integer
// FloorDiv/Mod) falls back to per-member kernel dispatch inside the region,
// preserving exact error attribution ("[at <node>]") and precomputed-output
// (eager tape) semantics.
//
// Kill switches: JANUS_FUSION=0 disables the pass process-wide;
// EngineOptions::enable_fusion and PlanOptions::enable_fusion disable it per
// engine / per plan build.
#ifndef JANUS_RUNTIME_FUSION_H_
#define JANUS_RUNTIME_FUSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

#include "runtime/executor.h"
#include "runtime/plan.h"

namespace janus {

namespace fusion {

// Process-wide kill switch, initialized from JANUS_FUSION ("0"/"false"/"off"
// disable; default on). ANDed with PlanOptions::enable_fusion at build time.
bool GloballyEnabled();
void SetGloballyEnabled(bool enabled);

}  // namespace fusion

// The ops the superop interpreter understands. Reductions are legal only as
// the region root (epilogue); everything else is same-index elementwise or
// broadcast.
enum class FusedOp : std::uint8_t {
  // Unary.
  kNeg,
  kAbs,
  kSign,
  kExp,
  kLog,
  kSqrt,
  kSquare,
  kTanh,
  kSigmoid,
  kRelu,
  kLogicalNot,
  // Binary.
  kAdd,
  kSub,
  kMul,
  kDiv,
  kFloorDiv,
  kMod,
  kPow,
  kMaximum,
  kMinimum,
  kReluGrad,
  kEqual,
  kNotEqual,
  kLess,
  kLessEqual,
  kGreater,
  kGreaterEqual,
  kLogicalAnd,
  kLogicalOr,
  // Reduction epilogues (root only).
  kReduceSum,
  kReduceMean,
};

struct FusedSpec;  // runtime specialization, private to fusion.cc

// The plan-time (structural) description of one fused region. Value ids form
// a register file: ids [0, num_externals) are the region's deduplicated
// external inputs in discovery order; each member then defines the next id,
// so members.back() defines the region output.
struct FusedRegionPlan {
  struct Member {
    const Node* node = nullptr;
    const KernelFn* kernel = nullptr;  // fallback per-member dispatch
    FusedOp op = FusedOp::kAdd;
    int value_id = -1;  // value this member defines
    int a = -1;         // operand value ids (-1 = unused)
    int b = -1;
    // Reduction epilogue parameters (raw node attrs).
    std::vector<std::int64_t> axes;
    bool keep_dims = false;
  };

  std::vector<Member> members;  // topological order; members.back() = root
  int num_externals = 0;
  int num_values = 0;  // num_externals + members.size()
  bool has_reduction = false;
  // Content-address prefix: ops + operand wiring + reduction params. The
  // full FusedKernelCache key appends external dtypes + shapes at
  // specialization time.
  std::string signature;

  // Memoized runtime specialization, validated against the actual inputs on
  // every execution and rebuilt (through the global cache) on mismatch.
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
// per-member fallback path. `precomputed` carries the eager tape's recorded
// forward outputs; any region member present there forces the fallback path
// so recorded values are honoured exactly.
void ExecuteFusedRegion(RunContext& run, const FusedRegionPlan& region,
                        std::span<const Tensor> inputs,
                        std::vector<Tensor>& outputs, bool allow_in_place,
                        const Precomputed* precomputed);

}  // namespace internal
}  // namespace janus

#endif  // JANUS_RUNTIME_FUSION_H_
