// Plan-time tensor liveness analysis.
//
// A MemoryPlan is computed once per ExecutionPlan (at plan-build time, off
// the run hot path) and tells the executor, for every plan node:
//
//   * output_reads     — how many data edges read this node's outputs. The
//                        executor counts reads down at run time (a consumer
//                        on an untaken branch counts off too) and drops the
//                        producer's output tensors the moment the last
//                        consumer has copied them, returning dead
//                        intermediate buffers to the BufferPool mid-run
//                        instead of at end-of-run teardown.
//   * fetch_protected  — the node feeds a fetch slot; its outputs must
//                        survive to the end of the run and are never dropped.
//   * in_place_capable — the node's kernel is a same-index elementwise op,
//                        so the executor may open an InPlaceScope around its
//                        invocation, letting Tensor::OutputBuffer overwrite a
//                        uniquely-referenced, byte-size-matching input
//                        instead of allocating.
//
// The in-place allowlist is deliberately conservative: only ops whose output
// element i depends on nothing but input element(s) i qualify. Reductions,
// transposes, matmuls, broadcasts, and anything with gather/scatter access
// patterns stay off the list — overwriting their input while reading it
// would corrupt the computation.
#ifndef JANUS_RUNTIME_MEMORY_PLAN_H_
#define JANUS_RUNTIME_MEMORY_PLAN_H_

#include <string_view>
#include <vector>

namespace janus {

class ExecutionPlan;

struct MemoryPlan {
  struct NodeInfo {
    int output_reads = 0;
    bool fetch_protected = false;
    bool in_place_capable = false;
  };

  // Parallel to ExecutionPlan::nodes().
  std::vector<NodeInfo> nodes;
};

// True for kernels that write output element i from input element(s) i only.
bool OpSupportsInPlace(std::string_view op);

// Computes the liveness/in-place plan for an already-built ExecutionPlan.
MemoryPlan BuildMemoryPlan(const ExecutionPlan& plan);

}  // namespace janus

#endif  // JANUS_RUNTIME_MEMORY_PLAN_H_
