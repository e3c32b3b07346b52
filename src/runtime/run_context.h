// Per-run services and deferred-effect staging.
//
// JANUS never mutates global state mid-graph (§4.2.3 of the paper): kernels
// write variable updates, Python attribute/subscript writes, and print output
// into the RunContext staging area; the Session commits everything only after
// the whole graph executed with every AssertOp passing. A failed assumption
// throws AssumptionFailed, the RunContext is discarded, and no state changed
// — the all-or-nothing property the fallback mechanism relies on.
#ifndef JANUS_RUNTIME_RUN_CONTEXT_H_
#define JANUS_RUNTIME_RUN_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "runtime/plan.h"
#include "tensor/tensor.h"

namespace janus {

// Thrown by AssertOp when a speculative assumption does not hold at runtime.
// Carries the failing assumption's identity and, when the assert site can
// render them, the assumed vs observed values — the engine records both on
// its fallback decision so fallbacks are attributable after the fact.
class AssumptionFailed : public Error {
 public:
  AssumptionFailed(std::string assumption_id, const std::string& message)
      : Error("assumption failed: " + message),
        assumption_id_(std::move(assumption_id)) {}

  AssumptionFailed(std::string assumption_id, const std::string& message,
                   std::string assumed, std::string observed)
      : Error("assumption failed: " + message),
        assumption_id_(std::move(assumption_id)),
        assumed_(std::move(assumed)),
        observed_(std::move(observed)) {}

  const std::string& assumption_id() const { return assumption_id_; }
  // What the graph speculated / what the run saw, rendered symbolically.
  // Empty when the assert site could not render the value.
  const std::string& assumed() const { return assumed_; }
  const std::string& observed() const { return observed_; }

 private:
  std::string assumption_id_;
  std::string assumed_;
  std::string observed_;
};

// Named model-parameter storage shared between imperative and graph
// execution (the paper modifies TF Eager's parameter storage for the same
// sharing).
class VariableStore {
 public:
  bool Contains(const std::string& name) const;
  const Tensor& Read(const std::string& name) const;
  void Assign(const std::string& name, Tensor value);
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, Tensor> variables_;
};

// Host (interpreter heap) access used by PyGetAttr/PySetAttr/PyGetSubscr/
// PySetSubscr kernels. Object references are encoded as int64 scalar tensors
// holding heap ids, exactly as the paper encodes Python pointers.
class StateInterface {
 public:
  virtual ~StateInterface() = default;
  virtual Tensor GetAttr(std::int64_t object_id, const std::string& name) = 0;
  virtual void SetAttr(std::int64_t object_id, const std::string& name,
                       const Tensor& value) = 0;
  virtual Tensor GetSubscr(std::int64_t object_id, std::int64_t index) = 0;
  virtual void SetSubscr(std::int64_t object_id, std::int64_t index,
                         const Tensor& value) = 0;
};

class RunContext {
 public:
  // Non-owning service pointers; any may be null when the corresponding
  // feature is unused by the graph. `functions` holds the plans the
  // functional kernels call by name.
  VariableStore* variables = nullptr;
  StateInterface* host_state = nullptr;
  const FunctionPlans* functions = nullptr;
  Rng* rng = nullptr;
  ThreadPool* pool = nullptr;  // offered to every plan (see PoolDecision)

  // ---- staged (deferred) effects ----

  // Reads a variable honouring earlier staged writes in this run.
  Tensor ReadVariable(const std::string& name);
  void StageVariable(const std::string& name, Tensor value);

  // Local-copy reads/writes of host attributes and subscripts (copy-on-write
  // semantics of Fig. 5: reads hit the local copy once one exists).
  Tensor ReadAttr(std::int64_t object_id, const std::string& name);
  void StageAttr(std::int64_t object_id, const std::string& name,
                 Tensor value);
  Tensor ReadSubscr(std::int64_t object_id, std::int64_t index);
  void StageSubscr(std::int64_t object_id, std::int64_t index, Tensor value);

  void StagePrint(std::string line);

  // Applies every staged effect to the variable store / host heap / stdout.
  // Called exactly once, by the top-level run, after success.
  void Commit();

  // ---- tapes for While gradients ----
  void StoreTape(int node_id, std::vector<std::vector<Tensor>> iterations);
  // Takes ownership of (removes) the recorded tape.
  std::vector<std::vector<Tensor>> TakeTape(int node_id);

  // ---- metrics ----
  std::atomic<std::int64_t> ops_executed{0};
  // Dead intermediate output tensors dropped mid-run by the liveness plan
  // (their buffers return to the BufferPool for reuse within the same run).
  std::atomic<std::int64_t> buffers_released{0};
  // Fusion accounting: regions dispatched through the superop interpreter
  // and the member ops they covered. Fallback (per-member) region execution
  // counts ops normally and leaves these at zero.
  std::atomic<std::int64_t> fused_regions{0};
  std::atomic<std::int64_t> fused_ops{0};
  // Plan nodes executed on pool threads rather than the calling thread
  // (zero unless the plan's PoolDecision fanned the run out).
  std::atomic<std::int64_t> offloaded_nodes{0};

  // Busy-wait (ns) emulating interpreter/framework dispatch cost, paid by
  // internal::ExecuteKernel (runtime/executor.h) before every kernel it
  // runs, and read nowhere else. Only the eager (imperative) executor sets
  // it: for its per-op dispatch and its tape's backward plan.
  std::int64_t dispatch_penalty_ns = 0;

  std::mutex mu;  // guards all staging maps and the rng in parallel runs

 private:
  std::map<std::string, Tensor> staged_vars_;
  std::map<std::pair<std::int64_t, std::string>, Tensor> staged_attrs_;
  std::map<std::pair<std::int64_t, std::int64_t>, Tensor> staged_subscrs_;
  std::vector<std::string> staged_prints_;
  std::map<int, std::vector<std::vector<Tensor>>> tapes_;
};

}  // namespace janus

#endif  // JANUS_RUNTIME_RUN_CONTEXT_H_
