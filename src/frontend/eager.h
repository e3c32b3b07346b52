// Eager (imperative) tensor execution with tape-based automatic
// differentiation — the TensorFlow Eager stand-in that the interpreter
// dispatches tensor operations to.
//
// Each eager op executes its kernel immediately *and*, while a tape is
// active, records an equivalent node into a shadow graph. Backward passes
// reuse the exact same symbolic gradient rules as graph mode
// (autodiff::AddGradients) and execute only the gradient subgraph, feeding
// the recorded forward values as precomputed node outputs. This guarantees
// imperative and symbolic training compute identical gradients — the
// correctness baseline the paper's evaluation compares against.
#ifndef JANUS_FRONTEND_EAGER_H_
#define JANUS_FRONTEND_EAGER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "runtime/run_context.h"
#include "tensor/tensor.h"

namespace janus::minipy {

class EagerContext {
 public:
  EagerContext(VariableStore* variables, Rng* rng);
  ~EagerContext();

  // Executes a single-output op immediately; records it on the active tape.
  Tensor Execute(const std::string& op, std::vector<Tensor> inputs,
                 AttrMap attrs = {});

  // Reads a model parameter (recorded as ReadVariable on the tape so
  // gradients can reach it).
  Tensor ReadVariable(const std::string& name);
  void AssignVariable(const std::string& name, Tensor value);
  VariableStore* variables() { return variables_; }
  Rng* rng() { return rng_; }

  // ---- tape control ----
  void StartTape();
  bool TapeActive() const { return tape_ != nullptr; }
  // Computes d(loss)/d(v) for every variable read under the tape, then
  // discards the tape. Returns variable name -> gradient.
  std::map<std::string, Tensor> GradientsAndStopTape(const Tensor& loss);
  // Discards the active tape, if any, without computing gradients.
  void DropTape();

  // Number of eager kernel invocations so far (throughput accounting).
  std::int64_t ops_executed() const { return ops_executed_; }

  // Calibrated per-op dispatch cost (ns) standing in for CPython +
  // framework dispatch on the imperative executor; applied to every eager
  // kernel and to the tape's backward ops.
  void set_dispatch_penalty_ns(std::int64_t ns) { dispatch_penalty_ns_ = ns; }
  std::int64_t dispatch_penalty_ns() const { return dispatch_penalty_ns_; }

 private:
  struct Tape;

  VariableStore* variables_;
  Rng* rng_;
  std::unique_ptr<Tape> tape_;
  std::int64_t ops_executed_ = 0;
  std::int64_t dispatch_penalty_ns_ = 0;
};

}  // namespace janus::minipy

#endif  // JANUS_FRONTEND_EAGER_H_
