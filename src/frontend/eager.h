// Eager (imperative) tensor execution with tape-based automatic
// differentiation — the TensorFlow Eager stand-in that the interpreter
// dispatches tensor operations to.
//
// Each eager op executes its kernel immediately *and*, while a tape is
// active, records an equivalent node into a shadow graph. Backward passes
// reuse the exact same symbolic gradient rules as graph mode
// (autodiff::AddGradients) and execute only the gradient subgraph: its
// one-shot plan takes the recorded forward values it reads as positional
// arguments, one Placeholder per forward node. This guarantees imperative
// and symbolic training compute identical gradients — the correctness
// baseline the paper's evaluation compares against.
//
// Every eager kernel and every backward kernel runs through
// internal::ExecuteKernel and pays the calibrated dispatch penalty once, as
// TF Eager dispatches each op (forward and backward) one at a time; the
// backward plan is therefore built without fusion. Variable reads and
// assignments run no kernel and pay nothing.
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

  // Calibrated per-op dispatch cost (ns) standing in for CPython +
  // framework dispatch on the imperative executor; applied to every eager
  // kernel and to the tape's backward kernels.
  void set_dispatch_penalty_ns(std::int64_t ns) { dispatch_penalty_ns_ = ns; }

 private:
  struct Tape;

  VariableStore* variables_;
  Rng* rng_;
  std::unique_ptr<Tape> tape_;
  std::int64_t dispatch_penalty_ns_ = 0;
};

}  // namespace janus::minipy

#endif  // JANUS_FRONTEND_EAGER_H_
