// Op kernel interface and registry for the dataflow graph runtime.
//
// Sources (Const, Placeholder, Param) and the conditional primitives Switch
// and Merge are interpreted directly by the executor and have no kernels
// here; every other op resolves to a KernelFn through the registry.
#ifndef JANUS_RUNTIME_KERNEL_H_
#define JANUS_RUNTIME_KERNEL_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "tensor/tensor.h"

namespace janus {

class RunContext;

struct KernelContext {
  const Node* node = nullptr;
  std::span<const Tensor> inputs;
  std::vector<Tensor> outputs;  // kernel must produce node->num_outputs()
  RunContext* run = nullptr;

  const Tensor& input(int i) const {
    return inputs[static_cast<std::size_t>(i)];
  }
  void set_output(int i, Tensor value) {
    outputs.at(static_cast<std::size_t>(i)) = std::move(value);
  }
};

using KernelFn = std::function<void(KernelContext&)>;

class KernelRegistry {
 public:
  // The process-wide registry, pre-populated with all built-in kernels.
  static KernelRegistry& Global();

  void Register(std::string op, KernelFn fn);
  bool Contains(std::string_view op) const;
  const KernelFn& Lookup(std::string_view op) const;
  std::vector<std::string> OpNames() const;

 private:
  std::map<std::string, KernelFn, std::less<>> kernels_;
};

// Registration hooks, one per kernel translation unit. Called once by
// KernelRegistry::Global().
void RegisterMathKernels(KernelRegistry& registry);
void RegisterArrayKernels(KernelRegistry& registry);
void RegisterNNKernels(KernelRegistry& registry);
void RegisterStateKernels(KernelRegistry& registry);
void RegisterFunctionalKernels(KernelRegistry& registry);
void RegisterGradKernels(KernelRegistry& registry);

}  // namespace janus

#endif  // JANUS_RUNTIME_KERNEL_H_
