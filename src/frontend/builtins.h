// The builtin table: standard builtins plus the framework-provided
// tensor/NN functions, i.e. the external-function whitelist of §4.3.1 with
// one conversion rule per function (Table 4). Each builtin has one
// BuiltinSpec, read by both executors. InstallBuiltins registers it with
// the interpreter; the graph generator checks the same arity, lowers an op
// builtin with attrs from the same decoder, and may run a `static_eval`
// builtin's `impl` at generation time, but only on plain data (None, bool,
// int, float, str, and lists of these; never variables, objects or
// functions). The generator refuses any call the interpreter would reject,
// so the imperative run raises that error exactly as without JANUS.
#ifndef JANUS_FRONTEND_BUILTINS_H_
#define JANUS_FRONTEND_BUILTINS_H_

#include <span>
#include <string_view>

#include "frontend/interpreter.h"
#include "graph/attr.h"

namespace janus::minipy {

struct BuiltinSpec {
  // Decodes the static arguments after the leading tensors into attrs;
  // errors are MiniPyErrors naming the builtin.
  using AttrDecoder = AttrMap (*)(std::span<const Value> statics,
                                  const char* name);
  const char* name;
  std::size_t min_args;
  std::size_t max_args;
  // Op builtins: one graph op over `tensor_args` leading tensor arguments.
  const char* graph_op = nullptr;
  std::size_t tensor_args = 0;
  AttrDecoder attrs = nullptr;
  // Other builtins: the imperative implementation, and whether the
  // generator may run it at generation time on plain data.
  BuiltinFunction::Fn impl;
  bool static_eval = false;

  bool is_op() const { return graph_op != nullptr; }
};

// Every builtin, and the spec of one by name (null if none).
std::span<const BuiltinSpec> BuiltinTable();
const BuiltinSpec* FindBuiltin(std::string_view name);

// Raises MiniPyError("<name>(): wrong number of arguments") unless `argc`
// fits the spec.
void CheckArity(const BuiltinSpec& spec, std::size_t argc);

// Installs every builtin into the interpreter's global scope. Called by
// users after constructing an Interpreter.
void InstallBuiltins(Interpreter& interp);

// The imperative training step of optimize(): runs fn(args) under a
// gradient tape, applies one SGD step of rate `lr` to every variable the
// loss reads, and returns the loss. The tape is dropped if anything throws.
Tensor ImperativeTrainingStep(Interpreter& in,
                              const std::shared_ptr<FunctionValue>& fn,
                              std::vector<Value> args, float lr);

}  // namespace janus::minipy

#endif  // JANUS_FRONTEND_BUILTINS_H_
