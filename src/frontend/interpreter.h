// The MiniPy tree-walking interpreter — the imperative executor of Fig. 2.
//
// Two extension points connect it to JANUS (src/core):
//  * ExecutionObserver receives profiling callbacks (branch decisions, loop
//    trip counts, call targets, function-entry argument values, attribute
//    and subscript loads) — the Profiler of §3.1.
//  * CallInterceptor is consulted before every user-function call; the
//    Speculative Graph Executor implements it to divert calls to cached
//    symbolic graphs (and to fall back here when assumptions fail).
#ifndef JANUS_FRONTEND_INTERPRETER_H_
#define JANUS_FRONTEND_INTERPRETER_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "frontend/ast.h"
#include "frontend/eager.h"
#include "frontend/value.h"
#include "runtime/run_context.h"

namespace janus::minipy {

// Raised by MiniPy `raise` statements; caught by `try`/`except`.
class MiniPyError : public Error {
 public:
  explicit MiniPyError(std::string message) : Error(std::move(message)) {}
};

class ExecutionObserver {
 public:
  virtual ~ExecutionObserver() = default;
  virtual void OnBranch(const Stmt* /*stmt*/, bool /*taken*/) {}
  virtual void OnLoopFinished(const Stmt* /*stmt*/,
                              std::int64_t /*trip_count*/) {}
  virtual void OnCall(const Expr* /*call*/, const Value& /*callee*/) {}
  virtual void OnFunctionEntry(const Stmt* /*def*/,
                               std::span<const Value> /*args*/) {}
  virtual void OnAttrLoad(const Expr* /*attr*/, const Value& /*object*/,
                          const Value& /*result*/) {}
  virtual void OnSubscrLoad(const Expr* /*subscr*/, const Value& /*object*/,
                            const Value& /*result*/) {}
};

class CallInterceptor {
 public:
  virtual ~CallInterceptor() = default;
  // Returns true if the call was handled (result written); false to let the
  // interpreter execute it imperatively.
  virtual bool MaybeIntercept(const std::shared_ptr<FunctionValue>& fn,
                              std::span<Value> args, Value* result) = 0;
};

class Interpreter {
 public:
  Interpreter(VariableStore* variables, Rng* rng);
  ~Interpreter();
  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  // Executes a program in the global scope. Each distinct source text is
  // parsed once per interpreter; running the same text again re-runs the
  // kept AST, so a `def` in it yields a FunctionValue with the same `def`.
  void Run(const std::string& source);

  // Looks up a global (e.g. a model object or function defined by Run).
  Value GetGlobal(const std::string& name) const;
  void SetGlobal(const std::string& name, Value value);

  // Calls a MiniPy function value with the given arguments.
  Value CallFunction(const std::shared_ptr<FunctionValue>& fn,
                     std::vector<Value> args);
  // Invokes any callable value (function, builtin, class, bound method).
  Value CallValue(const Value& callee, std::vector<Value> args,
                  const Expr* call_site = nullptr);

  // ---- expression/statement evaluation (used by tests and builtins) ----
  // Parsed once per distinct text, like Run.
  Value EvaluateExpression(const std::string& expression_source);

  // ---- services ----
  EagerContext& eager() { return eager_; }
  VariableStore* variables() { return variables_; }
  Rng* rng() { return rng_; }

  // Heap registry: id -> heap value (list/dict/object), used by the graph
  // runtime's StateInterface to dereference pointer tensors.
  Value HeapLookup(std::int64_t heap_id) const;
  std::int64_t NextHeapId();
  void RegisterHeapValue(std::int64_t id, Value value);

  std::shared_ptr<ListValue> MakeList(std::vector<Value> items = {});
  std::shared_ptr<DictValue> MakeDict();
  std::shared_ptr<ObjectValue> MakeObject(std::shared_ptr<ClassValue> cls);

  // ---- JANUS integration ----
  void set_observer(ExecutionObserver* observer) { observer_ = observer; }
  void set_interceptor(CallInterceptor* interceptor) {
    interceptor_ = interceptor;
  }
  ExecutionObserver* observer() { return observer_; }

  // Registers an additional builtin (used by the model zoo to expose
  // simulated environments etc.).
  void RegisterBuiltin(const std::string& name, BuiltinFunction::Fn fn);

  // Total interpreter statements + eager ops executed (overhead accounting).
  std::int64_t statements_executed() const { return statements_executed_; }

  // ---- value operations shared with builtins ----
  Value BinaryOperation(BinaryOp op, const Value& lhs, const Value& rhs);
  Value CompareOperation(CompareOp op, const Value& lhs, const Value& rhs);
  // Coerces ints/floats/variables to a Tensor (for tensor builtins).
  Tensor ToTensor(const Value& value);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;

  VariableStore* variables_;
  Rng* rng_;
  EagerContext eager_;
  ExecutionObserver* observer_ = nullptr;
  CallInterceptor* interceptor_ = nullptr;
  std::int64_t statements_executed_ = 0;

  friend struct InterpreterAccess;
};

}  // namespace janus::minipy

#endif  // JANUS_FRONTEND_INTERPRETER_H_
