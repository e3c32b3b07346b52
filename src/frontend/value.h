// Dynamic values for the MiniPy interpreter.
//
// Heap values (lists, dicts, objects) carry stable int64 heap ids; the
// graph runtime encodes references to them as int64 scalar tensors, exactly
// as the paper encodes Python heap pointers in the dataflow graph (§4.2.2).
#ifndef JANUS_FRONTEND_VALUE_H_
#define JANUS_FRONTEND_VALUE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "frontend/ast.h"
#include "tensor/tensor.h"

namespace janus::minipy {

class Interpreter;

struct NoneType {
  bool operator==(const NoneType&) const = default;
};

class ListValue;
class DictValue;
class ObjectValue;
class FunctionValue;
class ClassValue;
class BuiltinFunction;

// A reference to a named model parameter in the VariableStore. Tensor ops
// auto-read it (TF Eager's resource-variable behaviour).
struct VariableRef {
  std::string name;
};

using Value =
    std::variant<NoneType, bool, std::int64_t, double, std::string, Tensor,
                 VariableRef, std::shared_ptr<ListValue>,
                 std::shared_ptr<DictValue>, std::shared_ptr<ObjectValue>,
                 std::shared_ptr<FunctionValue>, std::shared_ptr<ClassValue>,
                 std::shared_ptr<BuiltinFunction>>;

class ListValue {
 public:
  explicit ListValue(std::int64_t heap_id) : heap_id_(heap_id) {}
  std::int64_t heap_id() const { return heap_id_; }
  std::vector<Value> items;

 private:
  std::int64_t heap_id_;
};

// Dict keys are ints or strings (sufficient for the DL workloads).
using DictKey = std::variant<std::int64_t, std::string>;

class DictValue {
 public:
  explicit DictValue(std::int64_t heap_id) : heap_id_(heap_id) {}
  std::int64_t heap_id() const { return heap_id_; }
  std::map<DictKey, Value> items;

 private:
  std::int64_t heap_id_;
};

class ObjectValue {
 public:
  ObjectValue(std::int64_t heap_id, std::shared_ptr<ClassValue> cls)
      : cls_(std::move(cls)), heap_id_(heap_id) {}
  std::int64_t heap_id() const { return heap_id_; }
  const std::shared_ptr<ClassValue>& cls() const { return cls_; }
  std::map<std::string, Value> attrs;

 private:
  std::shared_ptr<ClassValue> cls_;
  std::int64_t heap_id_;
};

class Environment;

class FunctionValue {
 public:
  const Stmt* def = nullptr;  // StmtKind::kDef node (owned by the Module)
  // Non-null for lambda expressions (def is null then); the body is
  // lambda->left.
  const Expr* lambda = nullptr;
  std::shared_ptr<Environment> closure;
  // Bound receiver for methods; NoneType when unbound.
  Value self = NoneType{};
  std::string qualified_name;
};

class ClassValue {
 public:
  std::string name;
  const Stmt* def = nullptr;
  std::map<std::string, std::shared_ptr<FunctionValue>> methods;
};

class BuiltinFunction {
 public:
  using Fn = std::function<Value(Interpreter&, std::span<Value>)>;
  BuiltinFunction(std::string name, Fn fn)
      : name(std::move(name)), fn(std::move(fn)) {}
  std::string name;
  Fn fn;
};

// Lexically scoped variable environment.
class Environment : public std::enable_shared_from_this<Environment> {
 public:
  explicit Environment(std::shared_ptr<Environment> parent = nullptr)
      : parent_(std::move(parent)) {}

  // Looks a name up through the scope chain; null if absent.
  Value* Find(const std::string& name);
  // Defines or overwrites in this scope.
  void Define(const std::string& name, Value value);
  bool Has(const std::string& name) const;
  Environment* parent() { return parent_.get(); }
  const std::shared_ptr<Environment>& parent_ptr() const { return parent_; }

  // Names declared `global` in this scope: assignments go to the root.
  std::vector<std::string> global_names;

  // Drops every binding and the parent link. Interpreter teardown only:
  // environments and the function/object values they bind form shared_ptr
  // cycles (a FunctionValue's closure points back at the environment that
  // defines it), so the interpreter explicitly severs them in its
  // destructor rather than leaking the whole object graph.
  void Clear() {
    vars_.clear();
    global_names.clear();
    parent_.reset();
  }

 private:
  std::map<std::string, Value> vars_;
  std::shared_ptr<Environment> parent_;
};

// ---- helpers ----
const char* ValueTypeName(const Value& value);
bool Truthy(const Value& value);
std::string ValueToString(const Value& value);
// MiniPy `==` and `in`: an int equals the float of the same value, and
// doubles compare by value (so -0.0 == 0.0 and NaN != NaN).
bool ValuesEqual(const Value& a, const Value& b);
// Whether `a` may stand for `b` in a generated graph (entry checks, branch
// rebinding, generated-function keys): the same alternative, doubles by
// their bits, tensors by dtype, shape and bytes, heap values and callables
// by identity.
bool ValuesIdentical(const Value& a, const Value& b);

template <typename T>
bool Is(const Value& v) {
  return std::holds_alternative<T>(v);
}

}  // namespace janus::minipy

#endif  // JANUS_FRONTEND_VALUE_H_
