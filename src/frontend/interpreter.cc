#include "frontend/interpreter.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <utility>

#include "frontend/parser.h"
#include "graph/source_site.h"
#include "tensor/ops.h"

namespace janus::minipy {
namespace {

// How a statement or block ended. The parser admits `return` only inside a
// function and `break`/`continue` only inside a loop, so a function body
// ends in kNormal or kReturn and a module in kNormal.
enum class Flow { kNormal, kReturn, kBreak, kContinue };

[[noreturn]] void Fail(int line, const std::string& message) {
  throw MiniPyError("line " + std::to_string(line) + ": " + message);
}

double AsDouble(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  if (const auto* d = std::get_if<double>(&v)) return *d;
  if (const auto* b = std::get_if<bool>(&v)) return *b ? 1.0 : 0.0;
  throw MiniPyError(std::string("expected a number, got ") +
                    ValueTypeName(v));
}

bool IsNumeric(const Value& v) {
  return Is<std::int64_t>(v) || Is<double>(v) || Is<bool>(v);
}

bool IsTensorish(const Value& v) {
  return Is<Tensor>(v) || Is<VariableRef>(v);
}

}  // namespace

struct Interpreter::Impl {
  Interpreter* self = nullptr;
  // Source text -> its parsed module, owning the AST for the session. Each
  // distinct text is parsed once and its module re-run, as Python compiles
  // a loop body once: a session re-running one source (ModelSession::Step)
  // keeps one AST, so state keyed by AST node (engine units, Profiler
  // sites) stops growing. Nodes never move, so function values and
  // observers may keep pointers into them.
  std::unordered_map<std::string, Module> modules;
  std::shared_ptr<Environment> globals = std::make_shared<Environment>();

  // Qualified names of the user functions currently on the call stack
  // (innermost last; empty at module top level). ExecStmt stamps each
  // statement's SourceSiteScope from this, so graphs built during eager
  // execution — the tape EagerContext records and the gradient plans
  // derived from it — carry the same imperative provenance the symbolic
  // generator stamps on converted graphs.
  std::vector<std::string> fn_name_stack;

  using HeapEntry =
      std::variant<std::weak_ptr<ListValue>, std::weak_ptr<DictValue>,
                   std::weak_ptr<ObjectValue>>;
  std::map<std::int64_t, HeapEntry> heap;
  std::int64_t next_heap_id = 1;

  // Environments captured as function closures. A FunctionValue's closure
  // points back at the environment that defines it (and object attributes /
  // container items can close further cycles), so these strongly-connected
  // object graphs never reach refcount zero on their own. ~Interpreter walks
  // this list and severs every cycle edge. Weak pointers only: registration
  // must not extend any environment's lifetime.
  std::vector<std::weak_ptr<Environment>> closure_envs;

  void RegisterClosureEnv(const std::shared_ptr<Environment>& env) {
    if (env == nullptr || env == globals) return;
    // Compact expired entries occasionally so long sessions with many
    // short-lived closures don't accumulate dead weak_ptrs.
    if (closure_envs.size() >= 1024 &&
        (closure_envs.size() & (closure_envs.size() - 1)) == 0) {
      std::erase_if(closure_envs,
                    [](const std::weak_ptr<Environment>& weak) {
                      return weak.expired();
                    });
    }
    closure_envs.push_back(env);
  }

  const Module& ParseOnce(const std::string& source) {
    auto it = modules.find(source);
    if (it == modules.end()) it = modules.emplace(source, Parse(source)).first;
    return it->second;
  }

  // ---- statements ----

  // The value of the `return` that is unwinding to its CallFunction.
  Value returned;

  Flow ExecBlock(const std::vector<StmtPtr>& body,
                 const std::shared_ptr<Environment>& env) {
    for (const StmtPtr& stmt : body) {
      if (const Flow flow = ExecStmt(stmt.get(), env); flow != Flow::kNormal) {
        return flow;
      }
    }
    return Flow::kNormal;
  }

  Flow ExecStmt(const Stmt* stmt, const std::shared_ptr<Environment>& env) {
    ++self->statements_executed_;
    // Ambient provenance for any graph nodes built while this statement
    // executes (eager tape recording). Cost when nothing records: one
    // SSO string copy and two pointer writes.
    SourceSiteScope site_scope(
        fn_name_stack.empty() ? std::string() : fn_name_stack.back(),
        stmt->line, stmt->id);
    switch (stmt->kind) {
      case StmtKind::kExpr:
        Eval(stmt->value.get(), env);
        return Flow::kNormal;
      case StmtKind::kAssign:
        AssignTo(stmt->target.get(), Eval(stmt->value.get(), env), env);
        return Flow::kNormal;
      case StmtKind::kAugAssign: {
        const Value current = Eval(stmt->target.get(), env);
        Value updated = self->BinaryOperation(
            stmt->aug_op, current, Eval(stmt->value.get(), env));
        AssignTo(stmt->target.get(), std::move(updated), env);
        return Flow::kNormal;
      }
      case StmtKind::kIf: {
        const bool taken = Truthy(Eval(stmt->value.get(), env));
        if (self->observer_ != nullptr) self->observer_->OnBranch(stmt, taken);
        return ExecBlock(taken ? stmt->body : stmt->else_body, env);
      }
      // A loop left by `return` reports no trip count, as one left by an
      // error does not.
      case StmtKind::kWhile: {
        std::int64_t trips = 0;
        while (Truthy(Eval(stmt->value.get(), env))) {
          ++trips;
          const Flow flow = ExecBlock(stmt->body, env);
          if (flow == Flow::kReturn) return flow;
          if (flow == Flow::kBreak) break;
        }
        if (self->observer_ != nullptr) {
          self->observer_->OnLoopFinished(stmt, trips);
        }
        return Flow::kNormal;
      }
      case StmtKind::kFor: {
        const Value iterable = Eval(stmt->value.get(), env);
        const std::string& var = stmt->target->str_value;
        std::int64_t trips = 0;
        Flow flow = Flow::kNormal;
        // Runs one iteration; false once the loop is left.
        const auto run_iter = [&](Value item) {
          ++trips;
          env->Define(var, std::move(item));
          flow = ExecBlock(stmt->body, env);
          return flow != Flow::kReturn && flow != Flow::kBreak;
        };
        if (const auto* list =
                std::get_if<std::shared_ptr<ListValue>>(&iterable)) {
          const std::vector<Value> snapshot = (*list)->items;
          for (const Value& item : snapshot) {
            if (!run_iter(item)) break;
          }
        } else if (const auto* dict =
                       std::get_if<std::shared_ptr<DictValue>>(&iterable)) {
          for (const auto& [key, unused] : (*dict)->items) {
            const auto* s = std::get_if<std::string>(&key);
            if (!(s != nullptr ? run_iter(*s)
                               : run_iter(std::get<std::int64_t>(key)))) {
              break;
            }
          }
        } else if (const auto* tensor = std::get_if<Tensor>(&iterable)) {
          if (tensor->rank() < 1) {
            Fail(stmt->line, "cannot iterate a scalar tensor");
          }
          for (std::int64_t i = 0; i < tensor->dim(0); ++i) {
            if (!run_iter(TensorIndex(*tensor, i))) break;
          }
        } else {
          Fail(stmt->line, std::string("cannot iterate over ") +
                               ValueTypeName(iterable));
        }
        if (flow == Flow::kReturn) return flow;
        if (self->observer_ != nullptr) {
          self->observer_->OnLoopFinished(stmt, trips);
        }
        return Flow::kNormal;
      }
      case StmtKind::kDef: {
        auto fn = std::make_shared<FunctionValue>();
        fn->def = stmt;
        fn->closure = env;
        fn->qualified_name = stmt->name;
        RegisterClosureEnv(env);
        env->Define(stmt->name, std::move(fn));
        return Flow::kNormal;
      }
      case StmtKind::kClass: {
        auto cls = std::make_shared<ClassValue>();
        cls->name = stmt->name;
        cls->def = stmt;
        RegisterClosureEnv(env);
        for (const StmtPtr& method : stmt->methods) {
          auto fn = std::make_shared<FunctionValue>();
          fn->def = method.get();
          fn->closure = env;
          fn->qualified_name = stmt->name + "." + method->name;
          cls->methods[method->name] = std::move(fn);
        }
        env->Define(stmt->name, std::move(cls));
        return Flow::kNormal;
      }
      case StmtKind::kReturn:
        returned = stmt->value != nullptr ? Eval(stmt->value.get(), env)
                                          : Value{NoneType{}};
        return Flow::kReturn;
      case StmtKind::kPass:
        return Flow::kNormal;
      case StmtKind::kBreak:
        return Flow::kBreak;
      case StmtKind::kContinue:
        return Flow::kContinue;
      case StmtKind::kGlobal:
        for (const std::string& name : stmt->globals) {
          env->global_names.push_back(name);
        }
        return Flow::kNormal;
      case StmtKind::kRaise: {
        const std::string message =
            stmt->value != nullptr
                ? ValueToString(Eval(stmt->value.get(), env))
                : std::string("exception");
        throw MiniPyError(message);
      }
      // The finally block runs on every exit. If it ends in return, break
      // or continue, that replaces how the try ended, a pending error
      // included.
      case StmtKind::kTry: {
        const auto run_finally = [&] {
          if (stmt->finally_body.empty()) return Flow::kNormal;
          // The block may call functions; keep a pending return value.
          Value pending = std::move(returned);
          const Flow flow = ExecBlock(stmt->finally_body, env);
          if (flow == Flow::kNormal) returned = std::move(pending);
          return flow;
        };
        Flow flow = Flow::kNormal;
        try {
          flow = ExecBlock(stmt->body, env);
        } catch (const MiniPyError& e) {
          if (stmt->else_body.empty()) {
            if (const Flow exit = run_finally(); exit != Flow::kNormal) {
              return exit;
            }
            throw;
          }
          if (!stmt->except_name.empty()) {
            env->Define(stmt->except_name, std::string(e.what()));
          }
          try {
            flow = ExecBlock(stmt->else_body, env);
          } catch (...) {
            if (const Flow exit = run_finally(); exit != Flow::kNormal) {
              return exit;
            }
            throw;
          }
        } catch (...) {
          if (const Flow exit = run_finally(); exit != Flow::kNormal) {
            return exit;
          }
          throw;
        }
        const Flow exit = run_finally();
        return exit != Flow::kNormal ? exit : flow;
      }
    }
    throw InternalError("unhandled statement kind");
  }

  // ---- assignment targets ----

  void AssignTo(const Expr* target, Value value,
                const std::shared_ptr<Environment>& env) {
    switch (target->kind) {
      case ExprKind::kName: {
        const std::string& name = target->str_value;
        const bool is_global =
            std::find(env->global_names.begin(), env->global_names.end(),
                      name) != env->global_names.end();
        if (is_global) {
          globals->Define(name, std::move(value));
        } else {
          env->Define(name, std::move(value));
        }
        return;
      }
      case ExprKind::kAttribute: {
        const Value base = Eval(target->left.get(), env);
        if (const auto* obj =
                std::get_if<std::shared_ptr<ObjectValue>>(&base)) {
          (*obj)->attrs[target->str_value] = std::move(value);
          return;
        }
        Fail(target->line, std::string("cannot set attribute on ") +
                               ValueTypeName(base));
      }
      case ExprKind::kSubscript: {
        const Value base = Eval(target->left.get(), env);
        const Value index = Eval(target->right.get(), env);
        if (const auto* list =
                std::get_if<std::shared_ptr<ListValue>>(&base)) {
          const std::int64_t i = NormalizeIndex(
              index, static_cast<std::int64_t>((*list)->items.size()),
              target->line);
          (*list)->items[static_cast<std::size_t>(i)] = std::move(value);
          return;
        }
        if (const auto* dict =
                std::get_if<std::shared_ptr<DictValue>>(&base)) {
          (*dict)->items[ToDictKey(index, target->line)] = std::move(value);
          return;
        }
        Fail(target->line, std::string("cannot subscript-assign ") +
                               ValueTypeName(base));
      }
      case ExprKind::kTuple: {
        // Tuple unpacking from a list or tuple value.
        const auto* list = std::get_if<std::shared_ptr<ListValue>>(&value);
        if (list == nullptr ||
            (*list)->items.size() != target->elements.size()) {
          Fail(target->line, "cannot unpack value into tuple target");
        }
        for (std::size_t i = 0; i < target->elements.size(); ++i) {
          AssignTo(target->elements[i].get(), (*list)->items[i], env);
        }
        return;
      }
      default:
        Fail(target->line, "invalid assignment target");
    }
  }

  static std::int64_t NormalizeIndex(const Value& index, std::int64_t size,
                                     int line) {
    if (!Is<std::int64_t>(index)) {
      Fail(line, std::string("index must be int, got ") +
                     ValueTypeName(index));
    }
    std::int64_t i = std::get<std::int64_t>(index);
    if (i < 0) i += size;
    if (i < 0 || i >= size) {
      Fail(line, "index " + std::to_string(std::get<std::int64_t>(index)) +
                     " out of range (size " + std::to_string(size) + ")");
    }
    return i;
  }

  static DictKey ToDictKey(const Value& key, int line) {
    if (const auto* i = std::get_if<std::int64_t>(&key)) return *i;
    if (const auto* s = std::get_if<std::string>(&key)) return *s;
    Fail(line, std::string("dict keys must be int or str, got ") +
                   ValueTypeName(key));
  }

  // Tensor indexing along axis 0 (drops the axis), via eager ops so the
  // tape can differentiate through it.
  Value TensorIndex(const Tensor& t, std::int64_t i) {
    std::vector<std::int64_t> begin(static_cast<std::size_t>(t.rank()), 0);
    begin[0] = i;
    std::vector<std::int64_t> size = t.shape().dims();
    size[0] = 1;
    Tensor row = self->eager_.Execute(
        "Slice", {t}, {{"begin", begin}, {"size", size}});
    std::vector<std::int64_t> dims(t.shape().dims().begin() + 1,
                                   t.shape().dims().end());
    return self->eager_.Execute("Reshape", {row}, {{"shape", dims}});
  }

  // ---- expressions ----

  Value Eval(const Expr* expr, const std::shared_ptr<Environment>& env) {
    switch (expr->kind) {
      case ExprKind::kIntLit:
        return expr->int_value;
      case ExprKind::kFloatLit:
        return expr->float_value;
      case ExprKind::kStringLit:
        return expr->str_value;
      case ExprKind::kBoolLit:
        return expr->bool_value;
      case ExprKind::kNoneLit:
        return NoneType{};
      case ExprKind::kName: {
        Value* found = env->Find(expr->str_value);
        if (found == nullptr) {
          Fail(expr->line, "name '" + expr->str_value + "' is not defined");
        }
        return *found;
      }
      case ExprKind::kUnary: {
        Value operand = Eval(expr->left.get(), env);
        if (expr->unary_op == UnaryOp::kNot) return !Truthy(operand);
        // Negation.
        if (const auto* i = std::get_if<std::int64_t>(&operand)) return -*i;
        if (const auto* d = std::get_if<double>(&operand)) return -*d;
        if (IsTensorish(operand)) {
          return self->eager_.Execute("Neg", {self->ToTensor(operand)});
        }
        Fail(expr->line, std::string("cannot negate ") +
                             ValueTypeName(operand));
      }
      case ExprKind::kBinary:
        return self->BinaryOperation(expr->binary_op,
                                     Eval(expr->left.get(), env),
                                     Eval(expr->right.get(), env));
      case ExprKind::kCompare:
        return self->CompareOperation(expr->compare_op,
                                      Eval(expr->left.get(), env),
                                      Eval(expr->right.get(), env));
      case ExprKind::kBoolOp: {
        Value left = Eval(expr->left.get(), env);
        if (expr->bool_op == BoolOpKind::kAnd) {
          return Truthy(left) ? Eval(expr->right.get(), env) : left;
        }
        return Truthy(left) ? left : Eval(expr->right.get(), env);
      }
      case ExprKind::kCall: {
        const Value callee = Eval(expr->left.get(), env);
        std::vector<Value> args;
        args.reserve(expr->elements.size());
        for (const ExprPtr& arg : expr->elements) {
          args.push_back(Eval(arg.get(), env));
        }
        return self->CallValue(callee, std::move(args), expr);
      }
      case ExprKind::kAttribute:
        return EvalAttribute(expr, env);
      case ExprKind::kSubscript: {
        const Value base = Eval(expr->left.get(), env);
        const Value index = Eval(expr->right.get(), env);
        Value result = SubscriptGet(base, index, expr->line);
        if (self->observer_ != nullptr) {
          self->observer_->OnSubscrLoad(expr, base, result);
        }
        return result;
      }
      case ExprKind::kList:
      case ExprKind::kTuple: {
        auto list = self->MakeList();
        list->items.reserve(expr->elements.size());
        for (const ExprPtr& element : expr->elements) {
          list->items.push_back(Eval(element.get(), env));
        }
        return list;
      }
      case ExprKind::kDict: {
        auto dict = self->MakeDict();
        for (std::size_t i = 0; i < expr->elements.size(); ++i) {
          dict->items[ToDictKey(Eval(expr->elements[i].get(), env),
                                expr->line)] =
              Eval(expr->values[i].get(), env);
        }
        return dict;
      }
      case ExprKind::kLambda: {
        auto fn = std::make_shared<FunctionValue>();
        fn->def = nullptr;
        fn->closure = env;
        fn->qualified_name = "<lambda>";
        fn->lambda = expr;
        RegisterClosureEnv(env);
        return fn;
      }
    }
    throw InternalError("unhandled expression kind");
  }

  Value EvalAttribute(const Expr* expr,
                      const std::shared_ptr<Environment>& env) {
    const Value base = Eval(expr->left.get(), env);
    const std::string& name = expr->str_value;
    Value result;
    if (const auto* obj = std::get_if<std::shared_ptr<ObjectValue>>(&base)) {
      const auto attr_it = (*obj)->attrs.find(name);
      if (attr_it != (*obj)->attrs.end()) {
        result = attr_it->second;
      } else {
        const auto method_it = (*obj)->cls()->methods.find(name);
        if (method_it == (*obj)->cls()->methods.end()) {
          Fail(expr->line, "'" + (*obj)->cls()->name +
                               "' object has no attribute '" + name + "'");
        }
        auto bound = std::make_shared<FunctionValue>(*method_it->second);
        bound->self = base;
        result = std::move(bound);
      }
    } else if (const auto* list =
                   std::get_if<std::shared_ptr<ListValue>>(&base)) {
      if (name == "append") {
        auto target = *list;
        result = std::make_shared<BuiltinFunction>(
            "list.append",
            [target](Interpreter&, std::span<Value> args) -> Value {
              if (args.size() != 1) {
                throw MiniPyError("append() takes exactly one argument");
              }
              target->items.push_back(args[0]);
              return NoneType{};
            });
      } else {
        Fail(expr->line, "list has no attribute '" + name + "'");
      }
    } else if (const auto* tensor = std::get_if<Tensor>(&base)) {
      if (name == "shape") {
        auto dims = self->MakeList();
        for (const std::int64_t d : tensor->shape().dims()) {
          dims->items.push_back(d);
        }
        result = std::move(dims);
      } else {
        Fail(expr->line, "tensor has no attribute '" + name + "'");
      }
    } else {
      Fail(expr->line, std::string("cannot read attribute of ") +
                           ValueTypeName(base));
    }
    if (self->observer_ != nullptr) {
      self->observer_->OnAttrLoad(expr, base, result);
    }
    return result;
  }

  Value SubscriptGet(const Value& base, const Value& index, int line) {
    if (const auto* list = std::get_if<std::shared_ptr<ListValue>>(&base)) {
      const std::int64_t i = NormalizeIndex(
          index, static_cast<std::int64_t>((*list)->items.size()), line);
      return (*list)->items[static_cast<std::size_t>(i)];
    }
    if (const auto* dict = std::get_if<std::shared_ptr<DictValue>>(&base)) {
      const DictKey key = ToDictKey(index, line);
      const auto it = (*dict)->items.find(key);
      if (it == (*dict)->items.end()) Fail(line, "missing dict key");
      return it->second;
    }
    if (const auto* tensor = std::get_if<Tensor>(&base)) {
      if (!Is<std::int64_t>(index)) {
        Fail(line, "tensor index must be an int");
      }
      const std::int64_t i =
          NormalizeIndex(index, tensor->dim(0), line);
      return TensorIndex(*tensor, i);
    }
    if (const auto* s = std::get_if<std::string>(&base)) {
      const std::int64_t i =
          NormalizeIndex(index, static_cast<std::int64_t>(s->size()), line);
      return std::string(1, (*s)[static_cast<std::size_t>(i)]);
    }
    Fail(line, std::string("cannot subscript ") + ValueTypeName(base));
  }

  // Sweep expired heap entries occasionally so long runs do not accumulate.
  void MaybeSweepHeap() {
    if (heap.size() < 4096 || next_heap_id % 4096 != 0) return;
    std::erase_if(heap, [](const auto& entry) {
      return std::visit([](const auto& weak) { return weak.expired(); },
                        entry.second);
    });
  }
};

Interpreter::Interpreter(VariableStore* variables, Rng* rng)
    : impl_(std::make_unique<Impl>()),
      variables_(variables),
      rng_(rng),
      eager_(variables, rng) {
  impl_->self = this;
}

Interpreter::~Interpreter() {
  // Sever reference cycles so the interpreter's object graph is actually
  // reclaimed. Three cycle families exist: environment -> FunctionValue ->
  // closure environment; object/list/dict values reachable from themselves
  // through attrs/items; and combinations of the two. The heap registry and
  // closure_envs both hold weak pointers, so everything still alive here is
  // alive only because of such a cycle (or an external reference, for which
  // clearing the contents is still safe — the value itself stays valid).
  for (const std::weak_ptr<Environment>& weak : impl_->closure_envs) {
    if (const std::shared_ptr<Environment> env = weak.lock()) env->Clear();
  }
  impl_->globals->Clear();
  for (auto& entry : impl_->heap) {
    std::visit(
        [](auto& weak) {
          using T = typename std::decay_t<decltype(weak)>::element_type;
          if (const std::shared_ptr<T> value = weak.lock()) {
            if constexpr (std::is_same_v<T, ObjectValue>) {
              value->attrs.clear();
            } else {
              value->items.clear();
            }
          }
        },
        entry.second);
  }
}

void Interpreter::Run(const std::string& source) {
  impl_->ExecBlock(impl_->ParseOnce(source).body, impl_->globals);
}

Value Interpreter::GetGlobal(const std::string& name) const {
  Value* found = impl_->globals->Find(name);
  if (found == nullptr) {
    throw InvalidArgument("global '" + name + "' is not defined");
  }
  return *found;
}

void Interpreter::SetGlobal(const std::string& name, Value value) {
  impl_->globals->Define(name, std::move(value));
}

Value Interpreter::CallFunction(const std::shared_ptr<FunctionValue>& fn,
                                std::vector<Value> args) {
  if (interceptor_ != nullptr) {
    Value result;
    if (interceptor_->MaybeIntercept(fn, args, &result)) return result;
  }
  // Bound receiver goes first.
  if (!Is<NoneType>(fn->self)) {
    args.insert(args.begin(), fn->self);
  }
  auto env = std::make_shared<Environment>(
      fn->closure != nullptr ? fn->closure : impl_->globals);
  // Track the qualified-name call stack so ExecStmt can stamp provenance;
  // the guard survives MiniPyError unwinding.
  struct FnNameGuard {
    std::vector<std::string>* stack;
    explicit FnNameGuard(std::vector<std::string>* s, std::string name)
        : stack(s) {
      stack->push_back(std::move(name));
    }
    ~FnNameGuard() { stack->pop_back(); }
  };
  FnNameGuard name_guard(&impl_->fn_name_stack, fn->qualified_name);
  if (fn->lambda != nullptr) {
    if (args.size() != fn->lambda->params.size()) {
      throw MiniPyError(fn->qualified_name + "() takes " +
                        std::to_string(fn->lambda->params.size()) +
                        " arguments, got " + std::to_string(args.size()));
    }
    for (std::size_t i = 0; i < args.size(); ++i) {
      env->Define(fn->lambda->params[i], std::move(args[i]));
    }
    // Lambda bodies are single expressions with no statement scope of their
    // own; attribute their nodes to the lambda itself.
    SourceSiteScope lambda_scope(fn->qualified_name, fn->lambda->line);
    return impl_->Eval(fn->lambda->left.get(), env);
  }
  const Stmt* def = fn->def;
  if (args.size() != def->params.size()) {
    throw MiniPyError(fn->qualified_name + "() takes " +
                      std::to_string(def->params.size()) +
                      " arguments, got " + std::to_string(args.size()));
  }
  if (observer_ != nullptr) observer_->OnFunctionEntry(def, args);
  for (std::size_t i = 0; i < args.size(); ++i) {
    env->Define(def->params[i], std::move(args[i]));
  }
  if (impl_->ExecBlock(def->body, env) == Flow::kReturn) {
    return std::exchange(impl_->returned, Value{NoneType{}});
  }
  return NoneType{};
}

Value Interpreter::CallValue(const Value& callee, std::vector<Value> args,
                             const Expr* call_site) {
  if (observer_ != nullptr && call_site != nullptr) {
    observer_->OnCall(call_site, callee);
  }
  if (const auto* fn = std::get_if<std::shared_ptr<FunctionValue>>(&callee)) {
    return CallFunction(*fn, std::move(args));
  }
  if (const auto* builtin =
          std::get_if<std::shared_ptr<BuiltinFunction>>(&callee)) {
    return (*builtin)->fn(*this, args);
  }
  if (const auto* cls = std::get_if<std::shared_ptr<ClassValue>>(&callee)) {
    auto object = MakeObject(*cls);
    const auto init = (*cls)->methods.find("__init__");
    if (init != (*cls)->methods.end()) {
      auto bound = std::make_shared<FunctionValue>(*init->second);
      bound->self = object;
      CallFunction(bound, std::move(args));
    } else if (!args.empty()) {
      throw MiniPyError((*cls)->name + "() takes no arguments");
    }
    return object;
  }
  if (const auto* obj = std::get_if<std::shared_ptr<ObjectValue>>(&callee)) {
    // Callable objects via __call__.
    const auto call = (*obj)->cls()->methods.find("__call__");
    if (call != (*obj)->cls()->methods.end()) {
      auto bound = std::make_shared<FunctionValue>(*call->second);
      bound->self = callee;
      return CallFunction(bound, std::move(args));
    }
  }
  throw MiniPyError(std::string("value of type ") + ValueTypeName(callee) +
                    " is not callable");
}

Value Interpreter::EvaluateExpression(const std::string& expression_source) {
  const Module& module = impl_->ParseOnce(expression_source + "\n");
  if (module.body.size() != 1 || module.body[0]->kind != StmtKind::kExpr) {
    throw InvalidArgument("EvaluateExpression expects a single expression");
  }
  return impl_->Eval(module.body[0]->value.get(), impl_->globals);
}

Value Interpreter::HeapLookup(std::int64_t heap_id) const {
  const auto it = impl_->heap.find(heap_id);
  if (it == impl_->heap.end()) {
    throw InternalError("dangling heap id " + std::to_string(heap_id));
  }
  return std::visit(
      [heap_id](const auto& weak) -> Value {
        auto strong = weak.lock();
        if (strong == nullptr) {
          throw InternalError("expired heap id " + std::to_string(heap_id));
        }
        return strong;
      },
      it->second);
}

std::int64_t Interpreter::NextHeapId() { return impl_->next_heap_id++; }

void Interpreter::RegisterHeapValue(std::int64_t id, Value value) {
  if (const auto* list = std::get_if<std::shared_ptr<ListValue>>(&value)) {
    impl_->heap[id] = std::weak_ptr<ListValue>(*list);
  } else if (const auto* dict =
                 std::get_if<std::shared_ptr<DictValue>>(&value)) {
    impl_->heap[id] = std::weak_ptr<DictValue>(*dict);
  } else if (const auto* obj =
                 std::get_if<std::shared_ptr<ObjectValue>>(&value)) {
    impl_->heap[id] = std::weak_ptr<ObjectValue>(*obj);
  } else {
    throw InternalError("only heap values can be registered");
  }
  impl_->MaybeSweepHeap();
}

std::shared_ptr<ListValue> Interpreter::MakeList(std::vector<Value> items) {
  auto list = std::make_shared<ListValue>(NextHeapId());
  list->items = std::move(items);
  RegisterHeapValue(list->heap_id(), list);
  return list;
}

std::shared_ptr<DictValue> Interpreter::MakeDict() {
  auto dict = std::make_shared<DictValue>(NextHeapId());
  RegisterHeapValue(dict->heap_id(), dict);
  return dict;
}

std::shared_ptr<ObjectValue> Interpreter::MakeObject(
    std::shared_ptr<ClassValue> cls) {
  auto object = std::make_shared<ObjectValue>(NextHeapId(), std::move(cls));
  RegisterHeapValue(object->heap_id(), object);
  return object;
}

void Interpreter::RegisterBuiltin(const std::string& name,
                                  BuiltinFunction::Fn fn) {
  impl_->globals->Define(
      name, std::make_shared<BuiltinFunction>(name, std::move(fn)));
}

Tensor Interpreter::ToTensor(const Value& value) {
  if (const auto* tensor = std::get_if<Tensor>(&value)) return *tensor;
  if (const auto* var = std::get_if<VariableRef>(&value)) {
    return eager_.ReadVariable(var->name);
  }
  if (const auto* i = std::get_if<std::int64_t>(&value)) {
    return Tensor::ScalarInt(*i);
  }
  if (const auto* d = std::get_if<double>(&value)) {
    return Tensor::Scalar(static_cast<float>(*d));
  }
  if (const auto* b = std::get_if<bool>(&value)) {
    return Tensor::ScalarBool(*b);
  }
  throw MiniPyError(std::string("cannot convert ") + ValueTypeName(value) +
                    " to a tensor");
}

namespace {

// Aligns two tensors' dtypes for a binary op (int promotes to float when
// mixed; bool promotes to int for arithmetic).
void AlignDTypes(EagerContext& eager, Tensor& a, Tensor& b, bool arithmetic) {
  const auto cast = [&eager](Tensor& t, DType dtype) {
    t = eager.Execute("Cast", {t}, {{"dtype", dtype}});
  };
  if (arithmetic) {
    if (a.dtype() == DType::kBool) cast(a, DType::kInt64);
    if (b.dtype() == DType::kBool) cast(b, DType::kInt64);
  }
  if (a.dtype() == b.dtype()) return;
  if (a.dtype() == DType::kFloat32 || b.dtype() == DType::kFloat32) {
    if (a.dtype() != DType::kFloat32) cast(a, DType::kFloat32);
    if (b.dtype() != DType::kFloat32) cast(b, DType::kFloat32);
    return;
  }
  if (a.dtype() == DType::kInt64 || b.dtype() == DType::kInt64) {
    if (a.dtype() != DType::kInt64) cast(a, DType::kInt64);
    if (b.dtype() != DType::kInt64) cast(b, DType::kInt64);
  }
}

}  // namespace

Value Interpreter::BinaryOperation(BinaryOp op, const Value& lhs,
                                   const Value& rhs) {
  // Tensor path (either operand a tensor or variable).
  if (IsTensorish(lhs) || IsTensorish(rhs)) {
    Tensor a = ToTensor(lhs);
    Tensor b = ToTensor(rhs);
    AlignDTypes(eager_, a, b, /*arithmetic=*/true);
    return eager_.Execute(BinaryOpName(op), {std::move(a), std::move(b)});
  }
  // Pure-int path (bools act as ints).
  const auto as_int = [](const Value& v) -> std::optional<std::int64_t> {
    if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
    if (const auto* b = std::get_if<bool>(&v)) {
      return *b ? std::int64_t{1} : std::int64_t{0};
    }
    return std::nullopt;
  };
  const auto li = as_int(lhs);
  const auto ri = as_int(rhs);
  if (li.has_value() && ri.has_value()) {
    switch (op) {
      case BinaryOp::kAdd: return *li + *ri;
      case BinaryOp::kSub: return *li - *ri;
      case BinaryOp::kMul: return *li * *ri;
      case BinaryOp::kDiv:
        if (*ri == 0) throw MiniPyError("division by zero");
        return static_cast<double>(*li) / static_cast<double>(*ri);
      case BinaryOp::kFloorDiv: {
        if (*ri == 0) throw MiniPyError("integer division by zero");
        std::int64_t q = *li / *ri;
        if ((*li % *ri != 0) && ((*li < 0) != (*ri < 0))) --q;
        return q;
      }
      case BinaryOp::kMod: {
        if (*ri == 0) throw MiniPyError("integer modulo by zero");
        std::int64_t r = *li % *ri;
        if (r != 0 && ((r < 0) != (*ri < 0))) r += *ri;
        return r;
      }
      case BinaryOp::kPow: {
        if (*ri < 0) {
          return std::pow(static_cast<double>(*li),
                          static_cast<double>(*ri));
        }
        std::int64_t result = 1;
        for (std::int64_t k = 0; k < *ri; ++k) result *= *li;
        return result;
      }
    }
  }
  // Float path.
  if (IsNumeric(lhs) && IsNumeric(rhs)) {
    const double a = AsDouble(lhs);
    const double b = AsDouble(rhs);
    switch (op) {
      case BinaryOp::kAdd: return a + b;
      case BinaryOp::kSub: return a - b;
      case BinaryOp::kMul: return a * b;
      case BinaryOp::kDiv:
        if (b == 0.0) throw MiniPyError("division by zero");
        return a / b;
      case BinaryOp::kFloorDiv: return std::floor(a / b);
      case BinaryOp::kMod: return a - b * std::floor(a / b);
      case BinaryOp::kPow: return std::pow(a, b);
    }
  }
  // String concatenation / repetition.
  if (Is<std::string>(lhs) && Is<std::string>(rhs) && op == BinaryOp::kAdd) {
    return std::get<std::string>(lhs) + std::get<std::string>(rhs);
  }
  // List concatenation.
  if (Is<std::shared_ptr<ListValue>>(lhs) &&
      Is<std::shared_ptr<ListValue>>(rhs) && op == BinaryOp::kAdd) {
    auto result = MakeList(std::get<std::shared_ptr<ListValue>>(lhs)->items);
    const auto& right = std::get<std::shared_ptr<ListValue>>(rhs)->items;
    result->items.insert(result->items.end(), right.begin(), right.end());
    return result;
  }
  throw MiniPyError(std::string("unsupported operand types for ") +
                    BinaryOpName(op) + ": " + ValueTypeName(lhs) + " and " +
                    ValueTypeName(rhs));
}

Value Interpreter::CompareOperation(CompareOp op, const Value& lhs,
                                    const Value& rhs) {
  if (op == CompareOp::kIn) {
    if (const auto* list = std::get_if<std::shared_ptr<ListValue>>(&rhs)) {
      for (const Value& item : (*list)->items) {
        if (ValuesEqual(lhs, item)) return true;
      }
      return false;
    }
    if (const auto* dict = std::get_if<std::shared_ptr<DictValue>>(&rhs)) {
      return (*dict)->items.count(Impl::ToDictKey(lhs, 0)) != 0u;
    }
    throw MiniPyError("'in' requires a list or dict on the right");
  }
  if (IsTensorish(lhs) || IsTensorish(rhs)) {
    Tensor a = ToTensor(lhs);
    Tensor b = ToTensor(rhs);
    AlignDTypes(eager_, a, b, /*arithmetic=*/false);
    return eager_.Execute(CompareOpName(op), {std::move(a), std::move(b)});
  }
  if (IsNumeric(lhs) && IsNumeric(rhs)) {
    const double a = AsDouble(lhs);
    const double b = AsDouble(rhs);
    switch (op) {
      case CompareOp::kEq: return a == b;
      case CompareOp::kNe: return a != b;
      case CompareOp::kLt: return a < b;
      case CompareOp::kLe: return a <= b;
      case CompareOp::kGt: return a > b;
      case CompareOp::kGe: return a >= b;
      case CompareOp::kIn: break;
    }
  }
  if (Is<std::string>(lhs) && Is<std::string>(rhs)) {
    const auto& a = std::get<std::string>(lhs);
    const auto& b = std::get<std::string>(rhs);
    switch (op) {
      case CompareOp::kEq: return a == b;
      case CompareOp::kNe: return a != b;
      case CompareOp::kLt: return a < b;
      case CompareOp::kLe: return a <= b;
      case CompareOp::kGt: return a > b;
      case CompareOp::kGe: return a >= b;
      case CompareOp::kIn: break;
    }
  }
  if (op == CompareOp::kEq) return ValuesEqual(lhs, rhs);
  if (op == CompareOp::kNe) return !ValuesEqual(lhs, rhs);
  throw MiniPyError(std::string("cannot compare ") + ValueTypeName(lhs) +
                    " and " + ValueTypeName(rhs));
}

}  // namespace janus::minipy
