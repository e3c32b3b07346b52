#include "core/generator.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "autodiff/gradients.h"
#include "common/stack.h"
#include "core/host_state.h"
#include "frontend/builtins.h"
#include "opt/passes.h"
#include "tensor/elementwise.h"

namespace janus {
namespace {

using minipy::BinaryOp;
using minipy::BoolOpKind;
using minipy::CompareOp;
using minipy::Expr;
using minipy::ExprKind;
using minipy::Flow;
using minipy::Stmt;
using minipy::StmtKind;
using minipy::UnaryOp;
using minipy::Value;

[[noreturn]] void Refuse(const std::string& why) { throw NotConvertible(why); }

// Runs builtin-table code (an arity check, attr decoder or implementation)
// at generation time. Whatever it raises, the interpreter raises on the
// same call, so the call is refused and the imperative run raises it.
template <typename F>
auto RefuseOnError(F&& f) -> decltype(f()) {
  try {
    return f();
  } catch (const Error& error) {
    Refuse(error.what());
  }
}

// ---------------------------------------------------------------------------
// Symbolic values
// ---------------------------------------------------------------------------

struct SymValue {
  enum class Kind { kStatic, kNode, kList };
  Kind kind = Kind::kStatic;

  // kStatic
  Value static_value{minipy::NoneType{}};
  std::optional<ContextRef> origin;  // provenance for entry checks

  // kNode
  NodeOutput node{};
  Graph* owner = nullptr;
  DType dtype = DType::kFloat32;
  bool is_pointer = false;
  ShapeAssumption shape = ShapeAssumption::Unknown();

  // kList (shared for aliasing: two names bound to one list see mutations)
  std::shared_ptr<std::vector<SymValue>> elements;

  static SymValue Static(Value v, std::optional<ContextRef> origin = {}) {
    SymValue s;
    s.kind = Kind::kStatic;
    s.static_value = std::move(v);
    s.origin = std::move(origin);
    return s;
  }
  static SymValue OfNode(NodeOutput n, Graph* g, DType dt,
                         bool pointer = false,
                         ShapeAssumption sh = ShapeAssumption::Unknown()) {
    SymValue s;
    s.kind = Kind::kNode;
    s.node = n;
    s.owner = g;
    s.dtype = dt;
    s.is_pointer = pointer;
    s.shape = std::move(sh);
    return s;
  }
  static SymValue List(std::vector<SymValue> items) {
    SymValue s;
    s.kind = Kind::kList;
    s.elements =
        std::make_shared<std::vector<SymValue>>(std::move(items));
    return s;
  }

  bool IsStatic() const { return kind == Kind::kStatic; }
  bool IsNode() const { return kind == Kind::kNode; }
  bool IsList() const { return kind == Kind::kList; }

  // Shallow identity, used to detect branch-local rebinding: a static value
  // rebound to 2.0 from 2, or to -0.0 from 0.0, has changed.
  bool SameAs(const SymValue& other) const {
    if (kind != other.kind) return false;
    switch (kind) {
      case Kind::kNode:
        return node == other.node;
      case Kind::kList:
        return elements == other.elements;
      case Kind::kStatic:
        return minipy::ValuesIdentical(static_value, other.static_value);
    }
    return false;
  }
};

// Whether two call arguments select the same generated function: a node
// by its dtype and pointer flag, a static value exactly. A node's shape
// stays out, as the function's Params bind the first caller's. A list
// matches nothing: generated functions refuse list arguments.
bool SameFunctionArg(const SymValue& a, const SymValue& b) {
  if (a.kind != b.kind || a.IsList()) return false;
  if (a.IsNode()) return a.dtype == b.dtype && a.is_pointer == b.is_pointer;
  return minipy::ValuesIdentical(a.static_value, b.static_value);
}

// ---------------------------------------------------------------------------
// Frames and scopes
// ---------------------------------------------------------------------------

// A gate marks "we are generating inside a dynamic branch": values produced
// before `watermark` must pass through Switch(value, cond) side `side`.
struct Gate {
  NodeOutput cond;
  bool side;
  int watermark;  // node ids below this existed before the branch
};

struct Frame {
  Graph* graph = nullptr;
  Frame* parent = nullptr;
  // Function frames import root-graph values through appended Params.
  GraphFunction* fn = nullptr;
  std::map<std::pair<Node*, int>, NodeOutput> imports;
  std::vector<NodeOutput> import_sources;  // values in parent frame's graph
  // Dynamic-branch gates (innermost last).
  std::vector<Gate> gates;
  std::map<std::tuple<Node*, int, bool>, NodeOutput> gate_cache;
  // State-op ordering: (heap id, attr or "[i]") -> last read/write node.
  std::map<std::pair<std::int64_t, std::string>, Node*> last_state_write;
  std::map<std::pair<std::int64_t, std::string>, std::vector<Node*>>
      readers_since_write;
  // Side-effecting / assertion nodes that must be anchored to the fetches.
  std::vector<Node*> side_nodes;
};

struct Scope {
  std::map<std::string, SymValue> vars;
  Scope* parent = nullptr;  // enclosing symbolic scope (loop bodies)
  // Real environment for closure captures (function scopes only).
  std::shared_ptr<minipy::Environment> closure;
  std::set<std::string> global_names;

  SymValue* Find(const std::string& name) {
    const auto it = vars.find(name);
    if (it != vars.end()) return &it->second;
    if (parent != nullptr) return parent->Find(name);
    return nullptr;
  }
  // The closure environment of the nearest function scope.
  std::shared_ptr<minipy::Environment> ClosureEnv() {
    Scope* s = this;
    while (s != nullptr && s->closure == nullptr) s = s->parent;
    return s != nullptr ? s->closure : nullptr;
  }
};

// The statement that ended a block in `flow`, as refusals name it.
std::string FlowStatement(Flow flow) {
  JANUS_EXPECTS(flow != Flow::kNormal);
  return flow == Flow::kReturn  ? "'return'"
         : flow == Flow::kBreak ? "'break'"
                                : "'continue'";
}

// Syntactically collects names assigned anywhere in a statement list
// (loop-carried variable analysis).
void CollectAssigned(const std::vector<minipy::StmtPtr>& body,
                     std::set<std::string>* out) {
  for (const auto& stmt : body) {
    switch (stmt->kind) {
      case StmtKind::kAssign:
      case StmtKind::kAugAssign:
        if (stmt->target->kind == ExprKind::kName) {
          out->insert(stmt->target->str_value);
        } else if (stmt->target->kind == ExprKind::kTuple) {
          for (const auto& el : stmt->target->elements) {
            if (el->kind == ExprKind::kName) out->insert(el->str_value);
          }
        }
        break;
      case StmtKind::kFor:
        out->insert(stmt->target->str_value);
        CollectAssigned(stmt->body, out);
        break;
      case StmtKind::kIf:
        CollectAssigned(stmt->body, out);
        CollectAssigned(stmt->else_body, out);
        break;
      case StmtKind::kWhile:
        CollectAssigned(stmt->body, out);
        break;
      default:
        break;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Generator implementation
// ---------------------------------------------------------------------------

struct GraphGenerator::Impl {
  minipy::Interpreter* interp;
  Profiler* prof;
  GeneratorOptions opt;
  GraphGenerator::CompileHints hints;  // per-compilation ladder hints

  CompiledGraph* out = nullptr;
  Frame* root = nullptr;
  std::span<const Value> root_args;
  std::int64_t budget = 0;
  int depth = 0;

  // Root-graph ReadVariable nodes, one per variable name.
  std::map<std::string, NodeOutput> variable_reads;
  // A self-recursive Invoke site awaiting its callee's import list, with
  // the dynamic-branch gates that were active where the site sits (appended
  // inputs must be gated identically or dead/live tokens mismatch).
  struct PendingSite {
    Node* site;
    Graph* graph;
    std::vector<Gate> gates;
  };
  // A generated GraphFunction (the Invoke path), keyed by its callee's def
  // or lambda and its arguments compared by SameFunctionArg.
  struct GeneratedFunction {
    const void* callee = nullptr;
    std::vector<SymValue> args;
    std::string name;
    // While its body is generated, a call with the same key is recursive:
    // its Invoke site waits in `pending_sites` for the import list.
    bool generating = true;
    std::vector<PendingSite> pending_sites;
    // Once generated: the root-graph values it imports, and its result.
    std::vector<NodeOutput> import_sources;
    DType result_dtype = DType::kFloat32;
  };
  // The one function table of a compilation. A deque, so a record stays
  // put while generating its body adds others.
  std::deque<GeneratedFunction> functions;
  std::set<std::string> entry_check_seen;
  // The value of the `return` whose Flow::kReturn is propagating to the
  // code that runs the function body or joins a data-dependent branch.
  SymValue returned;
  // Functions currently being inlined (recursion through inlining is
  // rerouted to InvokeOp).
  std::vector<const void*> inline_stack;
  // Tracing semantics: trace-local attribute bindings. A traced write is
  // visible to later reads *within the trace* (as in TF defun, where the
  // Python assignment stores the symbolic tensor) but never propagates
  // across calls.
  std::map<std::pair<std::int64_t, std::string>, SymValue> trace_attrs;
  int fresh_counter = 0;
  // Qualified names of the imperative functions currently being converted,
  // innermost last. ExecStmt stamps each statement's SourceSiteScope with
  // the innermost name so nodes created for inlined callees attribute to
  // the callee's own source, not the call site.
  std::vector<std::string> fn_name_stack;

  // ---- small helpers ----

  const std::string& CurrentFunctionName() const {
    static const std::string kEmpty;
    return fn_name_stack.empty() ? kEmpty : fn_name_stack.back();
  }

  struct FnNameGuard {
    std::vector<std::string>* stack;
    ~FnNameGuard() { stack->pop_back(); }
  };

  void SpendBudget(std::int64_t amount = 1) {
    budget -= amount;
    if (budget < 0) Refuse("static expansion budget exceeded");
  }

  std::string Fresh(const std::string& base) {
    return base + "_" + std::to_string(fresh_counter++);
  }

  // Whether we may speculate on this assumption. Assertion emission is a
  // separate concern: with insert_assertions off (tracing baseline,
  // §6.3.1's overhead measurement) speculation proceeds unguarded.
  bool AssumptionUsable(const std::string& id) const {
    return !prof->HasFailed(id);
  }

  // Applies active dynamic-branch gates to a value consumed inside them.
  // Values created before the branch (id < watermark) need gating; so do
  // context sources materialised on demand *inside* the branch (import
  // Params, ReadVariable, Placeholders) — they are semantically
  // pre-existing, and ungated uses would leak ungated (dead) gradient
  // contributions out of the branch.
  NodeOutput ApplyGates(Frame& frame, NodeOutput v) {
    const std::string& producer_op = v.node->op();
    const bool always_gate = producer_op == "Param" ||
                             producer_op == "Placeholder" ||
                             producer_op == "ReadVariable";
    for (Gate& gate : frame.gates) {
      if (!always_gate && v.node->id() >= gate.watermark) continue;
      const auto key = std::make_tuple(v.node, v.index, gate.side);
      auto it = frame.gate_cache.find(key);
      if (it == frame.gate_cache.end()) {
        Node* sw = frame.graph->AddNode("Switch", {v, gate.cond}, {}, 2);
        it = frame.gate_cache
                 .emplace(key, NodeOutput{sw, gate.side ? 1 : 0})
                 .first;
      }
      v = it->second;
    }
    return v;
  }

  Node* AddOp(Frame& frame, const std::string& op,
              std::vector<NodeOutput> inputs, AttrMap attrs = {},
              int num_outputs = 1) {
    for (NodeOutput& input : inputs) input = ApplyGates(frame, input);
    return frame.graph->AddNode(op, std::move(inputs), std::move(attrs),
                                num_outputs);
  }

  // Brings a node value produced in an outer frame into `frame` (function
  // frames import via appended Params; see header design notes).
  NodeOutput ImportValue(Frame& frame, const SymValue& sym) {
    JANUS_EXPECTS(sym.IsNode());
    if (sym.owner == frame.graph) return sym.node;
    if (frame.parent == nullptr) {
      throw InternalError("value from unrelated graph reached root frame");
    }
    // Ensure the value is available in the parent frame first.
    SymValue parent_sym = sym;
    const NodeOutput in_parent = ImportValue(*frame.parent, sym);
    const auto key = std::make_pair(in_parent.node, in_parent.index);
    const auto it = frame.imports.find(key);
    if (it != frame.imports.end()) return it->second;
    JANUS_EXPECTS(frame.fn != nullptr);
    Node* param = frame.graph->AddNode(
        "Param", {},
        {{"index",
          static_cast<std::int64_t>(frame.fn->parameters.size())}});
    frame.fn->parameters.push_back(param);
    frame.import_sources.push_back(in_parent);
    frame.imports.emplace(key, NodeOutput{param, 0});
    return {param, 0};
  }

  // Materialises a symbolic value as a node in `frame`. `want` requests a
  // dtype for static numerics (alignment with a tensor operand).
  NodeOutput ToNode(Frame& frame, const SymValue& sym,
                    std::optional<DType> want = std::nullopt,
                    DType* out_dtype = nullptr, bool* out_pointer = nullptr) {
    const auto set_meta = [&](DType dt, bool ptr) {
      if (out_dtype != nullptr) *out_dtype = dt;
      if (out_pointer != nullptr) *out_pointer = ptr;
    };
    if (sym.IsNode()) {
      set_meta(sym.dtype, sym.is_pointer);
      return ApplyGates(frame, ImportValue(frame, sym));
    }
    if (sym.IsList()) Refuse("a list has no tensor representation here");
    const Value& v = sym.static_value;
    Tensor t;
    bool pointer = false;
    if (const auto* i = std::get_if<std::int64_t>(&v)) {
      t = (want == DType::kFloat32)
              ? Tensor::Scalar(static_cast<float>(*i))
              : Tensor::ScalarInt(*i);
    } else if (const auto* d = std::get_if<double>(&v)) {
      t = Tensor::Scalar(static_cast<float>(*d));
    } else if (const auto* b = std::get_if<bool>(&v)) {
      t = (want == DType::kFloat32)
              ? Tensor::Scalar(*b ? 1.0f : 0.0f)
              : Tensor::ScalarBool(*b);
    } else if (std::holds_alternative<minipy::NoneType>(v)) {
      t = Tensor::ScalarInt(0);  // null pointer
      pointer = true;
    } else if (const auto* var = std::get_if<minipy::VariableRef>(&v)) {
      const NodeOutput read = VariableRead(var->name);
      SymValue root_sym = SymValue::OfNode(read, root->graph,
                                           DType::kFloat32);
      set_meta(DType::kFloat32, false);
      return ApplyGates(frame, ImportValue(frame, root_sym));
    } else if (const auto* obj =
                   std::get_if<std::shared_ptr<minipy::ObjectValue>>(&v)) {
      t = Tensor::ScalarInt((*obj)->heap_id());
      pointer = true;
    } else if (const auto* list =
                   std::get_if<std::shared_ptr<minipy::ListValue>>(&v)) {
      t = Tensor::ScalarInt((*list)->heap_id());
      pointer = true;
    } else if (const auto* dict =
                   std::get_if<std::shared_ptr<minipy::DictValue>>(&v)) {
      t = Tensor::ScalarInt((*dict)->heap_id());
      pointer = true;
    } else {
      Refuse(std::string("cannot embed a ") + minipy::ValueTypeName(v) +
             " value in the graph");
    }
    set_meta(t.dtype(), pointer);
    return {frame.graph->AddNode("Const", {}, {{"value", std::move(t)}}), 0};
  }

  // Reads a model parameter: one ReadVariable node per name, in the root
  // graph, so gradients can target it.
  NodeOutput VariableRead(const std::string& name) {
    const auto it = variable_reads.find(name);
    if (it != variable_reads.end()) return it->second;
    Node* read = root->graph->AddNode("ReadVariable", {}, {{"var", name}});
    const NodeOutput out_v{read, 0};
    variable_reads.emplace(name, out_v);
    return out_v;
  }

  // ---- context capture ----

  // Converts a live context value into a symbolic value, recording capture
  // specs / entry checks (§4.2.2 specialisation decisions).
  SymValue Capture(const ContextRef& ref, const Value& current,
                   const ValueProfile* profile) {
    // Fold this observation into the context profile and prefer it when no
    // site-specific (argument) profile was supplied. A capture keeps the
    // slot: entry validation observes into it on every call.
    ValueProfile& context_profile =
        prof->ObserveContext(ref.ToString(), current);
    if (profile == nullptr) profile = &context_profile;
    if (const auto* t = std::get_if<Tensor>(&current)) {
      // Tensors are placeholders fed on every run.
      CaptureSpec spec;
      spec.ref = ref;
      spec.context_profile = &context_profile;
      spec.placeholder_name = Fresh("cap_" + SanitizeName(ref.ToString()));
      spec.kind = ObservedKind::kTensor;
      spec.dtype = t->dtype();
      const std::string id = "shape:" + ref.ToString();
      if (opt.specialize && !hints.DropShapes() && profile != nullptr &&
          profile->kind == ObservedKind::kTensor && AssumptionUsable(id)) {
        spec.shape = hints.RelaxShapesToRank()
                         ? profile->shape.RelaxedToRank()
                         : profile->shape;
      } else {
        spec.shape = ShapeAssumption::Unknown();
      }
      spec.assumption_id = id;
      const NodeOutput ph =
          out->graph.Placeholder(spec.placeholder_name, spec.dtype);
      out->captures.push_back(spec);
      return SymValue::OfNode(ph, &out->graph, spec.dtype, false, spec.shape);
    }
    if (std::holds_alternative<std::int64_t>(current)) {
      return CaptureScalar(ref, current, profile, context_profile,
                           DType::kInt64);
    }
    if (std::holds_alternative<double>(current)) {
      return CaptureScalar(ref, current, profile, context_profile,
                           DType::kFloat32);
    }
    if (std::holds_alternative<bool>(current)) {
      return CaptureScalar(ref, current, profile, context_profile,
                           DType::kBool);
    }
    // Heap values whose identity changes call-to-call (e.g. per-sample tree
    // roots) become dynamic pointer placeholders; the graph dereferences
    // them through PyGetAttr/PyGetSubscr (§4.2.2's pointer encoding).
    const bool is_heap =
        std::holds_alternative<std::shared_ptr<minipy::ObjectValue>>(
            current) ||
        std::holds_alternative<std::shared_ptr<minipy::ListValue>>(current) ||
        std::holds_alternative<std::shared_ptr<minipy::DictValue>>(current);
    if (is_heap && profile != nullptr &&
        (profile->kind == ObservedKind::kObject ||
         profile->kind == ObservedKind::kList ||
         profile->kind == ObservedKind::kDict) &&
        !profile->heap_stable) {
      CaptureSpec spec;
      spec.ref = ref;
      spec.context_profile = &context_profile;
      spec.placeholder_name = Fresh("cap_" + SanitizeName(ref.ToString()));
      spec.kind = profile->kind;
      spec.dtype = DType::kInt64;
      spec.assumption_id = "type:" + ref.ToString();
      const NodeOutput ph =
          out->graph.Placeholder(spec.placeholder_name, DType::kInt64);
      out->captures.push_back(spec);
      return SymValue::OfNode(ph, &out->graph, DType::kInt64, true,
                              ShapeAssumption::Exact(Shape{}));
    }
    // Everything else is captured statically with an identity/equality
    // entry check: objects, lists, dicts, functions, classes, builtins,
    // strings, variables, None.
    AddEntryCheck(ref, current);
    return SymValue::Static(current, ref);
  }

  SymValue CaptureScalar(const ContextRef& ref, const Value& current,
                         const ValueProfile* profile,
                         ValueProfile& context_profile, DType dtype) {
    const std::string id = "const:" + ref.ToString();
    if (opt.specialize && !hints.NoConstantBaking() && profile != nullptr &&
        profile->value_stable && AssumptionUsable(id)) {
      // Profiled-constant scalar: bake as Const, checked at entry (§4.2.2).
      AddEntryCheck(ref, current);
      return SymValue::Static(current, ref);
    }
    // Dynamic scalar: placeholder.
    CaptureSpec spec;
    spec.ref = ref;
    spec.context_profile = &context_profile;
    spec.placeholder_name = Fresh("cap_" + SanitizeName(ref.ToString()));
    spec.kind = dtype == DType::kInt64
                    ? ObservedKind::kInt
                    : (dtype == DType::kBool ? ObservedKind::kBool
                                             : ObservedKind::kFloat);
    spec.dtype = dtype;
    spec.assumption_id = id;
    const NodeOutput ph =
        out->graph.Placeholder(spec.placeholder_name, dtype);
    out->captures.push_back(spec);
    return SymValue::OfNode(ph, &out->graph, dtype, false,
                            ShapeAssumption::Exact(Shape{}));
  }

  void AddEntryCheck(const ContextRef& ref, const Value& expected) {
    const std::string key = ref.ToString();
    if (!entry_check_seen.insert(key).second) return;
    if (std::holds_alternative<Tensor>(expected)) return;
    out->entry_checks.push_back(EntryCheck{ref, expected, "entry:" + key});
  }

  static std::string SanitizeName(std::string s) {
    for (char& c : s) {
      if ((std::isalnum(static_cast<unsigned char>(c)) == 0) && c != '_') {
        c = '_';
      }
    }
    return s;
  }

  // Resolves a name that is not a symbolic local: looks through the live
  // closure environments and captures the value.
  SymValue ResolveClosure(Scope& scope, const std::string& name, int line) {
    auto env = scope.ClosureEnv();
    while (env != nullptr && !env->Has(name)) env = env->parent_ptr();
    if (env == nullptr) {
      Refuse("line " + std::to_string(line) + ": name '" + name +
             "' is not defined during graph generation");
    }
    ContextRef ref;
    ref.env = env;
    ref.name = name;
    const Value current = *env->Find(name);
    return Capture(ref, current, nullptr);
  }

  // ---- state-op ordering (read/write hazards, Fig. 5) ----

  std::string StateKeyName(const std::string& attr) { return attr; }

  void OrderStateRead(Frame& frame, std::int64_t heap_id,
                      const std::string& key, Node* read) {
    const auto map_key = std::make_pair(heap_id, key);
    const auto it = frame.last_state_write.find(map_key);
    if (it != frame.last_state_write.end()) read->AddControlInput(it->second);
    frame.readers_since_write[map_key].push_back(read);
  }

  void OrderStateWrite(Frame& frame, std::int64_t heap_id,
                       const std::string& key, Node* write) {
    const auto map_key = std::make_pair(heap_id, key);
    const auto it = frame.last_state_write.find(map_key);
    if (it != frame.last_state_write.end()) write->AddControlInput(it->second);
    for (Node* reader : frame.readers_since_write[map_key]) {
      write->AddControlInput(reader);
    }
    frame.readers_since_write[map_key].clear();
    frame.last_state_write[map_key] = write;
    frame.side_nodes.push_back(write);
  }

  void RefuseSideEffectInDynamicBranch(const Frame& frame,
                                       const char* what) {
    if (!frame.gates.empty()) {
      Refuse(std::string(what) +
             " inside a data-dependent branch cannot be converted");
    }
  }

  // =========================================================================
  // Statements
  // =========================================================================

  // Statements return how they ended, as the interpreter's do; a `return`
  // leaves its value in `returned`.
  Flow ExecBlock(const std::vector<minipy::StmtPtr>& body, Frame& frame,
                 Scope& scope) {
    return ExecStmts(body, 0, frame, scope);
  }

  // Executes body[start..].
  Flow ExecStmts(const std::vector<minipy::StmtPtr>& body, std::size_t start,
                 Frame& frame, Scope& scope) {
    for (std::size_t i = start; i < body.size(); ++i) {
      if (const Flow flow = ExecStmt(body, i, frame, scope);
          flow != Flow::kNormal) {
        return flow;
      }
    }
    return Flow::kNormal;
  }

  // Executes block[i]. An `if` gets the rest of the block as its
  // continuation so early-return patterns (`if c: return a` followed by
  // more code) can lower to a Merge of both return values.
  Flow ExecStmt(const std::vector<minipy::StmtPtr>& block, std::size_t i,
                Frame& frame, Scope& scope) {
    const Stmt* stmt = block[i].get();
    SpendBudget();
    // Every node materialised while converting this statement is stamped
    // with {function, line, stmt} via the ambient site (Graph::AddNode).
    SourceSiteScope site_scope(CurrentFunctionName(), stmt->line, stmt->id);
    switch (stmt->kind) {
      case StmtKind::kExpr:
        Eval(stmt->value.get(), frame, scope);
        return Flow::kNormal;
      case StmtKind::kAssign:
        AssignTo(stmt->target.get(), Eval(stmt->value.get(), frame, scope),
                 frame, scope);
        return Flow::kNormal;
      case StmtKind::kAugAssign: {
        const SymValue current = Eval(stmt->target.get(), frame, scope);
        SymValue updated =
            Binary(stmt->aug_op, current,
                   Eval(stmt->value.get(), frame, scope), frame, stmt->line);
        AssignTo(stmt->target.get(), std::move(updated), frame, scope);
        return Flow::kNormal;
      }
      case StmtKind::kIf:
        return ExecIf(stmt, frame, scope, block, i + 1);
      case StmtKind::kWhile:
        return ExecWhile(stmt, frame, scope);
      case StmtKind::kFor:
        return ExecFor(stmt, frame, scope);
      case StmtKind::kReturn:
        returned = stmt->value != nullptr
                       ? Eval(stmt->value.get(), frame, scope)
                       : SymValue::Static(minipy::NoneType{});
        return Flow::kReturn;
      case StmtKind::kPass:
        return Flow::kNormal;
      case StmtKind::kBreak:
        return Flow::kBreak;
      case StmtKind::kContinue:
        return Flow::kContinue;
      case StmtKind::kGlobal:
        for (const std::string& name : stmt->globals) {
          scope.global_names.insert(name);
        }
        return Flow::kNormal;
      case StmtKind::kRaise:
        Refuse("line " + std::to_string(stmt->line) +
               ": 'raise' on a converted path (exceptions are "
               "imperative-only, §4.3 / Appendix A)");
      case StmtKind::kTry:
        Refuse("line " + std::to_string(stmt->line) +
               ": try/except is imperative-only (§4.3)");
      case StmtKind::kDef:
      case StmtKind::kClass:
        Refuse("line " + std::to_string(stmt->line) +
               ": nested def/class definitions are imperative-only");
    }
    throw InternalError("unhandled statement kind in generator");
  }

  // Runs a lambda's or a def's body, its parameters bound in `scope`, and
  // returns the function's value: the lambda's expression, the value of the
  // def's `return`, or None when the body ends without one.
  SymValue RunBody(const minipy::FunctionValue& fn, Frame& frame,
                   Scope& scope) {
    if (fn.lambda != nullptr) return Eval(fn.lambda->left.get(), frame, scope);
    if (ExecBlock(fn.def->body, frame, scope) == Flow::kReturn) {
      return std::exchange(returned, SymValue{});
    }
    return SymValue::Static(minipy::NoneType{});
  }

  void AssignTo(const Expr* target, SymValue value, Frame& frame,
                Scope& scope) {
    switch (target->kind) {
      case ExprKind::kName: {
        const std::string& name = target->str_value;
        if (scope.global_names.count(name) != 0u) {
          Refuse("assignment to global '" + name +
                 "' is imperative-only (global heap mutation)");
        }
        // Assign to the scope that owns the name (loop bodies share the
        // enclosing function scope), else define locally.
        Scope* s = &scope;
        while (s != nullptr && s->vars.find(name) == s->vars.end()) {
          s = s->parent;
        }
        (s != nullptr ? s : &scope)->vars[name] = std::move(value);
        return;
      }
      case ExprKind::kAttribute: {
        const SymValue base = Eval(target->left.get(), frame, scope);
        StoreAttr(base, target->str_value, std::move(value), frame,
                  target->line);
        return;
      }
      case ExprKind::kSubscript: {
        const SymValue base = Eval(target->left.get(), frame, scope);
        const SymValue index = Eval(target->right.get(), frame, scope);
        StoreSubscript(base, index, std::move(value), frame, target->line);
        return;
      }
      case ExprKind::kTuple: {
        if (!value.IsList() ||
            value.elements->size() != target->elements.size()) {
          Refuse("cannot unpack value into tuple target");
        }
        for (std::size_t i = 0; i < target->elements.size(); ++i) {
          AssignTo(target->elements[i].get(), (*value.elements)[i], frame,
                   scope);
        }
        return;
      }
      default:
        Refuse("unsupported assignment target");
    }
  }

  void StoreAttr(const SymValue& base, const std::string& name,
                 SymValue value, Frame& frame, int line) {
    if (opt.tracing_semantics) {
      // Tracing baseline: the write only binds trace-locally; it never
      // reaches the Python heap (defun's impure-function failure mode).
      if (base.IsStatic()) {
        if (const auto* obj =
                std::get_if<std::shared_ptr<minipy::ObjectValue>>(
                    &base.static_value)) {
          trace_attrs[{(*obj)->heap_id(), name}] = std::move(value);
        }
      }
      return;
    }
    RefuseSideEffectInDynamicBranch(frame, "attribute write");
    // Target object: static heap object or dynamic pointer.
    std::int64_t static_id = -1;
    NodeOutput ptr;
    if (base.IsStatic()) {
      const auto* obj = std::get_if<std::shared_ptr<minipy::ObjectValue>>(
          &base.static_value);
      if (obj == nullptr) {
        Refuse("line " + std::to_string(line) +
               ": attribute write on non-object");
      }
      static_id = (*obj)->heap_id();
      ptr = ToNode(frame, base);
    } else if (base.IsNode() && base.is_pointer) {
      ptr = ToNode(frame, base);
    } else {
      Refuse("attribute write on non-object value");
    }
    const NodeOutput v = ToNode(frame, value);
    Node* set = AddOp(frame, "PySetAttr", {ptr, v}, {{"attr", name}});
    OrderStateWrite(frame, static_id, StateKeyName(name), set);
  }

  void StoreSubscript(const SymValue& base, const SymValue& index,
                      SymValue value, Frame& frame, int line) {
    // Local symbolic list with static index: pure data-structure update.
    if (base.IsList() && index.IsStatic()) {
      const auto* i = std::get_if<std::int64_t>(&index.static_value);
      if (i == nullptr) Refuse("list index must be an int");
      std::int64_t idx = *i;
      const auto n = static_cast<std::int64_t>(base.elements->size());
      if (idx < 0) idx += n;
      if (idx < 0 || idx >= n) Refuse("static list index out of range");
      (*base.elements)[static_cast<std::size_t>(idx)] = std::move(value);
      return;
    }
    RefuseSideEffectInDynamicBranch(frame, "subscript write");
    // Heap list/dict: deferred PySetSubscr.
    std::int64_t static_id = -1;
    if (base.IsStatic()) {
      if (const auto* l = std::get_if<std::shared_ptr<minipy::ListValue>>(
              &base.static_value)) {
        static_id = (*l)->heap_id();
      } else if (const auto* d =
                     std::get_if<std::shared_ptr<minipy::DictValue>>(
                         &base.static_value)) {
        static_id = (*d)->heap_id();
      } else {
        Refuse("line " + std::to_string(line) +
               ": subscript write on unsupported value");
      }
    } else if (!(base.IsNode() && base.is_pointer)) {
      Refuse("subscript write on unsupported value");
    }
    const NodeOutput ptr = ToNode(frame, base);
    const NodeOutput idx = ToNode(frame, index, DType::kInt64);
    const NodeOutput v = ToNode(frame, value);
    Node* set = AddOp(frame, "PySetSubscr", {ptr, idx, v});
    OrderStateWrite(frame, static_id, "[]", set);
  }

  // ---- conditionals ----

  // A data-dependent `if` that returns on one side only also consumes the
  // continuation (block[cont_start..]) under the other side's gate.
  Flow ExecIf(const Stmt* stmt, Frame& frame, Scope& scope,
              const std::vector<minipy::StmtPtr>& block,
              std::size_t cont_start) {
    const SymValue cond = Eval(stmt->value.get(), frame, scope);
    if (cond.IsStatic() || cond.IsList()) {
      const bool static_tensorish =
          cond.IsStatic() &&
          (std::holds_alternative<minipy::VariableRef>(cond.static_value) ||
           std::holds_alternative<Tensor>(cond.static_value));
      if (!static_tensorish) {
        const bool taken = cond.IsList()
                               ? !cond.elements->empty()
                               : minipy::Truthy(cond.static_value);
        return ExecBlock(taken ? stmt->body : stmt->else_body, frame, scope);
      }
    }
    // Dynamic predicate. Speculate if profiled stable (§4.2.1).
    const std::string id = "branch:stmt" + std::to_string(stmt->id);
    const BranchProfile* profile = prof->branch(stmt);
    if (opt.speculative_unroll && profile != nullptr && profile->Stable() &&
        AssumptionUsable(id)) {
      const bool taken = profile->Direction();
      if (opt.insert_assertions) {
        const NodeOutput raw_pred = ToBool(frame, cond);
        NodeOutput pred = raw_pred;
        if (!taken) {
          pred = {AddOp(frame, "LogicalNot", {pred}), 0};
        }
        // Input 1 carries the raw predicate so a failure can report the
        // observed truth value alongside the speculated direction.
        Node* check = AddOp(frame, "Assert", {pred, raw_pred},
                            {{"assumption", id},
                             {"assumed", std::string(taken
                                                         ? "branch taken"
                                                         : "branch not taken")}});
        frame.side_nodes.push_back(check);
        out->runtime_assumptions.push_back(id);
        ++out->num_assert_ops;
      }
      return ExecBlock(taken ? stmt->body : stmt->else_body, frame, scope);
    }
    return ExecDynamicIf(stmt, cond, frame, scope, block, cont_start);
  }

  // A `break` or `continue` under a data-dependent predicate would need a
  // loop-carried flag; it is refused, in a branch and in the continuation
  // of an early return alike.
  Flow ExecDynamicIf(const Stmt* stmt, const SymValue& cond, Frame& frame,
                     Scope& scope,
                     const std::vector<minipy::StmtPtr>& block,
                     std::size_t cont_start) {
    const NodeOutput pred = ToBool(frame, cond);

    struct BranchOutcome {
      std::map<std::string, SymValue> vars;
      std::optional<SymValue> returned;
    };
    const auto run_branch = [&](const std::vector<minipy::StmtPtr>& body,
                                bool side) {
      BranchOutcome outcome;
      const auto saved = scope.vars;
      frame.gates.push_back(Gate{
          pred, side, static_cast<int>(frame.graph->num_nodes()) + 1});
      const Flow flow = ExecBlock(body, frame, scope);
      if (flow == Flow::kReturn) {
        outcome.returned = std::exchange(returned, SymValue{});
      } else if (flow != Flow::kNormal) {
        Refuse(FlowStatement(flow) +
               " inside a data-dependent branch is imperative-only");
      }
      frame.gates.pop_back();
      outcome.vars = std::move(scope.vars);
      scope.vars = saved;
      return outcome;
    };

    const auto saved = scope.vars;
    const int first_id = static_cast<int>(frame.graph->num_nodes());
    BranchOutcome then_out = run_branch(stmt->body, true);
    BranchOutcome else_out = run_branch(stmt->else_body, false);

    if (then_out.returned.has_value() && else_out.returned.has_value()) {
      const NodeOutput tv =
          GateSide(frame, pred, true, ToNode(frame, *then_out.returned));
      DType dt = DType::kFloat32;
      bool ptr = false;
      NodeOutput ev = ToNode(frame, *else_out.returned, std::nullopt, &dt,
                             &ptr);
      ev = GateSide(frame, pred, false, ev);
      Node* merge = frame.graph->AddNode("Merge", {tv, ev}, {}, 2);
      JoinBranchEffects(frame, pred, first_id);
      returned = SymValue::OfNode({merge, 0}, frame.graph, dt, ptr);
      return Flow::kReturn;
    }
    if (then_out.returned.has_value() || else_out.returned.has_value()) {
      // Early-return pattern: the non-returning side continues with the
      // rest of the enclosing block under its gate, and must itself return
      // so both paths join in a Merge.
      const bool then_returned = then_out.returned.has_value();
      const BranchOutcome& live =
          then_returned ? else_out : then_out;
      const SymValue ret_value =
          then_returned ? *then_out.returned : *else_out.returned;
      scope.vars = live.vars;
      frame.gates.push_back(Gate{
          pred, !then_returned,
          static_cast<int>(frame.graph->num_nodes()) + 1});
      const Flow cont = ExecStmts(block, cont_start, frame, scope);
      frame.gates.pop_back();
      if (cont == Flow::kBreak || cont == Flow::kContinue) {
        Refuse(FlowStatement(cont) + " across a data-dependent branch join");
      }
      if (cont == Flow::kNormal) {
        Refuse("all paths after a data-dependent early return must return");
      }
      const SymValue cont_return = std::exchange(returned, SymValue{});
      const NodeOutput rv = GateSide(frame, pred, then_returned,
                                     ToNode(frame, ret_value));
      DType dt = DType::kFloat32;
      bool ptr = false;
      NodeOutput cv = ToNode(frame, cont_return, std::nullopt, &dt, &ptr);
      cv = GateSide(frame, pred, !then_returned, cv);
      Node* merge = then_returned
                        ? frame.graph->AddNode("Merge", {rv, cv}, {}, 2)
                        : frame.graph->AddNode("Merge", {cv, rv}, {}, 2);
      JoinBranchEffects(frame, pred, first_id);
      returned = SymValue::OfNode({merge, 0}, frame.graph, dt, ptr);
      return Flow::kReturn;
    }

    // Merge variables whose binding changed in either branch.
    std::set<std::string> changed;
    const auto collect = [&](const BranchOutcome& outcome) {
      for (const auto& [name, sym] : outcome.vars) {
        const auto it = saved.find(name);
        if (it == saved.end() || !it->second.SameAs(sym)) {
          changed.insert(name);
        }
      }
    };
    collect(then_out);
    collect(else_out);

    for (const std::string& name : changed) {
      const auto pick = [&](const BranchOutcome& outcome)
          -> const SymValue* {
        const auto it = outcome.vars.find(name);
        if (it != outcome.vars.end()) return &it->second;
        const auto saved_it = saved.find(name);
        return saved_it != saved.end() ? &saved_it->second : nullptr;
      };
      const SymValue* tv = pick(then_out);
      const SymValue* ev = pick(else_out);
      if (tv == nullptr || ev == nullptr) {
        Refuse("variable '" + name +
               "' is defined on only one side of a data-dependent branch");
      }
      DType dt_t = DType::kFloat32;
      bool ptr_t = false;
      NodeOutput tn = ToNode(frame, *tv, std::nullopt, &dt_t, &ptr_t);
      tn = GateSide(frame, pred, true, tn);
      NodeOutput en = ToNode(frame, *ev, dt_t);
      en = GateSide(frame, pred, false, en);
      Node* merge = frame.graph->AddNode("Merge", {tn, en}, {}, 2);
      scope.vars[name] =
          SymValue::OfNode({merge, 0}, frame.graph, dt_t, ptr_t);
    }
    JoinBranchEffects(frame, pred, first_id);
    return Flow::kNormal;
  }

  // Joins the side nodes and state reads emitted under a dynamic branch
  // (node ids from `first_id` on) through one Merge of the predicate's two
  // Switch outputs. Either side of a branch is dead when not taken, so a
  // later write or the anchor ordered on it directly would die with it;
  // the join is live whenever the `if` runs, and a Merge ignores dead
  // control inputs. Later writes and the anchor order on the join instead.
  void JoinBranchEffects(Frame& frame, NodeOutput pred, int first_id) {
    const auto before_branch = [first_id](const Node* node) {
      return node->id() < first_id;
    };
    std::vector<Node*> effects;
    const auto take_emitted = [&](std::vector<Node*>& nodes) {
      const auto split =
          std::stable_partition(nodes.begin(), nodes.end(), before_branch);
      const bool any = split != nodes.end();
      effects.insert(effects.end(), split, nodes.end());
      nodes.erase(split, nodes.end());
      return any;
    };
    const bool side_effects = take_emitted(frame.side_nodes);
    std::vector<std::vector<Node*>*> joined_readers;
    for (auto& [key, readers] : frame.readers_since_write) {
      if (take_emitted(readers)) joined_readers.push_back(&readers);
    }
    if (effects.empty()) return;
    Node* sw = frame.graph->AddNode("Switch", {pred, pred}, {}, 2);
    Node* join = frame.graph->AddNode("Merge", {{sw, 0}, {sw, 1}}, {}, 2);
    for (Node* effect : effects) join->AddControlInput(effect);
    for (std::vector<Node*>* readers : joined_readers) {
      readers->push_back(join);
    }
    if (side_effects) frame.side_nodes.push_back(join);
  }

  NodeOutput GateSide(Frame& frame, NodeOutput pred, bool side,
                      NodeOutput v) {
    // Values produced *inside* the branch are already gated transitively;
    // only pre-existing values need an explicit Switch. We can't cheaply
    // know, so gate unconditionally through the cache (double-gating a
    // branch-produced value is harmless: its tokens are dead exactly when
    // the branch is untaken, and a Switch on it stays consistent).
    Node* sw = frame.graph->AddNode("Switch", {v, pred}, {}, 2);
    return {sw, side ? 1 : 0};
  }

  // ---- loops ----

  // Runs one iteration of a statically expanded loop and maps how its body
  // ended to the loop's next step, for all seven such loops: nullopt goes
  // on (kNormal, kContinue); otherwise the loop is left and the loop
  // statement ends in the returned Flow, kNormal after a `break` (refused
  // as `break_refusal` where the trip count is speculated) and kReturn
  // after a `return`, which propagates at once.
  std::optional<Flow> ExecIteration(const Stmt* loop, Frame& frame,
                                    Scope& scope,
                                    const char* break_refusal = nullptr) {
    switch (ExecBlock(loop->body, frame, scope)) {
      case Flow::kNormal:
      case Flow::kContinue:
        return std::nullopt;
      case Flow::kBreak:
        if (break_refusal != nullptr) Refuse(break_refusal);
        return Flow::kNormal;
      case Flow::kReturn:
        return Flow::kReturn;
    }
    return std::nullopt;
  }

  Flow ExecWhile(const Stmt* stmt, Frame& frame, Scope& scope) {
    // Try fully-static evaluation first (condition statically decidable).
    SymValue c = Eval(stmt->value.get(), frame, scope);
    if (c.IsStatic() || c.IsList()) {
      while (c.IsList() ? !c.elements->empty()
                        : minipy::Truthy(c.static_value)) {
        SpendBudget();
        if (const auto exit = ExecIteration(stmt, frame, scope)) return *exit;
        c = Eval(stmt->value.get(), frame, scope);
        if (!c.IsStatic() && !c.IsList()) {
          Refuse("while condition turned dynamic mid-loop");
        }
      }
      return Flow::kNormal;
    }
    const std::string id = "loop:stmt" + std::to_string(stmt->id);
    const LoopProfile* profile = prof->loop(stmt);
    if (opt.speculative_unroll && profile != nullptr && profile->stable &&
        AssumptionUsable(id)) {
      // Speculative unroll: assert the condition before each iteration and
      // its negation after the last (§4.2.1).
      out->runtime_assumptions.push_back(id);
      for (std::int64_t k = 0; k < profile->trip_count; ++k) {
        SpendBudget();
        if (opt.insert_assertions) {
          const NodeOutput pred =
              ToBool(frame, Eval(stmt->value.get(), frame, scope));
          Node* check =
              AddOp(frame, "Assert", {pred},
                    {{"assumption", id},
                     {"assumed", std::to_string(profile->trip_count) +
                                     " iterations (condition true before "
                                     "iteration " +
                                     std::to_string(k) + ")"}});
          frame.side_nodes.push_back(check);
          ++out->num_assert_ops;
        }
        if (const auto exit = ExecIteration(
                stmt, frame, scope,
                "'break' in a speculatively unrolled while loop")) {
          return *exit;
        }
      }
      if (opt.insert_assertions) {
        const NodeOutput pred =
            ToBool(frame, Eval(stmt->value.get(), frame, scope));
        Node* done =
            AddOp(frame, "Assert",
                  {{AddOp(frame, "LogicalNot", {pred}), 0}, pred},
                  {{"assumption", id},
                   {"assumed", std::to_string(profile->trip_count) +
                                   " iterations (condition false after the "
                                   "last)"}});
        frame.side_nodes.push_back(done);
        ++out->num_assert_ops;
      }
      return Flow::kNormal;
    }
    EmitFunctionalLoop(stmt, frame, scope, /*for_range=*/false, {});
    return Flow::kNormal;
  }

  Flow ExecFor(const Stmt* stmt, Frame& frame, Scope& scope) {
    const std::string& var = stmt->target->str_value;
    // `for i in range(...)` gets dedicated handling so dynamic bounds work.
    const Expr* iter = stmt->value.get();
    if (iter->kind == ExprKind::kCall &&
        iter->left->kind == ExprKind::kName &&
        iter->left->str_value == "range" &&
        LooksLikeBuiltin(iter->left.get(), scope, "range")) {
      std::vector<SymValue> bounds;
      for (const auto& arg : iter->elements) {
        bounds.push_back(Eval(arg.get(), frame, scope));
      }
      return ExecForRange(stmt, var, bounds, frame, scope);
    }
    const SymValue iterable = Eval(iter, frame, scope);
    if (iterable.IsList()) {
      // Data-structure iteration: statically expanded in all modes.
      const std::vector<SymValue> snapshot = *iterable.elements;
      for (const SymValue& item : snapshot) {
        SpendBudget();
        scope.vars[var] = item;
        if (const auto exit = ExecIteration(stmt, frame, scope)) return *exit;
      }
      return Flow::kNormal;
    }
    if (iterable.IsStatic()) {
      if (const auto* list = std::get_if<std::shared_ptr<minipy::ListValue>>(
              &iterable.static_value)) {
        // Captured heap list: expand over its (entry-checked) length; each
        // element resolves through the capture machinery so tensors become
        // per-element placeholders.
        const auto n = static_cast<std::int64_t>((*list)->items.size());
        if (!iterable.origin.has_value()) {
          Refuse("cannot iterate a heap list of unknown provenance");
        }
        for (std::int64_t i = 0; i < n; ++i) {
          SpendBudget();
          ContextRef ref = *iterable.origin;
          ref.steps.push_back(ContextRef::Step{false, "", i});
          scope.vars[var] =
              Capture(ref, (*list)->items[static_cast<std::size_t>(i)],
                      nullptr);
          if (const auto exit = ExecIteration(stmt, frame, scope)) {
            return *exit;
          }
        }
        return Flow::kNormal;
      }
      Refuse("cannot iterate a " +
             std::string(minipy::ValueTypeName(iterable.static_value)) +
             " symbolically");
    }
    // Tensor iteration along axis 0: requires a pinned leading dimension.
    if (iterable.IsNode() && !iterable.is_pointer) {
      if (iterable.shape.is_unknown() || iterable.shape.dims().empty() ||
          !iterable.shape.dims()[0].has_value()) {
        Refuse("iterating a tensor with unknown leading dimension");
      }
      const std::int64_t n = *iterable.shape.dims()[0];
      for (std::int64_t i = 0; i < n; ++i) {
        SpendBudget();
        scope.vars[var] = TensorIndexStatic(frame, iterable, i);
        if (const auto exit = ExecIteration(stmt, frame, scope)) return *exit;
      }
      return Flow::kNormal;
    }
    Refuse("unsupported for-loop iterable");
  }

  Flow ExecForRange(const Stmt* stmt, const std::string& var,
                    const std::vector<SymValue>& bounds, Frame& frame,
                    Scope& scope) {
    SymValue lo = SymValue::Static(std::int64_t{0});
    SymValue hi;
    SymValue step = SymValue::Static(std::int64_t{1});
    RefuseOnError([&] {
      minipy::CheckArity(*minipy::FindBuiltin("range"), bounds.size());
    });
    if (bounds.size() == 1) {
      hi = bounds[0];
    } else {
      lo = bounds[0];
      hi = bounds[1];
      if (bounds.size() == 3) step = bounds[2];
    }
    // A static bound is an int or a bool, as for the interpreter's range().
    const auto static_int = [](const SymValue& s) -> std::optional<std::int64_t> {
      if (!s.IsStatic()) return std::nullopt;
      if (const auto* i = std::get_if<std::int64_t>(&s.static_value)) {
        return *i;
      }
      if (const auto* b = std::get_if<bool>(&s.static_value)) return *b;
      Refuse(std::string("range: expected an int, got ") +
             minipy::ValueTypeName(s.static_value));
    };
    const auto lo_i = static_int(lo);
    const auto hi_i = static_int(hi);
    const auto step_i = static_int(step);
    if (!step_i.has_value()) Refuse("range() step must be static");

    if (lo_i.has_value() && hi_i.has_value()) {
      // Fully static bounds: plain expansion (program structure, not a
      // speculative assumption).
      if (*step_i == 0) Refuse("range() step must not be zero");
      for (std::int64_t i = *lo_i; *step_i > 0 ? i < *hi_i : i > *hi_i;
           i += *step_i) {
        SpendBudget();
        scope.vars[var] = SymValue::Static(i);
        if (const auto exit = ExecIteration(stmt, frame, scope)) return *exit;
      }
      return Flow::kNormal;
    }
    // Dynamic bound: speculative unroll with a trip-count assertion, or a
    // functional While loop.
    const std::string id = "loop:stmt" + std::to_string(stmt->id);
    const LoopProfile* profile = prof->loop(stmt);
    if (opt.speculative_unroll && profile != nullptr && profile->stable &&
        AssumptionUsable(id) && lo_i.has_value() && *step_i == 1) {
      const std::int64_t trips = profile->trip_count;
      if (opt.insert_assertions) {
        const NodeOutput bound = ToNode(frame, hi, DType::kInt64);
        const NodeOutput expected = ToNode(
            frame, SymValue::Static(*lo_i + trips), DType::kInt64);
        Node* eq = AddOp(frame, "Equal", {bound, expected});
        // Input 1 is the live range bound, so a trip-count mismatch reports
        // assumed "range(lo, lo+trips)" against the observed bound value.
        Node* check =
            AddOp(frame, "Assert", {{eq, 0}, bound},
                  {{"assumption", id},
                   {"assumed", "range bound " +
                                   std::to_string(*lo_i + trips) + " (" +
                                   std::to_string(trips) + " iterations)"}});
        frame.side_nodes.push_back(check);
        out->runtime_assumptions.push_back(id);
        ++out->num_assert_ops;
      }
      for (std::int64_t k = 0; k < trips; ++k) {
        SpendBudget();
        scope.vars[var] = SymValue::Static(*lo_i + k);
        if (const auto exit = ExecIteration(
                stmt, frame, scope,
                "'break' in a speculatively unrolled for loop")) {
          return *exit;
        }
      }
      return Flow::kNormal;
    }
    EmitFunctionalLoop(stmt, frame, scope, /*for_range=*/true,
                       {lo, hi, step});
    return Flow::kNormal;
  }

  // Lowers a loop with a data-dependent bound into a functional While op
  // (the conservative BASE path; gradient support via WhileGrad).
  void EmitFunctionalLoop(const Stmt* stmt, Frame& frame, Scope& scope,
                          bool for_range, std::vector<SymValue> range_bounds);

  SymValue TensorIndexStatic(Frame& frame, const SymValue& tensor,
                             std::int64_t i) {
    // tensor[i] with static i: Slice + Reshape. Requires pinned shape.
    if (tensor.shape.is_unknown()) {
      Refuse("static tensor indexing requires a pinned shape");
    }
    const auto& dims = tensor.shape.dims();
    std::vector<std::int64_t> begin(dims.size(), 0);
    begin[0] = i;
    std::vector<std::int64_t> size;
    std::vector<std::int64_t> out_dims;
    for (std::size_t d = 0; d < dims.size(); ++d) {
      if (!dims[d].has_value()) {
        Refuse("static tensor indexing requires fully pinned dimensions");
      }
      size.push_back(d == 0 ? 1 : *dims[d]);
      if (d > 0) out_dims.push_back(*dims[d]);
    }
    const NodeOutput src = ToNode(frame, tensor);
    Node* slice = AddOp(frame, "Slice", {src},
                        {{"begin", begin}, {"size", size}});
    Node* reshape = AddOp(frame, "Reshape", {{slice, 0}},
                          {{"shape", out_dims}});
    SymValue result = SymValue::OfNode({reshape, 0}, frame.graph,
                                       tensor.dtype, false,
                                       ShapeAssumption::Exact(Shape(out_dims)));
    return result;
  }

  // =========================================================================
  // Expressions
  // =========================================================================

  SymValue Eval(const Expr* expr, Frame& frame, Scope& scope) {
    SpendBudget();
    // Expressions nest the generator's frames, and so do the statements and
    // functions they reach: Invoke generation goes as deep as a statically
    // keyed recursion. Near the end of the stack the imperative run decides.
    if (StackNearlyExhausted()) Refuse("maximum recursion depth exceeded");
    switch (expr->kind) {
      case ExprKind::kIntLit:
        return SymValue::Static(expr->int_value);
      case ExprKind::kFloatLit:
        return SymValue::Static(expr->float_value);
      case ExprKind::kStringLit:
        return SymValue::Static(expr->str_value);
      case ExprKind::kBoolLit:
        return SymValue::Static(expr->bool_value);
      case ExprKind::kNoneLit:
        return SymValue::Static(minipy::NoneType{});
      case ExprKind::kName: {
        SymValue* local = scope.Find(expr->str_value);
        if (local != nullptr) return *local;
        return ResolveClosure(scope, expr->str_value, expr->line);
      }
      case ExprKind::kUnary: {
        SymValue operand = Eval(expr->left.get(), frame, scope);
        if (expr->unary_op == UnaryOp::kNot) {
          if (operand.IsStatic()) {
            return SymValue::Static(!minipy::Truthy(operand.static_value));
          }
          const NodeOutput b = ToBool(frame, operand);
          return SymValue::OfNode({AddOp(frame, "LogicalNot", {b}), 0},
                                  frame.graph, DType::kBool);
        }
        if (operand.IsStatic()) {
          if (const auto* i =
                  std::get_if<std::int64_t>(&operand.static_value)) {
            return SymValue::Static(-*i);
          }
          if (const auto* d = std::get_if<double>(&operand.static_value)) {
            return SymValue::Static(-*d);
          }
        }
        DType dt = DType::kFloat32;
        const NodeOutput v = ToNode(frame, operand, std::nullopt, &dt);
        return SymValue::OfNode({AddOp(frame, "Neg", {v}), 0}, frame.graph,
                                dt, false, operand.shape);
      }
      case ExprKind::kBinary:
        return Binary(expr->binary_op, Eval(expr->left.get(), frame, scope),
                      Eval(expr->right.get(), frame, scope), frame,
                      expr->line);
      case ExprKind::kCompare:
        return Compare(expr->compare_op,
                       Eval(expr->left.get(), frame, scope),
                       Eval(expr->right.get(), frame, scope), frame,
                       expr->line);
      case ExprKind::kBoolOp: {
        SymValue left = Eval(expr->left.get(), frame, scope);
        if (left.IsStatic()) {
          const bool truthy = minipy::Truthy(left.static_value);
          if (expr->bool_op == BoolOpKind::kAnd) {
            return truthy ? Eval(expr->right.get(), frame, scope) : left;
          }
          return truthy ? left : Eval(expr->right.get(), frame, scope);
        }
        SymValue right = Eval(expr->right.get(), frame, scope);
        const NodeOutput lb = ToBool(frame, left);
        const NodeOutput rb = ToBool(frame, right);
        const char* op =
            expr->bool_op == BoolOpKind::kAnd ? "LogicalAnd" : "LogicalOr";
        return SymValue::OfNode({AddOp(frame, op, {lb, rb}), 0}, frame.graph,
                                DType::kBool);
      }
      case ExprKind::kCall:
        return EvalCall(expr, frame, scope);
      case ExprKind::kAttribute:
        return EvalAttribute(expr, frame, scope);
      case ExprKind::kSubscript:
        return EvalSubscript(expr, frame, scope);
      case ExprKind::kList:
      case ExprKind::kTuple: {
        std::vector<SymValue> items;
        items.reserve(expr->elements.size());
        for (const auto& el : expr->elements) {
          items.push_back(Eval(el.get(), frame, scope));
        }
        return SymValue::List(std::move(items));
      }
      case ExprKind::kDict:
        Refuse("dict literals are imperative-only in converted code");
      case ExprKind::kLambda:
        Refuse("lambda expressions inside converted code are "
               "imperative-only");
    }
    throw InternalError("unhandled expression kind in generator");
  }

  NodeOutput ToBool(Frame& frame, const SymValue& sym) {
    if (sym.IsStatic() &&
        !std::holds_alternative<minipy::VariableRef>(sym.static_value) &&
        !std::holds_alternative<Tensor>(sym.static_value)) {
      return ToNode(frame,
                    SymValue::Static(minipy::Truthy(sym.static_value)));
    }
    DType dt = DType::kFloat32;
    const NodeOutput v = ToNode(frame, sym, std::nullopt, &dt);
    if (dt == DType::kBool) return v;
    // Non-bool scalar truthiness: x != 0.
    const NodeOutput zero =
        ToNode(frame, SymValue::Static(std::int64_t{0}), dt);
    return {AddOp(frame, "NotEqual", {v, zero}), 0};
  }

  SymValue Binary(BinaryOp op, SymValue lhs, SymValue rhs, Frame& frame,
                  int line) {
    // List concatenation stays a data-structure operation.
    if (lhs.IsList() && rhs.IsList() && op == BinaryOp::kAdd) {
      std::vector<SymValue> items = *lhs.elements;
      items.insert(items.end(), rhs.elements->begin(), rhs.elements->end());
      return SymValue::List(std::move(items));
    }
    const auto tensorish_static = [](const SymValue& s) {
      return s.IsStatic() &&
             (std::holds_alternative<minipy::VariableRef>(s.static_value) ||
              std::holds_alternative<Tensor>(s.static_value));
    };
    if (lhs.IsStatic() && rhs.IsStatic() && !tensorish_static(lhs) &&
        !tensorish_static(rhs)) {
      // Pure static computation, delegated to interpreter semantics (no
      // tensors involved by construction).
      return SymValue::Static(interp->BinaryOperation(op, lhs.static_value,
                                                      rhs.static_value));
    }
    if (lhs.IsList() || rhs.IsList()) {
      Refuse("line " + std::to_string(line) +
             ": mixed list/tensor arithmetic is not convertible");
    }
    DType lt = DType::kFloat32;
    DType rt = DType::kFloat32;
    // Materialise, aligning static scalars to the dynamic operand's dtype.
    NodeOutput ln;
    NodeOutput rn;
    if (lhs.IsNode() && !rhs.IsNode()) {
      ln = ToNode(frame, lhs, std::nullopt, &lt);
      rn = ToNode(frame, rhs, lt, &rt);
    } else if (rhs.IsNode() && !lhs.IsNode()) {
      rn = ToNode(frame, rhs, std::nullopt, &rt);
      ln = ToNode(frame, lhs, rt, &lt);
    } else {
      ln = ToNode(frame, lhs, std::nullopt, &lt);
      rn = ToNode(frame, rhs, std::nullopt, &rt);
    }
    // dtype alignment via Cast when still mismatched.
    if (lt != rt) {
      if (lt == DType::kFloat32 || rt == DType::kFloat32) {
        if (lt != DType::kFloat32) {
          ln = {AddOp(frame, "Cast", {ln}, {{"dtype", DType::kFloat32}}), 0};
          lt = DType::kFloat32;
        }
        if (rt != DType::kFloat32) {
          rn = {AddOp(frame, "Cast", {rn}, {{"dtype", DType::kFloat32}}), 0};
          rt = DType::kFloat32;
        }
      } else {
        if (lt == DType::kBool) {
          ln = {AddOp(frame, "Cast", {ln}, {{"dtype", DType::kInt64}}), 0};
          lt = DType::kInt64;
        }
        if (rt == DType::kBool) {
          rn = {AddOp(frame, "Cast", {rn}, {{"dtype", DType::kInt64}}), 0};
          rt = DType::kInt64;
        }
      }
    } else if (lt == DType::kBool) {
      ln = {AddOp(frame, "Cast", {ln}, {{"dtype", DType::kInt64}}), 0};
      rn = {AddOp(frame, "Cast", {rn}, {{"dtype", DType::kInt64}}), 0};
      lt = rt = DType::kInt64;
    }
    const char* name = minipy::BinaryOpName(op);
    const DType result_dt = ops::FindElementwiseOp(name)->For(lt).result;
    // Merge shape knowledge when both operands carry it.
    ShapeAssumption result_shape = ShapeAssumption::Unknown();
    if (lhs.IsNode() && lhs.shape.IsExact() &&
        (!rhs.IsNode() || (rhs.shape.IsExact() &&
                           rhs.shape.ExactShape() == lhs.shape.ExactShape()))) {
      result_shape = lhs.shape;
    }
    return SymValue::OfNode({AddOp(frame, name, {ln, rn}), 0}, frame.graph,
                            result_dt, false, result_shape);
  }

  SymValue Compare(CompareOp op, SymValue lhs, SymValue rhs, Frame& frame,
                   int line) {
    if (op == CompareOp::kIn) {
      if (lhs.IsStatic() && rhs.IsList()) {
        // Membership over static elements only.
        for (const SymValue& item : *rhs.elements) {
          if (item.IsStatic() &&
              minipy::ValuesEqual(lhs.static_value, item.static_value)) {
            return SymValue::Static(true);
          }
        }
        return SymValue::Static(false);
      }
      Refuse("line " + std::to_string(line) +
             ": 'in' is only convertible over static lists");
    }
    const auto tensorish_static = [](const SymValue& s) {
      return s.IsStatic() &&
             (std::holds_alternative<minipy::VariableRef>(s.static_value) ||
              std::holds_alternative<Tensor>(s.static_value));
    };
    if (lhs.IsStatic() && rhs.IsStatic() && !tensorish_static(lhs) &&
        !tensorish_static(rhs)) {
      return SymValue::Static(interp->CompareOperation(op, lhs.static_value,
                                                       rhs.static_value));
    }
    // Pointer comparison against None compares with the null pointer.
    DType lt = DType::kFloat32;
    DType rt = DType::kFloat32;
    NodeOutput ln;
    NodeOutput rn;
    if (lhs.IsNode() && !rhs.IsNode()) {
      ln = ToNode(frame, lhs, std::nullopt, &lt);
      rn = ToNode(frame, rhs, lt, &rt);
    } else if (rhs.IsNode() && !lhs.IsNode()) {
      rn = ToNode(frame, rhs, std::nullopt, &rt);
      ln = ToNode(frame, lhs, rt, &lt);
    } else {
      ln = ToNode(frame, lhs, std::nullopt, &lt);
      rn = ToNode(frame, rhs, std::nullopt, &rt);
    }
    if (lt != rt) {
      if (lt != DType::kFloat32) {
        ln = {AddOp(frame, "Cast", {ln}, {{"dtype", DType::kFloat32}}), 0};
      }
      if (rt != DType::kFloat32) {
        rn = {AddOp(frame, "Cast", {rn}, {{"dtype", DType::kFloat32}}), 0};
      }
    }
    return SymValue::OfNode(
        {AddOp(frame, minipy::CompareOpName(op), {ln, rn}), 0}, frame.graph,
        DType::kBool);
  }

  // Checks that a Name expression still resolves to the expected builtin
  // (so user code shadowing `range` falls back to the generic path).
  bool LooksLikeBuiltin(const Expr* name_expr, Scope& scope,
                        const std::string& builtin_name) {
    if (scope.Find(name_expr->str_value) != nullptr) return false;
    auto env = scope.ClosureEnv();
    while (env != nullptr && !env->Has(name_expr->str_value)) {
      env = env->parent_ptr();
    }
    if (env == nullptr) return false;
    const Value* v = env->Find(name_expr->str_value);
    const auto* builtin =
        std::get_if<std::shared_ptr<minipy::BuiltinFunction>>(v);
    return builtin != nullptr && (*builtin)->name == builtin_name;
  }

  SymValue EvalCall(const Expr* expr, Frame& frame, Scope& scope);
  SymValue EvalBuiltinCall(const minipy::BuiltinFunction& builtin,
                           std::vector<SymValue>& args, Frame& frame,
                           const Expr* expr);
  SymValue EvalOpBuiltin(const minipy::BuiltinSpec& spec,
                         std::vector<SymValue>& args, Frame& frame);
  SymValue EvalUserCall(const std::shared_ptr<minipy::FunctionValue>& fn,
                        std::vector<SymValue> args, Frame& frame,
                        const Expr* call_site,
                        std::optional<ContextRef> self_origin = {});
  SymValue InlineCall(const std::shared_ptr<minipy::FunctionValue>& fn,
                      std::vector<SymValue> args, Frame& frame);
  SymValue InvokeCall(const std::shared_ptr<minipy::FunctionValue>& fn,
                      const void* callee, GeneratedFunction* generated,
                      std::vector<SymValue> args, Frame& frame);

  SymValue EvalAttribute(const Expr* expr, Frame& frame, Scope& scope);
  SymValue EvalSubscript(const Expr* expr, Frame& frame, Scope& scope);
  SymValue WrapDynamicRead(Frame& frame, NodeOutput value,
                           const ValueProfile* profile, const std::string& id,
                           DType dtype);

  // ---- function-graph generation (Invoke path) ----
  GeneratedFunction* FindFunction(const void* callee,
                                  const std::vector<SymValue>& args) {
    for (GeneratedFunction& generated : functions) {
      if (generated.callee == callee &&
          std::equal(generated.args.begin(), generated.args.end(),
                     args.begin(), args.end(), SameFunctionArg)) {
        return &generated;
      }
    }
    return nullptr;
  }
  GeneratedFunction& GenerateFunctionGraph(
      const std::shared_ptr<minipy::FunctionValue>& fn, const void* callee,
      const std::vector<SymValue>& args);

  // ---- compilation driver ----
  std::unique_ptr<CompiledGraph> Compile(
      const std::shared_ptr<minipy::FunctionValue>& fn,
      std::span<const Value> args, bool training, double lr,
      const GraphGenerator::CompileHints& compile_hints);
};

// ===========================================================================
// Calls
// ===========================================================================

SymValue GraphGenerator::Impl::EvalCall(const Expr* expr, Frame& frame,
                                        Scope& scope) {
  SymValue callee = Eval(expr->left.get(), frame, scope);
  std::vector<SymValue> args;
  args.reserve(expr->elements.size());
  for (const auto& arg : expr->elements) {
    args.push_back(Eval(arg.get(), frame, scope));
  }
  if (callee.IsStatic()) {
    if (const auto* builtin =
            std::get_if<std::shared_ptr<minipy::BuiltinFunction>>(
                &callee.static_value)) {
      if ((*builtin)->name == "__sym_append__") {
        // Bound append on a symbolic local list (see EvalAttribute): the
        // element vector rides along on the callee symbol.
        JANUS_EXPECTS(callee.elements != nullptr);
        if (args.size() != 1) Refuse("append() takes exactly one argument");
        callee.elements->push_back(std::move(args[0]));
        return SymValue::Static(minipy::NoneType{});
      }
      return EvalBuiltinCall(**builtin, args, frame, expr);
    }
    if (const auto* fn =
            std::get_if<std::shared_ptr<minipy::FunctionValue>>(
                &callee.static_value)) {
      return EvalUserCall(*fn, std::move(args), frame, expr, callee.origin);
    }
    if (const auto* obj =
            std::get_if<std::shared_ptr<minipy::ObjectValue>>(
                &callee.static_value)) {
      // Callable object: dispatch to __call__ bound to it.
      const auto call = (*obj)->cls()->methods.find("__call__");
      if (call != (*obj)->cls()->methods.end()) {
        auto bound = std::make_shared<minipy::FunctionValue>(*call->second);
        bound->self = callee.static_value;
        return EvalUserCall(bound, std::move(args), frame, expr,
                            callee.origin);
      }
    }
    Refuse("line " + std::to_string(expr->line) + ": cannot convert call to " +
           std::string(minipy::ValueTypeName(callee.static_value)));
  }
  Refuse("line " + std::to_string(expr->line) +
         ": dynamic callee values are imperative-only");
}

SymValue GraphGenerator::Impl::EvalUserCall(
    const std::shared_ptr<minipy::FunctionValue>& fn,
    std::vector<SymValue> args, Frame& frame, const Expr* /*call_site*/,
    std::optional<ContextRef> self_origin) {
  // Bound receiver first, carrying its context provenance so attribute
  // reads on `self` can record entry checks.
  if (!std::holds_alternative<minipy::NoneType>(fn->self)) {
    args.insert(args.begin(),
                SymValue::Static(fn->self, std::move(self_origin)));
  }
  // Static heap-object arguments whose profile shows per-call identity
  // churn (e.g. tree nodes) are demoted to dynamic pointers so attribute
  // access stays dynamic and recursion converges (§4.2.2).
  if (fn->def != nullptr) {
    for (std::size_t i = 0; i < args.size(); ++i) {
      SymValue& arg = args[i];
      if (!arg.IsStatic()) continue;
      const bool heap_obj =
          std::holds_alternative<std::shared_ptr<minipy::ObjectValue>>(
              arg.static_value) ||
          std::holds_alternative<std::shared_ptr<minipy::ListValue>>(
              arg.static_value);
      if (!heap_obj) continue;
      const ValueProfile* profile =
          prof->argument(fn->def, static_cast<int>(i));
      if (profile != nullptr && !profile->heap_stable) {
        DType dt = DType::kInt64;
        bool ptr = true;
        const NodeOutput n = ToNode(frame, arg, std::nullopt, &dt, &ptr);
        arg = SymValue::OfNode(n, frame.graph, DType::kInt64, true,
                               ShapeAssumption::Exact(Shape{}));
      }
    }
  }
  const void* callee = fn->def != nullptr
                           ? static_cast<const void*>(fn->def)
                           : static_cast<const void*>(fn->lambda);
  GeneratedFunction* generated = FindFunction(callee, args);
  const bool in_progress = generated != nullptr && generated->generating;
  const bool inlining_recursively =
      std::find(inline_stack.begin(), inline_stack.end(), callee) !=
      inline_stack.end();
  if (!opt.speculative_unroll || in_progress || inlining_recursively) {
    // BASE mode, or recursion: call through InvokeOp.
    return InvokeCall(fn, callee, generated, std::move(args), frame);
  }
  if (depth >= opt.max_inline_depth) Refuse("inline depth limit exceeded");
  inline_stack.push_back(callee);
  struct StackGuard {
    std::vector<const void*>* stack;
    ~StackGuard() { stack->pop_back(); }
  } guard{&inline_stack};
  return InlineCall(fn, std::move(args), frame);
}

SymValue GraphGenerator::Impl::InlineCall(
    const std::shared_ptr<minipy::FunctionValue>& fn,
    std::vector<SymValue> args, Frame& frame) {
  Scope scope;
  scope.closure = fn->closure;
  ++depth;
  struct DepthGuard {
    int* d;
    ~DepthGuard() { --*d; }
  } guard{&depth};
  fn_name_stack.push_back(fn->qualified_name);
  FnNameGuard name_guard{&fn_name_stack};
  const std::vector<std::string>& params =
      fn->lambda != nullptr ? fn->lambda->params : fn->def->params;
  if (args.size() != params.size()) {
    Refuse("call to " + fn->qualified_name + ": arity mismatch");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    scope.vars[params[i]] = std::move(args[i]);
  }
  // A lambda body is one expression with no statement of its own, so its
  // nodes attribute to the lambda; a def's statements stamp their own.
  SourceSiteScope site_scope(
      fn->qualified_name,
      fn->lambda != nullptr ? fn->lambda->line : fn->def->line);
  return RunBody(*fn, frame, scope);
}

// `generated` is the callee's table record for these arguments, if any.
SymValue GraphGenerator::Impl::InvokeCall(
    const std::shared_ptr<minipy::FunctionValue>& fn, const void* callee,
    GeneratedFunction* generated, std::vector<SymValue> args, Frame& frame) {
  GeneratedFunction& target = generated != nullptr
                                  ? *generated
                                  : GenerateFunctionGraph(fn, callee, args);
  // Node inputs: the node-kind args, then the callee's imports (its root
  // sources, brought into this frame).
  std::vector<NodeOutput> inputs;
  for (SymValue& arg : args) {
    if (arg.IsNode()) inputs.push_back(ToNode(frame, arg));
    if (arg.IsList()) Refuse("list arguments to non-inlined calls");
  }
  Node* call = AddOp(frame, "Invoke", inputs, {{"function", target.name}}, 1);
  if (target.generating) {
    // Recursive site: the callee's import list may still grow; patch later.
    target.pending_sites.push_back(
        PendingSite{call, frame.graph, frame.gates});
  } else {
    // Append import sources (root-graph values) lifted into this frame.
    for (const NodeOutput& src : target.import_sources) {
      SymValue root_sym = SymValue::OfNode(src, root->graph, DType::kFloat32);
      call->AppendInput(ApplyGates(frame, ImportValue(frame, root_sym)));
    }
  }
  // A recursive site reads float32: its callee's result is not known yet.
  return SymValue::OfNode({call, 0}, frame.graph, target.result_dtype,
                          false);
}

// Builds (or reuses) the GraphFunction for a call target: node-kind
// arguments become Params, static arguments are baked in, and imports of
// root-graph values append extra Params (Jeong et al.'s InvokeOp bodies).
GraphGenerator::Impl::GeneratedFunction&
GraphGenerator::Impl::GenerateFunctionGraph(
    const std::shared_ptr<minipy::FunctionValue>& fn, const void* callee,
    const std::vector<SymValue>& args) {
  GeneratedFunction& generated = functions.emplace_back();
  generated.callee = callee;
  generated.args = args;
  generated.name = Fresh("fn_" + SanitizeName(fn->qualified_name));

  auto gf = std::make_unique<GraphFunction>();
  gf->name = generated.name;
  out->library->Register(std::move(gf));
  GraphFunction& registered = out->library->LookupMutable(generated.name);

  fn_name_stack.push_back(fn->qualified_name);
  FnNameGuard name_guard{&fn_name_stack};
  // Function-level scope: prologue/epilogue nodes (Params, the Identity
  // result wrapper, recursive-site patch Switches) attribute to the def
  // line; per-statement scopes nested inside override it.
  SourceSiteScope fn_scope(
      fn->qualified_name,
      fn->def != nullptr ? fn->def->line : fn->lambda->line);

  Frame fn_frame;
  fn_frame.graph = &registered.graph;
  fn_frame.parent = root;  // function imports always come from the root
  fn_frame.fn = &registered;

  Scope scope;
  scope.closure = fn->closure;
  const std::vector<std::string>& params =
      fn->lambda != nullptr ? fn->lambda->params : fn->def->params;
  if (args.size() != params.size()) {
    Refuse("call to " + fn->qualified_name + ": arity mismatch");
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    const SymValue& arg = args[i];
    if (arg.IsNode()) {
      Node* param = registered.graph.AddNode(
          "Param", {},
          {{"index",
            static_cast<std::int64_t>(registered.parameters.size())}});
      registered.parameters.push_back(param);
      scope.vars[params[i]] = SymValue::OfNode(
          {param, 0}, &registered.graph, arg.dtype, arg.is_pointer,
          arg.shape);
    } else if (arg.IsList()) {
      Refuse("list arguments to non-inlined calls");
    } else {
      scope.vars[params[i]] = arg;  // baked static
    }
  }

  const SymValue result = RunBody(*fn, fn_frame, scope);
  DType result_dt = DType::kFloat32;
  bool result_ptr = false;
  NodeOutput result_node =
      ToNode(fn_frame, result, std::nullopt, &result_dt, &result_ptr);
  // Anchor side effects (asserts, deferred state writes) to the result.
  Node* wrapped = fn_frame.graph->AddNode("Identity", {result_node});
  for (Node* side : fn_frame.side_nodes) wrapped->AddControlInput(side);
  registered.results = {{wrapped, 0}};

  generated.generating = false;
  generated.import_sources = fn_frame.import_sources;
  generated.result_dtype = result_dt;

  // Patch self-recursive Invoke sites: they were created before the import
  // list was complete. Their missing inputs are this function's own import
  // Params (a recursive activation forwards its imports unchanged).
  if (!generated.pending_sites.empty()) {
    const int num_arg_params = static_cast<int>(
        registered.parameters.size() - fn_frame.import_sources.size());
    for (const PendingSite& ps : generated.pending_sites) {
      if (ps.graph != &registered.graph) {
        Refuse("recursive call from a nested loop body is not supported");
      }
      while (ps.site->num_inputs() <
             static_cast<int>(registered.parameters.size())) {
        Node* param = registered.parameters[static_cast<std::size_t>(
            ps.site->num_inputs())];
        JANUS_EXPECTS(ps.site->num_inputs() >= num_arg_params);
        // Re-apply the site's branch gates: a recursive activation on a
        // dead branch must see dead import tokens, not live ones.
        NodeOutput v{param, 0};
        for (const Gate& gate : ps.gates) {
          Node* sw = ps.graph->AddNode("Switch", {v, gate.cond}, {}, 2);
          v = {sw, gate.side ? 1 : 0};
        }
        ps.site->AppendInput(v);
      }
    }
    generated.pending_sites.clear();
  }
  return generated;
}

// ===========================================================================
// Functional loops (BASE lowering and unstable trip counts)
// ===========================================================================

void GraphGenerator::Impl::EmitFunctionalLoop(
    const Stmt* stmt, Frame& frame, Scope& scope, bool for_range,
    std::vector<SymValue> range_bounds) {
  // Loop-carried variables: names assigned in the body that already exist.
  std::set<std::string> assigned;
  CollectAssigned(stmt->body, &assigned);
  std::vector<std::string> carried_names;
  for (const std::string& name : assigned) {
    if (for_range && name == stmt->target->str_value) continue;
    if (scope.Find(name) != nullptr) carried_names.push_back(name);
  }

  // Materialise carried inits in the enclosing frame.
  std::vector<NodeOutput> carried_inits;
  std::vector<DType> carried_dtypes;
  std::vector<bool> carried_ptrs;
  for (const std::string& name : carried_names) {
    SymValue* sym = scope.Find(name);
    DType dt = DType::kFloat32;
    bool ptr = false;
    carried_inits.push_back(ToNode(frame, *sym, std::nullopt, &dt, &ptr));
    carried_dtypes.push_back(dt);
    carried_ptrs.push_back(ptr);
  }
  // The iteration counter is carried slot 0 for range loops.
  const int counter_slots = for_range ? 1 : 0;
  if (for_range) {
    carried_inits.insert(carried_inits.begin(),
                         ToNode(frame, range_bounds[0], DType::kInt64));
  }
  const auto num_carried =
      static_cast<std::int64_t>(carried_inits.size());

  // Shared capture registry: both cond and body resolve outer values
  // through it so the While op can pass one combined capture list.
  std::vector<NodeOutput> capture_sources;  // in the enclosing frame

  const std::string cond_name = Fresh("loop_cond");
  const std::string body_name = Fresh("loop_body");
  for (const std::string& fname : {cond_name, body_name}) {
    auto gf = std::make_unique<GraphFunction>();
    gf->name = fname;
    out->library->Register(std::move(gf));
  }
  GraphFunction& cond_fn = out->library->LookupMutable(cond_name);
  GraphFunction& body_fn = out->library->LookupMutable(body_name);

  // Builds one of the two loop functions. `emit` receives the function's
  // scope (carried vars bound to params) and must return the results.
  const auto build = [&](GraphFunction& gf,
                         const std::function<std::vector<NodeOutput>(
                             Frame&, Scope&)>& emit) {
    Frame loop_frame;
    loop_frame.graph = &gf.graph;
    loop_frame.fn = &gf;
    // Captures resolve against the *enclosing* frame; ImportValue appends
    // Params and records sources, which we merge into capture_sources.
    loop_frame.parent = &frame;
    Scope loop_scope;
    loop_scope.parent = &scope;
    for (std::int64_t i = 0; i < num_carried; ++i) {
      Node* param = gf.graph.AddNode(
          "Param", {}, {{"index", static_cast<std::int64_t>(i)}});
      gf.parameters.push_back(param);
      if (for_range && i == 0) {
        loop_scope.vars[stmt->target->str_value] = SymValue::OfNode(
            {param, 0}, &gf.graph, DType::kInt64, false,
            ShapeAssumption::Exact(Shape{}));
      } else {
        const auto ci = static_cast<std::size_t>(i - counter_slots);
        loop_scope.vars[carried_names[ci]] = SymValue::OfNode(
            {param, 0}, &gf.graph, carried_dtypes[ci], carried_ptrs[ci]);
      }
    }
    std::vector<NodeOutput> results = emit(loop_frame, loop_scope);
    // Anchor side nodes onto the first result.
    JANUS_EXPECTS(!results.empty());
    Node* wrapped = gf.graph.AddNode("Identity", {results[0]});
    for (Node* side : loop_frame.side_nodes) wrapped->AddControlInput(side);
    results[0] = {wrapped, 0};
    gf.results = results;
    // Merge this function's import sources into the shared capture list.
    // Params were appended in discovery order; map them onto the combined
    // ordering by re-basing: find or append each source.
    for (std::size_t i = 0; i < loop_frame.import_sources.size(); ++i) {
      const NodeOutput src = loop_frame.import_sources[i];
      bool found = false;
      for (const NodeOutput& existing : capture_sources) {
        if (existing == src) {
          found = true;
          break;
        }
      }
      if (!found) capture_sources.push_back(src);
    }
    return loop_frame.import_sources;
  };

  // Body: executes the statements once; results are the updated carrieds.
  const auto body_imports = build(body_fn, [&](Frame& lf, Scope& ls) {
    // The While op runs the whole body on every trip; nothing lowers a
    // statement that leaves it early.
    if (const Flow flow = ExecBlock(stmt->body, lf, ls);
        flow != Flow::kNormal) {
      Refuse(FlowStatement(flow) +
             " inside a data-dependent loop is imperative-only");
    }
    std::vector<NodeOutput> results;
    if (for_range) {
      // counter + step
      const SymValue i_sym = *ls.Find(stmt->target->str_value);
      SymValue next = Binary(BinaryOp::kAdd, i_sym, range_bounds[2], lf,
                             stmt->line);
      results.push_back(ToNode(lf, next, DType::kInt64));
    }
    for (std::size_t c = 0; c < carried_names.size(); ++c) {
      SymValue* sym = ls.Find(carried_names[c]);
      JANUS_EXPECTS(sym != nullptr);
      results.push_back(ToNode(lf, *sym, carried_dtypes[c]));
    }
    return results;
  });

  // Cond: for-range compares the counter to the bound; while evaluates the
  // condition expression.
  const auto cond_imports = build(cond_fn, [&](Frame& lf, Scope& ls) {
    NodeOutput pred;
    if (for_range) {
      const SymValue i_sym = *ls.Find(stmt->target->str_value);
      const SymValue cmp =
          Compare(CompareOp::kLt, i_sym, range_bounds[1], lf, stmt->line);
      pred = ToBool(lf, cmp);
    } else {
      pred = ToBool(lf, Eval(stmt->value.get(), lf, ls));
    }
    return std::vector<NodeOutput>{pred};
  });

  // Pad both functions to the full combined capture list so the While
  // kernel can pass identical argument vectors.
  const auto pad = [&](GraphFunction& gf,
                       const std::vector<NodeOutput>& own_imports) {
    // Existing import params map to own_imports in order; the combined list
    // may interleave differently, so rebuild: params [carried..., combined
    // captures...] and rewire existing import params.
    // Simplest correct approach: append params for captures this function
    // did not import, then reorder its import params to combined order.
    std::map<std::pair<Node*, int>, Node*> own_param_for_source;
    for (std::size_t i = 0; i < own_imports.size(); ++i) {
      own_param_for_source[{own_imports[i].node, own_imports[i].index}] =
          gf.parameters[static_cast<std::size_t>(num_carried) + i];
    }
    std::vector<Node*> new_params(
        gf.parameters.begin(),
        gf.parameters.begin() + static_cast<std::ptrdiff_t>(num_carried));
    for (std::size_t i = 0; i < capture_sources.size(); ++i) {
      const auto key = std::make_pair(capture_sources[i].node,
                                      capture_sources[i].index);
      const auto it = own_param_for_source.find(key);
      Node* param = nullptr;
      if (it != own_param_for_source.end()) {
        param = it->second;
      } else {
        param = gf.graph.AddNode("Param", {});
      }
      param->SetAttr("index", static_cast<std::int64_t>(num_carried) +
                                  static_cast<std::int64_t>(i));
      new_params.push_back(param);
    }
    gf.parameters = std::move(new_params);
  };
  pad(body_fn, body_imports);
  pad(cond_fn, cond_imports);

  // The While node in the enclosing frame.
  std::vector<NodeOutput> inputs = carried_inits;
  for (const NodeOutput& src : capture_sources) {
    inputs.push_back(ApplyGates(frame, src));
  }
  Node* loop = AddOp(frame, "While", inputs,
                     {{"cond_fn", cond_name},
                      {"body_fn", body_name},
                      {"num_carried", num_carried}},
                     static_cast<int>(num_carried));
  // Rebind carried variables to the loop outputs.
  for (std::size_t c = 0; c < carried_names.size(); ++c) {
    const int slot = counter_slots + static_cast<int>(c);
    *scope.Find(carried_names[c]) = SymValue::OfNode(
        {loop, slot}, frame.graph, carried_dtypes[c], carried_ptrs[c]);
  }
}

// ===========================================================================
// Builtins (the external-function whitelist of §4.3.1)
// ===========================================================================

namespace {

std::int64_t StaticInt(const SymValue& s, const char* what) {
  if (s.IsStatic()) {
    if (const auto* i = std::get_if<std::int64_t>(&s.static_value)) {
      return *i;
    }
    if (const auto* b = std::get_if<bool>(&s.static_value)) {
      return *b ? 1 : 0;
    }
  }
  Refuse(std::string(what) + ": expected a static int");
}

bool IsPlainData(const Value& v) {
  if (const auto* list = std::get_if<std::shared_ptr<minipy::ListValue>>(&v)) {
    return std::all_of((*list)->items.begin(), (*list)->items.end(),
                       IsPlainData);
  }
  return std::holds_alternative<minipy::NoneType>(v) ||
         std::holds_alternative<bool>(v) ||
         std::holds_alternative<std::int64_t>(v) ||
         std::holds_alternative<double>(v) ||
         std::holds_alternative<std::string>(v);
}

// The plain data every argument holds (None, bool, int, float, str, or
// lists of these), or nullopt if any holds other data. A symbolic list
// becomes a transient ListValue that is never registered on the
// interpreter heap: heap ids are pointers that graphs can see.
std::optional<std::vector<Value>> PlainArgs(std::span<const SymValue> args) {
  std::vector<Value> out;
  for (const SymValue& arg : args) {
    if (arg.IsStatic() && IsPlainData(arg.static_value)) {
      out.push_back(arg.static_value);
    } else if (auto items = arg.IsList() ? PlainArgs(*arg.elements)
                                         : std::nullopt) {
      auto list = std::make_shared<minipy::ListValue>(/*heap_id=*/0);
      list->items = std::move(*items);
      out.push_back(std::move(list));
    } else {
      return std::nullopt;
    }
  }
  return out;
}

}  // namespace

SymValue GraphGenerator::Impl::EvalOpBuiltin(const minipy::BuiltinSpec& spec,
                                             std::vector<SymValue>& args,
                                             Frame& frame) {
  AttrMap attrs;
  if (spec.attrs != nullptr) {
    const auto statics =
        PlainArgs(std::span(args).subspan(spec.tensor_args));
    if (!statics.has_value()) {
      Refuse(std::string(spec.name) + ": expected static arguments");
    }
    attrs = RefuseOnError([&] { return spec.attrs(*statics, spec.name); });
  }
  // Later inputs take the first input's dtype; OneHot's input is int64.
  const std::string_view op = spec.graph_op;
  std::vector<NodeOutput> inputs;
  DType dt = DType::kFloat32;
  for (std::size_t i = 0; i < spec.tensor_args; ++i) {
    const std::optional<DType> want =
        op == "OneHot" ? DType::kInt64
                       : (i > 0 ? std::optional(dt) : std::nullopt);
    DType this_dt = DType::kFloat32;
    inputs.push_back(ToNode(frame, args[i], want, &this_dt));
    if (i == 0) dt = this_dt;
  }
  // Result dtype and shape, keyed by op; by default the first input's dtype
  // and an unknown shape.
  ShapeAssumption shape = ShapeAssumption::Unknown();
  const auto ints = [&](const char* key) -> const std::vector<std::int64_t>& {
    return std::get<std::vector<std::int64_t>>(attrs.find(key)->second);
  };
  if (op == "ReduceSum" || op == "ReduceMean" || op == "ReduceMax") {
    if (ints("axes").empty()) shape = ShapeAssumption::Exact(Shape{});
  } else if (op == "Reshape") {
    const auto& dims = ints("shape");
    if (std::all_of(dims.begin(), dims.end(),
                    [](std::int64_t d) { return d >= 0; })) {
      shape = ShapeAssumption::Exact(Shape(dims));
    }
  } else if (op == "RandomNormal" || op == "RandomUniform") {
    dt = DType::kFloat32;
    shape = ShapeAssumption::Exact(Shape(ints("shape")));
  } else if (op == "Cast") {
    dt = std::get<DType>(attrs.find("dtype")->second);
    shape = args[0].shape;
  } else if (op == "ArgMax") {
    dt = DType::kInt64;
  } else if (op == "SoftmaxCrossEntropy" || op == "Gather" ||
             op == "OneHot" || op == "Conv2D" || op == "MaxPool2D" ||
             op == "AvgPool2D") {
    dt = DType::kFloat32;
  }
  Node* n = AddOp(frame, spec.graph_op, std::move(inputs), std::move(attrs));
  return SymValue::OfNode({n, 0}, frame.graph, dt, false, std::move(shape));
}

SymValue GraphGenerator::Impl::EvalBuiltinCall(
    const minipy::BuiltinFunction& builtin, std::vector<SymValue>& args,
    Frame& frame, const Expr* expr) {
  const std::string& name = builtin.name;
  const minipy::BuiltinSpec* spec = minipy::FindBuiltin(name);
  if (spec != nullptr) {
    RefuseOnError([&] { minipy::CheckArity(*spec, args.size()); });
    if (spec->is_op()) return EvalOpBuiltin(*spec, args, frame);
    if (spec->static_eval) {
      // Plain-data arguments: run the interpreter's own implementation.
      if (auto plain = PlainArgs(args)) {
        Value result =
            RefuseOnError([&] { return spec->impl(*interp, *plain); });
        if (const auto* t = std::get_if<Tensor>(&result)) {
          Node* n = frame.graph->AddNode("Const", {}, {{"value", *t}});
          return SymValue::OfNode({n, 0}, frame.graph, t->dtype(), false,
                                  ShapeAssumption::Exact(t->shape()));
        }
        return SymValue::Static(std::move(result));
      }
    }
  }
  if (name == "variable") {
    // Parameters already exist by generation time (created while
    // profiling); the handle is a static value.
    const auto* var = args[0].IsStatic()
                          ? std::get_if<std::string>(&args[0].static_value)
                          : nullptr;
    if (var == nullptr) Refuse("variable: expected a static string");
    return SymValue::Static(minipy::VariableRef{*var});
  }
  if (name == "assign") {
    const std::string* var = nullptr;
    if (args[0].IsStatic()) {
      const Value& handle = args[0].static_value;
      const auto* ref = std::get_if<minipy::VariableRef>(&handle);
      var = ref != nullptr ? &ref->name : std::get_if<std::string>(&handle);
    }
    if (var == nullptr) Refuse("assign(): variable handle must be static");
    const NodeOutput v = ToNode(frame, args[1]);
    RefuseSideEffectInDynamicBranch(frame, "variable assignment");
    Node* set = AddOp(frame, "AssignVariable", {v}, {{"var", *var}});
    OrderStateWrite(frame, -2, "var:" + *var, set);
    return SymValue::Static(minipy::NoneType{});
  }
  if (name == "concat" || name == "stack") {
    if (!args.at(0).IsList()) {
      Refuse(name + "(): expected a list of tensors");
    }
    std::vector<NodeOutput> parts;
    DType dt = DType::kFloat32;
    for (const SymValue& item : *args[0].elements) {
      parts.push_back(ToNode(frame, item, std::nullopt, &dt));
    }
    if (parts.empty()) Refuse(name + "(): empty list");
    Node* n = name == "concat"
                  ? AddOp(frame, "Concat", parts,
                          {{"axis", StaticInt(args.at(1), "concat")}})
                  : AddOp(frame, "Stack", parts);
    return SymValue::OfNode({n, 0}, frame.graph, dt);
  }
  if (name == "len") {
    const SymValue& target = args.at(0);
    if (target.IsList()) {
      return SymValue::Static(
          static_cast<std::int64_t>(target.elements->size()));
    }
    if (target.IsStatic()) {
      if (const auto* list = std::get_if<std::shared_ptr<minipy::ListValue>>(
              &target.static_value)) {
        return SymValue::Static(
            static_cast<std::int64_t>((*list)->items.size()));
      }
    }
    if (target.IsNode() && !target.shape.is_unknown() &&
        !target.shape.dims().empty() &&
        target.shape.dims()[0].has_value()) {
      return SymValue::Static(*target.shape.dims()[0]);
    }
    Refuse("len(): not statically determinable");
  }
  if (name == "range") {
    // range outside a for-header must be fully static.
    const std::int64_t first = StaticInt(args[0], "range");
    const std::int64_t lo = args.size() == 1 ? 0 : first;
    const std::int64_t hi =
        args.size() == 1 ? first : StaticInt(args[1], "range");
    const std::int64_t step =
        args.size() == 3 ? StaticInt(args[2], "range") : 1;
    if (step == 0) Refuse("range() step must not be zero");
    std::vector<SymValue> items;
    for (std::int64_t i = lo; step > 0 ? i < hi : i > hi; i += step) {
      items.push_back(SymValue::Static(i));
    }
    return SymValue::List(std::move(items));
  }
  if (name == "print") {
    RefuseSideEffectInDynamicBranch(frame, "print");
    // Leading static arguments fold into a prefix attribute; dynamic ones
    // become inputs.
    std::string prefix;
    std::vector<NodeOutput> inputs;
    bool statics_done = false;
    for (const SymValue& arg : args) {
      if (!statics_done && arg.IsStatic()) {
        if (!prefix.empty()) prefix += ' ';
        prefix += minipy::ValueToString(arg.static_value);
        continue;
      }
      statics_done = true;
      inputs.push_back(ToNode(frame, arg));
    }
    Node* n = AddOp(frame, "PyPrint", inputs, {{"prefix", prefix}});
    frame.side_nodes.push_back(n);
    return SymValue::Static(minipy::NoneType{});
  }
  // Tensor forms of the statically evaluated int/float/abs. Like the
  // interpreter, int and float convert a tensor's element 0 to a scalar.
  if ((name == "int" || name == "float" || name == "abs") &&
      args[0].IsNode()) {
    DType dt = DType::kFloat32;
    const NodeOutput v = ToNode(frame, args[0], std::nullopt, &dt);
    if (name == "abs") {
      return SymValue::OfNode({AddOp(frame, "Abs", {v}), 0}, frame.graph, dt,
                              false, args[0].shape);
    }
    Node* flat = AddOp(frame, "Reshape", {v},
                       {{"shape", std::vector<std::int64_t>{-1}}});
    Node* first = AddOp(frame, "Slice", {{flat, 0}},
                        {{"begin", std::vector<std::int64_t>{0}},
                         {"size", std::vector<std::int64_t>{1}}});
    Node* element = AddOp(frame, "Reshape", {{first, 0}},
                          {{"shape", std::vector<std::int64_t>{}}});
    dt = name == "int" ? DType::kInt64 : DType::kFloat32;
    Node* n = AddOp(frame, "Cast", {{element, 0}}, {{"dtype", dt}});
    return SymValue::OfNode({n, 0}, frame.graph, dt, false,
                            ShapeAssumption::Exact(Shape{}));
  }
  if (spec != nullptr && spec->static_eval) {
    Refuse(name + "(): arguments are not static plain data");
  }
  Refuse("builtin '" + name +
         "' is outside the conversion whitelist (imperative-only), line " +
         std::to_string(expr->line));
}

// ===========================================================================
// Attributes and subscripts (§4.2.3 impure-function handling)
// ===========================================================================

SymValue GraphGenerator::Impl::EvalAttribute(const Expr* expr, Frame& frame,
                                             Scope& scope) {
  SymValue base = Eval(expr->left.get(), frame, scope);
  const std::string& name = expr->str_value;

  // Symbolic local list: the only supported method is append.
  if (base.IsList()) {
    if (name == "append") {
      // Marker builtin that mutates the shared element vector in place.
      auto elements = base.elements;
      auto marker = std::make_shared<minipy::BuiltinFunction>(
          "__sym_append__",
          [](minipy::Interpreter&, std::span<minipy::Value>) -> minipy::Value {
            throw InternalError("symbolic append executed imperatively");
          });
      SymValue sym = SymValue::Static(minipy::Value{marker});
      sym.elements = std::move(elements);  // smuggle the list alongside
      return sym;
    }
    Refuse("list attribute '" + name + "' is not convertible");
  }

  // Static object: choose static vs dynamic read per profile (§4.2.2).
  if (base.IsStatic()) {
    const auto* obj = std::get_if<std::shared_ptr<minipy::ObjectValue>>(
        &base.static_value);
    if (obj == nullptr) {
      Refuse("line " + std::to_string(expr->line) + ": attribute '" + name +
             "' read on a static " +
             std::string(minipy::ValueTypeName(base.static_value)));
    }
    // Method lookup first (immutable by construction).
    const auto attr_it = (*obj)->attrs.find(name);
    if (attr_it == (*obj)->attrs.end()) {
      const auto method_it = (*obj)->cls()->methods.find(name);
      if (method_it == (*obj)->cls()->methods.end()) {
        Refuse("object has no attribute '" + name + "'");
      }
      auto bound = std::make_shared<minipy::FunctionValue>(*method_it->second);
      bound->self = base.static_value;
      return SymValue::Static(minipy::Value{std::move(bound)}, base.origin);
    }
    const minipy::Value& current = attr_it->second;
    const ValueProfile* profile = prof->attr_load(expr);
    if (std::holds_alternative<Tensor>(current)) {
      if (opt.tracing_semantics) {
        // Trace-local binding first, then bake the traced heap value —
        // silently wrong when the attribute mutates between iterations
        // (the LM failure of Fig. 6).
        const auto traced = trace_attrs.find({(*obj)->heap_id(), name});
        if (traced != trace_attrs.end()) return traced->second;
        Node* baked = frame.graph->AddNode(
            "Const", {}, {{"value", std::get<Tensor>(current)}});
        return SymValue::OfNode(
            {baked, 0}, frame.graph, std::get<Tensor>(current).dtype(),
            false,
            ShapeAssumption::Exact(std::get<Tensor>(current).shape()));
      }
      // Mutable tensor state: dynamic PyGetAttr with local-copy semantics.
      const NodeOutput ptr = ToNode(frame, base);
      Node* get = AddOp(frame, "PyGetAttr", {ptr}, {{"attr", name}});
      OrderStateRead(frame, (*obj)->heap_id(), StateKeyName(name), get);
      return WrapDynamicRead(frame, {get, 0}, profile,
                             "shape:attr" + std::to_string(expr->id),
                             std::get<Tensor>(current).dtype());
    }
    // Non-tensor attr: static capture with an entry check, unless the
    // profile shows it changes (then a dynamic scalar read).
    const bool scalar =
        std::holds_alternative<std::int64_t>(current) ||
        std::holds_alternative<double>(current) ||
        std::holds_alternative<bool>(current);
    const bool stable =
        profile == nullptr || profile->value_stable || !scalar;
    if (!stable && scalar) {
      const NodeOutput ptr = ToNode(frame, base);
      Node* get = AddOp(frame, "PyGetAttr", {ptr}, {{"attr", name}});
      OrderStateRead(frame, (*obj)->heap_id(), StateKeyName(name), get);
      const DType dt = std::holds_alternative<double>(current)
                           ? DType::kFloat32
                           : (std::holds_alternative<bool>(current)
                                  ? DType::kBool
                                  : DType::kInt64);
      return SymValue::OfNode({get, 0}, frame.graph, dt, false,
                              ShapeAssumption::Exact(Shape{}));
    }
    std::optional<ContextRef> origin;
    if (base.origin.has_value()) {
      origin = *base.origin;
      origin->steps.push_back(ContextRef::Step{true, name, 0});
      AddEntryCheck(*origin, current);
    }
    return SymValue::Static(current, origin);
  }

  // Dynamic pointer: PyGetAttr, with the result kind from the profile.
  if (base.IsNode() && base.is_pointer) {
    const ValueProfile* profile = prof->attr_load(expr);
    if (profile == nullptr || profile->kind == ObservedKind::kMixed) {
      Refuse("line " + std::to_string(expr->line) +
             ": attribute '" + name +
             "' of a dynamic object has no stable observed type");
    }
    const NodeOutput ptr = ToNode(frame, base);
    Node* get = AddOp(frame, "PyGetAttr", {ptr}, {{"attr", name}});
    // Dynamic-object reads are not ordered against static writes (the
    // models only read through dynamic pointers; see DESIGN.md).
    switch (profile->kind) {
      case ObservedKind::kTensor:
        return WrapDynamicRead(frame, {get, 0}, profile,
                               "shape:attr" + std::to_string(expr->id),
                               profile->dtype);
      case ObservedKind::kInt:
        return SymValue::OfNode({get, 0}, frame.graph, DType::kInt64, false,
                                ShapeAssumption::Exact(Shape{}));
      case ObservedKind::kBool:
        return SymValue::OfNode({get, 0}, frame.graph, DType::kBool, false,
                                ShapeAssumption::Exact(Shape{}));
      case ObservedKind::kFloat:
        return SymValue::OfNode({get, 0}, frame.graph, DType::kFloat32,
                                false, ShapeAssumption::Exact(Shape{}));
      case ObservedKind::kObject:
      case ObservedKind::kList:
      case ObservedKind::kDict:
      case ObservedKind::kNone:
        return SymValue::OfNode({get, 0}, frame.graph, DType::kInt64, true);
      default:
        Refuse("attribute '" + name +
               "' of a dynamic object has unconvertible type " +
               ObservedKindName(profile->kind));
    }
  }
  Refuse("line " + std::to_string(expr->line) +
         ": attribute read on a non-object value");
}

// Wraps a dynamic tensor read with a shape assertion when the profile pins
// dimensions (Fig. 4 specialisation).
SymValue GraphGenerator::Impl::WrapDynamicRead(Frame& frame, NodeOutput value,
                                               const ValueProfile* profile,
                                               const std::string& id,
                                               DType dtype) {
  ShapeAssumption shape = ShapeAssumption::Unknown();
  if (opt.specialize && !hints.DropShapes() && profile != nullptr &&
      profile->kind == ObservedKind::kTensor && AssumptionUsable(id) &&
      !profile->shape.is_unknown()) {
    shape = hints.RelaxShapesToRank() ? profile->shape.RelaxedToRank()
                                      : profile->shape;
    if (opt.insert_assertions) {
      std::vector<std::int64_t> dims;
      for (const auto& d : shape.dims()) {
        dims.push_back(d.has_value() ? *d : -1);
      }
      Node* check = AddOp(frame, "AssertShape", {value},
                          {{"dims", dims}, {"assumption", id}});
      out->runtime_assumptions.push_back(id);
      ++out->num_assert_ops;
      value = {check, 0};
    }
  }
  return SymValue::OfNode(value, frame.graph, dtype, false, shape);
}

SymValue GraphGenerator::Impl::EvalSubscript(const Expr* expr, Frame& frame,
                                             Scope& scope) {
  SymValue base = Eval(expr->left.get(), frame, scope);
  SymValue index = Eval(expr->right.get(), frame, scope);

  // Symbolic list with static index.
  if (base.IsList()) {
    const std::int64_t i = StaticInt(index, "list index");
    const auto n = static_cast<std::int64_t>(base.elements->size());
    std::int64_t idx = i < 0 ? i + n : i;
    if (idx < 0 || idx >= n) Refuse("static list index out of range");
    return (*base.elements)[static_cast<std::size_t>(idx)];
  }

  if (base.IsStatic()) {
    // Captured heap list with static index: element resolves through the
    // capture machinery (tensor elements become placeholders).
    if (const auto* list = std::get_if<std::shared_ptr<minipy::ListValue>>(
            &base.static_value)) {
      if (index.IsStatic()) {
        const std::int64_t i = StaticInt(index, "list index");
        const auto n = static_cast<std::int64_t>((*list)->items.size());
        std::int64_t idx = i < 0 ? i + n : i;
        if (idx < 0 || idx >= n) Refuse("heap list index out of range");
        if (!base.origin.has_value()) {
          Refuse("subscript of a heap list of unknown provenance");
        }
        ContextRef ref = *base.origin;
        ref.steps.push_back(ContextRef::Step{false, "", idx});
        return Capture(ref, (*list)->items[static_cast<std::size_t>(idx)],
                       prof->subscr_load(expr));
      }
      // Dynamic index into a heap list: PyGetSubscr.
      const NodeOutput ptr = ToNode(frame, base);
      const NodeOutput idx = ToNode(frame, index, DType::kInt64);
      Node* get = AddOp(frame, "PyGetSubscr", {ptr, idx});
      OrderStateRead(frame,
                     (*list)->heap_id(), "[]", get);
      const ValueProfile* profile = prof->subscr_load(expr);
      if (profile != nullptr && profile->kind == ObservedKind::kTensor) {
        return WrapDynamicRead(frame, {get, 0}, profile,
                               "shape:sub" + std::to_string(expr->id),
                               profile->dtype);
      }
      if (profile != nullptr && (profile->kind == ObservedKind::kObject ||
                                 profile->kind == ObservedKind::kList)) {
        return SymValue::OfNode({get, 0}, frame.graph, DType::kInt64, true);
      }
      if (profile != nullptr && profile->kind == ObservedKind::kInt) {
        return SymValue::OfNode({get, 0}, frame.graph, DType::kInt64, false,
                                ShapeAssumption::Exact(Shape{}));
      }
      Refuse("dynamic list subscript has no stable observed type");
    }
    Refuse("line " + std::to_string(expr->line) +
           ": subscript on unsupported static value");
  }

  // Tensor subscript: static index slices statically when the shape is
  // pinned; otherwise (or with a runtime index) a DynamicIndex op.
  if (base.IsNode() && !base.is_pointer) {
    if (index.IsStatic() && base.shape.IsExact()) {
      const std::int64_t i = StaticInt(index, "tensor index");
      return TensorIndexStatic(frame, base, i);
    }
    const NodeOutput src = ToNode(frame, base);
    const NodeOutput idx = ToNode(frame, index, DType::kInt64);
    Node* pick = AddOp(frame, "DynamicIndex", {src, idx});
    ShapeAssumption out_shape = ShapeAssumption::Unknown();
    if (!base.shape.is_unknown() && !base.shape.dims().empty()) {
      std::vector<std::optional<std::int64_t>> tail(
          base.shape.dims().begin() + 1, base.shape.dims().end());
      bool exact = true;
      std::vector<std::int64_t> dims;
      for (const auto& d : tail) {
        if (!d.has_value()) { exact = false; break; }
        dims.push_back(*d);
      }
      if (exact) out_shape = ShapeAssumption::Exact(Shape(dims));
    }
    return SymValue::OfNode({pick, 0}, frame.graph, base.dtype, false,
                            out_shape);
  }
  // Dynamic pointer subscript (e.g. tree children lists).
  if (base.IsNode() && base.is_pointer) {
    const NodeOutput ptr = ToNode(frame, base);
    const NodeOutput idx = ToNode(frame, index, DType::kInt64);
    Node* get = AddOp(frame, "PyGetSubscr", {ptr, idx});
    const ValueProfile* profile = prof->subscr_load(expr);
    if (profile != nullptr && profile->kind == ObservedKind::kTensor) {
      return WrapDynamicRead(frame, {get, 0}, profile,
                             "shape:sub" + std::to_string(expr->id),
                             profile->dtype);
    }
    if (profile != nullptr && (profile->kind == ObservedKind::kObject ||
                               profile->kind == ObservedKind::kList)) {
      return SymValue::OfNode({get, 0}, frame.graph, DType::kInt64, true);
    }
    Refuse("dynamic subscript has no stable observed type");
  }
  Refuse("line " + std::to_string(expr->line) + ": unsupported subscript");
}

// ===========================================================================
// Compilation driver
// ===========================================================================

std::unique_ptr<CompiledGraph> GraphGenerator::Impl::Compile(
    const std::shared_ptr<minipy::FunctionValue>& fn,
    std::span<const Value> args, bool training, double lr,
    const GraphGenerator::CompileHints& compile_hints) {
  // Reset per-compilation state.
  hints = compile_hints;
  variable_reads.clear();
  functions.clear();
  entry_check_seen.clear();
  trace_attrs.clear();
  fresh_counter = 0;
  depth = 0;
  budget = opt.max_unroll_total;

  auto artifact = std::make_unique<CompiledGraph>();
  artifact->library = std::make_shared<FunctionLibrary>();
  artifact->training = training;
  artifact->learning_rate = lr;
  artifact->unit_name = fn->qualified_name;
  artifact->despecialization_level = compile_hints.despecialization_level;
  out = artifact.get();

  Frame root_frame;
  root_frame.graph = &artifact->graph;
  root = &root_frame;
  root_args = args;

  fn_name_stack.clear();
  fn_name_stack.push_back(fn->qualified_name);
  FnNameGuard name_guard{&fn_name_stack};
  // Unit-level scope: captures, the gradient/update epilogue (lr constant,
  // ApplySGD, anchor NoOp) and anything else created outside a statement
  // attribute to the unit's def line. AddGradients re-scopes each gradient
  // node to its forward node's site.
  SourceSiteScope fn_scope(
      fn->qualified_name,
      fn->def != nullptr ? fn->def->line
                         : (fn->lambda != nullptr ? fn->lambda->line : 0));

  Scope scope;
  scope.closure = fn->closure;
  const std::vector<std::string>& params =
      fn->lambda != nullptr ? fn->lambda->params : fn->def->params;
  if (args.size() != params.size()) {
    Refuse("conversion-unit arity mismatch: got " +
           std::to_string(args.size()) + " args for " +
           std::to_string(params.size()) + " parameters");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    ContextRef ref;
    ref.arg_index = static_cast<int>(i);
    const ValueProfile* profile =
        fn->def != nullptr ? prof->argument(fn->def, static_cast<int>(i))
                           : nullptr;
    scope.vars[params[i]] = Capture(ref, args[i], profile);
  }

  const SymValue result = RunBody(*fn, root_frame, scope);
  DType result_dt = DType::kFloat32;
  const NodeOutput result_node =
      ToNode(root_frame, result, std::nullopt, &result_dt);
  Node* result_identity =
      root_frame.graph->AddNode("Identity", {result_node});

  if (training) {
    if (result_dt != DType::kFloat32) {
      Refuse("training requires a float loss value");
    }
    std::vector<std::string> names;
    std::vector<NodeOutput> targets;
    for (const auto& [name, read] : variable_reads) {
      names.push_back(name);
      targets.push_back(read);
    }
    const std::vector<NodeOutput> grads = AddGradients(
        artifact->graph, *artifact->library, {result_identity, 0}, targets);
    const NodeOutput lr_const = artifact->graph.Constant(
        Tensor::Scalar(static_cast<float>(lr)), Fresh("lr"));
    for (std::size_t i = 0; i < names.size(); ++i) {
      Node* sgd = artifact->graph.AddNode("ApplySGD", {grads[i], lr_const},
                                          {{"var", names[i]}});
      // The parameter read must observe the pre-update value.
      sgd->AddControlInput(targets[i].node);
      root_frame.side_nodes.push_back(sgd);
    }
  }

  Node* anchor = root_frame.graph->AddNode("NoOp", {}, {}, 1, Fresh("anchor"));
  for (Node* side : root_frame.side_nodes) anchor->AddControlInput(side);
  artifact->fetches = {{result_identity, 0}, {anchor, 0}};

  if (opt.specialize) {
    OptimizeGraph(artifact->graph, artifact->fetches);
  }

  out = nullptr;
  root = nullptr;
  return artifact;
}

// ===========================================================================
// Public interface
// ===========================================================================

GraphGenerator::GraphGenerator(minipy::Interpreter* interp,
                               Profiler* profiler,
                               GeneratorOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->interp = interp;
  impl_->prof = profiler;
  impl_->opt = options;
}

GraphGenerator::~GraphGenerator() = default;

std::unique_ptr<CompiledGraph> GraphGenerator::Compile(
    const std::shared_ptr<minipy::FunctionValue>& fn,
    std::span<const minipy::Value> args, bool training, double lr,
    const CompileHints& hints) {
  return impl_->Compile(fn, args, training, lr, hints);
}

std::unique_ptr<CompiledGraph> GraphGenerator::Compile(
    const std::shared_ptr<minipy::FunctionValue>& fn,
    std::span<const minipy::Value> args, bool training, double lr) {
  return impl_->Compile(fn, args, training, lr, CompileHints{});
}

}  // namespace janus
