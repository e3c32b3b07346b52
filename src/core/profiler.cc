#include "core/profiler.h"

#include "obs/trace.h"

namespace janus {

using minipy::Value;

void ObserveValue(ValueProfile& profile, const Value& value) {
  using minipy::ListValue;
  using minipy::DictValue;
  using minipy::ObjectValue;
  using minipy::FunctionValue;
  using minipy::ClassValue;
  using minipy::BuiltinFunction;

  ObservedKind kind = ObservedKind::kNone;
  DType dtype = DType::kFloat32;
  const Shape* shape = nullptr;
  double numeric = 0.0;
  std::string str;
  std::int64_t heap = 0;

  if (std::holds_alternative<minipy::NoneType>(value)) {
    kind = ObservedKind::kNone;
  } else if (const auto* b = std::get_if<bool>(&value)) {
    kind = ObservedKind::kBool;
    numeric = *b ? 1.0 : 0.0;
  } else if (const auto* i = std::get_if<std::int64_t>(&value)) {
    kind = ObservedKind::kInt;
    numeric = static_cast<double>(*i);
  } else if (const auto* d = std::get_if<double>(&value)) {
    kind = ObservedKind::kFloat;
    numeric = *d;
  } else if (const auto* s = std::get_if<std::string>(&value)) {
    kind = ObservedKind::kString;
    str = *s;
  } else if (const auto* t = std::get_if<Tensor>(&value)) {
    kind = ObservedKind::kTensor;
    dtype = t->dtype();
    shape = &t->shape();
  } else if (const auto* v = std::get_if<minipy::VariableRef>(&value)) {
    kind = ObservedKind::kVariable;
    str = v->name;
  } else if (const auto* l =
                 std::get_if<std::shared_ptr<ListValue>>(&value)) {
    kind = ObservedKind::kList;
    heap = (*l)->heap_id();
    numeric = static_cast<double>((*l)->items.size());
  } else if (const auto* dd =
                 std::get_if<std::shared_ptr<DictValue>>(&value)) {
    kind = ObservedKind::kDict;
    heap = (*dd)->heap_id();
  } else if (const auto* o =
                 std::get_if<std::shared_ptr<ObjectValue>>(&value)) {
    kind = ObservedKind::kObject;
    heap = (*o)->heap_id();
  } else if (const auto* f =
                 std::get_if<std::shared_ptr<FunctionValue>>(&value)) {
    kind = ObservedKind::kFunction;
    heap = reinterpret_cast<std::intptr_t>((*f)->def != nullptr
                                               ? static_cast<const void*>((*f)->def)
                                               : static_cast<const void*>((*f)->lambda));
  } else if (std::holds_alternative<std::shared_ptr<ClassValue>>(value)) {
    kind = ObservedKind::kClass;
  } else if (const auto* bf =
                 std::get_if<std::shared_ptr<BuiltinFunction>>(&value)) {
    kind = ObservedKind::kBuiltin;
    str = (*bf)->name;
  }
  profile.Observe(kind, dtype, shape, numeric, str, heap);
}

void Profiler::OnBranch(const minipy::Stmt* stmt, bool taken) {
  auto& profile = branches_[stmt];
  if (taken) {
    ++profile.taken;
  } else {
    ++profile.not_taken;
  }
  ++total_observations_;
}

void Profiler::OnLoopFinished(const minipy::Stmt* stmt,
                              std::int64_t trip_count) {
  loops_[stmt].Observe(trip_count);
  ++total_observations_;
}

void Profiler::OnCall(const minipy::Expr* call, const Value& callee) {
  ObserveValue(calls_[call], callee);
  ++total_observations_;
}

void Profiler::OnFunctionEntry(const minipy::Stmt* def,
                               std::span<const Value> args) {
  ++function_calls_[def];
  for (std::size_t i = 0; i < args.size(); ++i) {
    ObserveValue(arguments_[{def, static_cast<int>(i)}], args[i]);
  }
  ++total_observations_;
}

void Profiler::OnAttrLoad(const minipy::Expr* attr, const Value& /*object*/,
                          const Value& result) {
  ObserveValue(attr_loads_[attr], result);
  ++total_observations_;
}

void Profiler::OnSubscrLoad(const minipy::Expr* subscr,
                            const Value& /*object*/, const Value& result) {
  ObserveValue(subscr_loads_[subscr], result);
  ++total_observations_;
}

const BranchProfile* Profiler::branch(const minipy::Stmt* stmt) const {
  const auto it = branches_.find(stmt);
  return it == branches_.end() ? nullptr : &it->second;
}

const LoopProfile* Profiler::loop(const minipy::Stmt* stmt) const {
  const auto it = loops_.find(stmt);
  return it == loops_.end() ? nullptr : &it->second;
}

const ValueProfile* Profiler::call_target(const minipy::Expr* call) const {
  const auto it = calls_.find(call);
  return it == calls_.end() ? nullptr : &it->second;
}

const ValueProfile* Profiler::argument(const minipy::Stmt* def,
                                       int index) const {
  const auto it = arguments_.find({def, index});
  return it == arguments_.end() ? nullptr : &it->second;
}

const ValueProfile* Profiler::attr_load(const minipy::Expr* attr) const {
  const auto it = attr_loads_.find(attr);
  return it == attr_loads_.end() ? nullptr : &it->second;
}

const ValueProfile* Profiler::subscr_load(const minipy::Expr* subscr) const {
  const auto it = subscr_loads_.find(subscr);
  return it == subscr_loads_.end() ? nullptr : &it->second;
}

std::int64_t Profiler::function_calls(const minipy::Stmt* def) const {
  const auto it = function_calls_.find(def);
  return it == function_calls_.end() ? 0 : it->second;
}

ValueProfile& Profiler::ObserveContext(const std::string& ref,
                                       const Value& value) {
  ValueProfile& slot = context_profiles_[ref];
  ObserveContext(slot, value);
  return slot;
}

void Profiler::ObserveContext(ValueProfile& slot, const Value& value) {
  ObserveValue(slot, value);
  ++total_observations_;
}

void Profiler::MarkAssumptionFailed(const std::string& assumption_id) {
  if (obs::Trace::Enabled() &&
      failed_assumptions_.count(assumption_id) == 0u) {
    // First failure of this id: regeneration will stop speculating on it.
    obs::Trace::RecordDecision("assumption_blacklisted",
                               {{"assumption", assumption_id}});
  }
  failed_assumptions_[assumption_id] = ++failure_stamp_;
  while (failed_assumptions_.size() > kMaxFailedAssumptions) {
    auto oldest = failed_assumptions_.begin();
    for (auto it = failed_assumptions_.begin(); it != failed_assumptions_.end();
         ++it) {
      if (it->second < oldest->second) oldest = it;
    }
    failed_assumptions_.erase(oldest);
  }
}

bool Profiler::HasFailed(const std::string& assumption_id) const {
  return failed_assumptions_.count(assumption_id) != 0u;
}

}  // namespace janus
