#include "frontend/value.h"

#include <bit>
#include <sstream>

#include "common/error.h"

namespace janus::minipy {

Value* Environment::Find(const std::string& name) {
  const auto it = vars_.find(name);
  if (it != vars_.end()) return &it->second;
  if (parent_ != nullptr) return parent_->Find(name);
  return nullptr;
}

void Environment::Define(const std::string& name, Value value) {
  vars_[name] = std::move(value);
}

bool Environment::Has(const std::string& name) const {
  return vars_.find(name) != vars_.end();
}

const char* ValueTypeName(const Value& value) {
  struct Visitor {
    const char* operator()(const NoneType&) const { return "None"; }
    const char* operator()(bool) const { return "bool"; }
    const char* operator()(std::int64_t) const { return "int"; }
    const char* operator()(double) const { return "float"; }
    const char* operator()(const std::string&) const { return "str"; }
    const char* operator()(const Tensor&) const { return "tensor"; }
    const char* operator()(const VariableRef&) const { return "variable"; }
    const char* operator()(const std::shared_ptr<ListValue>&) const {
      return "list";
    }
    const char* operator()(const std::shared_ptr<DictValue>&) const {
      return "dict";
    }
    const char* operator()(const std::shared_ptr<ObjectValue>&) const {
      return "object";
    }
    const char* operator()(const std::shared_ptr<FunctionValue>&) const {
      return "function";
    }
    const char* operator()(const std::shared_ptr<ClassValue>&) const {
      return "class";
    }
    const char* operator()(const std::shared_ptr<BuiltinFunction>&) const {
      return "builtin";
    }
  };
  return std::visit(Visitor{}, value);
}

namespace {
struct TruthyVisitor {
  bool operator()(const NoneType&) const { return false; }
  bool operator()(bool b) const { return b; }
  bool operator()(std::int64_t i) const { return i != 0; }
  bool operator()(double d) const { return d != 0.0; }
  bool operator()(const std::string& s) const { return !s.empty(); }
  bool operator()(const Tensor& t) const {
    if (t.num_elements() != 1) {
      throw InvalidArgument("truth value of a non-scalar tensor is ambiguous");
    }
    return t.ScalarBoolValue();
  }
  bool operator()(const VariableRef&) const { return true; }
  bool operator()(const std::shared_ptr<ListValue>& l) const {
    return !l->items.empty();
  }
  bool operator()(const std::shared_ptr<DictValue>& d) const {
    return !d->items.empty();
  }
  template <typename T>
  bool operator()(const std::shared_ptr<T>&) const {
    return true;
  }
};
}  // namespace

bool Truthy(const Value& value) { return std::visit(TruthyVisitor{}, value); }

std::string ValueToString(const Value& value) {
  std::ostringstream oss;
  struct Visitor {
    std::ostringstream& oss;
    void operator()(const NoneType&) const { oss << "None"; }
    void operator()(bool b) const { oss << (b ? "True" : "False"); }
    void operator()(std::int64_t i) const { oss << i; }
    void operator()(double d) const { oss << d; }
    void operator()(const std::string& s) const { oss << s; }
    void operator()(const Tensor& t) const { oss << t.ToString(8); }
    void operator()(const VariableRef& v) const {
      oss << "<variable '" << v.name << "'>";
    }
    void operator()(const std::shared_ptr<ListValue>& l) const {
      oss << '[';
      for (std::size_t i = 0; i < l->items.size(); ++i) {
        if (i > 0) oss << ", ";
        oss << ValueToString(l->items[i]);
      }
      oss << ']';
    }
    void operator()(const std::shared_ptr<DictValue>& d) const {
      oss << '{';
      bool first = true;
      for (const auto& [key, v] : d->items) {
        if (!first) oss << ", ";
        first = false;
        if (const auto* s = std::get_if<std::string>(&key)) {
          oss << '\'' << *s << '\'';
        } else {
          oss << std::get<std::int64_t>(key);
        }
        oss << ": " << ValueToString(v);
      }
      oss << '}';
    }
    void operator()(const std::shared_ptr<ObjectValue>& o) const {
      oss << '<' << o->cls()->name << " object #" << o->heap_id() << '>';
    }
    void operator()(const std::shared_ptr<FunctionValue>& f) const {
      oss << "<function " << f->qualified_name << '>';
    }
    void operator()(const std::shared_ptr<ClassValue>& c) const {
      oss << "<class " << c->name << '>';
    }
    void operator()(const std::shared_ptr<BuiltinFunction>& b) const {
      oss << "<builtin " << b->name << '>';
    }
  };
  std::visit(Visitor{oss}, value);
  return oss.str();
}

namespace detail_equal {
struct EqualVisitor {
  const Value& rhs;
  bool operator()(const NoneType&) const { return true; }
  bool operator()(bool v) const { return v == std::get<bool>(rhs); }
  bool operator()(std::int64_t v) const {
    return v == std::get<std::int64_t>(rhs);
  }
  bool operator()(double v) const { return v == std::get<double>(rhs); }
  bool operator()(const std::string& v) const {
    return v == std::get<std::string>(rhs);
  }
  bool operator()(const Tensor& v) const {
    return v.ElementsEqual(std::get<Tensor>(rhs));
  }
  bool operator()(const VariableRef& v) const {
    return v.name == std::get<VariableRef>(rhs).name;
  }
  template <typename T>
  bool operator()(const std::shared_ptr<T>& v) const {
    return v == std::get<std::shared_ptr<T>>(rhs);
  }
};
}  // namespace detail_equal

bool ValuesEqual(const Value& a, const Value& b) {
  if (Is<std::int64_t>(a) && Is<double>(b)) {
    return static_cast<double>(std::get<std::int64_t>(a)) ==
           std::get<double>(b);
  }
  if (Is<double>(a) && Is<std::int64_t>(b)) {
    return std::get<double>(a) ==
           static_cast<double>(std::get<std::int64_t>(b));
  }
  if (a.index() != b.index()) return false;
  return std::visit(detail_equal::EqualVisitor{b}, a);
}

bool ValuesIdentical(const Value& a, const Value& b) {
  if (a.index() != b.index()) return false;
  if (const auto* d = std::get_if<double>(&a)) {
    return std::bit_cast<std::uint64_t>(*d) ==
           std::bit_cast<std::uint64_t>(std::get<double>(b));
  }
  return std::visit(detail_equal::EqualVisitor{b}, a);
}

}  // namespace janus::minipy
