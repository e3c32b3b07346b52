#include "frontend/builtins.h"

#include <cmath>
#include <iostream>
#include <map>
#include <unordered_map>

#include "tensor/ops.h"

namespace janus::minipy {
namespace {

using Args = std::span<Value>;
using Statics = std::span<const Value>;

std::int64_t ExpectInt(const Value& v, const char* context) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  if (const auto* b = std::get_if<bool>(&v)) return *b ? 1 : 0;
  throw MiniPyError(std::string(context) + ": expected an int, got " +
                    ValueTypeName(v));
}

double ExpectNumber(const Value& v, const char* context) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  if (const auto* d = std::get_if<double>(&v)) return *d;
  throw MiniPyError(std::string(context) + ": expected a number, got " +
                    ValueTypeName(v));
}

const std::string& ExpectString(const Value& v, const char* context) {
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  throw MiniPyError(std::string(context) + ": expected a string, got " +
                    ValueTypeName(v));
}

std::vector<std::int64_t> ExpectIntList(const Value& v, const char* context) {
  const auto* list = std::get_if<std::shared_ptr<ListValue>>(&v);
  if (list == nullptr) {
    throw MiniPyError(std::string(context) + ": expected a list of ints");
  }
  std::vector<std::int64_t> result;
  result.reserve((*list)->items.size());
  for (const Value& item : (*list)->items) {
    result.push_back(ExpectInt(item, context));
  }
  return result;
}

std::shared_ptr<FunctionValue> ExpectFunction(const Value& v,
                                              const char* context) {
  const auto* fn = std::get_if<std::shared_ptr<FunctionValue>>(&v);
  if (fn == nullptr) {
    throw MiniPyError(std::string(context) + "(): expected a function");
  }
  return *fn;
}

std::vector<Tensor> ExpectTensorList(Interpreter& in, const Value& v,
                                     const char* context) {
  const auto* list = std::get_if<std::shared_ptr<ListValue>>(&v);
  if (list == nullptr) {
    throw MiniPyError(std::string(context) + "(): expected a list");
  }
  std::vector<Tensor> parts;
  for (const Value& item : (*list)->items) parts.push_back(in.ToTensor(item));
  return parts;
}

// Flattens a (possibly nested) MiniPy list of numbers into a float tensor.
void FlattenInto(const Value& v, std::vector<float>* out,
                 std::vector<std::int64_t>* dims, int depth) {
  if (const auto* list = std::get_if<std::shared_ptr<ListValue>>(&v)) {
    const auto n = static_cast<std::int64_t>((*list)->items.size());
    if (static_cast<int>(dims->size()) <= depth) {
      dims->push_back(n);
    } else if ((*dims)[static_cast<std::size_t>(depth)] != n) {
      throw MiniPyError("constant(): ragged nested list");
    }
    for (const Value& item : (*list)->items) {
      FlattenInto(item, out, dims, depth + 1);
    }
    return;
  }
  out->push_back(static_cast<float>(ExpectNumber(v, "constant")));
}

// Runs fn(args) under a gradient tape; returns the loss and the gradient
// of every variable it reads. The tape is dropped on every exit, so a
// throwing fn never leaves later eager ops recording onto it.
std::pair<Tensor, std::map<std::string, Tensor>> TapedGradients(
    Interpreter& in, const std::shared_ptr<FunctionValue>& fn,
    std::vector<Value> args) {
  struct TapeGuard {
    EagerContext* eager;
    ~TapeGuard() { eager->DropTape(); }
  } guard{&in.eager()};
  in.eager().StartTape();
  Tensor loss = in.ToTensor(in.CallFunction(fn, std::move(args)));
  auto grads = in.eager().GradientsAndStopTape(loss);
  return {std::move(loss), std::move(grads)};
}

AttrMap ReductionAttrs(Statics a, const char* name) {
  std::vector<std::int64_t> axes;
  if (!a.empty()) axes.push_back(ExpectInt(a[0], name));
  return {{"axes", axes}, {"keep_dims", false}};
}

AttrMap PoolAttrs(Statics a, const char* name) {
  return {{"window", ExpectInt(a[0], name)}, {"stride", ExpectInt(a[1], name)}};
}

// An op builtin: `tensors` leading tensor arguments, then between
// `min_statics` and `max_statics` static ones decoded by `attrs`.
BuiltinSpec Op(const char* name, const char* op, std::size_t tensors,
               BuiltinSpec::AttrDecoder attrs = nullptr,
               std::size_t min_statics = 0, std::size_t max_statics = 0) {
  return {name, tensors + min_statics, tensors + max_statics, op, tensors,
          attrs, nullptr, false};
}

BuiltinSpec Fn(const char* name, std::size_t lo, std::size_t hi,
               BuiltinFunction::Fn impl, bool static_eval = false) {
  return {name, lo, hi, nullptr, 0, nullptr, std::move(impl), static_eval};
}

constexpr std::size_t kVariadic = static_cast<std::size_t>(-1);
constexpr bool kStaticEval = true;

// Executes an op builtin eagerly. Static arguments are decoded before the
// tensors are read, so their errors take precedence, as in the generator.
Value RunOp(const BuiltinSpec& spec, Interpreter& in, Args args) {
  AttrMap attrs;
  if (spec.attrs != nullptr) {
    attrs = spec.attrs(args.subspan(spec.tensor_args), spec.name);
  }
  std::vector<Tensor> inputs;
  inputs.reserve(spec.tensor_args);
  for (std::size_t i = 0; i < spec.tensor_args; ++i) {
    inputs.push_back(in.ToTensor(args[i]));
  }
  return in.eager().Execute(spec.graph_op, std::move(inputs), std::move(attrs));
}

}  // namespace

std::span<const BuiltinSpec> BuiltinTable() {
  static const auto* const specs = new std::vector<BuiltinSpec>{
      // ---- Python standard builtins ----
      Fn("print", 0, kVariadic, [](Interpreter&, Args args) -> Value {
        for (std::size_t i = 0; i < args.size(); ++i) {
          if (i > 0) std::cout << ' ';
          std::cout << ValueToString(args[i]);
        }
        std::cout << '\n';
        return NoneType{};
      }),
      Fn("len", 1, 1, [](Interpreter&, Args args) -> Value {
        const Value& v = args[0];
        if (const auto* list = std::get_if<std::shared_ptr<ListValue>>(&v)) {
          return static_cast<std::int64_t>((*list)->items.size());
        }
        if (const auto* dict = std::get_if<std::shared_ptr<DictValue>>(&v)) {
          return static_cast<std::int64_t>((*dict)->items.size());
        }
        if (const auto* s = std::get_if<std::string>(&v)) {
          return static_cast<std::int64_t>(s->size());
        }
        if (const auto* t = std::get_if<Tensor>(&v)) {
          if (t->rank() < 1) throw MiniPyError("len() of a scalar tensor");
          return t->dim(0);
        }
        throw MiniPyError(std::string("len() unsupported for ") +
                          ValueTypeName(v));
      }),
      Fn("range", 1, 3, [](Interpreter& in, Args args) -> Value {
        std::int64_t lo = 0;
        std::int64_t hi = 0;
        std::int64_t step = 1;
        if (args.size() == 1) {
          hi = ExpectInt(args[0], "range");
        } else {
          lo = ExpectInt(args[0], "range");
          hi = ExpectInt(args[1], "range");
          if (args.size() == 3) step = ExpectInt(args[2], "range");
        }
        if (step == 0) throw MiniPyError("range() step must not be zero");
        auto list = in.MakeList();
        if (step > 0) {
          for (std::int64_t i = lo; i < hi; i += step) list->items.push_back(i);
        } else {
          for (std::int64_t i = lo; i > hi; i += step) list->items.push_back(i);
        }
        return list;
      }),
      Fn("abs", 1, 1, [](Interpreter& in, Args args) -> Value {
        if (const auto* i = std::get_if<std::int64_t>(&args[0])) {
          return *i < 0 ? -*i : *i;
        }
        if (std::holds_alternative<Tensor>(args[0]) ||
            std::holds_alternative<VariableRef>(args[0])) {
          return in.eager().Execute("Abs", {in.ToTensor(args[0])});
        }
        return std::fabs(ExpectNumber(args[0], "abs"));
      }, kStaticEval),
      // An int, or an int64 tensor's element, is returned as is (graph
      // mode's Cast keeps it exact too); a float truncates toward zero.
      Fn("int", 1, 1, [](Interpreter&, Args args) -> Value {
        if (const auto* i = std::get_if<std::int64_t>(&args[0])) return *i;
        double number = 0.0;
        if (const auto* t = std::get_if<Tensor>(&args[0])) {
          if (t->dtype() == DType::kInt64) {
            JANUS_EXPECTS(t->num_elements() > 0);  // as ElementAsDouble(0)
            return t->data<std::int64_t>()[0];
          }
          number = t->ElementAsDouble(0);
        } else {
          number = ExpectNumber(args[0], "int");
        }
        // NaN fails both comparisons; 2^63 itself is out of range.
        if (!(number >= -0x1p63 && number < 0x1p63)) {
          throw MiniPyError("int(): cannot convert " +
                            ValueToString(Value(number)) + " to int64");
        }
        return static_cast<std::int64_t>(number);
      }, kStaticEval),
      Fn("float", 1, 1, [](Interpreter&, Args args) -> Value {
        if (const auto* t = std::get_if<Tensor>(&args[0])) {
          return t->ElementAsDouble(0);
        }
        return ExpectNumber(args[0], "float");
      }, kStaticEval),
      Fn("str", 1, 1, [](Interpreter&, Args args) -> Value {
        return ValueToString(args[0]);
      }),
      Fn("min", 2, 2, [](Interpreter&, Args args) -> Value {
        return ExpectNumber(args[0], "min") <= ExpectNumber(args[1], "min")
                   ? args[0]
                   : args[1];
      }),
      Fn("max", 2, 2, [](Interpreter&, Args args) -> Value {
        return ExpectNumber(args[0], "max") >= ExpectNumber(args[1], "max")
                   ? args[0]
                   : args[1];
      }),

      // ---- tensor creation ----
      Fn("constant", 1, 1, [](Interpreter&, Args args) -> Value {
        std::vector<float> data;
        std::vector<std::int64_t> dims;
        FlattenInto(args[0], &data, &dims, 0);
        return Tensor::FromVector(std::move(data), Shape(std::move(dims)));
      }, kStaticEval),
      Fn("constant_int", 1, 1, [](Interpreter&, Args args) -> Value {
        if (const auto* i = std::get_if<std::int64_t>(&args[0])) {
          return Tensor::ScalarInt(*i);
        }
        const auto ints = ExpectIntList(args[0], "constant_int");
        return Tensor::FromVectorInt(
            ints, Shape{static_cast<std::int64_t>(ints.size())});
      }, kStaticEval),
      Fn("zeros", 1, 1, [](Interpreter&, Args args) -> Value {
        return Tensor::Zeros(DType::kFloat32,
                             Shape(ExpectIntList(args[0], "zeros")));
      }, kStaticEval),
      Fn("ones", 1, 1, [](Interpreter&, Args args) -> Value {
        return Tensor::Full(Shape(ExpectIntList(args[0], "ones")), 1.0f);
      }, kStaticEval),
      Fn("fill", 2, 2, [](Interpreter&, Args args) -> Value {
        return Tensor::Full(Shape(ExpectIntList(args[0], "fill")),
                            static_cast<float>(ExpectNumber(args[1], "fill")));
      }, kStaticEval),
      Op("randn", "RandomNormal", 0,
         [](Statics a, const char* name) -> AttrMap {
           const double stddev = a.size() == 2 ? ExpectNumber(a[1], name) : 1.0;
           return {{"shape", ExpectIntList(a[0], name)},
                   {"mean", 0.0},
                   {"stddev", stddev}};
         }, 1, 2),
      Op("rand_uniform", "RandomUniform", 0,
         [](Statics a, const char* name) -> AttrMap {
           return {{"shape", ExpectIntList(a[0], name)},
                   {"lo", ExpectNumber(a[1], name)},
                   {"hi", ExpectNumber(a[2], name)}};
         }, 3, 3),

      // ---- model parameters ----
      Fn("variable", 2, 2, [](Interpreter& in, Args args) -> Value {
        const std::string& name = ExpectString(args[0], "variable");
        if (!in.variables()->Contains(name)) {
          in.variables()->Assign(name, in.ToTensor(args[1]));
        }
        return VariableRef{name};
      }),
      Fn("assign", 2, 2, [](Interpreter& in, Args args) -> Value {
        std::string name;
        if (const auto* var = std::get_if<VariableRef>(&args[0])) {
          name = var->name;
        } else {
          name = ExpectString(args[0], "assign");
        }
        in.eager().AssignVariable(name, in.ToTensor(args[1]));
        return NoneType{};
      }),

      // ---- elementwise / NN ops (the external-function whitelist) ----
      Op("matmul", "MatMul", 2),
      Op("relu", "Relu", 1),
      Op("sigmoid", "Sigmoid", 1),
      Op("tanh", "Tanh", 1),
      Op("exp", "Exp", 1),
      Op("log", "Log", 1),
      Op("sqrt", "Sqrt", 1),
      Op("square", "Square", 1),
      Op("softmax", "Softmax", 1),
      Op("log_softmax", "LogSoftmax", 1),
      Op("softmax_xent", "SoftmaxCrossEntropy", 2),
      Op("transpose", "Transpose", 1),
      Op("gather", "Gather", 2),
      Op("select", "Select", 3),
      Op("stop_gradient", "StopGradient", 1),
      Op("maximum", "Maximum", 2),
      Op("minimum", "Minimum", 2),

      Op("reduce_sum", "ReduceSum", 1, ReductionAttrs, 0, 1),
      Op("reduce_mean", "ReduceMean", 1, ReductionAttrs, 0, 1),
      Op("reduce_max", "ReduceMax", 1, ReductionAttrs, 0, 1),
      Op("argmax", "ArgMax", 1, [](Statics a, const char* name) -> AttrMap {
        return {{"axis", ExpectInt(a[0], name)}};
      }, 1, 1),
      Op("onehot", "OneHot", 1, [](Statics a, const char* name) -> AttrMap {
        return {{"depth", ExpectInt(a[0], name)}};
      }, 1, 1),
      Op("reshape", "Reshape", 1, [](Statics a, const char* name) -> AttrMap {
        return {{"shape", ExpectIntList(a[0], name)}};
      }, 1, 1),
      Op("cast_float", "Cast", 1, [](Statics, const char*) -> AttrMap {
        return {{"dtype", DType::kFloat32}};
      }),
      Op("cast_int", "Cast", 1, [](Statics, const char*) -> AttrMap {
        return {{"dtype", DType::kInt64}};
      }),
      Op("conv2d", "Conv2D", 2, [](Statics a, const char* name) -> AttrMap {
        return {{"stride", ExpectInt(a[0], name)},
                {"padding", ExpectString(a[1], name)}};
      }, 2, 2),
      Op("maxpool", "MaxPool2D", 1, PoolAttrs, 2, 2),
      Op("avgpool", "AvgPool2D", 1, PoolAttrs, 2, 2),

      Fn("concat", 2, 2, [](Interpreter& in, Args args) -> Value {
        std::vector<Tensor> parts = ExpectTensorList(in, args[0], "concat");
        return in.eager().Execute("Concat", std::move(parts),
                                  {{"axis", ExpectInt(args[1], "concat")}});
      }),
      Fn("stack", 1, 1, [](Interpreter& in, Args args) -> Value {
        return in.eager().Execute("Stack",
                                  ExpectTensorList(in, args[0], "stack"));
      }),
      // slice2d(x, row_start, row_size, col_start, col_size): 2-D slice with
      // -1 meaning "to the end" (used for gate splitting).
      Op("slice2d", "Slice", 1, [](Statics a, const char* name) -> AttrMap {
        return {{"begin", std::vector<std::int64_t>{ExpectInt(a[0], name),
                                                    ExpectInt(a[2], name)}},
                {"size", std::vector<std::int64_t>{ExpectInt(a[1], name),
                                                   ExpectInt(a[3], name)}}};
      }, 4, 4),

      // Samples an index from a probability vector (imperative-only: used by
      // RL rollouts, which run outside converted code).
      Fn("sample_categorical", 1, 1, [](Interpreter& in, Args args) -> Value {
        const Tensor probs = in.ToTensor(args[0]);
        const auto pv = probs.data<float>();
        double u = in.rng()->Uniform();
        for (std::size_t i = 0; i < pv.size(); ++i) {
          u -= pv[i];
          if (u <= 0) return static_cast<std::int64_t>(i);
        }
        return static_cast<std::int64_t>(pv.size() - 1);
      }),

      // ---- training ----
      // optimize(fn, lr): one SGD step on fn's loss. This is the conversion
      // unit JANUS intercepts (the `optimize(lambda: model(sequence))` of
      // Fig. 1).
      Fn("optimize", 1, 2, [](Interpreter& in, Args args) -> Value {
        const auto fn = ExpectFunction(args[0], "optimize");
        const float lr =
            args.size() == 2
                ? static_cast<float>(ExpectNumber(args[1], "optimize"))
                : 0.01f;
        return ImperativeTrainingStep(in, fn, {}, lr);
      }),
      // gradients(fn): like optimize but returns {var name: grad} without
      // updating parameters (used by tests and custom training loops).
      Fn("gradients", 1, 1, [](Interpreter& in, Args args) -> Value {
        auto grads =
            TapedGradients(in, ExpectFunction(args[0], "gradients"), {}).second;
        auto dict = in.MakeDict();
        for (auto& [name, grad] : grads) dict->items[name] = std::move(grad);
        return dict;
      }),
  };
  return *specs;
}

const BuiltinSpec* FindBuiltin(std::string_view name) {
  static const auto* const index = [] {
    auto* map = new std::unordered_map<std::string_view, const BuiltinSpec*>;
    for (const BuiltinSpec& spec : BuiltinTable()) {
      map->emplace(spec.name, &spec);
    }
    return map;
  }();
  const auto it = index->find(name);
  return it == index->end() ? nullptr : it->second;
}

void CheckArity(const BuiltinSpec& spec, std::size_t argc) {
  if (argc < spec.min_args || argc > spec.max_args) {
    throw MiniPyError(std::string(spec.name) +
                      "(): wrong number of arguments");
  }
}

void InstallBuiltins(Interpreter& interp) {
  for (const BuiltinSpec& spec : BuiltinTable()) {
    interp.RegisterBuiltin(spec.name, [&spec](Interpreter& in, Args args) {
      CheckArity(spec, args.size());
      return spec.is_op() ? RunOp(spec, in, args) : spec.impl(in, args);
    });
  }
}

Tensor ImperativeTrainingStep(Interpreter& in,
                              const std::shared_ptr<FunctionValue>& fn,
                              std::vector<Value> args, float lr) {
  const auto [loss, grads] = TapedGradients(in, fn, std::move(args));
  for (const auto& [name, grad] : grads) {
    const Tensor current = in.variables()->Read(name);
    in.variables()->Assign(
        name, ops::Sub(current, ops::Mul(Tensor::Scalar(lr), grad)));
  }
  return loss;
}

}  // namespace janus::minipy
