// The elementwise op table (elementwise.h) and the kernels it defines:
// broadcasting arithmetic, comparisons, logical ops and unary math; plus
// Select and the random generators.
#include "tensor/elementwise.h"

#include <cmath>
#include <string_view>
#include <type_traits>

#include "tensor/ops.h"
#include "tensor/strided.h"

namespace janus::ops {
namespace {

void CheckSameDType(const Tensor& a, const Tensor& b, std::string_view op) {
  if (a.dtype() != b.dtype()) {
    throw InvalidArgument(std::string(op) + ": dtype mismatch (" +
                          DTypeName(a.dtype()) + " vs " +
                          DTypeName(b.dtype()) + ")");
  }
}

using F32 = float;
using I64 = std::int64_t;
using U8 = std::uint8_t;  // a bool element

template <typename T>
constexpr DType kDTypeOf = std::is_same_v<T, F32>   ? DType::kFloat32
                           : std::is_same_v<T, I64> ? DType::kInt64
                                                    : DType::kBool;

// ---- Scalar functors: one per op and supported dtype ----
namespace fn {

template <typename T>
T Neg(T x) {
  return -x;
}
template <typename T>
T Abs(T x) {
  if constexpr (std::is_same_v<T, F32>) {
    return std::fabs(x);
  } else {
    return x < 0 ? -x : x;
  }
}
F32 Sign(F32 x) { return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f); }
F32 Exp(F32 x) { return std::exp(x); }
F32 Log(F32 x) { return std::log(x); }
F32 Sqrt(F32 x) { return std::sqrt(x); }
F32 Square(F32 x) { return x * x; }
F32 Tanh(F32 x) { return std::tanh(x); }
F32 Sigmoid(F32 x) { return 1.0f / (1.0f + std::exp(-x)); }
F32 Relu(F32 x) { return x > 0.0f ? x : 0.0f; }
U8 LogicalNot(U8 x) { return x != 0 ? 0 : 1; }

template <typename T>
T Add(T x, T y) {
  return x + y;
}
template <typename T>
T Sub(T x, T y) {
  return x - y;
}
template <typename T>
T Mul(T x, T y) {
  return x * y;
}
F32 Div(F32 x, F32 y) { return x / y; }
template <typename T>
T FloorDiv(T x, T y) {
  if constexpr (std::is_same_v<T, F32>) {
    return std::floor(x / y);
  } else {
    if (y == 0) throw InvalidArgument("integer division by zero");
    T q = x / y;
    if ((x % y != 0) && ((x < 0) != (y < 0))) --q;
    return q;
  }
}
template <typename T>
T Mod(T x, T y) {
  if constexpr (std::is_same_v<T, F32>) {
    return x - y * std::floor(x / y);
  } else {
    if (y == 0) throw InvalidArgument("integer modulo by zero");
    T r = x % y;
    if (r != 0 && ((r < 0) != (y < 0))) r += y;
    return r;
  }
}
template <typename T>
T Pow(T x, T y) {
  if constexpr (std::is_same_v<T, F32>) {
    return std::pow(x, y);
  } else {
    T result = 1;
    for (T i = 0; i < y; ++i) result *= x;
    return result;
  }
}
template <typename T>
T Maximum(T x, T y) {
  return x > y ? x : y;
}
template <typename T>
T Minimum(T x, T y) {
  return x < y ? x : y;
}
F32 ReluGrad(F32 grad, F32 x) { return x > 0.0f ? grad : 0.0f; }

// Comparisons yield a bool element; bool operands compare by truthiness.
template <typename T>
auto Truth(T x) {
  if constexpr (std::is_same_v<T, U8>) {
    return x != 0;
  } else {
    return x;
  }
}
template <typename T>
U8 Equal(T x, T y) {
  return Truth(x) == Truth(y) ? 1 : 0;
}
template <typename T>
U8 NotEqual(T x, T y) {
  return Truth(x) != Truth(y) ? 1 : 0;
}
template <typename T>
U8 Less(T x, T y) {
  return Truth(x) < Truth(y) ? 1 : 0;
}
template <typename T>
U8 LessEqual(T x, T y) {
  return Truth(x) <= Truth(y) ? 1 : 0;
}
template <typename T>
U8 Greater(T x, T y) {
  return Truth(x) > Truth(y) ? 1 : 0;
}
template <typename T>
U8 GreaterEqual(T x, T y) {
  return Truth(x) >= Truth(y) ? 1 : 0;
}
U8 LogicalAnd(U8 x, U8 y) { return (x != 0 && y != 0) ? 1 : 0; }
U8 LogicalOr(U8 x, U8 y) { return (x != 0 || y != 0) ? 1 : 0; }

}  // namespace fn

// ---- The typed loops every functor is instantiated into ----

template <typename T, typename O, auto F>
void SameIndexLoop(const void* a, const void* b, void* out,
                   std::int64_t count) {
  const T* x = static_cast<const T*>(a);
  O* o = static_cast<O*>(out);
  if constexpr (std::is_invocable_v<decltype(F), T>) {
    for (std::int64_t i = 0; i < count; ++i) o[i] = F(x[i]);
  } else {
    const T* y = static_cast<const T*>(b);
    for (std::int64_t i = 0; i < count; ++i) o[i] = F(x[i], y[i]);
  }
}

// One run of a broadcast: o[j] = F(x[j * sx], y[j * sy]). The unit and
// broadcast stride pairs get loops of their own, which the compiler
// vectorises.
template <typename T, typename O, auto F>
void StridedRun(const T* x, std::int64_t sx, const T* y, std::int64_t sy,
                O* o, std::int64_t len) {
  if (sx == 1 && sy == 1) {
    for (std::int64_t j = 0; j < len; ++j) o[j] = F(x[j], y[j]);
  } else if (sx == 1 && sy == 0) {
    const T v = *y;
    for (std::int64_t j = 0; j < len; ++j) o[j] = F(x[j], v);
  } else if (sx == 0 && sy == 1) {
    const T u = *x;
    for (std::int64_t j = 0; j < len; ++j) o[j] = F(u, y[j]);
  } else {
    for (std::int64_t j = 0; j < len; ++j) o[j] = F(x[j * sx], y[j * sy]);
  }
}

template <typename T, typename O, auto F>
void BroadcastLoop(const Tensor& a, const Tensor& b, Tensor& out) {
  const T* x = a.data<T>().data();
  const T* y = b.data<T>().data();
  O* o = out.mutable_data<O>().data();
  StridedWalk<2>(out.shape(), {&a.shape(), &b.shape()})
      .ForEachRun(0, out.num_elements(),
                  [&](std::int64_t pos, std::int64_t len, const auto& at,
                      const auto& step) {
                    StridedRun<T, O, F>(x + at[0], step[0], y + at[1],
                                        step[1], o + pos, len);
                  });
}

template <typename T, typename O, auto F>
constexpr ElementwiseOp::Typed Loop(bool may_throw = false) {
  ElementwiseOp::Typed typed;
  typed.same_index = &SameIndexLoop<T, O, F>;
  if constexpr (!std::is_invocable_v<decltype(F), T>) {
    typed.broadcast = &BroadcastLoop<T, O, F>;
  }
  typed.result = kDTypeOf<O>;
  typed.may_throw = may_throw;
  return typed;
}

// ---- The table ----

constexpr const char* kRequiresFloat = ": requires float32 operand";

template <auto F>
constexpr ElementwiseOp FloatUnary(std::string_view name) {
  return {name, 1, {Loop<F32, F32, F>(), {}, {}}, kRequiresFloat};
}

template <auto FF, auto FI>
constexpr ElementwiseOp Numeric(std::string_view name,
                                bool int_may_throw = false) {
  return {name,
          2,
          {Loop<F32, F32, FF>(), Loop<I64, I64, FI>(int_may_throw), {}},
          ": bool operands unsupported"};
}

template <auto FF, auto FI, auto FB>
constexpr ElementwiseOp Comparison(std::string_view name) {
  return {name,
          2,
          {Loop<F32, U8, FF>(), Loop<I64, U8, FI>(), Loop<U8, U8, FB>()}};
}

// Typed slots are {float32, int64, bool}; {} rejects that dtype.
constexpr ElementwiseOp kOps[] = {
    {"Neg",
     1,
     {Loop<F32, F32, fn::Neg<F32>>(), Loop<I64, I64, fn::Neg<I64>>(), {}},
     kRequiresFloat},
    {"Abs",
     1,
     {Loop<F32, F32, fn::Abs<F32>>(), Loop<I64, I64, fn::Abs<I64>>(), {}},
     kRequiresFloat},
    FloatUnary<fn::Sign>("Sign"),
    FloatUnary<fn::Exp>("Exp"),
    FloatUnary<fn::Log>("Log"),
    FloatUnary<fn::Sqrt>("Sqrt"),
    FloatUnary<fn::Square>("Square"),
    FloatUnary<fn::Tanh>("Tanh"),
    FloatUnary<fn::Sigmoid>("Sigmoid"),
    FloatUnary<fn::Relu>("Relu"),
    {"LogicalNot",
     1,
     {{}, {}, Loop<U8, U8, fn::LogicalNot>()},
     ": requires bool operand"},
    Numeric<fn::Add<F32>, fn::Add<I64>>("Add"),
    Numeric<fn::Sub<F32>, fn::Sub<I64>>("Sub"),
    Numeric<fn::Mul<F32>, fn::Mul<I64>>("Mul"),
    {"Div",
     2,
     {Loop<F32, F32, fn::Div>(),
      {.result = DType::kFloat32, .promotes = true},
      {}}},
    Numeric<fn::FloorDiv<F32>, fn::FloorDiv<I64>>("FloorDiv",
                                                  /*int_may_throw=*/true),
    Numeric<fn::Mod<F32>, fn::Mod<I64>>("Mod", /*int_may_throw=*/true),
    Numeric<fn::Pow<F32>, fn::Pow<I64>>("Pow"),
    Numeric<fn::Maximum<F32>, fn::Maximum<I64>>("Maximum"),
    Numeric<fn::Minimum<F32>, fn::Minimum<I64>>("Minimum"),
    {"ReluGrad",
     2,
     {Loop<F32, F32, fn::ReluGrad>(), {}, {}},
     nullptr,
     /*equal_shapes=*/true},
    Comparison<fn::Equal<F32>, fn::Equal<I64>, fn::Equal<U8>>("Equal"),
    Comparison<fn::NotEqual<F32>, fn::NotEqual<I64>, fn::NotEqual<U8>>(
        "NotEqual"),
    Comparison<fn::Less<F32>, fn::Less<I64>, fn::Less<U8>>("Less"),
    Comparison<fn::LessEqual<F32>, fn::LessEqual<I64>, fn::LessEqual<U8>>(
        "LessEqual"),
    Comparison<fn::Greater<F32>, fn::Greater<I64>, fn::Greater<U8>>(
        "Greater"),
    Comparison<fn::GreaterEqual<F32>, fn::GreaterEqual<I64>,
               fn::GreaterEqual<U8>>("GreaterEqual"),
    {"LogicalAnd", 2, {{}, {}, Loop<U8, U8, fn::LogicalAnd>()}},
    {"LogicalOr", 2, {{}, {}, Loop<U8, U8, fn::LogicalOr>()}},
};

consteval const ElementwiseOp& Op(std::string_view name) {
  for (const ElementwiseOp& op : kOps) {
    if (op.name == name) return op;
  }
  throw "no such elementwise op";
}

// The dtype `op` reads operands of `dtype` as: that dtype where the op runs
// on it, else the op's first supported dtype, whose type check then
// rejects the operand.
DType ReadDType(const ElementwiseOp& op, DType dtype) {
  if (op.For(dtype).same_index != nullptr) return dtype;
  for (const DType d : {DType::kFloat32, DType::kInt64, DType::kBool}) {
    if (op.For(d).same_index != nullptr) return d;
  }
  throw InternalError(std::string(op.name) + ": no supported dtype");
}

}  // namespace

std::span<const ElementwiseOp> ElementwiseOps() { return kOps; }

const ElementwiseOp* FindElementwiseOp(std::string_view name) {
  for (const ElementwiseOp& op : kOps) {
    if (op.name == name) return &op;
  }
  return nullptr;
}

const void* ElementData(const Tensor& t, DType dtype) {
  switch (dtype) {
    case DType::kFloat32:
      return t.data<float>().data();
    case DType::kInt64:
      return t.data<std::int64_t>().data();
    case DType::kBool:
      return t.data<std::uint8_t>().data();
  }
  throw InternalError("unreachable dtype");
}

void* MutableElementData(Tensor& t) {
  switch (t.dtype()) {
    case DType::kFloat32:
      return t.mutable_data<float>().data();
    case DType::kInt64:
      return t.mutable_data<std::int64_t>().data();
    case DType::kBool:
      return t.mutable_data<std::uint8_t>().data();
  }
  throw InternalError("unreachable dtype");
}

Tensor Apply(const ElementwiseOp& op, const Tensor& a) {
  const ElementwiseOp::Typed& typed = op.For(a.dtype());
  if (typed.same_index == nullptr) {
    throw InvalidArgument(std::string(op.name) + op.rejects);
  }
  Tensor out = Tensor::OutputBuffer({&a}, typed.result, a.shape());
  typed.same_index(ElementData(a, a.dtype()), nullptr,
                   MutableElementData(out), a.num_elements());
  return out;
}

Tensor Apply(const ElementwiseOp& op, const Tensor& a, const Tensor& b) {
  if (op.equal_shapes) {
    if (a.shape() != b.shape()) {
      throw InvalidArgument(std::string(op.name) + ": shape mismatch");
    }
  } else {
    CheckSameDType(a, b, op.name);
  }
  const ElementwiseOp::Typed& typed = op.For(a.dtype());
  if (typed.promotes) {
    return Apply(op, Cast(a, DType::kFloat32), Cast(b, DType::kFloat32));
  }
  if (typed.same_index == nullptr && op.rejects != nullptr) {
    throw InvalidArgument(std::string(op.name) + op.rejects);
  }
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  const DType read = ReadDType(op, a.dtype());
  const void* a_data = ElementData(a, read);
  const void* b_data = ElementData(b, read);
  // With identical operand shapes every write to output element i reads only
  // operand element i, so (under an active InPlaceScope) the output may
  // overwrite a dying operand's buffer. Broadcast outputs must not alias an
  // operand: stride-0 dims re-read elements after earlier writes.
  if (a.shape() == b.shape()) {
    Tensor out = Tensor::OutputBuffer({&a, &b}, typed.result, out_shape);
    typed.same_index(a_data, b_data, MutableElementData(out),
                     out.num_elements());
    return out;
  }
  Tensor out = Tensor::Uninitialized(typed.result, out_shape);
  typed.broadcast(a, b, out);
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) { return Apply(Op("Add"), a, b); }
Tensor Sub(const Tensor& a, const Tensor& b) { return Apply(Op("Sub"), a, b); }
Tensor Mul(const Tensor& a, const Tensor& b) { return Apply(Op("Mul"), a, b); }
Tensor Div(const Tensor& a, const Tensor& b) { return Apply(Op("Div"), a, b); }
Tensor FloorDiv(const Tensor& a, const Tensor& b) {
  return Apply(Op("FloorDiv"), a, b);
}
Tensor Mod(const Tensor& a, const Tensor& b) { return Apply(Op("Mod"), a, b); }
Tensor Pow(const Tensor& a, const Tensor& b) { return Apply(Op("Pow"), a, b); }
Tensor Maximum(const Tensor& a, const Tensor& b) {
  return Apply(Op("Maximum"), a, b);
}
Tensor Minimum(const Tensor& a, const Tensor& b) {
  return Apply(Op("Minimum"), a, b);
}
Tensor Equal(const Tensor& a, const Tensor& b) {
  return Apply(Op("Equal"), a, b);
}
Tensor NotEqual(const Tensor& a, const Tensor& b) {
  return Apply(Op("NotEqual"), a, b);
}
Tensor Less(const Tensor& a, const Tensor& b) {
  return Apply(Op("Less"), a, b);
}
Tensor LessEqual(const Tensor& a, const Tensor& b) {
  return Apply(Op("LessEqual"), a, b);
}
Tensor Greater(const Tensor& a, const Tensor& b) {
  return Apply(Op("Greater"), a, b);
}
Tensor GreaterEqual(const Tensor& a, const Tensor& b) {
  return Apply(Op("GreaterEqual"), a, b);
}
Tensor LogicalAnd(const Tensor& a, const Tensor& b) {
  return Apply(Op("LogicalAnd"), a, b);
}
Tensor LogicalOr(const Tensor& a, const Tensor& b) {
  return Apply(Op("LogicalOr"), a, b);
}
Tensor LogicalNot(const Tensor& a) { return Apply(Op("LogicalNot"), a); }
Tensor Neg(const Tensor& a) { return Apply(Op("Neg"), a); }
Tensor Abs(const Tensor& a) { return Apply(Op("Abs"), a); }
Tensor Sign(const Tensor& a) { return Apply(Op("Sign"), a); }
Tensor Exp(const Tensor& a) { return Apply(Op("Exp"), a); }
Tensor Log(const Tensor& a) { return Apply(Op("Log"), a); }
Tensor Sqrt(const Tensor& a) { return Apply(Op("Sqrt"), a); }
Tensor Square(const Tensor& a) { return Apply(Op("Square"), a); }
Tensor Tanh(const Tensor& a) { return Apply(Op("Tanh"), a); }
Tensor Sigmoid(const Tensor& a) { return Apply(Op("Sigmoid"), a); }
Tensor Relu(const Tensor& a) { return Apply(Op("Relu"), a); }
Tensor ReluGrad(const Tensor& grad, const Tensor& x) {
  return Apply(Op("ReluGrad"), grad, x);
}

Tensor Select(const Tensor& cond, const Tensor& a, const Tensor& b) {
  if (cond.dtype() != DType::kBool) {
    throw InvalidArgument("Select: condition must be bool");
  }
  CheckSameDType(a, b, "Select");
  const Shape out_shape =
      BroadcastShapes(BroadcastShapes(cond.shape(), a.shape()), b.shape());
  const Tensor cb = BroadcastTo(cond, out_shape);
  const Tensor ab = BroadcastTo(a, out_shape);
  const Tensor bb = BroadcastTo(b, out_shape);
  Tensor out(a.dtype(), out_shape);
  const auto cv = cb.data<std::uint8_t>();
  const std::int64_t n = out_shape.num_elements();
  const auto pick = [&](auto av, auto bv, auto ov) {
    for (std::int64_t i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      ov[u] = cv[u] != 0 ? av[u] : bv[u];
    }
  };
  switch (a.dtype()) {
    case DType::kFloat32:
      pick(ab.data<float>(), bb.data<float>(), out.mutable_data<float>());
      break;
    case DType::kInt64:
      pick(ab.data<std::int64_t>(), bb.data<std::int64_t>(),
           out.mutable_data<std::int64_t>());
      break;
    case DType::kBool:
      pick(ab.data<std::uint8_t>(), bb.data<std::uint8_t>(),
           out.mutable_data<std::uint8_t>());
      break;
  }
  return out;
}

Tensor RandomNormal(const Shape& shape, float mean, float stddev, Rng& rng) {
  Tensor out(DType::kFloat32, shape);
  for (float& v : out.mutable_data<float>())
    v = static_cast<float>(rng.Normal(mean, stddev));
  return out;
}

Tensor RandomUniform(const Shape& shape, float lo, float hi, Rng& rng) {
  Tensor out(DType::kFloat32, shape);
  for (float& v : out.mutable_data<float>())
    v = static_cast<float>(rng.Uniform(lo, hi));
  return out;
}

}  // namespace janus::ops
