// The same-index elementwise ops, each defined once.
//
// The 29 ops whose output element i depends on nothing but input
// element(s) i have one ElementwiseOp entry each: name, arity, dtype rule,
// and per operand dtype one typed loop instantiated from the op's scalar
// functor. Every reader takes the op from this table: the unfused kernels
// (the same-index loop on equal shapes, a broadcast loop instantiated from
// the same functor otherwise), kernel registration, the memory plan's
// in-place set, the graph generator's result dtypes, and the fused block
// interpreter (runtime/fusion.cc), which runs the same loops block by block.
// Fused and unfused execution therefore compute every element with the
// same code.
//
// The header also carries the reduction pieces the fused sum/mean epilogue
// shares with ReduceSum/ReduceMean. Broadcast loops and reductions walk
// their operands with tensor/strided.h.
#ifndef JANUS_TENSOR_ELEMENTWISE_H_
#define JANUS_TENSOR_ELEMENTWISE_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "tensor/strided.h"
#include "tensor/tensor.h"

namespace janus::ops {

struct ElementwiseOp {
  // The op over operands of one dtype.
  struct Typed {
    // out[i] = f(a[i]) or f(a[i], b[i]) for i in [0, count); unary loops
    // ignore `b`. nullptr when the op does not run on this dtype.
    void (*same_index)(const void* a, const void* b, void* out,
                       std::int64_t count) = nullptr;
    // The same functor over NumPy-broadcast operands (binary ops only).
    void (*broadcast)(const Tensor& a, const Tensor& b, Tensor& out) = nullptr;
    DType result = DType::kFloat32;
    // The loop throws on some data (int64 FloorDiv/Mod: a zero divisor).
    bool may_throw = false;
    // The operands are cast to float32 and the float32 loop runs (int64
    // Div, true division as in Python 3). `same_index` is nullptr.
    bool promotes = false;
  };

  std::string_view name;
  int arity = 1;
  Typed typed[3];  // by operand DType
  // Suffix of the InvalidArgument a rejected operand dtype raises
  // ("Neg: requires float32 operand"). nullptr: the op reads the operands
  // as its first supported dtype, so the tensor's type check rejects them.
  const char* rejects = nullptr;
  // Operands must have equal shapes (ReluGrad). Such an op does not check
  // that its operand dtypes agree; it reads each as its supported dtype.
  bool equal_shapes = false;

  const Typed& For(DType dtype) const {
    return typed[static_cast<int>(dtype)];
  }
};

// All entries.
std::span<const ElementwiseOp> ElementwiseOps();
// The entry named `name`, or nullptr.
const ElementwiseOp* FindElementwiseOp(std::string_view name);

// The unfused kernels: check the dtype rule, allocate the output (in place
// under an active InPlaceScope when shapes allow) and run the typed loop.
Tensor Apply(const ElementwiseOp& op, const Tensor& a);
Tensor Apply(const ElementwiseOp& op, const Tensor& a, const Tensor& b);

// The element storage of `t` read as `dtype`: throws, as Tensor::data<T>()
// does, when `t` holds another dtype.
const void* ElementData(const Tensor& t, DType dtype);
void* MutableElementData(Tensor& t);

// ---- Reductions ----

// Normalises a reduction axis list: empty => all axes; negative axes wrap;
// sorted and deduplicated. Throws InvalidArgument on an out-of-range axis.
std::vector<int> NormalizeAxes(std::vector<int> axes, int rank);
// The result shape of a reduction over normalised `axes`.
Shape ReducedShape(const Shape& in, const std::vector<int>& axes,
                   bool keep_dims);

// Where each input element of a reduction over normalised `axes` lands in
// the output: a walk of the input shape over the output viewed with the
// reduced axes kept at size 1 (stride 0).
struct ReduceIndex {
  ReduceIndex() = default;
  ReduceIndex(const Shape& in, const std::vector<int>& axes);

  // Combines in[k] into its output element for the row-major input window
  // [base, base + count), in input order: a whole reduction is the window
  // [0, n), and the fused epilogue accumulates block by block.
  template <typename Combine>
  void Accumulate(float* out, const float* in, std::int64_t base,
                  std::int64_t count, Combine combine) const {
    walk.ForEachRun(base, count, [&](std::int64_t pos, std::int64_t len,
                                     const auto& at, const auto& step) {
      const float* src = in + (pos - base);
      float* dst = out + at[0];
      if (step[0] == 0) {
        float acc = *dst;
        for (std::int64_t j = 0; j < len; ++j) acc = combine(acc, src[j]);
        *dst = acc;
      } else {
        for (std::int64_t j = 0; j < len; ++j) {
          dst[j * step[0]] = combine(dst[j * step[0]], src[j]);
        }
      }
    });
  }

  StridedWalk<1> walk;
};

}  // namespace janus::ops

#endif  // JANUS_TENSOR_ELEMENTWISE_H_
