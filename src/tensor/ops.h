// CPU kernels over Tensor. These are the primitive operations exposed both
// to the imperative executor (eager dispatch) and to the dataflow graph
// runtime (graph node kernels).
//
// All binary elementwise kernels follow NumPy broadcasting rules. Kernels
// never mutate their inputs; every call allocates a fresh output. The
// same-index elementwise ops below are entries of the table in
// tensor/elementwise.h.
#ifndef JANUS_TENSOR_OPS_H_
#define JANUS_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace janus::ops {

// ---- Elementwise binary (broadcasting) ----
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor FloorDiv(const Tensor& a, const Tensor& b);
Tensor Mod(const Tensor& a, const Tensor& b);
Tensor Pow(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);
Tensor Minimum(const Tensor& a, const Tensor& b);

// ---- Comparisons (result dtype: bool) ----
Tensor Equal(const Tensor& a, const Tensor& b);
Tensor NotEqual(const Tensor& a, const Tensor& b);
Tensor Less(const Tensor& a, const Tensor& b);
Tensor LessEqual(const Tensor& a, const Tensor& b);
Tensor Greater(const Tensor& a, const Tensor& b);
Tensor GreaterEqual(const Tensor& a, const Tensor& b);

// ---- Logical (bool tensors) ----
Tensor LogicalAnd(const Tensor& a, const Tensor& b);
Tensor LogicalOr(const Tensor& a, const Tensor& b);
Tensor LogicalNot(const Tensor& a);

// ---- Elementwise unary ----
Tensor Neg(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Sign(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Square(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);
// d/dx relu(x) given upstream gradient: grad * (x > 0).
Tensor ReluGrad(const Tensor& grad, const Tensor& x);

// ---- Linear algebra ----
// 2-D matrix product op(a) x op(b), where op(x) is x, or its transpose when
// the side's flag is set: (m,k) x (k,n) -> (m,n). A flag swaps the side's
// strides (tensor/contract.h); no Transpose runs.
Tensor MatMul(const Tensor& a, const Tensor& b, bool transpose_a = false,
              bool transpose_b = false);
// 2-D transpose.
Tensor Transpose(const Tensor& a);

// ---- Shape manipulation ----
Tensor Reshape(const Tensor& a, const Shape& shape);
// Broadcast a to the given shape (explicit materialisation).
Tensor BroadcastTo(const Tensor& a, const Shape& shape);
Tensor Concat(const std::vector<Tensor>& parts, int axis);
// Stack along a new leading axis.
Tensor Stack(const std::vector<Tensor>& parts);
// begin/size along each axis (size -1 = to end).
Tensor Slice(const Tensor& a, const std::vector<std::int64_t>& begin,
             const std::vector<std::int64_t>& size);
// The gradient of Slice: a float32 `grad` of the slice's shape scattered
// into zeros of `shape` at `begin`.
Tensor SliceGrad(const Tensor& grad, const Shape& shape,
                 const std::vector<std::int64_t>& begin);
// Converts each element directly to `dtype` (one rounding); to or from
// bool, x != 0.
Tensor Cast(const Tensor& a, DType dtype);

// ---- Reductions ----
// axes empty => reduce all axes. keep_dims retains reduced axes as size 1.
Tensor ReduceSum(const Tensor& a, std::vector<int> axes = {},
                 bool keep_dims = false);
Tensor ReduceMean(const Tensor& a, std::vector<int> axes = {},
                  bool keep_dims = false);
Tensor ReduceMax(const Tensor& a, std::vector<int> axes = {},
                 bool keep_dims = false);
// Reduce a gradient to a broadcast input's original shape (sums the
// broadcast axes). Used by autodiff for all broadcasting binary ops.
Tensor ReduceToShape(const Tensor& grad, const Shape& target);
Tensor ArgMax(const Tensor& a, int axis);  // result dtype: int64

// ---- Neural network ----
Tensor Softmax(const Tensor& logits);     // along last axis
Tensor LogSoftmax(const Tensor& logits);  // along last axis
// logits: (batch, classes); labels: (batch) int64. Returns (batch) losses.
Tensor SoftmaxCrossEntropy(const Tensor& logits, const Tensor& labels);
// Gradient of mean softmax-xent handled in autodiff via Softmax/OneHot.
Tensor OneHot(const Tensor& labels, std::int64_t depth);

// input: (n, h, w, c_in) NHWC; filter: (fh, fw, c_in, c_out) HWIO.
// padding: "SAME" or "VALID".
Tensor Conv2D(const Tensor& input, const Tensor& filter, int stride,
              const std::string& padding);
// Gradients of Conv2D with respect to its input / filter.
Tensor Conv2DGradInput(const Shape& input_shape, const Tensor& filter,
                       const Tensor& grad, int stride,
                       const std::string& padding);
Tensor Conv2DGradFilter(const Tensor& input, const Shape& filter_shape,
                        const Tensor& grad, int stride,
                        const std::string& padding);
Tensor MaxPool2D(const Tensor& input, int window, int stride);
Tensor MaxPool2DGrad(const Tensor& input, const Tensor& grad, int window,
                     int stride);
Tensor AvgPool2D(const Tensor& input, int window, int stride);
Tensor AvgPool2DGrad(const Shape& input_shape, const Tensor& grad, int window,
                     int stride);

// params: (vocab, dim) float; ids: any-shape int64. Result shape:
// ids.shape + [dim].
Tensor Gather(const Tensor& params, const Tensor& ids);
// Scatter-add of grad rows back into a zero (vocab, dim) tensor.
Tensor GatherGrad(const Shape& params_shape, const Tensor& ids,
                  const Tensor& grad);

// cond: bool (broadcastable); picks from a where true else b.
Tensor Select(const Tensor& cond, const Tensor& a, const Tensor& b);

// ---- Random ----
Tensor RandomNormal(const Shape& shape, float mean, float stddev, Rng& rng);
Tensor RandomUniform(const Shape& shape, float lo, float hi, Rng& rng);

}  // namespace janus::ops

#endif  // JANUS_TENSOR_OPS_H_
