// Matrix multiplication, transpose, and reductions.
#include <algorithm>
#include <limits>

#include "tensor/elementwise.h"
#include "tensor/ops.h"

namespace janus::ops {
namespace {

void CheckFloat(const Tensor& t, const char* op) {
  if (t.dtype() != DType::kFloat32) {
    throw InvalidArgument(std::string(op) + ": requires float32 operands");
  }
}

// Generic reduction: combines elements mapped to the same output slot.
template <typename Combine>
Tensor ReduceImpl(const Tensor& a, const std::vector<int>& axes,
                  bool keep_dims, float init, Combine combine) {
  CheckFloat(a, "Reduce");
  Tensor out = Tensor::Full(ReducedShape(a.shape(), axes, keep_dims), init);
  ReduceIndex(a.shape(), axes)
      .Accumulate(out.mutable_data<float>().data(), a.data<float>().data(), 0,
                  a.num_elements(), combine);
  return out;
}

// Walks the input of a reduction over the output kept at full rank.
StridedWalk<1> ReduceWalk(const Shape& in, const std::vector<int>& axes) {
  const Shape kept = ReducedShape(in, axes, /*keep_dims=*/true);
  return StridedWalk<1>(in, {&kept});
}

}  // namespace

std::vector<int> NormalizeAxes(std::vector<int> axes, int rank) {
  if (axes.empty()) {
    axes.resize(static_cast<std::size_t>(rank));
    for (int i = 0; i < rank; ++i) axes[static_cast<std::size_t>(i)] = i;
    return axes;
  }
  for (int& axis : axes) {
    if (axis < 0) axis += rank;
    if (axis < 0 || axis >= rank) throw InvalidArgument("reduce: bad axis");
  }
  std::sort(axes.begin(), axes.end());
  axes.erase(std::unique(axes.begin(), axes.end()), axes.end());
  return axes;
}

Shape ReducedShape(const Shape& in, const std::vector<int>& axes,
                   bool keep_dims) {
  std::vector<std::int64_t> dims;
  for (int i = 0; i < in.rank(); ++i) {
    const bool reduced = std::binary_search(axes.begin(), axes.end(), i);
    if (reduced) {
      if (keep_dims) dims.push_back(1);
    } else {
      dims.push_back(in.dim(i));
    }
  }
  return Shape(std::move(dims));
}

ReduceIndex::ReduceIndex(const Shape& in, const std::vector<int>& axes)
    : walk(ReduceWalk(in, axes)) {}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CheckFloat(a, "MatMul");
  CheckFloat(b, "MatMul");
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw InvalidArgument("MatMul: incompatible shapes " +
                          a.shape().ToString() + " x " + b.shape().ToString());
  }
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  Tensor out = Tensor::Zeros(DType::kFloat32, Shape{m, n});
  const auto av = a.data<float>();
  const auto bv = b.data<float>();
  auto ov = out.mutable_data<float>();
  // i-k-j loop order for cache-friendly access to b and out rows.
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = av[static_cast<std::size_t>(i * k + kk)];
      if (aik == 0.0f) continue;
      const std::size_t brow = static_cast<std::size_t>(kk * n);
      const std::size_t orow = static_cast<std::size_t>(i * n);
      for (std::int64_t j = 0; j < n; ++j) {
        ov[orow + static_cast<std::size_t>(j)] +=
            aik * bv[brow + static_cast<std::size_t>(j)];
      }
    }
  }
  return out;
}

Tensor Transpose(const Tensor& a) {
  CheckFloat(a, "Transpose");
  if (a.rank() != 2) throw InvalidArgument("Transpose: requires rank 2");
  const std::int64_t m = a.dim(0);
  const std::int64_t n = a.dim(1);
  Tensor out(DType::kFloat32, Shape{n, m});
  const auto av = a.data<float>();
  auto ov = out.mutable_data<float>();
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      ov[static_cast<std::size_t>(j * m + i)] =
          av[static_cast<std::size_t>(i * n + j)];
    }
  }
  return out;
}

Tensor ReduceSum(const Tensor& a, std::vector<int> axes, bool keep_dims) {
  const auto norm = NormalizeAxes(std::move(axes), a.rank());
  return ReduceImpl(a, norm, keep_dims, 0.0f,
                    [](float acc, float v) { return acc + v; });
}

Tensor ReduceMean(const Tensor& a, std::vector<int> axes, bool keep_dims) {
  const auto norm = NormalizeAxes(std::move(axes), a.rank());
  std::int64_t count = 1;
  for (const int axis : norm) count *= a.dim(axis);
  Tensor sum = ReduceImpl(a, norm, keep_dims, 0.0f,
                          [](float acc, float v) { return acc + v; });
  return Mul(sum, Tensor::Scalar(1.0f / static_cast<float>(count)));
}

Tensor ReduceMax(const Tensor& a, std::vector<int> axes, bool keep_dims) {
  const auto norm = NormalizeAxes(std::move(axes), a.rank());
  return ReduceImpl(a, norm, keep_dims, std::numeric_limits<float>::lowest(),
                    [](float acc, float v) { return acc > v ? acc : v; });
}

Tensor ReduceToShape(const Tensor& grad, const Shape& target) {
  if (grad.shape() == target) return grad;
  // Sum the leading broadcast axes, then the interior size-1 axes.
  Tensor result = grad;
  while (result.rank() > target.rank()) {
    result = ReduceSum(result, {0}, /*keep_dims=*/false);
  }
  std::vector<int> axes;
  for (int i = 0; i < target.rank(); ++i) {
    if (target.dim(i) == 1 && result.dim(i) != 1) axes.push_back(i);
  }
  if (!axes.empty()) {
    result = ReduceSum(result, axes, /*keep_dims=*/true);
  }
  if (result.shape() != target) {
    // Ranks/dims matched by broadcast rules; a remaining mismatch is a bug.
    throw InternalError("ReduceToShape: could not reduce " +
                        grad.shape().ToString() + " to " + target.ToString());
  }
  return result;
}

Tensor ArgMax(const Tensor& a, int axis) {
  CheckFloat(a, "ArgMax");
  if (axis < 0) axis += a.rank();
  if (axis < 0 || axis >= a.rank()) throw InvalidArgument("ArgMax: bad axis");
  std::int64_t outer = 1;
  for (int i = 0; i < axis; ++i) outer *= a.dim(i);
  const std::int64_t extent = a.dim(axis);
  std::int64_t inner = 1;
  for (int i = axis + 1; i < a.rank(); ++i) inner *= a.dim(i);

  std::vector<std::int64_t> out_dims;
  for (int i = 0; i < a.rank(); ++i) {
    if (i != axis) out_dims.push_back(a.dim(i));
  }
  Tensor out(DType::kInt64, Shape(std::move(out_dims)));
  const auto av = a.data<float>();
  auto ov = out.mutable_data<std::int64_t>();
  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t in = 0; in < inner; ++in) {
      float best = std::numeric_limits<float>::lowest();
      std::int64_t best_idx = 0;
      for (std::int64_t e = 0; e < extent; ++e) {
        const float v = av[static_cast<std::size_t>((o * extent + e) * inner + in)];
        if (v > best) {
          best = v;
          best_idx = e;
        }
      }
      ov[static_cast<std::size_t>(o * inner + in)] = best_idx;
    }
  }
  return out;
}

Tensor Softmax(const Tensor& logits) {
  CheckFloat(logits, "Softmax");
  if (logits.rank() < 1) throw InvalidArgument("Softmax: rank >= 1 required");
  const Tensor max_vals =
      ReduceMax(logits, {logits.rank() - 1}, /*keep_dims=*/true);
  const Tensor shifted = Sub(logits, max_vals);
  const Tensor exps = Exp(shifted);
  const Tensor denom = ReduceSum(exps, {logits.rank() - 1}, /*keep_dims=*/true);
  return Div(exps, denom);
}

Tensor LogSoftmax(const Tensor& logits) {
  CheckFloat(logits, "LogSoftmax");
  const Tensor max_vals =
      ReduceMax(logits, {logits.rank() - 1}, /*keep_dims=*/true);
  const Tensor shifted = Sub(logits, max_vals);
  const Tensor log_denom = Log(
      ReduceSum(Exp(shifted), {logits.rank() - 1}, /*keep_dims=*/true));
  return Sub(shifted, log_denom);
}

Tensor SoftmaxCrossEntropy(const Tensor& logits, const Tensor& labels) {
  CheckFloat(logits, "SoftmaxCrossEntropy");
  if (logits.rank() != 2) {
    throw InvalidArgument("SoftmaxCrossEntropy: logits must be rank 2");
  }
  const Tensor log_probs = LogSoftmax(logits);
  const Tensor onehot = OneHot(labels, logits.dim(1));
  const Tensor picked = Mul(log_probs, onehot);
  return Neg(ReduceSum(picked, {1}, /*keep_dims=*/false));
}

}  // namespace janus::ops
