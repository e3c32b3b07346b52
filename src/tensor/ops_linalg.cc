// Matrix multiplication, transpose, and reductions.
#include <algorithm>
#include <limits>

#include "tensor/contract.h"
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

// One register tile: kTileRows x kCols sums over the whole depth, each from
// +0 with k ascending, stored to C once. The panel holds the tile's rows of
// A interleaved, a[k * kTileRows + r]: read in place, a strided A led gcc
// to vectorise over k with shuffles.
template <int kCols>
void Tile(const float* a, std::int64_t depth, const float* b,
          std::int64_t ldb, float* c, std::int64_t ldc) {
  float acc[kTileRows][kCols];
  for (int r = 0; r < kTileRows; ++r) {
    for (int j = 0; j < kCols; ++j) acc[r][j] = 0.0f;
  }
  for (std::int64_t k = 0; k < depth; ++k, a += kTileRows, b += ldb) {
    for (int r = 0; r < kTileRows; ++r) {
      for (int j = 0; j < kCols; ++j) acc[r][j] += a[r] * b[j];
    }
  }
  for (int r = 0; r < kTileRows; ++r) {
    for (int j = 0; j < kCols; ++j) c[r * ldc + j] = acc[r][j];
  }
}

// The tile at column j of `rows` rows of C; one that crosses row `rows` or
// column n is computed into a local copy.
template <int kCols>
void TileAt(const float* a, std::int64_t rows, std::int64_t depth,
            const PanelsB& b, std::int64_t j, std::int64_t n, float* c,
            std::int64_t ldc) {
  if (rows == kTileRows && n - j >= kCols) {
    return Tile<kCols>(a, depth, b.at(j), b.ldb, c + j, ldc);
  }
  float part[kTileRows][kCols];
  Tile<kCols>(a, depth, b.at(j), b.ldb, &part[0][0], kCols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t q = 0; q < std::min<std::int64_t>(kCols, n - j); ++q) {
      c[r * ldc + j + q] = part[r][q];
    }
  }
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

float* KernelBuffer(int slot, std::int64_t floats) {
  thread_local std::vector<float> buffers[3];
  auto& buffer = buffers[slot];
  // Never empty, so a zero-size operand still gets a non-null pointer.
  const auto size = static_cast<std::size_t>(std::max<std::int64_t>(floats, 1));
  if (buffer.size() < size) buffer.resize(size);
  return buffer.data();
}

// dst (rows x width, row-major) = src's first rows x cols, zero-padded on
// the right; four columns at a time (a fixed count, which gcc unrolls), so
// a transposed src is read along four of its rows.
void CopyView(MatrixView src, std::int64_t rows, std::int64_t cols,
              std::int64_t width, float* dst) {
  const std::int64_t blocked = width / 4 * 4;
  for (std::int64_t j0 = 0; j0 < width; j0 += 4) {
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t j = j0; j0 < blocked ? j < j0 + 4 : j < width; ++j) {
        dst[r * width + j] = j < cols ? src.at(r, j) : 0.0f;
      }
    }
  }
}

PanelsB PackB(MatrixView b, std::int64_t depth, std::int64_t n) {
  if (b.cs == 1 && n % 4 == 0) return {b.data, 8, b.rs};
  float* packed = KernelBuffer(0, depth * ((n + 7) / 8 * 8));
  for (std::int64_t j = 0; j < n; j += 8) {
    CopyView({b.data + j * b.cs, b.rs, b.cs}, depth,
             std::min<std::int64_t>(8, n - j), 8, packed + j * depth);
  }
  return {packed, 8 * depth, 8};
}

void Contract(MatrixView a, std::int64_t m, std::int64_t depth,
              const PanelsB& b, std::int64_t n, float* c, std::int64_t ldc) {
  float* panel = KernelBuffer(2, depth * kTileRows);
  for (std::int64_t i = 0; i < m; i += kTileRows) {
    const std::int64_t rows = std::min<std::int64_t>(kTileRows, m - i);
    CopyView({a.data + i * a.rs, a.cs, a.rs}, depth, rows, kTileRows, panel);
    float* ci = c + i * ldc;
    std::int64_t j = 0;
    for (; n - j > 4; j += 8) TileAt<8>(panel, rows, depth, b, j, n, ci, ldc);
    if (j < n) TileAt<4>(panel, rows, depth, b, j, n, ci, ldc);
  }
}

Tensor MatMul(const Tensor& a, const Tensor& b, bool transpose_a,
              bool transpose_b) {
  CheckFloat(a, "MatMul");
  CheckFloat(b, "MatMul");
  if (a.rank() != 2 || b.rank() != 2 ||
      a.dim(transpose_a ? 0 : 1) != b.dim(transpose_b ? 1 : 0)) {
    throw InvalidArgument("MatMul: incompatible shapes " +
                          a.shape().ToString() + " x " + b.shape().ToString());
  }
  const std::int64_t m = a.dim(transpose_a ? 1 : 0);
  const std::int64_t depth = a.dim(transpose_a ? 0 : 1);
  const std::int64_t n = b.dim(transpose_b ? 0 : 1);
  MatrixView av{a.data<float>().data(), a.dim(1), 1};
  const MatrixView bv{b.data<float>().data(), b.dim(1), 1};
  if (transpose_a) av = av.T();
  Tensor out = Tensor::Uninitialized(DType::kFloat32, Shape{m, n});
  Contract(av, m, depth, PackB(transpose_b ? bv.T() : bv, depth, n), n,
           out.mutable_data<float>().data(), n);
  return out;
}

Tensor Transpose(const Tensor& a) {
  CheckFloat(a, "Transpose");
  if (a.rank() != 2) throw InvalidArgument("Transpose: requires rank 2");
  Tensor out = Tensor::Uninitialized(DType::kFloat32, Shape{a.dim(1), a.dim(0)});
  CopyView(MatrixView{a.data<float>().data(), a.dim(1), 1}.T(), a.dim(1),
           a.dim(0), a.dim(0), out.mutable_data<float>().data());
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
