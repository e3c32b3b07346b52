// One row-major strided walk for the kernels whose operands are not laid
// out like their iteration space: the broadcast loops of the binary
// elementwise ops, the reductions (and through them ReduceToShape, Softmax
// and the fused sum/mean epilogue), BroadcastTo, Slice and SliceGrad.
//
// A walk visits the positions of an iteration shape in row-major order and
// maps position p to one element offset per operand:
//   offset_k(p) = start_k + sum over axes of coord(p, axis) * stride_k(axis)
// where stride 0 repeats an element (broadcast). Rather than recomputing
// that sum with a div/mod per axis per element, the walk
//   - drops size-1 axes and merges adjacent axes that every operand
//     traverses contiguously, once, at construction;
//   - maps the first position of a window with one div/mod pass;
//   - hands the window out as runs along the innermost merged axis: per run
//     its first position, its length, and each operand's offset and stride
//     along the run, advancing an odometer once per run.
// Run element j sits at position `pos + j`, so the operand laid out like
// the iteration space (an elementwise output, a reduction input) needs no
// strides of its own. Runs come in row-major order and elements within a
// run in index order: a kernel that applies its functor along each run
// computes the same elements in the same order as a per-element loop, so
// reductions still combine into each output slot in input order.
#ifndef JANUS_TENSOR_STRIDED_H_
#define JANUS_TENSOR_STRIDED_H_

#include <algorithm>
#include <array>
#include <cstdint>

#include "common/error.h"
#include "tensor/shape.h"

namespace janus::ops {

template <std::size_t N>
class StridedWalk {
 public:
  using Offsets = std::array<std::int64_t, N>;

  // A walk of a scalar: one run of one element at offset 0.
  StridedWalk() { AddOuterAxis(1, {}); }

  // Operand k is a row-major array of shape `*operands[k]` starting at
  // element `starts[k]`. Its axes align with the trailing axes of `iter`
  // (NumPy broadcasting); an axis it lacks or has at size 1 broadcasts.
  // A same-rank operand larger than `iter` is a window into it (Slice).
  StridedWalk(const Shape& iter, const std::array<const Shape*, N>& operands,
              const Offsets& starts = {})
      : start_(starts) {
    Offsets native{};  // operand k's row-major stride at the current axis
    native.fill(1);
    const auto& dims = iter.dims();
    const int rank = iter.rank();
    for (int back = 0; back < rank; ++back) {
      Offsets stride{};
      for (std::size_t k = 0; k < N; ++k) {
        const auto& od = operands[k]->dims();
        const int axis = static_cast<int>(od.size()) - 1 - back;
        if (axis < 0) continue;
        const std::int64_t d = od[static_cast<std::size_t>(axis)];
        stride[k] = d == 1 ? 0 : native[k];
        native[k] *= d;
      }
      const std::int64_t dim = dims[static_cast<std::size_t>(rank - 1 - back)];
      if (dim != 1) AddOuterAxis(dim, stride);
    }
    if (rank_ == 0) AddOuterAxis(1, {});
  }

  // Calls run(pos, len, offsets, steps) for each run of the row-major
  // window [base, base + count), which must lie inside the iteration
  // space: positions pos .. pos + len - 1, where operand k's element for
  // position pos + j is offsets[k] + j * steps[k].
  template <typename Run>
  void ForEachRun(std::int64_t base, std::int64_t count, Run&& run) const {
    if (count <= 0) return;
    std::array<std::int64_t, kMaxAxes> coord{};
    Offsets row = start_;  // offsets at inner coordinate 0 of the row
    std::int64_t rem = base;
    for (int i = 0; i < rank_; ++i) {
      const auto u = static_cast<std::size_t>(i);
      coord[u] = rem % dims_[u];
      rem /= dims_[u];
      if (i == 0) continue;
      for (std::size_t k = 0; k < N; ++k) row[k] += coord[u] * strides_[u][k];
    }
    const Offsets& steps = strides_[0];
    const std::int64_t inner = dims_[0];
    const std::int64_t end = base + count;
    std::int64_t pos = base;
    std::int64_t first = coord[0];  // inner coordinate the run starts at
    while (true) {
      const std::int64_t len = std::min(inner - first, end - pos);
      Offsets at = row;
      for (std::size_t k = 0; k < N; ++k) at[k] += first * steps[k];
      run(pos, len, at, steps);
      pos += len;
      if (pos == end) return;
      first = 0;
      // Next row: carry through the outer axes. The window ends inside
      // the iteration space, so the carry never runs off the outermost.
      for (std::size_t u = 1;; ++u) {
        for (std::size_t k = 0; k < N; ++k) row[k] += strides_[u][k];
        if (++coord[u] < dims_[u]) break;
        for (std::size_t k = 0; k < N; ++k) {
          row[k] -= strides_[u][k] * dims_[u];
        }
        coord[u] = 0;
      }
    }
  }

 private:
  // Every axis kept has size >= 2 (or the iteration space is empty), so a
  // shape whose element count fits an int64 keeps fewer than 64.
  static constexpr int kMaxAxes = 64;

  // Axes are stored innermost first. The outer axis merges into the
  // current outermost one when every operand steps over that whole axis
  // with one outer stride: offset = (c_outer * d + c_inner) * s.
  void AddOuterAxis(std::int64_t dim, const Offsets& stride) {
    if (rank_ > 0) {
      const auto last = static_cast<std::size_t>(rank_ - 1);
      bool contiguous = true;
      for (std::size_t k = 0; k < N; ++k) {
        contiguous = contiguous && stride[k] == strides_[last][k] * dims_[last];
      }
      if (contiguous) {
        dims_[last] *= dim;
        return;
      }
    }
    JANUS_EXPECTS(rank_ < kMaxAxes);
    dims_[static_cast<std::size_t>(rank_)] = dim;
    strides_[static_cast<std::size_t>(rank_)] = stride;
    ++rank_;
  }

  int rank_ = 0;
  std::array<std::int64_t, kMaxAxes> dims_{};
  std::array<Offsets, kMaxAxes> strides_{};
  Offsets start_{};
};

}  // namespace janus::ops

#endif  // JANUS_TENSOR_STRIDED_H_
