// The one contraction loop that MatMul and the Conv2D family call, private
// to src/tensor: C[i, j] = sum over k < depth of A(i, k) * B(k, j).
// Tiles split i and j only: each output element is summed from +0 in a
// register, k ascending, and stored once, so it adds the products of a
// naive loop in the same order. No zero operand is skipped, so 0 * inf and
// 0 * NaN reach the output as NaN, as in IEEE arithmetic and TensorFlow.
// Operands are strided views, so a transpose is a stride swap. Each tile's
// rows of A are copied into a k-interleaved panel; B is read in place when
// it is unit stride along j, else packed once into panels.
#ifndef JANUS_TENSOR_CONTRACT_H_
#define JANUS_TENSOR_CONTRACT_H_

#include <cstdint>

namespace janus::ops {

// Element (r, c) sits at data[r * rs + c * cs]; T() swaps the strides.
struct MatrixView {
  const float* data;
  std::int64_t rs, cs;

  float at(std::int64_t r, std::int64_t c) const { return data[r * rs + c * cs]; }
  MatrixView T() const { return {data, cs, rs}; }
};

// Rows of a register tile; a last partial tile is padded with zeros.
inline constexpr int kTileRows = 4;

// This thread's kernel buffer `slot` (0-2), at least `floats` long: slot
// 0 is PackB's, 2 Contract's, 1 is free for a caller.
float* KernelBuffer(int slot, std::int64_t floats);

// B as the tiles read it: columns [j, j + 8) of row k at at(j) + k * ldb,
// for j a multiple of 4. Panels of 8 columns lie panel_stride apart.
struct PanelsB {
  const float* data;
  std::int64_t panel_stride, ldb;

  const float* at(std::int64_t j) const {
    return data + j / 8 * panel_stride + j % 8;
  }
};

// B (depth x n) in place when its columns are unit stride and n is a
// multiple of 4, else packed into zero-padded panels of 8 columns.
PanelsB PackB(MatrixView b, std::int64_t depth, std::int64_t n);

// C = A x B for an m x depth A; C is row-major with leading dimension ldc.
void Contract(MatrixView a, std::int64_t m, std::int64_t depth,
              const PanelsB& b, std::int64_t n, float* c, std::int64_t ldc);

}  // namespace janus::ops

#endif  // JANUS_TENSOR_CONTRACT_H_
