// Dense tensor shapes. A Shape is an ordered list of non-negative dimension
// sizes; rank 0 denotes a scalar. Shapes are value types.
#ifndef JANUS_TENSOR_SHAPE_H_
#define JANUS_TENSOR_SHAPE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace janus {

class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims) : dims_(dims) {}
  explicit Shape(std::vector<std::int64_t> dims) : dims_(std::move(dims)) {}

  int rank() const { return static_cast<int>(dims_.size()); }
  std::int64_t dim(int axis) const;
  const std::vector<std::int64_t>& dims() const { return dims_; }

  // Total number of elements (1 for scalars).
  std::int64_t num_elements() const;

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  // Row-major strides, in elements.
  std::vector<std::int64_t> Strides() const;

  std::string ToString() const;

 private:
  std::vector<std::int64_t> dims_;
};

// Computes the NumPy-style broadcast of two shapes: per trailing-aligned
// axis, equal sizes or a size 1 that takes the other's size (so 1 against 0
// is 0). Throws InvalidArgument if the shapes are incompatible.
Shape BroadcastShapes(const Shape& a, const Shape& b);

}  // namespace janus

#endif  // JANUS_TENSOR_SHAPE_H_
