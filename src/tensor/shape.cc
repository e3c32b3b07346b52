#include "tensor/shape.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace janus {

std::int64_t Shape::dim(int axis) const {
  if (axis < 0) axis += rank();
  JANUS_EXPECTS(axis >= 0 && axis < rank());
  return dims_[static_cast<std::size_t>(axis)];
}

std::int64_t Shape::num_elements() const {
  std::int64_t n = 1;
  for (const std::int64_t d : dims_) n *= d;
  return n;
}

std::vector<std::int64_t> Shape::Strides() const {
  std::vector<std::int64_t> strides(dims_.size(), 1);
  for (int i = rank() - 2; i >= 0; --i) {
    const auto idx = static_cast<std::size_t>(i);
    strides[idx] = strides[idx + 1] * dims_[idx + 1];
  }
  return strides;
}

std::string Shape::ToString() const {
  std::ostringstream oss;
  oss << '(';
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << dims_[i];
  }
  oss << ')';
  return oss.str();
}

Shape BroadcastShapes(const Shape& a, const Shape& b) {
  const int rank = std::max(a.rank(), b.rank());
  std::vector<std::int64_t> dims(static_cast<std::size_t>(rank), 1);
  for (int i = 0; i < rank; ++i) {
    const std::int64_t da = i < a.rank() ? a.dim(a.rank() - 1 - i) : 1;
    const std::int64_t db = i < b.rank() ? b.dim(b.rank() - 1 - i) : 1;
    if (da != db && da != 1 && db != 1) {
      throw InvalidArgument("cannot broadcast shapes " + a.ToString() +
                            " and " + b.ToString());
    }
    // A size-1 dim takes the other's size, 0 included.
    dims[static_cast<std::size_t>(rank - 1 - i)] = da == 1 ? db : da;
  }
  return Shape(std::move(dims));
}

}  // namespace janus
