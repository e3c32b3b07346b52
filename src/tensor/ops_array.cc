// Shape manipulation, indexing, casting, and gather/scatter kernels.
#include <algorithm>
#include <cstring>
#include <type_traits>

#include "tensor/ops.h"
#include "tensor/strided.h"

namespace janus::ops {
namespace {

int NormalizeAxis(int axis, int rank) {
  if (axis < 0) axis += rank;
  if (axis < 0 || axis >= rank) {
    throw InvalidArgument("axis out of range");
  }
  return axis;
}

template <typename T>
void ConcatImpl(const std::vector<Tensor>& parts, int axis, Tensor& out) {
  // Treat each tensor as (outer, axis_dim, inner) and copy slabs.
  const Shape& shape0 = parts.front().shape();
  std::int64_t outer = 1;
  for (int i = 0; i < axis; ++i) outer *= shape0.dim(i);
  std::int64_t inner = 1;
  for (int i = axis + 1; i < shape0.rank(); ++i) inner *= shape0.dim(i);

  auto ov = out.mutable_data<T>();
  std::int64_t out_axis = out.shape().dim(axis);
  std::int64_t written_axis = 0;
  for (const Tensor& part : parts) {
    const auto pv = part.data<T>();
    const std::int64_t part_axis = part.shape().dim(axis);
    for (std::int64_t o = 0; o < outer; ++o) {
      const std::int64_t src = o * part_axis * inner;
      const std::int64_t dst = (o * out_axis + written_axis) * inner;
      std::memcpy(&ov[static_cast<std::size_t>(dst)],
                  &pv[static_cast<std::size_t>(src)],
                  static_cast<std::size_t>(part_axis * inner) * sizeof(T));
    }
    written_axis += part_axis;
  }
}

// dst[pos] = src[offset(pos)] over every position of `walk`'s iteration
// space: the gather of BroadcastTo and Slice.
template <typename T>
void GatherRuns(const T* src, T* dst, const StridedWalk<1>& walk,
                std::int64_t n) {
  walk.ForEachRun(0, n, [&](std::int64_t pos, std::int64_t len,
                            const auto& at, const auto& step) {
    const T* s = src + at[0];
    T* d = dst + pos;
    if (step[0] == 1) {
      std::copy_n(s, len, d);
    } else if (step[0] == 0) {
      std::fill_n(d, len, *s);
    } else {
      for (std::int64_t j = 0; j < len; ++j) d[j] = s[j * step[0]];
    }
  });
}

void GatherRuns(const Tensor& src, Tensor& dst, const StridedWalk<1>& walk) {
  const std::int64_t n = dst.num_elements();
  switch (src.dtype()) {
    case DType::kFloat32:
      GatherRuns(src.data<float>().data(), dst.mutable_data<float>().data(),
                 walk, n);
      break;
    case DType::kInt64:
      GatherRuns(src.data<std::int64_t>().data(),
                 dst.mutable_data<std::int64_t>().data(), walk, n);
      break;
    case DType::kBool:
      GatherRuns(src.data<std::uint8_t>().data(),
                 dst.mutable_data<std::uint8_t>().data(), walk, n);
      break;
  }
}

// Converts every element of `src` to D with one rounding; a bool (uint8)
// on either side means `x != 0`. A float with no int64 value (NaN, an
// infinity, or outside [-2^63, 2^63)) throws instead of converting.
template <typename D>
void ConvertTo(const Tensor& src, D* dst) {
  const auto convert = [&](const auto* from) {
    using S = std::remove_cvref_t<decltype(*from)>;
    const std::int64_t n = src.num_elements();
    for (std::int64_t i = 0; i < n; ++i) {
      if constexpr (std::is_same_v<S, std::uint8_t> ||
                    std::is_same_v<D, std::uint8_t>) {
        dst[i] = from[i] != 0 ? 1 : 0;
      } else {
        if constexpr (std::is_same_v<S, float> &&
                      std::is_same_v<D, std::int64_t>) {
          // NaN fails both comparisons; 2^63 itself is out of range.
          if (!(from[i] >= -0x1p63f && from[i] < 0x1p63f)) {
            throw InvalidArgument("Cast: " + std::to_string(from[i]) +
                                  " has no int64 value");
          }
        }
        dst[i] = static_cast<D>(from[i]);
      }
    }
  };
  switch (src.dtype()) {
    case DType::kFloat32:
      convert(src.data<float>().data());
      break;
    case DType::kInt64:
      convert(src.data<std::int64_t>().data());
      break;
    case DType::kBool:
      convert(src.data<std::uint8_t>().data());
      break;
  }
}

// The element offset of `begin` in a row-major array of `shape`.
std::int64_t StartOffset(const Shape& shape,
                         const std::vector<std::int64_t>& begin) {
  std::int64_t offset = 0;
  std::int64_t stride = 1;
  for (int i = shape.rank() - 1; i >= 0; --i) {
    offset += begin[static_cast<std::size_t>(i)] * stride;
    stride *= shape.dim(i);
  }
  return offset;
}

}  // namespace

Tensor Reshape(const Tensor& a, const Shape& shape) {
  // Supports a single -1 wildcard dimension.
  std::vector<std::int64_t> dims = shape.dims();
  std::int64_t known = 1;
  int wildcard = -1;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (dims[i] == -1) {
      if (wildcard >= 0) throw InvalidArgument("reshape: multiple -1 dims");
      wildcard = static_cast<int>(i);
    } else {
      known *= dims[i];
    }
  }
  if (wildcard >= 0) {
    if (known == 0 || a.num_elements() % known != 0) {
      throw InvalidArgument("reshape: cannot infer -1 dimension");
    }
    dims[static_cast<std::size_t>(wildcard)] = a.num_elements() / known;
  }
  return a.Reshaped(Shape(std::move(dims)));
}

Tensor BroadcastTo(const Tensor& a, const Shape& shape) {
  if (a.shape() == shape) return a;
  if (BroadcastShapes(a.shape(), shape) != shape) {
    throw InvalidArgument("cannot broadcast " + a.shape().ToString() + " to " +
                          shape.ToString());
  }
  Tensor out(a.dtype(), shape);
  GatherRuns(a, out, StridedWalk<1>(shape, {&a.shape()}));
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  if (parts.empty()) throw InvalidArgument("Concat: no inputs");
  const Tensor& first = parts.front();
  const int norm_axis = NormalizeAxis(axis, first.rank());
  std::int64_t axis_total = 0;
  for (const Tensor& part : parts) {
    if (part.dtype() != first.dtype() || part.rank() != first.rank()) {
      throw InvalidArgument("Concat: dtype/rank mismatch");
    }
    for (int i = 0; i < first.rank(); ++i) {
      if (i != norm_axis && part.dim(i) != first.dim(i)) {
        throw InvalidArgument("Concat: non-axis dimension mismatch");
      }
    }
    axis_total += part.dim(norm_axis);
  }
  std::vector<std::int64_t> out_dims = first.shape().dims();
  out_dims[static_cast<std::size_t>(norm_axis)] = axis_total;
  Tensor out(first.dtype(), Shape(std::move(out_dims)));
  switch (first.dtype()) {
    case DType::kFloat32:
      ConcatImpl<float>(parts, norm_axis, out);
      break;
    case DType::kInt64:
      ConcatImpl<std::int64_t>(parts, norm_axis, out);
      break;
    case DType::kBool:
      ConcatImpl<std::uint8_t>(parts, norm_axis, out);
      break;
  }
  return out;
}

Tensor Stack(const std::vector<Tensor>& parts) {
  if (parts.empty()) throw InvalidArgument("Stack: no inputs");
  std::vector<Tensor> expanded;
  expanded.reserve(parts.size());
  for (const Tensor& part : parts) {
    std::vector<std::int64_t> dims = part.shape().dims();
    dims.insert(dims.begin(), 1);
    expanded.push_back(part.Reshaped(Shape(std::move(dims))));
  }
  return Concat(expanded, 0);
}

Tensor Slice(const Tensor& a, const std::vector<std::int64_t>& begin,
             const std::vector<std::int64_t>& size) {
  if (static_cast<int>(begin.size()) != a.rank() ||
      static_cast<int>(size.size()) != a.rank()) {
    throw InvalidArgument("Slice: begin/size rank mismatch");
  }
  std::vector<std::int64_t> out_dims(begin.size());
  for (int i = 0; i < a.rank(); ++i) {
    const auto u = static_cast<std::size_t>(i);
    const std::int64_t extent =
        size[u] == -1 ? a.dim(i) - begin[u] : size[u];
    if (begin[u] < 0 || extent < 0 || begin[u] + extent > a.dim(i)) {
      throw InvalidArgument("Slice: out of bounds on axis " +
                            std::to_string(i));
    }
    out_dims[u] = extent;
  }
  const Shape out_shape(std::move(out_dims));
  Tensor out(a.dtype(), out_shape);
  GatherRuns(a, out,
             StridedWalk<1>(out_shape, {&a.shape()},
                            {StartOffset(a.shape(), begin)}));
  return out;
}

Tensor SliceGrad(const Tensor& grad, const Shape& shape,
                 const std::vector<std::int64_t>& begin) {
  Tensor out = Tensor::Zeros(DType::kFloat32, shape);
  float* dst = out.mutable_data<float>().data();
  const float* src = grad.data<float>().data();
  JANUS_EXPECTS(grad.rank() == shape.rank() &&
                static_cast<int>(begin.size()) == shape.rank());
  for (int i = 0; i < shape.rank(); ++i) {
    const std::int64_t at = begin[static_cast<std::size_t>(i)];
    JANUS_EXPECTS(at >= 0 && at + grad.dim(i) <= shape.dim(i));
  }
  StridedWalk<1>(grad.shape(), {&shape}, {StartOffset(shape, begin)})
      .ForEachRun(0, grad.num_elements(),
                  [&](std::int64_t pos, std::int64_t len, const auto& at,
                      const auto& step) {
                    float* d = dst + at[0];
                    const float* s = src + pos;
                    for (std::int64_t j = 0; j < len; ++j) {
                      d[j * step[0]] = s[j];
                    }
                  });
  return out;
}

Tensor Cast(const Tensor& a, DType dtype) {
  if (a.dtype() == dtype) return a;
  Tensor out(dtype, a.shape());
  switch (dtype) {
    case DType::kFloat32:
      ConvertTo(a, out.mutable_data<float>().data());
      break;
    case DType::kInt64:
      ConvertTo(a, out.mutable_data<std::int64_t>().data());
      break;
    case DType::kBool:
      ConvertTo(a, out.mutable_data<std::uint8_t>().data());
      break;
  }
  return out;
}

Tensor Gather(const Tensor& params, const Tensor& ids) {
  if (params.rank() != 2) {
    throw InvalidArgument("Gather: params must be rank 2 (vocab, dim)");
  }
  if (ids.dtype() != DType::kInt64) {
    throw InvalidArgument("Gather: ids must be int64");
  }
  const std::int64_t vocab = params.dim(0);
  const std::int64_t dim = params.dim(1);
  std::vector<std::int64_t> out_dims = ids.shape().dims();
  out_dims.push_back(dim);
  Tensor out(params.dtype(), Shape(std::move(out_dims)));
  const auto pv = params.data<float>();
  const auto iv = ids.data<std::int64_t>();
  auto ov = out.mutable_data<float>();
  for (std::size_t i = 0; i < iv.size(); ++i) {
    const std::int64_t id = iv[i];
    if (id < 0 || id >= vocab) {
      throw InvalidArgument("Gather: id " + std::to_string(id) +
                            " out of vocabulary range");
    }
    std::memcpy(&ov[i * static_cast<std::size_t>(dim)],
                &pv[static_cast<std::size_t>(id * dim)],
                static_cast<std::size_t>(dim) * sizeof(float));
  }
  return out;
}

Tensor GatherGrad(const Shape& params_shape, const Tensor& ids,
                  const Tensor& grad) {
  Tensor out = Tensor::Zeros(DType::kFloat32, params_shape);
  const std::int64_t dim = params_shape.dim(1);
  const auto iv = ids.data<std::int64_t>();
  const auto gv = grad.data<float>();
  auto ov = out.mutable_data<float>();
  for (std::size_t i = 0; i < iv.size(); ++i) {
    const auto id = static_cast<std::size_t>(iv[i]);
    for (std::size_t d = 0; d < static_cast<std::size_t>(dim); ++d) {
      ov[id * static_cast<std::size_t>(dim) + d] +=
          gv[i * static_cast<std::size_t>(dim) + d];
    }
  }
  return out;
}

Tensor OneHot(const Tensor& labels, std::int64_t depth) {
  if (labels.dtype() != DType::kInt64) {
    throw InvalidArgument("OneHot: labels must be int64");
  }
  std::vector<std::int64_t> out_dims = labels.shape().dims();
  out_dims.push_back(depth);
  Tensor out = Tensor::Zeros(DType::kFloat32, Shape(std::move(out_dims)));
  const auto lv = labels.data<std::int64_t>();
  auto ov = out.mutable_data<float>();
  for (std::size_t i = 0; i < lv.size(); ++i) {
    const std::int64_t label = lv[i];
    if (label < 0 || label >= depth) {
      throw InvalidArgument("OneHot: label out of range");
    }
    ov[i * static_cast<std::size_t>(depth) + static_cast<std::size_t>(label)] =
        1.0f;
  }
  return out;
}

}  // namespace janus::ops
