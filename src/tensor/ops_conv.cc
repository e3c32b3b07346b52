// Convolution and pooling kernels (NHWC layout, HWIO filters). Conv2D and
// its two gradients are calls into the one contraction loop
// (tensor/contract.h); the pooling kernels walk the same output pixels and
// taps.
#include <algorithm>
#include <limits>
#include <vector>

#include "tensor/contract.h"
#include "tensor/ops.h"

namespace janus::ops {
namespace {

struct ConvGeometry {
  std::int64_t batch, in_h, in_w, in_c;
  std::int64_t f_h, f_w, out_c;
  std::int64_t out_h, out_w;
  std::int64_t pad_top, pad_left;
  int stride;

  std::int64_t pixels() const { return batch * out_h * out_w; }
  // One per (fh, fw, c): the patch length, and the filter's rows.
  std::int64_t taps() const { return f_h * f_w * in_c; }
  // Calls f(p, n, oh, ow) per output pixel p = (n, oh, ow), p ascending.
  template <typename F>
  void ForEachPixel(F f) const {
    std::int64_t p = 0;
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        for (std::int64_t ow = 0; ow < out_w; ++ow) f(p++, n, oh, ow);
      }
    }
  }
  // Offset of the input pixel under tap (fh, fw) of output pixel (n, oh,
  // ow), or -1 in the padding.
  std::int64_t Offset(std::int64_t n, std::int64_t oh, std::int64_t ow,
                      std::int64_t fh, std::int64_t fw) const {
    const std::int64_t ih = oh * stride + fh - pad_top;
    const std::int64_t iw = ow * stride + fw - pad_left;
    if (ih < 0 || ih >= in_h || iw < 0 || iw >= in_w) return -1;
    return ((n * in_h + ih) * in_w + iw) * in_c;
  }
  // Calls f(at) per tap (fh, fw) of output pixel (n, oh, ow), in order.
  template <typename F>
  void ForEachTap(std::int64_t n, std::int64_t oh, std::int64_t ow, F f) const {
    for (std::int64_t fh = 0; fh < f_h; ++fh) {
      for (std::int64_t fw = 0; fw < f_w; ++fw) f(Offset(n, oh, ow, fh, fw));
    }
  }
  // Pools: calls f(o, taps) per output element o = (p, c), ascending, with
  // the input offsets of its window in (fh, fw) order.
  template <typename F>
  void ForEachWindow(F f) const {
    std::vector<std::int64_t> taps(static_cast<std::size_t>(f_h * f_w));
    ForEachPixel([&](std::int64_t p, std::int64_t n, std::int64_t oh,
                     std::int64_t ow) {
      for (std::int64_t c = 0; c < in_c; ++c) {
        auto tap = taps.begin();
        ForEachTap(n, oh, ow, [&](std::int64_t at) { *tap++ = at + c; });
        f(p * in_c + c, taps);
      }
    });
  }
};

ConvGeometry MakeGeometry(const Shape& input, const Shape& filter, int stride,
                          const std::string& padding) {
  if (input.rank() != 4 || filter.rank() != 4) {
    throw InvalidArgument("Conv2D: input must be NHWC, filter HWIO");
  }
  if (input.dim(3) != filter.dim(2)) {
    throw InvalidArgument("Conv2D: channel mismatch");
  }
  if (stride < 1) throw InvalidArgument("Conv2D: stride must be >= 1");
  ConvGeometry g{};
  g.batch = input.dim(0);
  g.in_h = input.dim(1);
  g.in_w = input.dim(2);
  g.in_c = input.dim(3);
  g.f_h = filter.dim(0);
  g.f_w = filter.dim(1);
  g.out_c = filter.dim(3);
  g.stride = stride;
  if (padding == "SAME") {
    g.out_h = (g.in_h + stride - 1) / stride;
    g.out_w = (g.in_w + stride - 1) / stride;
    const std::int64_t pad_h =
        std::max<std::int64_t>(0, (g.out_h - 1) * stride + g.f_h - g.in_h);
    const std::int64_t pad_w =
        std::max<std::int64_t>(0, (g.out_w - 1) * stride + g.f_w - g.in_w);
    g.pad_top = pad_h / 2;
    g.pad_left = pad_w / 2;
  } else if (padding == "VALID") {
    g.out_h = (g.in_h - g.f_h) / stride + 1;
    g.out_w = (g.in_w - g.f_w) / stride + 1;
    g.pad_top = 0;
    g.pad_left = 0;
    if (g.out_h < 1 || g.out_w < 1) {
      throw InvalidArgument("Conv2D: filter larger than input under VALID");
    }
  } else {
    throw InvalidArgument("Conv2D: padding must be SAME or VALID");
  }
  return g;
}

// A pool is a window x window filter under VALID padding.
ConvGeometry MakePoolGeometry(const Shape& input, int window, int stride) {
  if (input.rank() != 4) throw InvalidArgument("Pool2D: input must be NHWC");
  if (window < 1 || stride < 1) {
    throw InvalidArgument("Pool2D: window/stride must be >= 1");
  }
  if (input.dim(1) < window || input.dim(2) < window) {
    throw InvalidArgument("Pool2D: window larger than input");
  }
  return MakeGeometry(input, Shape{window, window, input.dim(3), input.dim(3)},
                      stride, "VALID");
}

}  // namespace

// Conv2D is patches x filter, one tile of kTileRows output pixels at a
// time: a pixel's patch holds the input under each tap (fh, fw, c), 0 in
// the padding, and the HWIO filter is the taps x out_c matrix B.
Tensor Conv2D(const Tensor& input, const Tensor& filter, int stride,
              const std::string& padding) {
  const ConvGeometry g =
      MakeGeometry(input.shape(), filter.shape(), stride, padding);
  Tensor out = Tensor::Uninitialized(
      DType::kFloat32, Shape{g.batch, g.out_h, g.out_w, g.out_c});
  const float* in = input.data<float>().data();
  float* ov = out.mutable_data<float>().data();
  const PanelsB b =
      PackB({filter.data<float>().data(), g.out_c, 1}, g.taps(), g.out_c);
  float* patches = KernelBuffer(1, kTileRows * g.taps());
  g.ForEachPixel([&](std::int64_t p, std::int64_t n, std::int64_t oh,
                     std::int64_t ow) {
    float* dst = patches + p % kTileRows * g.taps();
    g.ForEachTap(n, oh, ow, [&](std::int64_t at) {
      for (std::int64_t c = 0; c < g.in_c; ++c) {
        *dst++ = at < 0 ? 0.0f : in[at + c];
      }
    });
    if (p % kTileRows == kTileRows - 1 || p == g.pixels() - 1) {
      const std::int64_t p0 = p - p % kTileRows;
      Contract({patches, g.taps(), 1}, p - p0 + 1, g.taps(), b, g.out_c,
               ov + p0 * g.out_c, g.out_c);
    }
  });
  return out;
}

// dX is two sums, kept apart as a naive loop keeps them: per output pixel
// the out_c-ordered dots D = dY x filter^T, one per tap (a tile of pixels
// at a time), then a col2im walk adding D into dX in (n, oh, ow, fh, fw, c)
// order.
Tensor Conv2DGradInput(const Shape& input_shape, const Tensor& filter,
                       const Tensor& grad, int stride,
                       const std::string& padding) {
  const ConvGeometry g =
      MakeGeometry(input_shape, filter.shape(), stride, padding);
  Tensor out = Tensor::Zeros(DType::kFloat32, input_shape);
  const float* gv = grad.data<float>().data();
  float* ov = out.mutable_data<float>().data();
  const MatrixView filter_t{filter.data<float>().data(), 1, g.out_c};
  const PanelsB b = PackB(filter_t, g.out_c, g.taps());
  float* dots = KernelBuffer(1, kTileRows * g.taps());
  g.ForEachPixel([&](std::int64_t p, std::int64_t n, std::int64_t oh,
                     std::int64_t ow) {
    if (p % kTileRows == 0) {
      Contract({gv + p * g.out_c, g.out_c, 1},
               std::min<std::int64_t>(kTileRows, g.pixels() - p), g.out_c, b,
               g.taps(), dots, g.taps());
    }
    const float* d = dots + p % kTileRows * g.taps();
    g.ForEachTap(n, oh, ow, [&](std::int64_t at) {
      for (std::int64_t c = 0; at >= 0 && c < g.in_c; ++c) ov[at + c] += d[c];
      d += g.in_c;
    });
  });
  return out;
}

// dFilter is patches^T x dY, one tap (fh, fw) at a time: the tap's in_c
// rows are read at stride in_c from one gathered slice of the patches,
// output pixels (n, oh, ow) ascending.
Tensor Conv2DGradFilter(const Tensor& input, const Shape& filter_shape,
                        const Tensor& grad, int stride,
                        const std::string& padding) {
  const ConvGeometry g =
      MakeGeometry(input.shape(), filter_shape, stride, padding);
  Tensor out = Tensor::Uninitialized(DType::kFloat32, filter_shape);
  const float* in = input.data<float>().data();
  float* ov = out.mutable_data<float>().data();
  const PanelsB b =
      PackB({grad.data<float>().data(), g.out_c, 1}, g.pixels(), g.out_c);
  float* slice = KernelBuffer(1, g.pixels() * g.in_c);
  for (std::int64_t fh = 0; fh < g.f_h; ++fh) {
    for (std::int64_t fw = 0; fw < g.f_w; ++fw) {
      float* dst = slice;
      g.ForEachPixel([&](std::int64_t, std::int64_t n, std::int64_t oh,
                         std::int64_t ow) {
        const std::int64_t at = g.Offset(n, oh, ow, fh, fw);
        for (std::int64_t c = 0; c < g.in_c; ++c) {
          *dst++ = at < 0 ? 0.0f : in[at + c];
        }
      });
      Contract({slice, 1, g.in_c}, g.in_c, g.pixels(), b, g.out_c,
               ov + (fh * g.f_w + fw) * g.in_c * g.out_c, g.out_c);
    }
  }
  return out;
}

Tensor MaxPool2D(const Tensor& input, int window, int stride) {
  const ConvGeometry g = MakePoolGeometry(input.shape(), window, stride);
  Tensor out(DType::kFloat32, Shape{g.batch, g.out_h, g.out_w, g.in_c});
  const float* in = input.data<float>().data();
  float* ov = out.mutable_data<float>().data();
  g.ForEachWindow([&](std::int64_t o, const auto& taps) {
    float best = std::numeric_limits<float>::lowest();
    for (const std::int64_t at : taps) best = std::max(best, in[at]);
    ov[o] = best;
  });
  return out;
}

Tensor MaxPool2DGrad(const Tensor& input, const Tensor& grad, int window,
                     int stride) {
  const ConvGeometry g = MakePoolGeometry(input.shape(), window, stride);
  Tensor out = Tensor::Zeros(DType::kFloat32, input.shape());
  const float* in = input.data<float>().data();
  const float* gv = grad.data<float>().data();
  float* ov = out.mutable_data<float>().data();
  g.ForEachWindow([&](std::int64_t o, const auto& taps) {
    float best = std::numeric_limits<float>::lowest();
    std::int64_t best_at = 0;
    for (const std::int64_t at : taps) {
      if (in[at] > best) {
        best = in[at];
        best_at = at;
      }
    }
    ov[best_at] += gv[o];
  });
  return out;
}

Tensor AvgPool2D(const Tensor& input, int window, int stride) {
  const ConvGeometry g = MakePoolGeometry(input.shape(), window, stride);
  Tensor out = Tensor::Zeros(DType::kFloat32,
                             Shape{g.batch, g.out_h, g.out_w, g.in_c});
  const float* in = input.data<float>().data();
  float* ov = out.mutable_data<float>().data();
  const float scale = 1.0f / static_cast<float>(window * window);
  g.ForEachWindow([&](std::int64_t o, const auto& taps) {
    float acc = 0.0f;
    for (const std::int64_t at : taps) acc += in[at];
    ov[o] = acc * scale;
  });
  return out;
}

Tensor AvgPool2DGrad(const Shape& input_shape, const Tensor& grad, int window,
                     int stride) {
  const ConvGeometry g = MakePoolGeometry(input_shape, window, stride);
  Tensor out = Tensor::Zeros(DType::kFloat32, input_shape);
  const float* gv = grad.data<float>().data();
  float* ov = out.mutable_data<float>().data();
  const float scale = 1.0f / static_cast<float>(window * window);
  g.ForEachWindow([&](std::int64_t o, const auto& taps) {
    const float v = gv[o] * scale;
    for (const std::int64_t at : taps) ov[at] += v;
  });
  return out;
}

}  // namespace janus::ops
