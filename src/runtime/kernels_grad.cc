// Gradient-helper kernels whose semantics depend on runtime shapes: since
// the graph IR carries no static shape inference, backward rules pass the
// forward tensors as shape exemplars and these kernels resolve the geometry
// at execution time.
#include "runtime/kernel.h"
#include "runtime/run_context.h"
#include "tensor/ops.h"

namespace janus {
namespace {

std::vector<int> NormalizedAxes(const std::vector<std::int64_t>& raw,
                                int rank) {
  std::vector<int> axes;
  if (raw.empty()) {
    for (int i = 0; i < rank; ++i) axes.push_back(i);
    return axes;
  }
  for (const std::int64_t a : raw) {
    int axis = static_cast<int>(a);
    if (axis < 0) axis += rank;
    axes.push_back(axis);
  }
  return axes;
}

}  // namespace

void RegisterGradKernels(KernelRegistry& r) {
  // Expands a reduced gradient back to the shape of the reduction input.
  //   inputs: grad (shape of ReduceX output), exemplar (the reduction input)
  //   attrs: axes (the reduction axes; empty = all), keep_dims (of the
  //          forward reduction), mean (divide by reduced element count, for
  //          ReduceMean's gradient)
  r.Register("BroadcastLike", [](KernelContext& ctx) {
    const Tensor& grad = ctx.input(0);
    const Tensor& exemplar = ctx.input(1);
    const auto axes =
        NormalizedAxes(ctx.node->GetIntListAttr("axes"), exemplar.rank());
    const bool keep_dims = ctx.node->GetBoolAttr("keep_dims");
    Tensor g = grad;
    if (!keep_dims) {
      // Reinsert the reduced axes as size-1 dims.
      std::vector<std::int64_t> dims = exemplar.shape().dims();
      for (const int axis : axes) dims[static_cast<std::size_t>(axis)] = 1;
      g = g.Reshaped(Shape(std::move(dims)));
    }
    Tensor out = ops::BroadcastTo(g, exemplar.shape());
    if (ctx.node->HasAttr("mean") && ctx.node->GetBoolAttr("mean")) {
      std::int64_t count = 1;
      for (const int axis : axes) count *= exemplar.dim(axis);
      out = ops::Mul(out, Tensor::Scalar(1.0f / static_cast<float>(count)));
    }
    ctx.set_output(0, std::move(out));
  });

  // Scatters a slice gradient back into zeros of the input's shape.
  //   inputs: grad (slice-shaped), exemplar (the sliced input)
  //   attrs: begin
  r.Register("SliceGrad", [](KernelContext& ctx) {
    ctx.set_output(0, ops::SliceGrad(ctx.input(0), ctx.input(1).shape(),
                                     ctx.node->GetIntListAttr("begin")));
  });

  // Splits a Concat gradient into per-input gradients.
  //   inputs: grad, then the original concat inputs (exemplars)
  //   attrs: axis; num_outputs == number of exemplars
  r.Register("ConcatGrad", [](KernelContext& ctx) {
    const Tensor& grad = ctx.input(0);
    int axis = static_cast<int>(ctx.node->GetIntAttr("axis"));
    if (axis < 0) axis += grad.rank();
    std::int64_t offset = 0;
    for (std::size_t i = 1; i < ctx.inputs.size(); ++i) {
      const Tensor& exemplar = ctx.inputs[i];
      std::vector<std::int64_t> begin(
          static_cast<std::size_t>(grad.rank()), 0);
      begin[static_cast<std::size_t>(axis)] = offset;
      std::vector<std::int64_t> size = exemplar.shape().dims();
      ctx.set_output(static_cast<int>(i - 1),
                     ops::Slice(grad, begin, size));
      offset += exemplar.dim(axis);
    }
  });

  // Scatter-add of Gather's gradient into a zero tensor shaped like params.
  //   inputs: params (exemplar), ids, grad
  r.Register("GatherGradLike", [](KernelContext& ctx) {
    ctx.set_output(0, ops::GatherGrad(ctx.input(0).shape(), ctx.input(1),
                                      ctx.input(2)));
  });

  // tensor[i] along axis 0 with a runtime index. inputs: tensor, index
  // (int64 scalar). Output drops the leading axis.
  r.Register("DynamicIndex", [](KernelContext& ctx) {
    const Tensor& t = ctx.input(0);
    std::int64_t i = ctx.input(1).ScalarIntValue();
    if (t.rank() < 1) throw InvalidArgument("DynamicIndex: scalar input");
    if (i < 0) i += t.dim(0);
    if (i < 0 || i >= t.dim(0)) {
      throw InvalidArgument("DynamicIndex: index out of range");
    }
    std::vector<std::int64_t> begin(static_cast<std::size_t>(t.rank()), 0);
    begin[0] = i;
    std::vector<std::int64_t> size = t.shape().dims();
    size[0] = 1;
    std::vector<std::int64_t> out_dims(t.shape().dims().begin() + 1,
                                       t.shape().dims().end());
    ctx.set_output(0, ops::Slice(t, begin, size).Reshaped(Shape(out_dims)));
  });

  // Gradient of DynamicIndex: scatter grad into zeros at the index.
  // inputs: exemplar tensor, index, grad.
  r.Register("DynamicIndexGrad", [](KernelContext& ctx) {
    const Tensor& exemplar = ctx.input(0);
    std::int64_t i = ctx.input(1).ScalarIntValue();
    if (i < 0) i += exemplar.dim(0);
    const Tensor& grad = ctx.input(2);
    Tensor out = Tensor::Zeros(DType::kFloat32, exemplar.shape());
    auto ov = out.mutable_data<float>();
    const auto gv = grad.data<float>();
    const std::int64_t stride = exemplar.num_elements() / exemplar.dim(0);
    for (std::int64_t j = 0; j < stride; ++j) {
      ov[static_cast<std::size_t>(i * stride + j)] =
          gv[static_cast<std::size_t>(j)];
    }
    ctx.set_output(0, std::move(out));
  });

  // Casts input 0 to the dtype of input 1 (gradient of Cast).
  r.Register("CastLike", [](KernelContext& ctx) {
    ctx.set_output(0, ops::Cast(ctx.input(0), ctx.input(1).dtype()));
  });

  // d(SoftmaxCrossEntropy)/d(logits) = (softmax(logits) - onehot(labels))
  // scaled per batch row by the incoming per-example loss gradient.
  //   inputs: logits (batch, classes), labels (batch) int64, grad (batch)
  r.Register("SoftmaxCrossEntropyGrad", [](KernelContext& ctx) {
    const Tensor& logits = ctx.input(0);
    const Tensor& labels = ctx.input(1);
    const Tensor& grad = ctx.input(2);
    const Tensor sm = ops::Softmax(logits);
    const Tensor oh = ops::OneHot(labels, logits.dim(1));
    const Tensor delta = ops::Sub(sm, oh);
    const Tensor grad_col = grad.Reshaped(Shape{grad.dim(0), 1});
    ctx.set_output(0, ops::Mul(delta, grad_col));
  });
}

}  // namespace janus
