// Kernels for elementwise math, comparisons, linear algebra, and reductions.
#include "runtime/kernel.h"
#include "runtime/run_context.h"
#include "tensor/elementwise.h"
#include "tensor/ops.h"

namespace janus {
namespace {

void RegisterUnary(KernelRegistry& r, const std::string& name,
                   Tensor (*fn)(const Tensor&)) {
  r.Register(name, [fn](KernelContext& ctx) {
    ctx.set_output(0, fn(ctx.input(0)));
  });
}

std::vector<int> IntListToAxes(const std::vector<std::int64_t>& list) {
  std::vector<int> axes;
  axes.reserve(list.size());
  for (const std::int64_t v : list) axes.push_back(static_cast<int>(v));
  return axes;
}

void RegisterReduction(KernelRegistry& r, const std::string& name,
                       Tensor (*fn)(const Tensor&, std::vector<int>, bool)) {
  r.Register(name, [fn](KernelContext& ctx) {
    const auto axes = IntListToAxes(ctx.node->GetIntListAttr("axes"));
    const bool keep_dims = ctx.node->GetBoolAttr("keep_dims");
    ctx.set_output(0, fn(ctx.input(0), axes, keep_dims));
  });
}

}  // namespace

void RegisterMathKernels(KernelRegistry& r) {
  for (const ops::ElementwiseOp& op : ops::ElementwiseOps()) {
    if (op.arity == 1) {
      r.Register(std::string(op.name), [&op](KernelContext& ctx) {
        ctx.set_output(0, ops::Apply(op, ctx.input(0)));
      });
    } else {
      r.Register(std::string(op.name), [&op](KernelContext& ctx) {
        ctx.set_output(0, ops::Apply(op, ctx.input(0), ctx.input(1)));
      });
    }
  }
  r.Register("MatMul", [](KernelContext& ctx) {
    const auto flag = [&](const char* key) {
      return ctx.node->HasAttr(key) && ctx.node->GetBoolAttr(key);
    };
    ctx.set_output(0, ops::MatMul(ctx.input(0), ctx.input(1),
                                  flag("transpose_a"), flag("transpose_b")));
  });
  RegisterUnary(r, "Transpose", ops::Transpose);
  RegisterUnary(r, "Softmax", ops::Softmax);
  RegisterUnary(r, "LogSoftmax", ops::LogSoftmax);

  RegisterReduction(r, "ReduceSum", ops::ReduceSum);
  RegisterReduction(r, "ReduceMean", ops::ReduceMean);
  RegisterReduction(r, "ReduceMax", ops::ReduceMax);

  r.Register("ArgMax", [](KernelContext& ctx) {
    ctx.set_output(
        0, ops::ArgMax(ctx.input(0),
                       static_cast<int>(ctx.node->GetIntAttr("axis"))));
  });

  r.Register("Select", [](KernelContext& ctx) {
    ctx.set_output(0, ops::Select(ctx.input(0), ctx.input(1), ctx.input(2)));
  });

  // Variadic sum, used by autodiff to accumulate gradients.
  r.Register("AddN", [](KernelContext& ctx) {
    JANUS_EXPECTS(!ctx.inputs.empty());
    Tensor acc = ctx.input(0);
    for (std::size_t i = 1; i < ctx.inputs.size(); ++i) {
      acc = ops::Add(acc, ctx.inputs[i]);
    }
    ctx.set_output(0, std::move(acc));
  });

  // Gradient helper: reduces a gradient back to a broadcast operand's shape.
  // The target shape is carried by the second input (shape exemplar).
  r.Register("ReduceToShapeOf", [](KernelContext& ctx) {
    ctx.set_output(0, ops::ReduceToShape(ctx.input(0), ctx.input(1).shape()));
  });

  r.Register("ZerosLike", [](KernelContext& ctx) {
    ctx.set_output(0, Tensor::Zeros(ctx.input(0).dtype(), ctx.input(0).shape()));
  });
  r.Register("OnesLike", [](KernelContext& ctx) {
    const Tensor& in = ctx.input(0);
    if (in.dtype() == DType::kFloat32) {
      ctx.set_output(0, Tensor::Full(in.shape(), 1.0f));
    } else {
      ctx.set_output(0, Tensor::FullInt(in.shape(), 1));
    }
  });
}

}  // namespace janus
