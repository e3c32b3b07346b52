// Function-valued kernels: Invoke (recursive function calls, Jeong et al.
// EuroSys'18), functional While with tape recording, and WhileGrad (the
// stack-based loop gradient, mirroring how TF differentiates dynamic loops).
#include "runtime/executor.h"
#include "runtime/kernel.h"
#include "runtime/run_context.h"
#include "tensor/ops.h"

namespace janus {
namespace {

// The plan of the function a node's `attr` names, from the run's table.
const ExecutionPlan& LookupPlan(const RunContext& run, const Node& node,
                                std::string_view attr) {
  const std::string& name = node.GetStringAttr(attr);
  if (run.functions != nullptr) {
    if (const auto it = run.functions->find(name);
        it != run.functions->end()) {
      return *it->second;
    }
  }
  throw InternalError("no plan for function '" + name + "'");
}

}  // namespace

void RegisterFunctionalKernels(KernelRegistry& r) {
  // Invoke: calls a library function with this node's inputs; the node has
  // one output per function result. Supports recursion: each activation is
  // an independent nested execution.
  r.Register("Invoke", [](KernelContext& ctx) {
    std::vector<Tensor> results = Executor::RunFunction(
        *ctx.run, LookupPlan(*ctx.run, *ctx.node, "function"), ctx.inputs);
    if (static_cast<int>(results.size()) != ctx.node->num_outputs()) {
      throw InternalError("Invoke: result count mismatch");
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      ctx.set_output(static_cast<int>(i), std::move(results[i]));
    }
  });

  // Functional while loop.
  //   attrs: cond_fn, body_fn, num_carried (N), record_tape (bool)
  //   inputs: N carried initial values, then K loop-invariant captures
  //   cond_fn/body_fn signatures: (carried..., captures...) -> bool /
  //                                                          -> carried...
  //   outputs: N final carried values.
  // With record_tape, the carried values at the start of every iteration are
  // stored in the RunContext keyed by this node's id, for WhileGrad.
  r.Register("While", [](KernelContext& ctx) {
    const ExecutionPlan& cond = LookupPlan(*ctx.run, *ctx.node, "cond_fn");
    const ExecutionPlan& body = LookupPlan(*ctx.run, *ctx.node, "body_fn");
    const auto num_carried =
        static_cast<std::size_t>(ctx.node->GetIntAttr("num_carried"));
    const bool record = ctx.node->HasAttr("record_tape") &&
                        ctx.node->GetBoolAttr("record_tape");
    JANUS_EXPECTS(ctx.inputs.size() >= num_carried);
    std::vector<Tensor> carried(ctx.inputs.begin(),
                                ctx.inputs.begin() +
                                    static_cast<std::ptrdiff_t>(num_carried));
    const std::vector<Tensor> captures(
        ctx.inputs.begin() + static_cast<std::ptrdiff_t>(num_carried),
        ctx.inputs.end());

    std::vector<std::vector<Tensor>> tape;
    const auto with_captures = [&](const std::vector<Tensor>& c) {
      std::vector<Tensor> args = c;
      args.insert(args.end(), captures.begin(), captures.end());
      return args;
    };
    for (;;) {
      const std::vector<Tensor> cond_out =
          Executor::RunFunction(*ctx.run, cond, with_captures(carried));
      JANUS_EXPECTS(cond_out.size() == 1);
      if (!cond_out[0].ScalarBoolValue()) break;
      if (record) tape.push_back(carried);
      std::vector<Tensor> next =
          Executor::RunFunction(*ctx.run, body, with_captures(carried));
      if (next.size() != num_carried) {
        throw InternalError("While body: carried count mismatch");
      }
      carried = std::move(next);
    }
    if (record) ctx.run->StoreTape(ctx.node->id(), std::move(tape));
    for (std::size_t i = 0; i < num_carried; ++i) {
      ctx.set_output(static_cast<int>(i), carried[i]);
    }
  });

  // Gradient of a functional While.
  //   attrs: body_grad_fn, forward_id (node id of the forward While),
  //          num_carried (N), num_captures (K)
  //   inputs: N gradients of the While outputs, then the K captures
  //   body_grad_fn signature:
  //     (carried..., captures..., grad_carried_out...) ->
  //     (grad_carried_in..., grad_captures...)
  //   outputs: N gradients w.r.t. the initial carried values, then K
  //   accumulated gradients w.r.t. the captures.
  r.Register("WhileGrad", [](KernelContext& ctx) {
    const ExecutionPlan& body_grad =
        LookupPlan(*ctx.run, *ctx.node, "body_grad_fn");
    const auto num_carried =
        static_cast<std::size_t>(ctx.node->GetIntAttr("num_carried"));
    const auto num_captures =
        static_cast<std::size_t>(ctx.node->GetIntAttr("num_captures"));
    const auto forward_id =
        static_cast<int>(ctx.node->GetIntAttr("forward_id"));
    JANUS_EXPECTS(ctx.inputs.size() == num_carried + num_captures);

    std::vector<Tensor> grad_carried(
        ctx.inputs.begin(),
        ctx.inputs.begin() + static_cast<std::ptrdiff_t>(num_carried));
    const std::vector<Tensor> captures(
        ctx.inputs.begin() + static_cast<std::ptrdiff_t>(num_carried),
        ctx.inputs.end());

    std::vector<Tensor> grad_captures;
    grad_captures.reserve(num_captures);
    for (const Tensor& capture : captures) {
      grad_captures.push_back(
          Tensor::Zeros(capture.dtype() == DType::kFloat32
                            ? DType::kFloat32
                            : capture.dtype(),
                        capture.shape()));
    }

    const auto tape = ctx.run->TakeTape(forward_id);
    for (auto it = tape.rbegin(); it != tape.rend(); ++it) {
      std::vector<Tensor> args = *it;  // carried at iteration start
      args.insert(args.end(), captures.begin(), captures.end());
      args.insert(args.end(), grad_carried.begin(), grad_carried.end());
      std::vector<Tensor> grads =
          Executor::RunFunction(*ctx.run, body_grad, args);
      if (grads.size() != num_carried + num_captures) {
        throw InternalError("WhileGrad: body_grad result count mismatch");
      }
      for (std::size_t i = 0; i < num_carried; ++i) {
        grad_carried[i] = grads[i];
      }
      for (std::size_t i = 0; i < num_captures; ++i) {
        if (grad_captures[i].dtype() == DType::kFloat32) {
          grad_captures[i] =
              ops::Add(grad_captures[i], grads[num_carried + i]);
        }
      }
    }
    for (std::size_t i = 0; i < num_carried; ++i) {
      ctx.set_output(static_cast<int>(i), grad_carried[i]);
    }
    for (std::size_t i = 0; i < num_captures; ++i) {
      ctx.set_output(static_cast<int>(num_carried + i), grad_captures[i]);
    }
  });
}

}  // namespace janus
