// Tests for symbolic reverse-mode autodiff. Most tests verify analytic
// gradients against central finite differences on randomly perturbed inputs;
// structural tests cover conditionals (Switch/Merge), functional While
// loops, and recursive Invoke gradients.
#include "autodiff/gradients.h"

#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "run_graph.h"
#include "runtime/executor.h"
#include "tensor/ops.h"

namespace janus {
namespace {

class AutodiffTest : public ::testing::Test {
 protected:
  // Builds a graph with one float placeholder "x" of the given shape via
  // `body`, appends gradients of the scalar loss w.r.t. x, and compares the
  // symbolic gradient against central finite differences.
  void CheckGradient(
      const Shape& x_shape,
      const std::function<NodeOutput(Graph&, NodeOutput)>& body,
      float tolerance = 2e-2f, std::uint64_t seed = 1234) {
    Graph g;
    const NodeOutput x = g.Placeholder("x", DType::kFloat32);
    const NodeOutput loss = body(g, x);
    const std::vector<NodeOutput> targets{x};
    const std::vector<NodeOutput> grads =
        AddGradients(g, library_, loss, targets);

    Rng rng(seed);
    Tensor x0 = ops::RandomUniform(x_shape, 0.2f, 1.2f, rng);

    const FunctionPlans functions = BuildFunctionPlans(library_);
    Executor executor(&functions, &variables_, nullptr, &rng_);
    const auto eval_loss = [&](const Tensor& xv) {
      const auto out = RunGraph(executor, g, {{"x", xv}},
                                std::vector<NodeOutput>{loss});
      return out[0].ScalarValue();
    };

    const auto out = RunGraph(executor, g, {{"x", x0}},
                              std::vector<NodeOutput>{loss, grads[0]});
    const Tensor analytic = out[1];
    ASSERT_EQ(analytic.shape(), x_shape);

    const float eps = 1e-2f;
    const auto base = x0.data<float>();
    for (std::int64_t i = 0; i < x0.num_elements(); ++i) {
      Tensor plus = Tensor::FromVector(
          std::vector<float>(base.begin(), base.end()), x_shape);
      Tensor minus = Tensor::FromVector(
          std::vector<float>(base.begin(), base.end()), x_shape);
      plus.mutable_data<float>()[static_cast<std::size_t>(i)] += eps;
      minus.mutable_data<float>()[static_cast<std::size_t>(i)] -= eps;
      const float fd = (eval_loss(plus) - eval_loss(minus)) / (2 * eps);
      const float an = analytic.data<float>()[static_cast<std::size_t>(i)];
      EXPECT_NEAR(an, fd, tolerance * std::max(1.0f, std::fabs(fd)))
          << "element " << i;
    }
  }

  FunctionLibrary library_;
  VariableStore variables_;
  Rng rng_{7};
};

NodeOutput MeanAll(Graph& g, NodeOutput v) {
  return {g.AddNode("ReduceMean", {v},
                    {{"axes", std::vector<std::int64_t>{}},
                     {"keep_dims", false}}),
          0};
}

NodeOutput SumAll(Graph& g, NodeOutput v) {
  return {g.AddNode("ReduceSum", {v},
                    {{"axes", std::vector<std::int64_t>{}},
                     {"keep_dims", false}}),
          0};
}

TEST_F(AutodiffTest, SquareLoss) {
  CheckGradient(Shape{4}, [](Graph& g, NodeOutput x) {
    return SumAll(g, {g.AddNode("Square", {x}), 0});
  });
}

TEST_F(AutodiffTest, AddWithBroadcastConstant) {
  CheckGradient(Shape{2, 3}, [](Graph& g, NodeOutput x) {
    const NodeOutput c =
        g.Constant(Tensor::FromVector({1, 2, 3}, Shape{3}));
    const NodeOutput s = {g.AddNode("Add", {x, c}), 0};
    return SumAll(g, {g.AddNode("Square", {s}), 0});
  });
}

TEST_F(AutodiffTest, MulChain) {
  CheckGradient(Shape{3}, [](Graph& g, NodeOutput x) {
    const NodeOutput y = {g.AddNode("Mul", {x, x}), 0};
    const NodeOutput z = {g.AddNode("Mul", {y, x}), 0};  // x^3
    return SumAll(g, z);
  });
}

TEST_F(AutodiffTest, DivGradient) {
  CheckGradient(Shape{3}, [](Graph& g, NodeOutput x) {
    const NodeOutput c = g.Constant(Tensor::FromVector({2, 3, 4}, Shape{3}));
    const NodeOutput q = {g.AddNode("Div", {c, x}), 0};
    return SumAll(g, q);
  });
}

TEST_F(AutodiffTest, PowGradient) {
  CheckGradient(Shape{3}, [](Graph& g, NodeOutput x) {
    const NodeOutput e = g.Constant(Tensor::Scalar(3.0f));
    return SumAll(g, {g.AddNode("Pow", {x, e}), 0});
  });
}

TEST_F(AutodiffTest, ExpLogSqrtChain) {
  CheckGradient(Shape{3}, [](Graph& g, NodeOutput x) {
    const NodeOutput e = {g.AddNode("Exp", {x}), 0};
    const NodeOutput l = {g.AddNode("Log", {e}), 0};
    const NodeOutput s = {g.AddNode("Sqrt", {l}), 0};
    return SumAll(g, s);
  });
}

TEST_F(AutodiffTest, ActivationGradients) {
  for (const char* act : {"Tanh", "Sigmoid", "Relu"}) {
    CheckGradient(Shape{5}, [act](Graph& g, NodeOutput x) {
      return SumAll(g, {g.AddNode(act, {x}), 0});
    });
  }
}

TEST_F(AutodiffTest, MaximumGradientRoutesToLarger) {
  CheckGradient(Shape{4}, [](Graph& g, NodeOutput x) {
    const NodeOutput c = g.Constant(Tensor::Full(Shape{4}, 0.7f));
    return SumAll(g, {g.AddNode("Maximum", {x, c}), 0});
  });
}

TEST_F(AutodiffTest, MatMulGradient) {
  CheckGradient(Shape{2, 3}, [](Graph& g, NodeOutput x) {
    const NodeOutput w = g.Constant(
        Tensor::FromVector({0.5f, -0.2f, 0.1f, 0.4f, -0.3f, 0.2f}, Shape{3, 2}));
    const NodeOutput y = {g.AddNode("MatMul", {x, w}), 0};
    return SumAll(g, {g.AddNode("Square", {y}), 0});
  });
}

// y = op(a) op(b), where op(x) is x or x^T by the node's transpose_a /
// transpose_b attrs: every flag pair, with x as each operand in turn.
TEST_F(AutodiffTest, MatMulFlagGradients) {
  const std::vector<float> w_values{0.5f, -0.2f, 0.1f, 0.4f, -0.3f, 0.2f};
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      const AttrMap flags{{"transpose_a", ta}, {"transpose_b", tb}};
      SCOPED_TRACE(std::string("transpose_a=") + (ta ? "1" : "0") +
                   " transpose_b=" + (tb ? "1" : "0"));
      // op(x) is [2,3] on the left, op(w) is [3,2].
      CheckGradient(ta ? Shape{3, 2} : Shape{2, 3},
                    [&](Graph& g, NodeOutput x) {
                      const NodeOutput w = g.Constant(Tensor::FromVector(
                          w_values, tb ? Shape{2, 3} : Shape{3, 2}));
                      const NodeOutput y = {g.AddNode("MatMul", {x, w}, flags), 0};
                      return SumAll(g, {g.AddNode("Square", {y}), 0});
                    });
      // op(w) is [2,3] on the left, op(x) is [3,2].
      CheckGradient(tb ? Shape{2, 3} : Shape{3, 2},
                    [&](Graph& g, NodeOutput x) {
                      const NodeOutput w = g.Constant(Tensor::FromVector(
                          w_values, ta ? Shape{3, 2} : Shape{2, 3}));
                      const NodeOutput y = {g.AddNode("MatMul", {w, x}, flags), 0};
                      return SumAll(g, {g.AddNode("Square", {y}), 0});
                    });
    }
  }
}

// The gradient of a gradient differentiates the flagged MatMul the first
// pass emitted (dx = dy x w^T). The first pass is seeded at y^2 so its
// graph holds only ops that have gradient rules.
TEST_F(AutodiffTest, MatMulSecondOrderGradient) {
  CheckGradient(Shape{2, 3}, [&](Graph& g, NodeOutput x) {
    const NodeOutput w = g.Constant(
        Tensor::FromVector({0.5f, -0.2f, 0.1f, 0.4f, -0.3f, 0.2f}, Shape{3, 2}));
    const NodeOutput y = {g.AddNode("MatMul", {x, w}), 0};
    const NodeOutput sq = {g.AddNode("Square", {y}), 0};
    const GradientSeed seed{sq, g.Constant(Tensor::Full(Shape{2, 2}, 1.0f))};
    const NodeOutput dx = AddGradients(g, library_, std::span(&seed, 1),
                                       std::vector<NodeOutput>{x})[0];
    return SumAll(g, {g.AddNode("Square", {dx}), 0});
  });
}

// MatMul's gradients are MatMuls with transpose flags: no Transpose node.
TEST_F(AutodiffTest, MatMulGradientEmitsNoTranspose) {
  Graph g;
  const NodeOutput a = g.Placeholder("a", DType::kFloat32);
  const NodeOutput b = g.Placeholder("b", DType::kFloat32);
  const NodeOutput y = {g.AddNode("MatMul", {a, b}), 0};
  AddGradients(g, library_, SumAll(g, y), std::vector<NodeOutput>{a, b});
  int matmuls = 0;
  for (const auto& node : g.nodes()) {
    EXPECT_NE(node->op(), "Transpose");
    if (node->op() == "MatMul") ++matmuls;
  }
  EXPECT_EQ(matmuls, 3);
}

TEST_F(AutodiffTest, TransposeGradient) {
  CheckGradient(Shape{2, 3}, [](Graph& g, NodeOutput x) {
    const NodeOutput t = {g.AddNode("Transpose", {x}), 0};
    const NodeOutput w = g.Constant(
        Tensor::FromVector({1, 2, 3, 4, 5, 6}, Shape{2, 3}));
    const NodeOutput p = {g.AddNode("MatMul", {t, w}), 0};
    return SumAll(g, p);
  });
}

TEST_F(AutodiffTest, ReshapeGradient) {
  CheckGradient(Shape{2, 3}, [](Graph& g, NodeOutput x) {
    const NodeOutput r = {g.AddNode("Reshape", {x},
                                    {{"shape", std::vector<std::int64_t>{6}}}),
                          0};
    return SumAll(g, {g.AddNode("Square", {r}), 0});
  });
}

TEST_F(AutodiffTest, ReduceMeanGradient) {
  CheckGradient(Shape{2, 4}, [](Graph& g, NodeOutput x) {
    const NodeOutput m = {g.AddNode("ReduceMean", {x},
                                    {{"axes", std::vector<std::int64_t>{1}},
                                     {"keep_dims", false}}),
                          0};
    return SumAll(g, {g.AddNode("Square", {m}), 0});
  });
}

TEST_F(AutodiffTest, ReduceMaxGradient) {
  CheckGradient(Shape{6}, [](Graph& g, NodeOutput x) {
    return NodeOutput{g.AddNode("ReduceMax", {x},
                                {{"axes", std::vector<std::int64_t>{}},
                                 {"keep_dims", false}}),
                      0};
  });
}

TEST_F(AutodiffTest, SoftmaxGradient) {
  CheckGradient(Shape{2, 3}, [](Graph& g, NodeOutput x) {
    const NodeOutput sm = {g.AddNode("Softmax", {x}), 0};
    const NodeOutput w = g.Constant(
        Tensor::FromVector({1, -2, 3, 0.5f, 1, -1}, Shape{2, 3}));
    return SumAll(g, {g.AddNode("Mul", {sm, w}), 0});
  });
}

TEST_F(AutodiffTest, LogSoftmaxGradient) {
  CheckGradient(Shape{2, 3}, [](Graph& g, NodeOutput x) {
    const NodeOutput ls = {g.AddNode("LogSoftmax", {x}), 0};
    const NodeOutput w = g.Constant(
        Tensor::FromVector({1, 0, 2, -1, 1, 0.5f}, Shape{2, 3}));
    return SumAll(g, {g.AddNode("Mul", {ls, w}), 0});
  });
}

TEST_F(AutodiffTest, SoftmaxCrossEntropyGradient) {
  CheckGradient(Shape{3, 4}, [](Graph& g, NodeOutput x) {
    const NodeOutput labels =
        g.Constant(Tensor::FromVectorInt({0, 2, 3}, Shape{3}));
    const NodeOutput losses = {
        g.AddNode("SoftmaxCrossEntropy", {x, labels}), 0};
    return MeanAll(g, losses);
  });
}

TEST_F(AutodiffTest, ConcatAndSliceGradients) {
  CheckGradient(Shape{2, 2}, [](Graph& g, NodeOutput x) {
    const NodeOutput c = g.Constant(Tensor::Full(Shape{2, 2}, 0.5f));
    const NodeOutput cat = {
        g.AddNode("Concat", {x, c}, {{"axis", std::int64_t{1}}}), 0};
    const NodeOutput sl = {
        g.AddNode("Slice", {cat},
                  {{"begin", std::vector<std::int64_t>{0, 1}},
                   {"size", std::vector<std::int64_t>{2, 2}}}),
        0};
    return SumAll(g, {g.AddNode("Square", {sl}), 0});
  });
}

TEST_F(AutodiffTest, StackUnstackGradient) {
  CheckGradient(Shape{3}, [](Graph& g, NodeOutput x) {
    const NodeOutput c = g.Constant(Tensor::Full(Shape{3}, 2.0f));
    const NodeOutput st = {g.AddNode("Stack", {x, c, x}), 0};
    return SumAll(g, {g.AddNode("Square", {st}), 0});
  });
}

TEST_F(AutodiffTest, GatherGradient) {
  CheckGradient(Shape{4, 2}, [](Graph& g, NodeOutput x) {
    const NodeOutput ids =
        g.Constant(Tensor::FromVectorInt({1, 1, 3}, Shape{3}));
    const NodeOutput rows = {g.AddNode("Gather", {x, ids}), 0};
    return SumAll(g, {g.AddNode("Square", {rows}), 0});
  });
}

TEST_F(AutodiffTest, SelectGradient) {
  CheckGradient(Shape{4}, [](Graph& g, NodeOutput x) {
    const NodeOutput mask = g.Constant([] {
      Tensor t(DType::kBool, Shape{4});
      auto d = t.mutable_data<std::uint8_t>();
      d[0] = 1; d[1] = 0; d[2] = 1; d[3] = 0;
      return t;
    }());
    const NodeOutput other = g.Constant(Tensor::Full(Shape{4}, 3.0f));
    const NodeOutput sel = {g.AddNode("Select", {mask, x, other}), 0};
    return SumAll(g, {g.AddNode("Square", {sel}), 0});
  });
}

TEST_F(AutodiffTest, Conv2DGradient) {
  CheckGradient(
      Shape{1, 4, 4, 1},
      [](Graph& g, NodeOutput x) {
        const NodeOutput f = g.Constant(Tensor::FromVector(
            {0.5f, -0.25f, 0.125f, 0.75f}, Shape{2, 2, 1, 1}));
        const NodeOutput conv = {
            g.AddNode("Conv2D", {x, f},
                      {{"stride", std::int64_t{1}},
                       {"padding", std::string("VALID")}}),
            0};
        return SumAll(g, {g.AddNode("Square", {conv}), 0});
      },
      3e-2f);
}

TEST_F(AutodiffTest, MaxPoolGradient) {
  // Max pooling is non-smooth at ties; evaluate the analytic gradient on a
  // fixed input with well-separated window values instead of via finite
  // differences on random data.
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput p = {g.AddNode("MaxPool2D", {x},
                                  {{"window", std::int64_t{2}},
                                   {"stride", std::int64_t{2}}}),
                        0};
  const NodeOutput loss = SumAll(g, {g.AddNode("Square", {p}), 0});
  const std::vector<NodeOutput> targets{x};
  const auto grads = AddGradients(g, library_, loss, targets);
  const Tensor input = Tensor::FromVector(
      {1, 2, 3, 4, 8, 7, 6, 5, 9, 10, 11, 12, 16, 15, 14, 13},
      Shape{1, 4, 4, 1});
  const FunctionPlans functions = BuildFunctionPlans(library_);
  Executor executor(&functions, &variables_, nullptr, &rng_);
  const auto out = RunGraph(executor, g, {{"x", input}},
                            std::vector<NodeOutput>{grads[0]});
  // Window maxima: 8, 6, 16, 14. d(sum(p^2))/dmax = 2*max, zero elsewhere.
  const std::vector<float> expected = {0, 0, 0, 0, 16, 0, 12, 0,
                                       0, 0, 0, 0, 32, 0, 28, 0};
  const auto gv = out[0].data<float>();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_FLOAT_EQ(gv[i], expected[i]) << "element " << i;
  }
}

TEST_F(AutodiffTest, AvgPoolGradient) {
  CheckGradient(Shape{1, 4, 4, 1}, [](Graph& g, NodeOutput x) {
    const NodeOutput p = {g.AddNode("AvgPool2D", {x},
                                    {{"window", std::int64_t{2}},
                                     {"stride", std::int64_t{2}}}),
                          0};
    return SumAll(g, {g.AddNode("Square", {p}), 0});
  });
}

TEST_F(AutodiffTest, UnreachedTargetGetsZeros) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput y = g.Placeholder("y", DType::kFloat32);
  const NodeOutput loss = SumAll(g, {g.AddNode("Square", {x}), 0});
  const std::vector<NodeOutput> targets{x, y};
  const auto grads = AddGradients(g, library_, loss, targets);
  const FunctionPlans functions = BuildFunctionPlans(library_);
  Executor executor(&functions, &variables_, nullptr, &rng_);
  const auto out = RunGraph(
      executor, g,
      {{"x", Tensor::FromVector({1, 2}, Shape{2})},
       {"y", Tensor::FromVector({5, 5, 5}, Shape{3})}},
      std::vector<NodeOutput>{grads[0], grads[1]});
  EXPECT_FLOAT_EQ(out[0].data<float>()[0], 2.0f);
  EXPECT_FLOAT_EQ(out[1].data<float>()[1], 0.0f);
  EXPECT_EQ(out[1].shape(), (Shape{3}));
}

TEST_F(AutodiffTest, FanOutAccumulatesGradients) {
  // loss = x*x + 3x  =>  d/dx = 2x + 3.
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput sq = {g.AddNode("Mul", {x, x}), 0};
  const NodeOutput three = g.Constant(Tensor::Scalar(3));
  const NodeOutput lin = {g.AddNode("Mul", {x, three}), 0};
  const NodeOutput loss = {g.AddNode("Add", {sq, lin}), 0};
  const std::vector<NodeOutput> targets{x};
  const auto grads = AddGradients(g, library_, loss, targets);
  const FunctionPlans functions = BuildFunctionPlans(library_);
  Executor executor(&functions, &variables_, nullptr, &rng_);
  const auto out = RunGraph(executor, g, {{"x", Tensor::Scalar(5)}},
                            std::vector<NodeOutput>{grads[0]});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 13.0f);
}

TEST_F(AutodiffTest, ConditionalGradientFollowsTakenBranch) {
  // loss = pred ? x^2 : 3x. Gradient must be 2x on the true branch and 3 on
  // the false branch — Switch/Merge gradient routing with deadness.
  Graph g;
  const NodeOutput pred = g.Placeholder("pred", DType::kBool);
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* sw = g.AddNode("Switch", {x, pred}, {}, 2);
  const NodeOutput sq = {g.AddNode("Mul", {{sw, 1}, {sw, 1}}), 0};
  const NodeOutput three = g.Constant(Tensor::Scalar(3));
  const NodeOutput lin = {g.AddNode("Mul", {{sw, 0}, three}), 0};
  Node* merge = g.AddNode("Merge", {sq, lin}, {}, 2);
  const std::vector<NodeOutput> targets{x};
  const auto grads =
      AddGradients(g, library_, NodeOutput{merge, 0}, targets);

  const FunctionPlans functions = BuildFunctionPlans(library_);
  Executor executor(&functions, &variables_, nullptr, &rng_);
  const auto t = RunGraph(executor, g,
                          {{"pred", Tensor::ScalarBool(true)},
                           {"x", Tensor::Scalar(4)}},
                          std::vector<NodeOutput>{grads[0]});
  EXPECT_FLOAT_EQ(t[0].ScalarValue(), 8.0f);
  const auto f = RunGraph(executor, g,
                          {{"pred", Tensor::ScalarBool(false)},
                           {"x", Tensor::Scalar(4)}},
                          std::vector<NodeOutput>{grads[0]});
  EXPECT_FLOAT_EQ(f[0].ScalarValue(), 3.0f);
}

TEST_F(AutodiffTest, FunctionalWhileGradient) {
  // y = x * 2^n via a While loop; dy/dx = 2^n.
  auto cond = std::make_unique<GraphFunction>();
  cond->name = "ad_cond";
  {
    Graph& cg = cond->graph;
    Node* i = cg.AddNode("Param", {}, {{"index", std::int64_t{0}}});
    Node* v = cg.AddNode("Param", {}, {{"index", std::int64_t{1}}});
    Node* n = cg.AddNode("Param", {}, {{"index", std::int64_t{2}}});
    (void)v;
    Node* lt = cg.AddNode("Less", {{i, 0}, {n, 0}});
    cond->parameters = {i, v, n};
    cond->results = {{lt, 0}};
  }
  library_.Register(std::move(cond));

  auto body = std::make_unique<GraphFunction>();
  body->name = "ad_body";
  {
    Graph& bg = body->graph;
    Node* i = bg.AddNode("Param", {}, {{"index", std::int64_t{0}}});
    Node* v = bg.AddNode("Param", {}, {{"index", std::int64_t{1}}});
    Node* n = bg.AddNode("Param", {}, {{"index", std::int64_t{2}}});
    (void)n;
    Node* one = bg.AddNode("Const", {}, {{"value", Tensor::ScalarInt(1)}});
    Node* ip1 = bg.AddNode("Add", {{i, 0}, {one, 0}});
    Node* two = bg.AddNode("Const", {}, {{"value", Tensor::Scalar(2)}});
    Node* v2 = bg.AddNode("Mul", {{v, 0}, {two, 0}});
    body->parameters = {i, v, n};
    body->results = {{ip1, 0}, {v2, 0}};
  }
  library_.Register(std::move(body));

  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput i0 = g.Constant(Tensor::ScalarInt(0));
  const NodeOutput n = g.Constant(Tensor::ScalarInt(5));
  Node* loop = g.AddNode("While", {i0, x, n},
                         {{"cond_fn", std::string("ad_cond")},
                          {"body_fn", std::string("ad_body")},
                          {"num_carried", std::int64_t{2}}},
                         2);
  const std::vector<NodeOutput> targets{x};
  const auto grads =
      AddGradients(g, library_, NodeOutput{loop, 1}, targets);
  const FunctionPlans functions = BuildFunctionPlans(library_);
  Executor executor(&functions, &variables_, nullptr, &rng_);
  const auto out = RunGraph(executor, g, {{"x", Tensor::Scalar(1.5f)}},
                            std::vector<NodeOutput>{{loop, 1}, grads[0]});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 1.5f * 32);
  EXPECT_FLOAT_EQ(out[1].ScalarValue(), 32.0f);
}

TEST_F(AutodiffTest, RecursiveInvokeGradient) {
  // f(x, k) = k == 0 ? 1 : x * f(x, k-1)  =>  f = x^k, df/dx = k x^(k-1).
  auto fn = std::make_unique<GraphFunction>();
  fn->name = "ad_powrec";
  {
    Graph& fg = fn->graph;
    Node* x = fg.AddNode("Param", {}, {{"index", std::int64_t{0}}});
    Node* k = fg.AddNode("Param", {}, {{"index", std::int64_t{1}}});
    Node* zero = fg.AddNode("Const", {}, {{"value", Tensor::ScalarInt(0)}});
    Node* is_base = fg.AddNode("LessEqual", {{k, 0}, {zero, 0}});
    Node* sw_x = fg.AddNode("Switch", {{x, 0}, {is_base, 0}}, {}, 2);
    Node* sw_k = fg.AddNode("Switch", {{k, 0}, {is_base, 0}}, {}, 2);
    // Base: 1 (float, shaped like x's true-side value).
    Node* base = fg.AddNode("OnesLike", {{sw_x, 1}});
    // Recursive: x * f(x, k-1).
    Node* one = fg.AddNode("Const", {}, {{"value", Tensor::ScalarInt(1)}});
    Node* km1 = fg.AddNode("Sub", {{sw_k, 0}, {one, 0}});
    Node* rec = fg.AddNode("Invoke", {{sw_x, 0}, {km1, 0}},
                           {{"function", std::string("ad_powrec")}});
    Node* prod = fg.AddNode("Mul", {{sw_x, 0}, {rec, 0}});
    Node* merge = fg.AddNode("Merge", {{base, 0}, {prod, 0}}, {}, 2);
    fn->parameters = {x, k};
    fn->results = {{merge, 0}};
  }
  library_.Register(std::move(fn));

  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput k = g.Constant(Tensor::ScalarInt(3));
  Node* call = g.AddNode("Invoke", {x, k},
                         {{"function", std::string("ad_powrec")}});
  const std::vector<NodeOutput> targets{x};
  const auto grads =
      AddGradients(g, library_, NodeOutput{call, 0}, targets);
  const FunctionPlans functions = BuildFunctionPlans(library_);
  Executor executor(&functions, &variables_, nullptr, &rng_);
  const auto out = RunGraph(executor, g, {{"x", Tensor::Scalar(2.0f)}},
                            std::vector<NodeOutput>{{call, 0}, grads[0]});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 8.0f);
  EXPECT_FLOAT_EQ(out[1].ScalarValue(), 12.0f);  // 3 * 2^2
}

TEST_F(AutodiffTest, FramePrimitivesRejected) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* enter = g.AddNode("Enter", {x}, {{"frame", std::string("f")}});
  Node* exit = g.AddNode("Exit", {{enter, 0}});
  const std::vector<NodeOutput> targets{x};
  EXPECT_THROW(
      AddGradients(g, library_, NodeOutput{exit, 0}, targets),
      NotConvertible);
}

TEST_F(AutodiffTest, GradientFunctionIsCachedInLibrary) {
  auto fn = std::make_unique<GraphFunction>();
  fn->name = "ad_sq";
  {
    Graph& fg = fn->graph;
    Node* x = fg.AddNode("Param", {}, {{"index", std::int64_t{0}}});
    Node* sq = fg.AddNode("Square", {{x, 0}});
    fn->parameters = {x};
    fn->results = {{sq, 0}};
  }
  const GraphFunction& registered = library_.Register(std::move(fn));
  const GraphFunction& g1 = EnsureGradientFunction(library_, registered);
  const GraphFunction& g2 = EnsureGradientFunction(library_, registered);
  EXPECT_EQ(&g1, &g2);
  EXPECT_EQ(g1.name, "ad_sq__grad");
  EXPECT_EQ(g1.parameters.size(), 2u);  // x and dy
  EXPECT_EQ(g1.results.size(), 1u);     // dx
}

}  // namespace
}  // namespace janus
