// Tests for the graph optimisation passes: constant folding, CSE,
// arithmetic simplification, DCE, and the fixpoint driver — including the
// invariant that optimisation never changes computed results.
#include "opt/passes.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "run_graph.h"
#include "runtime/executor.h"
#include "tensor/ops.h"

namespace janus {
namespace {

class OptTest : public ::testing::Test {
 protected:
  std::vector<Tensor> Run(const Graph& g, std::vector<NodeOutput> fetches,
                          const std::map<std::string, Tensor>& feeds = {}) {
    Executor executor(nullptr, &variables_, nullptr, &rng_);
    return RunGraph(executor, g, feeds, fetches);
  }
  VariableStore variables_;
  Rng rng_{3};
};

TEST_F(OptTest, ConstantFoldingCollapsesConstantExpressions) {
  Graph g;
  const NodeOutput a = g.Constant(Tensor::Scalar(2));
  const NodeOutput b = g.Constant(Tensor::Scalar(3));
  Node* add = g.AddNode("Add", {a, b});
  Node* mul = g.AddNode("Mul", {{add, 0}, b});
  const int folded = ConstantFolding(g);
  EXPECT_EQ(folded, 2);  // both Add and Mul fold (Mul sees folded Add)
  const auto out = Run(g, {{mul, 0}});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 15.0f);
}

TEST_F(OptTest, ConstantFoldingSkipsNonConstInputs) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput c = g.Constant(Tensor::Scalar(3));
  g.AddNode("Add", {x, c});
  EXPECT_EQ(ConstantFolding(g), 0);
}

TEST_F(OptTest, ConstantFoldingSkipsImpureOps) {
  Graph g;
  Node* rand = g.AddNode("RandomNormal", {},
                         {{"shape", std::vector<std::int64_t>{2}},
                          {"mean", 0.0},
                          {"stddev", 1.0}});
  (void)rand;
  EXPECT_EQ(ConstantFolding(g), 0);
}

TEST_F(OptTest, CseMergesIdenticalSubexpressions) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* s1 = g.AddNode("Square", {x});
  Node* s2 = g.AddNode("Square", {x});
  Node* sum = g.AddNode("Add", {{s1, 0}, {s2, 0}});
  EXPECT_EQ(CommonSubexpressionElimination(g), 1);
  // Both inputs of the Add now point at the same node.
  EXPECT_EQ(sum->input(0).node, sum->input(1).node);
  const auto out = Run(g, {{sum, 0}}, {{"x", Tensor::Scalar(3)}});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 18.0f);
}

TEST_F(OptTest, CseDistinguishesDifferentAttrs) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  g.AddNode("ReduceSum", {x},
            {{"axes", std::vector<std::int64_t>{0}}, {"keep_dims", false}});
  g.AddNode("ReduceSum", {x},
            {{"axes", std::vector<std::int64_t>{1}}, {"keep_dims", false}});
  EXPECT_EQ(CommonSubexpressionElimination(g), 0);
}

TEST_F(OptTest, CseDistinguishesControlDependencies) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* anchor = g.AddNode("NoOp", {});
  Node* s1 = g.AddNode("Square", {x});
  Node* s2 = g.AddNode("Square", {x});
  s2->AddControlInput(anchor);
  EXPECT_EQ(CommonSubexpressionElimination(g), 0);
  (void)s1;
}

TEST_F(OptTest, CseDeduplicatesEqualConstants) {
  Graph g;
  g.Constant(Tensor::Scalar(1));
  g.Constant(Tensor::Scalar(1));
  g.Constant(Tensor::Scalar(2));
  EXPECT_EQ(CommonSubexpressionElimination(g), 1);
}

TEST_F(OptTest, ArithmeticIdentities) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput zero = g.Constant(Tensor::Scalar(0));
  const NodeOutput one = g.Constant(Tensor::Scalar(1));
  Node* a = g.AddNode("Add", {x, zero});
  Node* m = g.AddNode("Mul", {{a, 0}, one});
  Node* s = g.AddNode("Sub", {{m, 0}, zero});
  Node* d = g.AddNode("Div", {{s, 0}, one});
  Node* out = g.AddNode("Neg", {{d, 0}});
  const int rewrites = ArithmeticSimplification(g);
  EXPECT_EQ(rewrites, 4);
  // After rewiring, Neg's input is x itself.
  EXPECT_EQ(out->input(0).node, x.node);
  const auto r = Run(g, {{out, 0}}, {{"x", Tensor::Scalar(5)}});
  EXPECT_FLOAT_EQ(r[0].ScalarValue(), -5.0f);
}

TEST_F(OptTest, MulByZeroBecomesZerosLike) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput zero = g.Constant(Tensor::Scalar(0));
  Node* m = g.AddNode("Mul", {x, zero});
  Node* consumer = g.AddNode("Identity", {{m, 0}});
  ArithmeticSimplification(g);
  EXPECT_EQ(consumer->input(0).node->op(), "ZerosLike");
  const auto out = Run(g, {{consumer->input(0).node, 0}},
                       {{"x", Tensor::FromVector({1, 2}, Shape{2})}});
  EXPECT_EQ(out[0].shape(), (Shape{2}));
  EXPECT_FLOAT_EQ(out[0].data<float>()[0], 0.0f);
}

TEST_F(OptTest, DoubleNegationEliminated) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* n1 = g.AddNode("Neg", {x});
  Node* n2 = g.AddNode("Neg", {{n1, 0}});
  Node* consumer = g.AddNode("Square", {{n2, 0}});
  ArithmeticSimplification(g);
  EXPECT_EQ(consumer->input(0).node, x.node);
}

TEST_F(OptTest, DceRemovesUnreachable) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* used = g.AddNode("Square", {x});
  g.AddNode("Neg", {x});  // dead
  g.AddNode("Exp", {x});  // dead
  const std::vector<NodeOutput> fetches{{used, 0}};
  EXPECT_EQ(DeadCodeElimination(g, fetches), 2);
  EXPECT_EQ(g.num_nodes(), 2u);
}

TEST_F(OptTest, DceKeepsControlAnchoredSideEffects) {
  variables_.Assign("w", Tensor::Scalar(0));
  Graph g;
  const NodeOutput v = g.Constant(Tensor::Scalar(9));
  Node* assign = g.AddNode("AssignVariable", {v}, {{"var", std::string("w")}});
  Node* anchor = g.AddNode("NoOp", {});
  anchor->AddControlInput(assign);
  const std::vector<NodeOutput> fetches{{anchor, 0}};
  EXPECT_EQ(DeadCodeElimination(g, fetches), 0);
  Run(g, fetches);
  EXPECT_FLOAT_EQ(variables_.Read("w").ScalarValue(), 9.0f);
}

TEST_F(OptTest, OptimizeGraphFixpointPreservesSemantics) {
  // Build a messy graph mixing foldable constants, duplicates, and
  // identities; optimisation must preserve the computed value.
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput two_a = g.Constant(Tensor::Scalar(2));
  const NodeOutput two_b = g.Constant(Tensor::Scalar(2));
  const NodeOutput zero = g.Constant(Tensor::Scalar(0));
  Node* four = g.AddNode("Mul", {two_a, two_b});      // foldable
  Node* x1 = g.AddNode("Add", {x, zero});             // simplifiable
  Node* p1 = g.AddNode("Mul", {{x1, 0}, {four, 0}});
  Node* p2 = g.AddNode("Mul", {{x1, 0}, {four, 0}});  // duplicate
  Node* sum = g.AddNode("Add", {{p1, 0}, {p2, 0}});
  g.AddNode("Exp", {x});  // dead

  std::vector<NodeOutput> fetches{{sum, 0}};
  const auto before = Run(g, fetches, {{"x", Tensor::Scalar(3)}});
  const std::size_t nodes_before = g.num_nodes();
  const OptimizationStats stats = OptimizeGraph(g, fetches);
  EXPECT_GT(stats.folded, 0);
  EXPECT_GT(stats.cse_merged, 0);
  EXPECT_GT(stats.simplified, 0);
  EXPECT_GT(stats.dce_removed, 0);
  EXPECT_LT(g.num_nodes(), nodes_before);
  const auto after = Run(g, fetches, {{"x", Tensor::Scalar(3)}});
  EXPECT_FLOAT_EQ(before[0].ScalarValue(), after[0].ScalarValue());
  EXPECT_FLOAT_EQ(after[0].ScalarValue(), 24.0f);
}

TEST_F(OptTest, OptimizeGraphIsIdempotent) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* s = g.AddNode("Square", {x});
  std::vector<NodeOutput> fetches{{s, 0}};
  OptimizeGraph(g, fetches);
  const std::size_t n = g.num_nodes();
  const OptimizationStats again = OptimizeGraph(g, fetches);
  EXPECT_EQ(g.num_nodes(), n);
  EXPECT_EQ(again.folded + again.cse_merged + again.simplified +
                again.dce_removed,
            0);
}

TEST_F(OptTest, PurityClassification) {
  EXPECT_TRUE(IsPureOp("Add"));
  EXPECT_TRUE(IsPureOp("MatMul"));
  EXPECT_TRUE(IsPureOp("Conv2D"));
  EXPECT_FALSE(IsPureOp("RandomNormal"));
  EXPECT_FALSE(IsPureOp("ReadVariable"));
  EXPECT_FALSE(IsPureOp("Assert"));
  EXPECT_FALSE(IsPureOp("PySetAttr"));
  EXPECT_FALSE(IsPureOp("Switch"));
  EXPECT_FALSE(IsPureOp("Invoke"));
}

}  // namespace
}  // namespace janus
