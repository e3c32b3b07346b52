// Tests for the graph optimisation passes: constant folding, CSE,
// arithmetic simplification, DCE, and the fixpoint driver — including the
// invariant that optimisation never changes computed results.
#include "opt/passes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>

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

Tensor FloatWithBits(std::uint32_t bits) {
  return Tensor::Scalar(std::bit_cast<float>(bits));
}

constexpr std::int64_t kTwoTo53 = std::int64_t{1} << 53;

// CSE merges two constants only when their dtype, shape and bytes are
// equal. The first three pairs print alike to 6 significant digits, which
// the string signature CSE once keyed on; 2^53 and 2^53 + 1 are one double.
TEST_F(OptTest, CseKeepsDistinctConstantsApart) {
  const std::pair<Tensor, Tensor> pairs[] = {
      {Tensor::Scalar(1000001.0f), Tensor::Scalar(1000002.0f)},
      {Tensor::FromVector({0.1234567f, 1.0f}, Shape{2}),
       Tensor::FromVector({0.1234568f, 1.0f}, Shape{2})},
      {Tensor::ScalarInt(1234567), Tensor::ScalarInt(1234568)},
      {Tensor::ScalarInt(kTwoTo53), Tensor::ScalarInt(kTwoTo53 + 1)},
      {Tensor::Scalar(0.0f), Tensor::Scalar(-0.0f)},
      {FloatWithBits(0x7fc00001u), FloatWithBits(0x7fc00002u)},
      {Tensor::FromVector({1, 2}, Shape{2}),
       Tensor::FromVector({1, 2}, Shape{1, 2})},
      {Tensor::Scalar(1.0f), Tensor::ScalarInt(1)},
  };
  for (const auto& [a, b] : pairs) {
    Graph g;
    g.Constant(a);
    g.Constant(b);
    EXPECT_EQ(CommonSubexpressionElimination(g), 0)
        << a.ToString() << " vs " << b.ToString();
  }
}

TEST_F(OptTest, CseMergesByteEqualConstants) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* products[2];
  for (Node*& product : products) {
    const NodeOutput c =
        g.Constant(Tensor::FromVector({0.1234567f, -0.0f}, Shape{2}));
    g.Constant(FloatWithBits(0x7fc00001u));
    g.Constant(Tensor::ScalarInt(kTwoTo53 + 1));
    product = g.AddNode("Mul", {x, c});
  }
  Node* sum = g.AddNode("Add", {{products[0], 0}, {products[1], 0}});
  // Three constant pairs, then the second product, which now reads the
  // first constant.
  EXPECT_EQ(CommonSubexpressionElimination(g), 4);
  EXPECT_EQ(sum->input(0).node, products[0]);
  EXPECT_EQ(sum->input(1).node, products[0]);
}

// Tensor attrs over 256 elements are unique to their node, so CSE never
// hashes or compares a weight blob.
TEST_F(OptTest, CseLeavesLargeConstantsUnique) {
  Graph g;
  const Tensor large = Tensor::Full(Shape{300}, 0.5f);
  g.Constant(large);
  g.Constant(Tensor::Full(Shape{300}, 0.5f));
  g.Constant(large);
  EXPECT_EQ(CommonSubexpressionElimination(g), 0);
  g.Constant(Tensor::Full(Shape{256}, 0.5f));
  g.Constant(Tensor::Full(Shape{256}, 0.5f));
  EXPECT_EQ(CommonSubexpressionElimination(g), 1);
}

TEST_F(OptTest, CseComparesFloatAttrsByBits) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  for (const double factor : {0.0, -0.0, 0.1, 0.1}) {
    g.AddNode("Scale", {x}, {{"factor", factor}});
  }
  EXPECT_EQ(CommonSubexpressionElimination(g), 1);
}

TEST_F(OptTest, ArithmeticIdentities) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput neg_zero = g.Constant(Tensor::Scalar(-0.0f));
  const NodeOutput zero = g.Constant(Tensor::Scalar(0));
  const NodeOutput one = g.Constant(Tensor::Scalar(1));
  Node* a = g.AddNode("Add", {x, neg_zero});
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
  const NodeOutput x = g.Placeholder("x", DType::kInt64);
  const NodeOutput zero = g.Constant(Tensor::ScalarInt(0));
  Node* m = g.AddNode("Mul", {x, zero});
  Node* consumer = g.AddNode("Identity", {{m, 0}});
  ArithmeticSimplification(g);
  EXPECT_EQ(consumer->input(0).node->op(), "ZerosLike");
  const auto out = Run(g, {{consumer->input(0).node, 0}},
                       {{"x", Tensor::FromVectorInt({1, 2}, Shape{2})}});
  EXPECT_EQ(out[0].shape(), (Shape{2}));
  EXPECT_EQ(out[0].data<std::int64_t>()[0], 0);
}

// A rewrite must give the bytes the op gives for every operand: -0 + 0 is
// +0, -0 - -0 is +0, -2 * 0 is -0 and NaN * 0 is NaN, a one-element rank-1
// operand broadcasts a scalar to rank 1, and int64 Div yields float32.
TEST_F(OptTest, SimplificationKeepsInexactIdentities) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput k = g.Placeholder("k", DType::kInt64);
  std::vector<NodeOutput> fetches;
  const auto add = [&](const char* op, NodeOutput a, const Tensor& c) {
    fetches.push_back({g.AddNode(op, {a, g.Constant(c)}), 0});
  };
  add("Add", x, Tensor::Scalar(0.0f));
  add("Sub", x, Tensor::Scalar(-0.0f));
  add("Mul", x, Tensor::Scalar(0.0f));
  add("Mul", x, Tensor::FromVector({1.0f}, Shape{1}));
  add("Div", k, Tensor::ScalarInt(1));
  EXPECT_EQ(ArithmeticSimplification(g), 0);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::map<std::string, Tensor> feeds{
      {"x", Tensor::FromVector({-0.0f, -2.0f, nan}, Shape{3})},
      {"k", Tensor::ScalarInt(3)}};
  const std::vector<Tensor> before = Run(g, fetches, feeds);
  OptimizeGraph(g, fetches);
  const std::vector<Tensor> after = Run(g, fetches, feeds);
  for (std::size_t i = 0; i < fetches.size(); ++i) {
    EXPECT_TRUE(before[i].ElementsEqual(after[i])) << "fetch " << i;
  }
  EXPECT_EQ(after[4].dtype(), DType::kFloat32);
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
  const NodeOutput zero = g.Constant(Tensor::Scalar(-0.0f));
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

// A random DAG of pure elementwise and reduction ops over three
// placeholders. Its constants come from pools of values CSE must keep
// apart: near-duplicates, signed zeros, NaNs with distinct payloads and
// int64 values above 2^53. Every shape broadcasts with every other.
class RandomDag {
 public:
  explicit RandomDag(std::uint64_t seed) : rng_(seed) {
    const float nan = std::numeric_limits<float>::quiet_NaN();
    feeds_["x"] = Tensor::FromVector({1.5f, -2.0f, 0.0f, -0.0f, nan, 1e30f},
                                     Shape{2, 3});
    feeds_["y"] = Tensor::FromVector({0.1234567f, -1.0f, 3.0f}, Shape{3});
    feeds_["k"] = Tensor::FromVectorInt({kTwoTo53, -5, 7}, Shape{3});
    floats_.push_back({g_.Placeholder("x", DType::kFloat32), 0});
    floats_.push_back({g_.Placeholder("y", DType::kFloat32), 0});
    ints_.push_back({g_.Placeholder("k", DType::kInt64), kTwoTo53});
    const int ops = 6 + static_cast<int>(rng_.Below(14));
    for (int i = 0; i < ops; ++i) AddRandomNode();
    fetches_ = {Pick(floats_).value, Pick(ints_).value, floats_.back().value,
                ints_.back().value};
  }

  Graph& graph() { return g_; }
  const std::vector<NodeOutput>& fetches() const { return fetches_; }
  const std::map<std::string, Tensor>& feeds() const { return feeds_; }

 private:
  struct Value {
    NodeOutput value;
    // An upper bound on |element| for int64 values, so no sum overflows.
    double bound = 0;
  };

  const Value& Pick(const std::vector<Value>& values) {
    return values[rng_.Below(values.size())];
  }
  const char* PickName(std::initializer_list<const char*> names) {
    return names.begin()[rng_.Below(names.size())];
  }

  void AddRandomNode() {
    switch (rng_.Below(8)) {
      case 0: {  // a float constant
        static const float nan1 = std::bit_cast<float>(0x7fc00001u);
        static const float nan2 = std::bit_cast<float>(0x7fc00002u);
        const Tensor pool[] = {
            Tensor::Scalar(1000001.0f),
            Tensor::Scalar(1000002.0f),
            Tensor::Scalar(0.1234567f),
            Tensor::Scalar(0.1234568f),
            Tensor::Scalar(0.0f),
            Tensor::Scalar(-0.0f),
            Tensor::Scalar(nan1),
            Tensor::Scalar(nan2),
            Tensor::Scalar(1.0f),
            Tensor::Scalar(std::nextafter(1.0f, 2.0f)),
            Tensor::FromVector({0.1234567f, 1.0f, 2.0f}, Shape{3}),
            Tensor::FromVector({0.1234568f, 1.0f, 2.0f}, Shape{3}),
            Tensor::FromVector({0.0f, -0.0f, 1.0f}, Shape{3}),
            Tensor::FromVector({-0.0f, 0.0f, 1.0f}, Shape{3}),
            Tensor::FromVector({nan1, 1.0f}, Shape{2, 1}),
            Tensor::FromVector({nan2, 1.0f}, Shape{2, 1}),
        };
        floats_.push_back(
            {g_.Constant(pool[rng_.Below(std::size(pool))]), 0});
        return;
      }
      case 1: {  // an int64 constant
        const Tensor pool[] = {
            Tensor::ScalarInt(kTwoTo53),
            Tensor::ScalarInt(kTwoTo53 + 1),
            Tensor::ScalarInt(-kTwoTo53),
            Tensor::ScalarInt(1234567),
            Tensor::ScalarInt(1234568),
            Tensor::ScalarInt(0),
            Tensor::ScalarInt(1),
            Tensor::FromVectorInt({kTwoTo53, 0, 1}, Shape{3}),
            Tensor::FromVectorInt({kTwoTo53 + 1, 0, 1}, Shape{3}),
        };
        ints_.push_back({g_.Constant(pool[rng_.Below(std::size(pool))]),
                         static_cast<double>(kTwoTo53 + 1)});
        return;
      }
      case 2: {
        const char* op = PickName({"Neg", "Abs", "Square", "Tanh", "Relu",
                                   "Sigmoid", "Sign"});
        floats_.push_back({Add(op, {Pick(floats_).value}), 0});
        return;
      }
      case 3:
      case 4: {
        const char* op =
            PickName({"Add", "Sub", "Mul", "Div", "Maximum", "Minimum"});
        const NodeOutput a = Pick(floats_).value;
        const NodeOutput b = Pick(floats_).value;
        floats_.push_back({Add(op, {a, b}), 0});
        return;
      }
      case 5: {  // a reduction; rank-0 operands pass through
        const NodeOutput a = Pick(floats_).value;
        const int rank = Rank(a);
        if (rank == 0) return;
        const char* op = PickName({"ReduceSum", "ReduceMean", "ReduceMax"});
        std::vector<std::int64_t> axes{0};
        bool keep_dims = false;
        if (rank == 2) {
          switch (rng_.Below(3)) {
            case 0:
              break;
            case 1:
              axes = {1};
              keep_dims = true;  // (2, 1) still broadcasts
              break;
            default:
              axes = {0, 1};
          }
        }
        floats_.push_back(
            {Add(op, {a}, {{"axes", axes}, {"keep_dims", keep_dims}}), 0});
        return;
      }
      case 6: {
        const Value a = Pick(ints_);
        const Value b = Pick(ints_);
        if (rng_.Below(3) == 0) {
          ints_.push_back({Add(PickName({"Neg", "Abs"}), {a.value}), a.bound});
        } else if (a.bound + b.bound < 0x1p62) {
          ints_.push_back({Add(PickName({"Add", "Sub"}), {a.value, b.value}),
                           a.bound + b.bound});
        } else {
          ints_.push_back({Add(PickName({"Maximum", "Minimum"}),
                               {a.value, b.value}),
                           std::max(a.bound, b.bound)});
        }
        return;
      }
      default:  // int64 -> float32
        floats_.push_back({Add("Cast", {Pick(ints_).value},
                               {{"dtype", DType::kFloat32}}),
                           0});
        return;
    }
  }

  NodeOutput Add(const char* op, std::vector<NodeOutput> inputs,
                 AttrMap attrs = {}) {
    Node* node = g_.AddNode(op, std::move(inputs), std::move(attrs));
    rank_[node] = RankOf(*node);
    return {node, 0};
  }

  int Rank(NodeOutput v) const {
    if (v.node->op() == "Const") return v.node->GetTensorAttr("value").rank();
    if (v.node->op() == "Placeholder") return feeds_.at(v.node->name()).rank();
    return rank_.at(v.node);
  }

  int RankOf(const Node& node) const {
    if (node.op().starts_with("Reduce")) {
      const auto& axes = node.GetIntListAttr("axes");
      const int rank = Rank(node.input(0));
      return node.GetBoolAttr("keep_dims") ? rank
                                           : rank - static_cast<int>(axes.size());
    }
    int rank = 0;
    for (const NodeOutput& input : node.inputs()) {
      rank = std::max(rank, Rank(input));
    }
    return rank;
  }

  Rng rng_;
  Graph g_;
  std::map<std::string, Tensor> feeds_;
  std::vector<Value> floats_;
  std::vector<Value> ints_;
  std::map<const Node*, int> rank_;
  std::vector<NodeOutput> fetches_;
};

TEST_F(OptTest, OptimizationKeepsOutputBytesOnRandomGraphs) {
  constexpr int kGraphs = 2000;
  int merged = 0;
  for (int seed = 1; seed <= kGraphs; ++seed) {
    RandomDag dag(static_cast<std::uint64_t>(seed));
    const std::vector<Tensor> before =
        Run(dag.graph(), dag.fetches(), dag.feeds());
    merged += OptimizeGraph(dag.graph(), dag.fetches()).cse_merged;
    const std::vector<Tensor> after =
        Run(dag.graph(), dag.fetches(), dag.feeds());
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      ASSERT_TRUE(before[i].ElementsEqual(after[i]))
          << "seed " << seed << ", fetch " << i << ": "
          << before[i].ToString() << " became " << after[i].ToString()
          << "\n" << dag.graph().DebugString();
    }
  }
  // The pools make CSE merge often, so the property is exercised.
  EXPECT_GT(merged, kGraphs / 4);
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
