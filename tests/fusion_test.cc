// Tests for plan-time fusion of elementwise regions (runtime/fusion.h):
// region formation rules on DAG and dynamic plans (maximal chains and
// in-region diamonds fuse; fetched or externally-consumed interiors split;
// reductions are root-only; singletons never fuse), the bitwise
// fused-vs-unfused equivalence contract across broadcasts, reduction
// epilogues, and fallback dtype combinations, an exhaustive parity sweep
// over every elementwise op, dtype pair and shape kind, error attribution
// through the fallback path, the kill switches, and an exhaustive
// fusion-on/off sweep over the model zoo.
#include "runtime/fusion.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <map>
#include <string>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "models/zoo.h"
#include "run_graph.h"
#include "runtime/executor.h"
#include "runtime/plan.h"
#include "tensor/elementwise.h"
#include "tensor/tensor.h"

namespace janus {
namespace {

const void* RawBytes(const Tensor& t) {
  switch (t.dtype()) {
    case DType::kFloat32: return t.data<float>().data();
    case DType::kInt64: return t.data<std::int64_t>().data();
    case DType::kBool: return t.data<std::uint8_t>().data();
  }
  return nullptr;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.dtype() == b.dtype() && a.shape() == b.shape() &&
         std::memcmp(RawBytes(a), RawBytes(b), a.byte_size()) == 0;
}

std::shared_ptr<const ExecutionPlan> BuildPlan(
    const Graph& g, const std::vector<NodeOutput>& fetches,
    bool enable_fusion) {
  return PlanOverPlaceholders(g, fetches, {.enable_fusion = enable_fusion});
}

class FusionTest : public ::testing::Test {
 protected:
  std::vector<Tensor> Run(const ExecutionPlan& plan,
                          const std::map<std::string, Tensor>& feeds,
                          RunMetrics* metrics = nullptr) {
    Executor executor(nullptr, &variables_, nullptr, &rng_);
    return executor.Run(plan, ArgsByName(plan, feeds), metrics);
  }

  // Runs (graph, fetches) with fusion on and off and asserts every fetched
  // output is bitwise identical; returns the fused run's metrics.
  RunMetrics ExpectFusedMatchesUnfused(
      const Graph& g, const std::vector<NodeOutput>& fetches,
      const std::map<std::string, Tensor>& feeds = {}) {
    const auto fused_plan = BuildPlan(g, fetches, /*enable_fusion=*/true);
    const auto plain_plan = BuildPlan(g, fetches, /*enable_fusion=*/false);
    EXPECT_TRUE(plain_plan->fused_regions().empty());
    RunMetrics fused_metrics;
    RunMetrics plain_metrics;
    const std::vector<Tensor> fused = Run(*fused_plan, feeds, &fused_metrics);
    const std::vector<Tensor> plain = Run(*plain_plan, feeds, &plain_metrics);
    EXPECT_EQ(fused.size(), plain.size());
    for (std::size_t i = 0; i < fused.size(); ++i) {
      EXPECT_TRUE(BitwiseEqual(fused[i], plain[i]))
          << "fetch " << i << " is not bitwise identical";
    }
    // Fusion must never change how many member ops ran.
    EXPECT_EQ(fused_metrics.ops_executed, plain_metrics.ops_executed);
    EXPECT_EQ(plain_metrics.fused_regions, 0);
    EXPECT_EQ(plain_metrics.fused_ops, 0);
    return fused_metrics;
  }

  VariableStore variables_;
  Rng rng_{7};
};

NodeOutput Reduce(Graph& g, const char* op, NodeOutput v,
                  std::vector<std::int64_t> axes, bool keep_dims) {
  return {g.AddNode(op, {v},
                    {{"axes", std::move(axes)}, {"keep_dims", keep_dims}}),
          0};
}

Tensor Iota(const Shape& shape, float start = 1.0f) {
  Tensor t = Tensor::Uninitialized(DType::kFloat32, shape);
  float v = start;
  for (float& x : t.mutable_data<float>()) x = (v += 0.5f);
  return t;
}

// ---- region formation ----

TEST_F(FusionTest, ChainFusesIntoOneRegion) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput one = g.Constant(Tensor::Full(Shape{8, 8}, 1.0f));
  NodeOutput v = x;
  for (int i = 0; i < 6; ++i) v = {g.AddNode("Add", {v, one}), 0};
  const std::vector<NodeOutput> fetches{v};
  const auto plan = BuildPlan(g, fetches, true);
  ASSERT_EQ(plan->fused_regions().size(), 1u);
  EXPECT_EQ(plan->fused_regions()[0]->members.size(), 6u);
  EXPECT_FALSE(plan->fused_regions()[0]->has_reduction);
  // Placeholder + const + one region node: all interiors disappeared.
  EXPECT_EQ(plan->nodes().size(), 3u);

  const RunMetrics metrics = ExpectFusedMatchesUnfused(
      g, fetches, {{"x", Iota(Shape{8, 8})}});
  EXPECT_EQ(metrics.fused_regions, 1);
  EXPECT_EQ(metrics.fused_ops, 6);
  EXPECT_EQ(metrics.ops_executed, 6);
}

TEST_F(FusionTest, SingleOpIsNeverFused) {
  Graph g;
  const NodeOutput x = g.Constant(Iota(Shape{4}));
  const NodeOutput y = {g.AddNode("Exp", {x}), 0};
  const auto plan = BuildPlan(g, {y}, true);
  EXPECT_TRUE(plan->fused_regions().empty());
}

TEST_F(FusionTest, FetchedInteriorSplitsTheRegion) {
  // a -> b -> c -> d with b also fetched: b is fetch-protected, so the
  // chain splits into {a,b} and {c,d}.
  Graph g;
  const NodeOutput x = g.Constant(Iota(Shape{16}));
  const NodeOutput a = {g.AddNode("Square", {x}), 0};
  const NodeOutput b = {g.AddNode("Neg", {a}), 0};
  const NodeOutput c = {g.AddNode("Abs", {b}), 0};
  const NodeOutput d = {g.AddNode("Sqrt", {c}), 0};
  const std::vector<NodeOutput> fetches{b, d};
  const auto plan = BuildPlan(g, fetches, true);
  ASSERT_EQ(plan->fused_regions().size(), 2u);
  EXPECT_EQ(plan->fused_regions()[0]->members.size(), 2u);
  EXPECT_EQ(plan->fused_regions()[1]->members.size(), 2u);
  ExpectFusedMatchesUnfused(g, fetches);
}

TEST_F(FusionTest, ExternallyConsumedInteriorStaysExternal) {
  // e = Exp(x) feeds both a fusable chain and a non-fusable Transpose, so e
  // must stay materialized (external) and only the chain fuses.
  Graph g;
  const NodeOutput x = g.Constant(Iota(Shape{4, 4}));
  const NodeOutput one = g.Constant(Tensor::Full(Shape{4, 4}, 1.0f));
  const NodeOutput e = {g.AddNode("Exp", {x}), 0};
  const NodeOutput f = {g.AddNode("Add", {e, one}), 0};
  const NodeOutput f2 = {g.AddNode("Mul", {f, one}), 0};
  const NodeOutput t = {g.AddNode("Transpose", {e}), 0};
  const std::vector<NodeOutput> fetches{f2, t};
  const auto plan = BuildPlan(g, fetches, true);
  ASSERT_EQ(plan->fused_regions().size(), 1u);
  EXPECT_EQ(plan->fused_regions()[0]->members.size(), 2u);
  ExpectFusedMatchesUnfused(g, fetches);
}

TEST_F(FusionTest, InRegionDiamondFusesWhole) {
  // x feeds two unary branches that rejoin: every interior's consumers are
  // inside the region, so all three ops fuse.
  Graph g;
  const NodeOutput x = g.Constant(Iota(Shape{32}));
  const NodeOutput a = {g.AddNode("Exp", {x}), 0};
  const NodeOutput b = {g.AddNode("Neg", {x}), 0};
  const NodeOutput c = {g.AddNode("Add", {a, b}), 0};
  const std::vector<NodeOutput> fetches{c};
  const auto plan = BuildPlan(g, fetches, true);
  ASSERT_EQ(plan->fused_regions().size(), 1u);
  EXPECT_EQ(plan->fused_regions()[0]->members.size(), 3u);
  const RunMetrics metrics = ExpectFusedMatchesUnfused(g, fetches);
  EXPECT_EQ(metrics.fused_ops, 3);
}

TEST_F(FusionTest, ReductionFusesOnlyAsRoot) {
  // ReduceSum feeding more elementwise work cannot be an interior: the sum
  // stays unfused and no region forms around it (both neighbours are
  // singletons).
  Graph g;
  const NodeOutput x = g.Constant(Iota(Shape{8}));
  const NodeOutput one = g.Constant(Tensor::Scalar(1.0f));
  const NodeOutput s = Reduce(g, "ReduceSum", x, {}, false);
  const NodeOutput a = {g.AddNode("Add", {s, one}), 0};
  const std::vector<NodeOutput> fetches{a};
  const auto plan = BuildPlan(g, fetches, true);
  EXPECT_TRUE(plan->fused_regions().empty());
  ExpectFusedMatchesUnfused(g, fetches);
}

// ---- execution equivalence ----

TEST_F(FusionTest, UniformBroadcastOperands) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput two = g.Constant(Tensor::Scalar(2.0f));
  const NodeOutput three = g.Constant(Tensor::Scalar(3.0f));
  const NodeOutput m = {g.AddNode("Mul", {x, two}), 0};
  const NodeOutput a = {g.AddNode("Add", {m, three}), 0};
  const NodeOutput t = {g.AddNode("Tanh", {a}), 0};
  const std::vector<NodeOutput> fetches{t};
  const auto plan = BuildPlan(g, fetches, true);
  ASSERT_EQ(plan->fused_regions().size(), 1u);
  const RunMetrics metrics = ExpectFusedMatchesUnfused(
      g, fetches, {{"x", Iota(Shape{5, 7})}});
  EXPECT_EQ(metrics.fused_regions, 1);
  EXPECT_EQ(metrics.fused_ops, 3);
}

TEST_F(FusionTest, ReductionEpilogues) {
  for (const char* op : {"ReduceSum", "ReduceMean"}) {
    for (const bool keep_dims : {false, true}) {
      Graph g;
      const NodeOutput x = g.Placeholder("x", DType::kFloat32);
      const NodeOutput y = g.Constant(Iota(Shape{4, 6}, 2.0f));
      const NodeOutput m = {g.AddNode("Mul", {x, y}), 0};
      const NodeOutput r = Reduce(g, op, m, {1}, keep_dims);
      const std::vector<NodeOutput> fetches{r};
      const auto plan = BuildPlan(g, fetches, true);
      ASSERT_EQ(plan->fused_regions().size(), 1u) << op;
      EXPECT_TRUE(plan->fused_regions()[0]->has_reduction);
      const RunMetrics metrics = ExpectFusedMatchesUnfused(
          g, fetches, {{"x", Iota(Shape{4, 6})}});
      EXPECT_EQ(metrics.fused_regions, 1) << op;
      EXPECT_EQ(metrics.fused_ops, 2) << op;
    }
  }
}

TEST_F(FusionTest, EpilogueWindowsStartMidRow) {
  // 3300 elements run as 1024-element blocks, so the blocks after the
  // first start inside a 1100-element row: each window's walk must pick up
  // mid-row and keep every output slot's input order.
  for (const char* op : {"ReduceSum", "ReduceMean"}) {
    for (const std::int64_t axis : {0, 1}) {
      for (const bool keep_dims : {false, true}) {
        Graph g;
        const NodeOutput x = g.Placeholder("x", DType::kFloat32);
        const NodeOutput y = g.Constant(Iota(Shape{3, 1100}, -700.0f));
        const NodeOutput m = {g.AddNode("Mul", {x, y}), 0};
        const NodeOutput r = Reduce(g, op, m, {axis}, keep_dims);
        const std::vector<NodeOutput> fetches{r};
        const RunMetrics metrics = ExpectFusedMatchesUnfused(
            g, fetches, {{"x", Iota(Shape{3, 1100}, 0.3f)}});
        EXPECT_EQ(metrics.fused_regions, 1)
            << op << " axis " << axis << " keep_dims " << keep_dims;
      }
    }
  }
}

TEST_F(FusionTest, ReduceAllAxesEpilogue) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput sq = {g.AddNode("Square", {x}), 0};
  const NodeOutput r = Reduce(g, "ReduceMean", sq, {}, false);
  const std::vector<NodeOutput> fetches{r};
  const RunMetrics metrics = ExpectFusedMatchesUnfused(
      g, fetches, {{"x", Iota(Shape{3, 5, 2})}});
  EXPECT_EQ(metrics.fused_regions, 1);
}

TEST_F(FusionTest, Int64DivisionFallsBackBitExact) {
  // int64 true division promotes through float; the superop interpreter
  // refuses it at specialization time and the region runs per-member.
  Graph g;
  const NodeOutput x = g.Constant(Tensor::FromVectorInt({9, 8, 7, -6}, {4}));
  const NodeOutput y = g.Constant(Tensor::FromVectorInt({2, 4, 2, 4}, {4}));
  // int64 / int64 promotes to float32, so the epilogue adds a float scalar.
  const NodeOutput one = g.Constant(Tensor::Scalar(1.0f));
  const NodeOutput d = {g.AddNode("Div", {x, y}), 0};
  const NodeOutput a = {g.AddNode("Add", {d, one}), 0};
  const std::vector<NodeOutput> fetches{a};
  const auto plan = BuildPlan(g, fetches, true);
  ASSERT_EQ(plan->fused_regions().size(), 1u);
  const RunMetrics metrics = ExpectFusedMatchesUnfused(g, fetches);
  // Fallback dispatch: member ops still counted, no fused-region credit.
  EXPECT_EQ(metrics.fused_regions, 0);
  EXPECT_EQ(metrics.fused_ops, 0);
  EXPECT_EQ(metrics.ops_executed, 2);
}

TEST_F(FusionTest, PartialBroadcastFallsBackBitExact) {
  // {1,4} against {4,4} is neither scalar nor full-size: fallback path.
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput row = g.Constant(Iota(Shape{1, 4}));
  const NodeOutput a = {g.AddNode("Add", {x, row}), 0};
  const NodeOutput t = {g.AddNode("Tanh", {a}), 0};
  const std::vector<NodeOutput> fetches{t};
  const auto plan = BuildPlan(g, fetches, true);
  ASSERT_EQ(plan->fused_regions().size(), 1u);
  const RunMetrics metrics = ExpectFusedMatchesUnfused(
      g, fetches, {{"x", Iota(Shape{4, 4})}});
  EXPECT_EQ(metrics.fused_regions, 0);
}

TEST_F(FusionTest, FallbackPreservesErrorAttribution) {
  // Integer FloorDiv may throw on a zero divisor; the region must fall back
  // to per-member dispatch so the error still names the failing node.
  Graph g;
  const NodeOutput x = g.Constant(Tensor::FromVectorInt({4, 5, 6}, {3}));
  const NodeOutput zero = g.Constant(Tensor::FromVectorInt({2, 0, 2}, {3}));
  const NodeOutput one = g.Constant(Tensor::ScalarInt(1));
  Node* fd = g.AddNode("FloorDiv", {x, zero});
  const NodeOutput a = {g.AddNode("Add", {{fd, 0}, one}), 0};
  const std::vector<NodeOutput> fetches{a};
  const auto plan = BuildPlan(g, fetches, true);
  ASSERT_EQ(plan->fused_regions().size(), 1u);
  try {
    Run(*plan, {});
    FAIL() << "division by zero did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("[at " + fd->name()),
              std::string::npos)
        << "error lost node attribution: " << e.what();
  }
}

TEST_F(FusionTest, ChangingShapesRespecializeViaCache) {
  // The same plan run under different feed shapes must revalidate its memo
  // and produce correct results for each shape (the despecialized
  // rank-only-graph scenario).
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput s = {g.AddNode("Square", {x}), 0};
  const NodeOutput n = {g.AddNode("Neg", {s}), 0};
  const std::vector<NodeOutput> fetches{n};
  const auto plan = BuildPlan(g, fetches, true);
  ASSERT_EQ(plan->fused_regions().size(), 1u);
  for (const Shape& shape :
       {Shape{4}, Shape{2, 3}, Shape{4}, Shape{1, 1, 5}}) {
    const Tensor in = Iota(shape);
    const std::vector<Tensor> out = Run(*plan, {{"x", in}});
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0].shape(), shape);
    const auto iv = in.data<float>();
    const auto ov = out[0].data<float>();
    for (std::size_t i = 0; i < ov.size(); ++i) {
      EXPECT_EQ(ov[i], -(iv[i] * iv[i]));
    }
  }
}

// ---- Switch/Merge conditionals ----

TEST_F(FusionTest, DynamicPlanFusesLoopBodyChain) {
  // pred ? (x + 1) + 1 : -x — the two-Add chain on the true branch fuses
  // into one region, which runs only when that branch is taken.
  Graph g;
  const NodeOutput pred = g.Placeholder("pred", DType::kBool);
  const NodeOutput x = g.Placeholder("x", DType::kInt64);
  const NodeOutput one = g.Constant(Tensor::ScalarInt(1));
  Node* sw = g.AddNode("Switch", {x, pred}, {}, 2);
  Node* inc1 = g.AddNode("Add", {{sw, 1}, one});
  Node* inc2 = g.AddNode("Add", {{inc1, 0}, one});
  Node* neg = g.AddNode("Neg", {{sw, 0}});
  Node* merge = g.AddNode("Merge", {{inc2, 0}, {neg, 0}}, {}, 2);
  const std::vector<NodeOutput> fetches{{merge, 0}};
  const auto fused_plan = BuildPlan(g, fetches, true);
  ASSERT_EQ(fused_plan->fused_regions().size(), 1u);
  EXPECT_EQ(fused_plan->fused_regions()[0]->members.size(), 2u);
  const auto plain_plan = BuildPlan(g, fetches, false);
  for (const bool taken : {true, false}) {
    const std::map<std::string, Tensor> feeds{
        {"pred", Tensor::ScalarBool(taken)}, {"x", Tensor::ScalarInt(5)}};
    RunMetrics fused_metrics;
    const std::vector<Tensor> fused = Run(*fused_plan, feeds, &fused_metrics);
    const std::vector<Tensor> plain = Run(*plain_plan, feeds);
    ASSERT_EQ(fused.size(), 1u);
    EXPECT_EQ(fused[0].data<std::int64_t>()[0], taken ? 7 : -5);
    EXPECT_EQ(plain[0].data<std::int64_t>()[0], taken ? 7 : -5);
    EXPECT_EQ(fused_metrics.fused_regions, taken ? 1 : 0);
    EXPECT_EQ(fused_metrics.fused_ops, taken ? 2 : 0);
  }
}

// ---- kill switches and program sharing ----

TEST_F(FusionTest, GlobalKillSwitchDisablesThePass) {
  Graph g;
  const NodeOutput x = g.Constant(Iota(Shape{8}));
  const NodeOutput a = {g.AddNode("Square", {x}), 0};
  const NodeOutput b = {g.AddNode("Neg", {a}), 0};
  const std::vector<NodeOutput> fetches{b};
  ASSERT_TRUE(fusion::GloballyEnabled());
  fusion::SetGloballyEnabled(false);
  const auto off = BuildPlan(g, fetches, true);
  fusion::SetGloballyEnabled(true);
  EXPECT_TRUE(off->fused_regions().empty());
  const auto on = BuildPlan(g, fetches, true);
  EXPECT_EQ(on->fused_regions().size(), 1u);
}

TEST_F(FusionTest, PlanOptionDisablesThePass) {
  Graph g;
  const NodeOutput x = g.Constant(Iota(Shape{8}));
  const NodeOutput a = {g.AddNode("Square", {x}), 0};
  const NodeOutput b = {g.AddNode("Neg", {a}), 0};
  const auto plan = BuildPlan(g, {b}, false);
  EXPECT_TRUE(plan->fused_regions().empty());
}

TEST_F(FusionTest, IdenticalRegionsShareOneCachedProgram) {
  // Two structurally identical regions in separate plans specialize to the
  // same program: bitwise-equal outputs, both equal to unfused execution.
  auto build = [] {
    auto g = std::make_unique<Graph>();
    const NodeOutput x = g->Placeholder("x", DType::kFloat32);
    const NodeOutput a = {g->AddNode("Sqrt", {x}), 0};
    const NodeOutput b = {g->AddNode("Sigmoid", {a}), 0};
    const NodeOutput c = {g->AddNode("Neg", {b}), 0};
    return std::pair{std::move(g), std::vector<NodeOutput>{c}};
  };
  auto [g1, f1] = build();
  auto [g2, f2] = build();
  const auto p1 = PlanOverPlaceholders(*g1, f1);
  const auto p2 = PlanOverPlaceholders(*g2, f2);
  ASSERT_EQ(p1->fused_regions().size(), 1u);
  ASSERT_EQ(p2->fused_regions().size(), 1u);
  const std::map<std::string, Tensor> feeds{{"x", Iota(Shape{16})}};
  const std::vector<Tensor> r1 = Run(*p1, feeds);
  const std::vector<Tensor> r2 = Run(*p2, feeds);
  EXPECT_TRUE(BitwiseEqual(r1[0], r2[0]));
  const std::vector<Tensor> plain =
      Run(*BuildPlan(*g1, f1, /*enable_fusion=*/false), feeds);
  EXPECT_TRUE(BitwiseEqual(r1[0], plain[0]));
}

// ---- exhaustive parity: every elementwise op, dtype and shape kind ----

// The test's own statement of which cases the block interpreter runs: an op
// fuses on operands of one shared dtype from `fused`, on same-shape or
// scalar-broadcast operands (ReluGrad: same shape only); every other case
// runs the per-member fallback and must fail or succeed exactly as unfused.
struct ParityOp {
  const char* name;
  int arity;
  std::vector<DType> fused;
  bool equal_shapes = false;
};

const std::vector<ParityOp>& ParityOps() {
  constexpr DType kF = DType::kFloat32;
  constexpr DType kI = DType::kInt64;
  constexpr DType kB = DType::kBool;
  static const auto* ops = new std::vector<ParityOp>{
      {"Neg", 1, {kF, kI}},        {"Abs", 1, {kF, kI}},
      {"Sign", 1, {kF}},           {"Exp", 1, {kF}},
      {"Log", 1, {kF}},            {"Sqrt", 1, {kF}},
      {"Square", 1, {kF}},         {"Tanh", 1, {kF}},
      {"Sigmoid", 1, {kF}},        {"Relu", 1, {kF}},
      {"LogicalNot", 1, {kB}},     {"Add", 2, {kF, kI}},
      {"Sub", 2, {kF, kI}},        {"Mul", 2, {kF, kI}},
      {"Div", 2, {kF}},            {"FloorDiv", 2, {kF}},
      {"Mod", 2, {kF}},            {"Pow", 2, {kF, kI}},
      {"Maximum", 2, {kF, kI}},    {"Minimum", 2, {kF, kI}},
      {"ReluGrad", 2, {kF}, true}, {"Equal", 2, {kF, kI, kB}},
      {"NotEqual", 2, {kF, kI, kB}}, {"Less", 2, {kF, kI, kB}},
      {"LessEqual", 2, {kF, kI, kB}}, {"Greater", 2, {kF, kI, kB}},
      {"GreaterEqual", 2, {kF, kI, kB}}, {"LogicalAnd", 2, {kB}},
      {"LogicalOr", 2, {kB}},
  };
  return *ops;
}

// Operand shapes: x always reaches the op through an identity member.
enum class ShapeKind { kSame, kScalarRhs, kScalarLhs, kPartial };

const char* ShapeKindName(ShapeKind kind) {
  switch (kind) {
    case ShapeKind::kSame: return "same";
    case ShapeKind::kScalarRhs: return "scalar-rhs";
    case ShapeKind::kScalarLhs: return "scalar-lhs";
    case ShapeKind::kPartial: return "partial";
  }
  return "?";
}

// Values with NaN, signed zeros, infinities, negative ints and zero int
// divisors; `count` is 8 ({2,4}), 4 ({1,4}) or 1 (scalar).
Tensor ParityValues(DType dtype, bool rhs, const Shape& shape) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::size_t count = static_cast<std::size_t>(shape.num_elements());
  const std::vector<float> fx{nan, -0.0f, 0.0f, inf, -inf, -2.5f, 1.5f, 3.0f};
  const std::vector<float> fy{1.5f, -0.0f, 0.0f, -inf, nan, 2.0f, -3.0f, 0.5f};
  const std::vector<std::int64_t> ix{-3, 0, 7, -1, 2, 5, -6, 4};
  const std::vector<std::int64_t> iy{3, -2, 0, 5, -7, 1, 2, -1};
  // Partial and scalar right operands skip the zero divisor so integer
  // FloorDiv/Mod also run to completion.
  const std::vector<std::int64_t> iy_nonzero{-3, 2, -1, 4};
  const std::vector<std::int64_t> bx{1, 0, 1, 1, 0, 0, 1, 0};
  const std::vector<std::int64_t> by{1, 1, 0, 0, 1, 0, 1, 0};
  switch (dtype) {
    case DType::kFloat32: {
      const std::vector<float>& v = rhs ? fy : fx;
      return Tensor::FromVector({v.begin(), v.begin() + count}, shape);
    }
    case DType::kInt64: {
      const std::vector<std::int64_t>& v =
          rhs ? (count == 8 ? iy : iy_nonzero) : ix;
      return Tensor::FromVectorInt({v.begin(), v.begin() + count}, shape);
    }
    case DType::kBool: {
      const std::vector<std::int64_t>& v = rhs ? by : bx;
      Tensor t = Tensor::Uninitialized(DType::kBool, shape);
      auto out = t.mutable_data<std::uint8_t>();
      for (std::size_t i = 0; i < count; ++i) {
        out[i] = static_cast<std::uint8_t>(v[i]);
      }
      return t;
    }
  }
  return Tensor();
}

// A run's result: the fetched value's bits, or the error's type and text.
struct ParityOutcome {
  bool threw = false;
  std::string error;
  Tensor value;
  bool fused = false;
};

TEST_F(FusionTest, EveryElementwiseOpMatchesUnfusedBitwise) {
  // Every table entry has a case, and every case is a table entry.
  std::vector<std::string> table;
  for (const ops::ElementwiseOp& op : ops::ElementwiseOps()) {
    table.emplace_back(op.name);
  }
  std::vector<std::string> covered;
  for (const ParityOp& op : ParityOps()) covered.emplace_back(op.name);
  std::sort(table.begin(), table.end());
  std::sort(covered.begin(), covered.end());
  ASSERT_EQ(table, covered);

  const std::vector<DType> dtypes{DType::kFloat32, DType::kInt64,
                                  DType::kBool};
  int cases = 0;
  int fused_cases = 0;
  for (const ParityOp& op : ParityOps()) {
    const std::vector<ShapeKind> kinds =
        op.arity == 1
            ? std::vector<ShapeKind>{ShapeKind::kSame, ShapeKind::kScalarLhs}
            : std::vector<ShapeKind>{ShapeKind::kSame, ShapeKind::kScalarRhs,
                                     ShapeKind::kScalarLhs,
                                     ShapeKind::kPartial};
    for (const DType xt : dtypes) {
      for (const DType yt : op.arity == 1 ? std::vector<DType>{xt} : dtypes) {
        for (const ShapeKind kind : kinds) {
          SCOPED_TRACE(std::string(op.name) + "(" + DTypeName(xt) +
                       (op.arity == 2 ? std::string(", ") + DTypeName(yt)
                                      : std::string()) +
                       ") " + ShapeKindName(kind));
          const Shape full{2, 4};
          const Shape x_shape = kind == ShapeKind::kScalarLhs ? Shape{} : full;
          const Shape y_shape = kind == ShapeKind::kSame        ? full
                                : kind == ShapeKind::kPartial ? Shape{1, 4}
                                : kind == ShapeKind::kScalarLhs ? full
                                                                : Shape{};
          Graph g;
          const NodeOutput x =
              g.Constant(ParityValues(xt, /*rhs=*/false, x_shape));
          const char* identity =
              xt == DType::kBool ? "LogicalOr" : "Maximum";
          const NodeOutput id = {g.AddNode(identity, {x, x}), 0};
          std::vector<NodeOutput> operands{id};
          if (op.arity == 2) {
            operands.push_back(
                g.Constant(ParityValues(yt, /*rhs=*/true, y_shape)));
          }
          const NodeOutput root = {g.AddNode(op.name, operands), 0};
          const std::vector<NodeOutput> fetches{root};
          const auto fused_plan = BuildPlan(g, fetches, true);
          const auto plain_plan = BuildPlan(g, fetches, false);
          ASSERT_EQ(fused_plan->fused_regions().size(), 1u);
          ASSERT_EQ(fused_plan->fused_regions()[0]->members.size(), 2u);
          const auto run = [&](const ExecutionPlan& plan) {
            ParityOutcome outcome;
            RunMetrics metrics;
            try {
              outcome.value = Run(plan, {}, &metrics).at(0);
              outcome.fused = metrics.fused_regions == 1;
            } catch (const Error& e) {
              outcome.threw = true;
              outcome.error = std::string(typeid(e).name()) + ": " + e.what();
            }
            return outcome;
          };
          const ParityOutcome fused = run(*fused_plan);
          const ParityOutcome plain = run(*plain_plan);
          ++cases;
          ASSERT_EQ(fused.threw, plain.threw)
              << "fused: " << fused.error << " unfused: " << plain.error;
          if (plain.threw) {
            EXPECT_EQ(fused.error, plain.error);
          } else {
            EXPECT_TRUE(BitwiseEqual(fused.value, plain.value))
                << "fused " << fused.value.ToString() << " unfused "
                << plain.value.ToString();
          }
          const bool expect_fused =
              (op.arity == 1 || xt == yt) &&
              std::find(op.fused.begin(), op.fused.end(), xt) !=
                  op.fused.end() &&
              kind != ShapeKind::kPartial &&
              (!op.equal_shapes || kind == ShapeKind::kSame);
          EXPECT_EQ(fused.fused, expect_fused);
          if (fused.fused) ++fused_cases;
        }
      }
    }
  }
  // 11 unary ops x 3 dtypes x 2 shapes + 18 binary ops x 9 dtype pairs x 4.
  EXPECT_EQ(cases, 11 * 3 * 2 + 18 * 9 * 4);
  EXPECT_EQ(fused_cases, 132);
}

// ---- model-zoo sweep: fusion on vs off must be bitwise-equivalent ----

class FusionZooSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(FusionZooSweep, FusedLossesMatchUnfused) {
  const models::ModelSpec& spec = models::FindModel(GetParam());
  EngineOptions fused_options;
  ASSERT_TRUE(fused_options.enable_fusion);
  EngineOptions plain_options;
  plain_options.enable_fusion = false;
  models::ModelSession fused(spec, fused_options, 7);
  models::ModelSession plain(spec, plain_options, 7);
  for (int i = 0; i < 6; ++i) {
    const double a = fused.Step();
    const double b = plain.Step();
    ASSERT_TRUE(std::isfinite(a)) << "step " << i;
    // Fused execution is bitwise identical to per-node execution, so the
    // training trajectories must agree exactly, not just approximately.
    EXPECT_EQ(a, b) << spec.name << " diverged at step " << i;
  }
  EXPECT_EQ(plain.engine().stats().fused_regions, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, FusionZooSweep,
    ::testing::Values("LeNet", "ResNet50", "Inception-v3", "LSTM", "LM",
                      "TreeRNN", "TreeLSTM", "A3C", "PPO", "AN", "pix2pix"));

TEST(FusionZooTest, ConvertedModelsActuallyFuse) {
  // A representative converted model must dispatch real fused regions and
  // surface them through the engine's stats. (The LSTM's gate arithmetic is
  // a dense web of elementwise chains; conv-dominated models like LeNet may
  // legitimately have no >=2-op elementwise region.)
  models::ModelSession session(models::FindModel("LSTM"), EngineOptions{});
  for (int i = 0; i < 10; ++i) session.Step();
  const EngineStats stats = session.engine().stats();
  EXPECT_GT(stats.graph_executions, 0);
  EXPECT_GT(stats.fused_regions, 0);
  EXPECT_GT(stats.fused_ops, stats.fused_regions);
}

}  // namespace
}  // namespace janus
