// Tests for the dataflow executor: DAG scheduling (sequential + parallel),
// Switch/Merge conditionals and deadness propagation, InvokeOp recursion,
// functional While, variables, assertion aborts, and deferred state commit.
#include "runtime/executor.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "run_graph.h"
#include "runtime/run_context.h"
#include "tensor/ops.h"

namespace janus {
namespace {

class FakeHostState : public StateInterface {
 public:
  Tensor GetAttr(std::int64_t object_id, const std::string& name) override {
    reads.push_back(name);
    return attrs.at({object_id, name});
  }
  void SetAttr(std::int64_t object_id, const std::string& name,
               const Tensor& value) override {
    attrs[{object_id, name}] = value;
    writes.push_back(name);
  }
  Tensor GetSubscr(std::int64_t object_id, std::int64_t index) override {
    return subscrs.at({object_id, index});
  }
  void SetSubscr(std::int64_t object_id, std::int64_t index,
                 const Tensor& value) override {
    subscrs[{object_id, index}] = value;
  }

  std::map<std::pair<std::int64_t, std::string>, Tensor> attrs;
  std::map<std::pair<std::int64_t, std::int64_t>, Tensor> subscrs;
  std::vector<std::string> reads;
  std::vector<std::string> writes;
};

class ExecutorTest : public ::testing::Test {
 protected:
  std::vector<Tensor> Run(const Graph& g, std::vector<NodeOutput> fetches,
                          const std::map<std::string, Tensor>& feeds = {}) {
    const FunctionPlans functions = BuildFunctionPlans(library_);
    Executor executor(&functions, &variables_, &host_, &rng_);
    return RunGraph(executor, g, feeds, fetches);
  }

  FunctionLibrary library_;
  VariableStore variables_;
  FakeHostState host_;
  Rng rng_{42};
};

TEST_F(ExecutorTest, ConstantArithmetic) {
  Graph g;
  const NodeOutput a = g.Constant(Tensor::Scalar(2));
  const NodeOutput b = g.Constant(Tensor::Scalar(3));
  Node* add = g.AddNode("Add", {a, b});
  Node* sq = g.AddNode("Square", {{add, 0}});
  const auto out = Run(g, {{sq, 0}});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 25.0f);
}

TEST_F(ExecutorTest, PlaceholderFeeding) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* twice = g.AddNode("Add", {x, x});
  const auto out = Run(g, {{twice, 0}}, {{"x", Tensor::Scalar(21)}});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 42.0f);
}

TEST_F(ExecutorTest, MissingFeedThrows) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  EXPECT_THROW(Run(g, {x}), InvalidArgument);
}

TEST_F(ExecutorTest, WrongArgumentCountThrows) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* twice = g.AddNode("Add", {x, x});
  const auto plan = ExecutionPlan::Build(
      g, std::vector<NodeOutput>{{twice, 0}}, std::vector<Node*>{x.node});
  Executor executor(nullptr, &variables_, &host_, &rng_);
  EXPECT_THROW(executor.Run(*plan, {}), InvalidArgument);
  EXPECT_THROW(executor.Run(*plan, std::vector<Tensor>{Tensor::Scalar(1),
                                                       Tensor::Scalar(2)}),
               InvalidArgument);
  EXPECT_FLOAT_EQ(
      executor.Run(*plan, std::vector<Tensor>{Tensor::Scalar(21)})[0]
          .ScalarValue(),
      42.0f);
}

TEST_F(ExecutorTest, MultipleFetches) {
  Graph g;
  const NodeOutput a = g.Constant(Tensor::Scalar(2));
  Node* neg = g.AddNode("Neg", {a});
  Node* sq = g.AddNode("Square", {a});
  const auto out = Run(g, {{neg, 0}, {sq, 0}});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), -2.0f);
  EXPECT_FLOAT_EQ(out[1].ScalarValue(), 4.0f);
}

TEST_F(ExecutorTest, DiamondDependency) {
  Graph g;
  const NodeOutput x = g.Constant(Tensor::Scalar(3));
  Node* left = g.AddNode("Square", {x});
  Node* right = g.AddNode("Neg", {x});
  Node* join = g.AddNode("Add", {{left, 0}, {right, 0}});
  const auto out = Run(g, {{join, 0}});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 6.0f);
}

// A 128x128 input `x` feeding `branches` independent MatMul pairs joined by
// AddN: every kernel costs far more than a pool handoff, so once the plan
// is calibrated its runs fan out.
NodeOutput BuildMatMulFanOut(Graph& g, NodeOutput x, int branches) {
  std::vector<NodeOutput> ends;
  for (int i = 0; i < branches; ++i) {
    const NodeOutput w =
        g.Constant(Tensor::Full(Shape{128, 128}, 0.01f * (i + 1)));
    Node* first = g.AddNode("MatMul", {x, w});
    ends.push_back({g.AddNode("MatMul", {{first, 0}, w}), 0});
  }
  return {g.AddNode("AddN", ends), 0};
}

std::vector<float> Ramp(int n) {
  std::vector<float> values(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) values[static_cast<std::size_t>(i)] = (i % 7) * 0.1f;
  return values;
}

TEST_F(ExecutorTest, ParallelDagMatchesSequential) {
  Graph g;
  const std::vector<NodeOutput> fetches{
      BuildMatMulFanOut(g, g.Placeholder("x", DType::kFloat32), 8)};
  const auto plan = PlanOverPlaceholders(g, fetches);
  const std::vector<Tensor> args{
      Tensor::FromVector(Ramp(128 * 128), Shape{128, 128})};

  Executor seq(nullptr, &variables_, &host_, &rng_);
  const auto expected = seq.Run(*plan, args);

  ThreadPool pool(4);
  Executor par(nullptr, &variables_, &host_, &rng_, {true, &pool});
  // The untimed first run and at least one timed run stay on the calling
  // thread; once calibration ends this heavy plan fans out.
  constexpr int kMaxCalibration = 1 + PoolDecision::kCalibrationRuns;
  for (int run = 0; run < kMaxCalibration + 2; ++run) {
    RunMetrics metrics;
    const auto got = par.Run(*plan, args, &metrics);
    EXPECT_TRUE(got[0].ElementsEqual(expected[0])) << "run " << run;
    if (run < 2) {
      EXPECT_EQ(metrics.offloaded_nodes, 0) << "calibration run " << run;
    } else if (run >= kMaxCalibration) {
      EXPECT_GT(metrics.offloaded_nodes, 0)
          << "heavy fan-out never left the calling thread in run " << run;
    }
  }
}

TEST_F(ExecutorTest, CheapFanOutStaysOnCallingThread) {
  // 16 independent sub-microsecond Negs joined by AddN, unfused: as wide as
  // the heavy fan-out above, but its mean node cost is far below a
  // handoff, so every run stays on the caller.
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  std::vector<NodeOutput> branches;
  for (int i = 0; i < 16; ++i) branches.push_back({g.AddNode("Neg", {x}), 0});
  const std::vector<NodeOutput> fetches{{g.AddNode("AddN", branches), 0}};
  const std::vector<Tensor> args{Tensor::Scalar(3)};
  const auto plan = ExecutionPlan::Build(
      g, fetches, std::vector<Node*>{x.node}, {.enable_fusion = false});
  // The premise is a build where these nodes are far below a handoff;
  // sanitizer builds can make every node cost microseconds.
  Executor seq(nullptr, &variables_, &host_, &rng_);
  std::int64_t fastest_ns = std::numeric_limits<std::int64_t>::max();
  for (int run = 0; run < 3; ++run) {
    const auto start = std::chrono::steady_clock::now();
    seq.Run(*plan, args);
    fastest_ns = std::min<std::int64_t>(
        fastest_ns, std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count());
  }
  const auto nodes = static_cast<std::int64_t>(plan->nodes().size());
  if (fastest_ns / nodes > PoolDecision::kPoolHandoffNs / 4) {
    GTEST_SKIP() << "nodes cost " << fastest_ns / nodes
                 << " ns each in this build";
  }
  ThreadPool pool(4);
  Executor par(nullptr, &variables_, &host_, &rng_, {true, &pool});
  for (int run = 0; run < 1 + PoolDecision::kCalibrationRuns + 2; ++run) {
    RunMetrics metrics;
    const auto got = par.Run(*plan, args, &metrics);
    EXPECT_FLOAT_EQ(got[0].ScalarValue(), -48.0f);
    EXPECT_EQ(metrics.ops_executed, 17);
    EXPECT_EQ(metrics.offloaded_nodes, 0) << "run " << run;
  }
}

TEST_F(ExecutorTest, ParallelDagPropagatesException) {
  // A heavy fan-out with an Assert and a staged AssignVariable anchored to
  // the fetch. After clean calibration runs the plan fans out; a run whose
  // Assert fails must rethrow that error, finish, and commit nothing.
  variables_.Assign("v", Tensor::Scalar(0));
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput sum = BuildMatMulFanOut(g, x, 8);
  const NodeOutput ok = g.Placeholder("ok", DType::kBool);
  Node* check = g.AddNode("Assert", {ok}, {{"assumption", std::string("ok")}});
  const NodeOutput v_new = g.Placeholder("v_new", DType::kFloat32);
  Node* assign =
      g.AddNode("AssignVariable", {v_new}, {{"var", std::string("v")}});
  Node* out = g.AddNode("Identity", {sum});
  out->AddControlInput(check);
  out->AddControlInput(assign);
  const std::vector<NodeOutput> fetches{{out, 0}};
  const auto plan = ExecutionPlan::Build(
      g, fetches, std::vector<Node*>{x.node, ok.node, v_new.node});
  const Tensor x_value = Tensor::FromVector(Ramp(128 * 128), Shape{128, 128});
  const auto args = [&x_value](bool assumption, float v) {
    return std::vector<Tensor>{x_value, Tensor::ScalarBool(assumption),
                               Tensor::Scalar(v)};
  };

  ThreadPool pool(4);
  Executor par(nullptr, &variables_, &host_, &rng_, {true, &pool});
  constexpr int kMaxCalibration = 1 + PoolDecision::kCalibrationRuns;
  for (int run = 0; run < kMaxCalibration; ++run) {
    par.Run(*plan, args(true, static_cast<float>(run + 1)));
  }
  ASSERT_FLOAT_EQ(variables_.Read("v").ScalarValue(), kMaxCalibration);

  for (int attempt = 0; attempt < 3; ++attempt) {
    try {
      par.Run(*plan, args(false, 99));
      FAIL() << "expected AssumptionFailed";
    } catch (const AssumptionFailed& e) {
      EXPECT_EQ(e.assumption_id(), "ok");
    }
    EXPECT_FLOAT_EQ(variables_.Read("v").ScalarValue(), kMaxCalibration)
        << "failed run committed its staged assignment";
  }

  // The plan still fans out cleanly afterwards.
  RunMetrics metrics;
  par.Run(*plan, args(true, 3), &metrics);
  EXPECT_GT(metrics.offloaded_nodes, 0);
  EXPECT_FLOAT_EQ(variables_.Read("v").ScalarValue(), 3.0f);
}

TEST_F(ExecutorTest, DeepUnfusedChainRunsWithPool) {
  // Scheduling is iterative on every path: a 200k-node chain must not
  // overflow the stack, whether calibrating or after the decision.
  constexpr int kDepth = 200000;
  Graph g;
  NodeOutput v = g.Constant(Tensor::Scalar(1.5f));
  for (int i = 0; i < kDepth; ++i) v = {g.AddNode("Neg", {v}), 0};
  const auto plan = ExecutionPlan::Build(g, std::vector<NodeOutput>{v}, {},
                                         {.enable_fusion = false});
  ASSERT_EQ(plan->nodes().size(), static_cast<std::size_t>(kDepth + 1));
  ThreadPool pool(4);
  Executor par(nullptr, &variables_, &host_, &rng_, {true, &pool});
  for (int run = 0; run < 3; ++run) {
    RunMetrics metrics;
    const auto got = par.Run(*plan, {}, &metrics);
    EXPECT_FLOAT_EQ(got[0].ScalarValue(), 1.5f) << "run " << run;
    EXPECT_EQ(metrics.ops_executed, kDepth);
    // A chain readies one node at a time: nothing to hand off.
    EXPECT_EQ(metrics.offloaded_nodes, 0);
  }
}

TEST_F(ExecutorTest, EmptyPlanRunsWithPool) {
  // Zero nodes calibrate to zero cost, which is not below zero handoffs:
  // the plan fans out, and the fan-out must return without a node to
  // count off.
  Graph g;
  const auto plan = ExecutionPlan::Build(g, std::vector<NodeOutput>{}, {});
  ASSERT_TRUE(plan->nodes().empty());
  ThreadPool pool(2);
  Executor par(nullptr, &variables_, &host_, &rng_, {true, &pool});
  for (int run = 0; run < 1 + PoolDecision::kCalibrationRuns + 2; ++run) {
    EXPECT_TRUE(par.Run(*plan, {}).empty()) << "run " << run;
  }
}

TEST_F(ExecutorTest, ControlDependencyOrdersExecution) {
  // AssignVariable must run before ReadVariable via a control edge: since
  // assignments are staged, the read sees the staged value.
  variables_.Assign("v", Tensor::Scalar(1));
  Graph g;
  const NodeOutput ten = g.Constant(Tensor::Scalar(10));
  Node* assign = g.AddNode("AssignVariable", {ten}, {{"var", std::string("v")}});
  Node* read = g.AddNode("ReadVariable", {}, {{"var", std::string("v")}});
  read->AddControlInput(assign);
  const auto out = Run(g, {{read, 0}});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 10.0f);
  // And the commit wrote the store.
  EXPECT_FLOAT_EQ(variables_.Read("v").ScalarValue(), 10.0f);
}

// ---- Control flow: Switch/Merge conditional ----

// Builds cond ? (x*3) : (x+100) with Switch/Merge primitives.
struct CondGraph {
  Graph g;
  NodeOutput pred, x;
  Node* merge;
};

CondGraph BuildCond() {
  CondGraph c;
  c.pred = c.g.Placeholder("pred", DType::kBool);
  c.x = c.g.Placeholder("x", DType::kFloat32);
  Node* sw = c.g.AddNode("Switch", {c.x, c.pred}, {}, 2);
  // output 1 = true branch, output 0 = false branch.
  Node* times3 =
      c.g.AddNode("Mul", {{sw, 1}, c.g.Constant(Tensor::Scalar(3))});
  Node* plus100 =
      c.g.AddNode("Add", {{sw, 0}, c.g.Constant(Tensor::Scalar(100))});
  c.merge = c.g.AddNode("Merge", {{times3, 0}, {plus100, 0}}, {}, 2);
  return c;
}

TEST_F(ExecutorTest, SwitchMergeTrueBranch) {
  CondGraph c = BuildCond();
  const auto out = Run(c.g, {{c.merge, 0}},
                       {{"pred", Tensor::ScalarBool(true)},
                        {"x", Tensor::Scalar(5)}});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 15.0f);
}

TEST_F(ExecutorTest, SwitchMergeFalseBranch) {
  CondGraph c = BuildCond();
  const auto out = Run(c.g, {{c.merge, 0}},
                       {{"pred", Tensor::ScalarBool(false)},
                        {"x", Tensor::Scalar(5)}});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 105.0f);
}

TEST_F(ExecutorTest, MergeReportsTakenIndex) {
  CondGraph c = BuildCond();
  const auto out = Run(c.g, {{c.merge, 1}},
                       {{"pred", Tensor::ScalarBool(false)},
                        {"x", Tensor::Scalar(5)}});
  EXPECT_EQ(out[0].ScalarIntValue(), 1);  // second Merge input won
}

TEST_F(ExecutorTest, DeadBranchKernelsNotExecuted) {
  // The untaken branch must not run its kernels: put an Assert(false) there.
  Graph g;
  const NodeOutput pred = g.Placeholder("pred", DType::kBool);
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* sw = g.AddNode("Switch", {x, pred}, {}, 2);
  const NodeOutput fail_const = g.Constant(Tensor::ScalarBool(false));
  Node* poison = g.AddNode("Assert", {fail_const},
                           {{"assumption", std::string("poison")}});
  // Tie the poison op into the false branch via a control edge so it is only
  // reachable (live) when the false branch is taken.
  Node* false_side = g.AddNode("Identity", {{sw, 0}});
  poison->AddControlInput(false_side);
  Node* true_side = g.AddNode("Identity", {{sw, 1}});
  Node* merge = g.AddNode("Merge", {{true_side, 0}, {poison, 0}}, {}, 2);
  // True path: poison is dead, execution succeeds.
  const auto out = Run(g, {{merge, 0}},
                       {{"pred", Tensor::ScalarBool(true)},
                        {"x", Tensor::Scalar(1)}});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 1.0f);
}

TEST_F(ExecutorTest, NestedConditionalInsideUntakenBranch) {
  // outer ? (inner ? x * 3 : x + 100) : -x
  Graph g;
  const NodeOutput outer = g.Placeholder("outer", DType::kBool);
  const NodeOutput inner = g.Placeholder("inner", DType::kBool);
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* outer_sw = g.AddNode("Switch", {x, outer}, {}, 2);
  Node* inner_sw = g.AddNode("Switch", {{outer_sw, 1}, inner}, {}, 2);
  Node* times3 =
      g.AddNode("Mul", {{inner_sw, 1}, g.Constant(Tensor::Scalar(3))});
  Node* plus100 =
      g.AddNode("Add", {{inner_sw, 0}, g.Constant(Tensor::Scalar(100))});
  Node* inner_merge = g.AddNode("Merge", {{times3, 0}, {plus100, 0}}, {}, 2);
  Node* neg = g.AddNode("Neg", {{outer_sw, 0}});
  Node* outer_merge =
      g.AddNode("Merge", {{inner_merge, 0}, {neg, 0}}, {}, 2);
  const auto feeds = [](bool outer_taken, bool inner_taken) {
    return std::map<std::string, Tensor>{
        {"outer", Tensor::ScalarBool(outer_taken)},
        {"inner", Tensor::ScalarBool(inner_taken)},
        {"x", Tensor::Scalar(5)}};
  };
  Executor executor(nullptr, &variables_, &host_, &rng_);

  // The inner Switch, both inner arms and the inner Merge are dead: only
  // the Neg runs.
  RunMetrics metrics;
  const auto out = RunGraph(
      executor, g, feeds(false, true),
      std::vector<NodeOutput>{{outer_merge, 0}, {outer_merge, 1}}, &metrics);
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), -5.0f);
  EXPECT_EQ(out[1].ScalarIntValue(), 1);
  EXPECT_EQ(metrics.ops_executed, 1);

  EXPECT_FLOAT_EQ(
      Run(g, {{outer_merge, 0}}, feeds(true, false))[0].ScalarValue(),
      105.0f);
  EXPECT_FLOAT_EQ(
      Run(g, {{outer_merge, 0}}, feeds(true, true))[0].ScalarValue(), 15.0f);

  // Fetching the untaken inner arm, or the inner Merge when the outer
  // branch is not taken, is an error rather than a value.
  EXPECT_THROW(Run(g, {{plus100, 0}}, feeds(true, true)), InternalError);
  EXPECT_THROW(Run(g, {{inner_merge, 0}}, feeds(false, true)),
               InternalError);
}

TEST_F(ExecutorTest, ConditionalPlanFansOut) {
  // The heavy fan-out on the taken side of a Switch and a Neg on the other:
  // a conditional plan calibrates, fans out and releases dead
  // intermediates like any other plan.
  Graph g;
  const NodeOutput pred = g.Placeholder("pred", DType::kBool);
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* sw = g.AddNode("Switch", {x, pred}, {}, 2);
  const NodeOutput taken = BuildMatMulFanOut(g, {sw, 1}, 8);
  Node* untaken = g.AddNode("Neg", {{sw, 0}});
  Node* merge = g.AddNode("Merge", {taken, {untaken, 0}}, {}, 2);
  const std::vector<NodeOutput> fetches{{merge, 0}};
  const auto plan =
      ExecutionPlan::Build(g, fetches, std::vector<Node*>{pred.node, x.node});
  std::vector<Tensor> args{
      Tensor::ScalarBool(true),
      Tensor::FromVector(Ramp(128 * 128), Shape{128, 128})};

  Executor seq(nullptr, &variables_, &host_, &rng_);
  const auto expected = seq.Run(*plan, args);

  ThreadPool pool(4);
  Executor par(nullptr, &variables_, &host_, &rng_, {true, &pool});
  constexpr int kMaxCalibration = 1 + PoolDecision::kCalibrationRuns;
  for (int run = 0; run < kMaxCalibration + 2; ++run) {
    RunMetrics metrics;
    const auto got = par.Run(*plan, args, &metrics);
    EXPECT_TRUE(got[0].ElementsEqual(expected[0])) << "run " << run;
    EXPECT_EQ(metrics.ops_executed, 17) << "run " << run;  // 16 MatMul, AddN
    EXPECT_GT(metrics.buffers_released, 0) << "run " << run;
    if (run >= kMaxCalibration) {
      EXPECT_GT(metrics.offloaded_nodes, 0)
          << "heavy taken branch never left the calling thread in run "
          << run;
    }
  }

  args[0] = Tensor::ScalarBool(false);
  RunMetrics metrics;
  const auto got = par.Run(*plan, args, &metrics);
  EXPECT_TRUE(got[0].ElementsEqual(seq.Run(*plan, args)[0]));
  EXPECT_EQ(metrics.ops_executed, 1);
}

// ---- Invoke: function calls and recursion ----

TEST_F(ExecutorTest, InvokeSimpleFunction) {
  auto fn = std::make_unique<GraphFunction>();
  fn->name = "double";
  Node* p = fn->graph.AddNode("Param", {}, {{"index", std::int64_t{0}}});
  Node* d = fn->graph.AddNode("Add", {{p, 0}, {p, 0}});
  fn->parameters = {p};
  fn->results = {{d, 0}};
  library_.Register(std::move(fn));

  Graph g;
  const NodeOutput x = g.Constant(Tensor::Scalar(4));
  Node* call = g.AddNode("Invoke", {x}, {{"function", std::string("double")}});
  const auto out = Run(g, {{call, 0}});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 8.0f);
}

TEST_F(ExecutorTest, InvokeWithWrongArgumentCountThrows) {
  auto fn = std::make_unique<GraphFunction>();
  fn->name = "double";
  Node* p = fn->graph.AddNode("Param", {}, {{"index", std::int64_t{0}}});
  Node* d = fn->graph.AddNode("Add", {{p, 0}, {p, 0}});
  fn->parameters = {p};
  fn->results = {{d, 0}};
  library_.Register(std::move(fn));

  Graph g;
  const NodeOutput x = g.Constant(Tensor::Scalar(4));
  Node* call =
      g.AddNode("Invoke", {x, x}, {{"function", std::string("double")}});
  EXPECT_THROW(Run(g, {{call, 0}}), InvalidArgument);
}

TEST_F(ExecutorTest, InvokeOfFunctionWithoutPlanThrows) {
  Graph g;
  const NodeOutput x = g.Constant(Tensor::Scalar(4));
  Node* call =
      g.AddNode("Invoke", {x}, {{"function", std::string("missing")}});
  EXPECT_THROW(Run(g, {{call, 0}}), InvalidArgument);
}

TEST_F(ExecutorTest, InvokeRecursiveFactorial) {
  // fact(n) = n <= 1 ? 1 : n * fact(n-1), with Switch/Merge inside the
  // function body and a recursive Invoke.
  auto fn = std::make_unique<GraphFunction>();
  fn->name = "fact";
  Graph& fg = fn->graph;
  Node* n = fg.AddNode("Param", {}, {{"index", std::int64_t{0}}});
  Node* one = fg.AddNode("Const", {}, {{"value", Tensor::ScalarInt(1)}});
  Node* le = fg.AddNode("LessEqual", {{n, 0}, {one, 0}});
  Node* sw = fg.AddNode("Switch", {{n, 0}, {le, 0}}, {}, 2);
  // Base case (true side): 1.
  Node* base = fg.AddNode("OnesLike", {{sw, 1}});
  // Recursive case (false side): n * fact(n - 1).
  Node* nm1 = fg.AddNode("Sub", {{sw, 0}, {one, 0}});
  Node* rec = fg.AddNode("Invoke", {{nm1, 0}},
                         {{"function", std::string("fact")}});
  Node* prod = fg.AddNode("Mul", {{sw, 0}, {rec, 0}});
  Node* merge = fg.AddNode("Merge", {{base, 0}, {prod, 0}}, {}, 2);
  fn->parameters = {n};
  fn->results = {{merge, 0}};
  library_.Register(std::move(fn));

  Graph g;
  const NodeOutput five = g.Constant(Tensor::ScalarInt(5));
  Node* call = g.AddNode("Invoke", {five}, {{"function", std::string("fact")}});
  const auto out = Run(g, {{call, 0}});
  EXPECT_EQ(out[0].ScalarIntValue(), 120);
}

// ---- Functional While ----

TEST_F(ExecutorTest, FunctionalWhileRunsBodyUntilCondFalse) {
  // carried: (i, acc); captures: (n). body: (i+1, acc*2).
  auto cond = std::make_unique<GraphFunction>();
  cond->name = "w_cond";
  {
    Graph& cg = cond->graph;
    Node* i = cg.AddNode("Param", {}, {{"index", std::int64_t{0}}});
    Node* acc = cg.AddNode("Param", {}, {{"index", std::int64_t{1}}});
    Node* n = cg.AddNode("Param", {}, {{"index", std::int64_t{2}}});
    (void)acc;
    Node* lt = cg.AddNode("Less", {{i, 0}, {n, 0}});
    cond->parameters = {i, acc, n};
    cond->results = {{lt, 0}};
  }
  library_.Register(std::move(cond));

  auto body = std::make_unique<GraphFunction>();
  body->name = "w_body";
  {
    Graph& bg = body->graph;
    Node* i = bg.AddNode("Param", {}, {{"index", std::int64_t{0}}});
    Node* acc = bg.AddNode("Param", {}, {{"index", std::int64_t{1}}});
    Node* n = bg.AddNode("Param", {}, {{"index", std::int64_t{2}}});
    (void)n;
    Node* one = bg.AddNode("Const", {}, {{"value", Tensor::ScalarInt(1)}});
    Node* ip1 = bg.AddNode("Add", {{i, 0}, {one, 0}});
    Node* two = bg.AddNode("Const", {}, {{"value", Tensor::Scalar(2)}});
    Node* acc2 = bg.AddNode("Mul", {{acc, 0}, {two, 0}});
    body->parameters = {i, acc, n};
    body->results = {{ip1, 0}, {acc2, 0}};
  }
  library_.Register(std::move(body));

  Graph g;
  const NodeOutput i0 = g.Constant(Tensor::ScalarInt(0));
  const NodeOutput acc0 = g.Constant(Tensor::Scalar(1));
  const NodeOutput n = g.Placeholder("n", DType::kInt64);
  Node* loop = g.AddNode("While", {i0, acc0, n},
                         {{"cond_fn", std::string("w_cond")},
                          {"body_fn", std::string("w_body")},
                          {"num_carried", std::int64_t{2}}},
                         2);
  const auto out =
      Run(g, {{loop, 1}}, {{"n", Tensor::ScalarInt(10)}});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 1024.0f);
}

// ---- Assertions and deferred state ----

TEST_F(ExecutorTest, AssertPassesThrough) {
  Graph g;
  const NodeOutput t = g.Constant(Tensor::ScalarBool(true));
  Node* a = g.AddNode("Assert", {t}, {{"assumption", std::string("ok")}});
  const auto out = Run(g, {{a, 0}});
  EXPECT_TRUE(out[0].ScalarBoolValue());
}

TEST_F(ExecutorTest, AssertFailureThrowsWithAssumptionId) {
  Graph g;
  const NodeOutput f = g.Constant(Tensor::ScalarBool(false));
  Node* a = g.AddNode("Assert", {f}, {{"assumption", std::string("shape:x")}});
  try {
    Run(g, {{a, 0}});
    FAIL() << "expected AssumptionFailed";
  } catch (const AssumptionFailed& e) {
    EXPECT_EQ(e.assumption_id(), "shape:x");
  }
}

TEST_F(ExecutorTest, FailedRunCommitsNothing) {
  // A variable assignment stages before the assert fails; the store must be
  // untouched afterwards (all-or-nothing, paper §3.2).
  variables_.Assign("w", Tensor::Scalar(1));
  host_.attrs[{7, "state"}] = Tensor::Scalar(5);
  Graph g;
  const NodeOutput v = g.Constant(Tensor::Scalar(99));
  Node* assign =
      g.AddNode("AssignVariable", {v}, {{"var", std::string("w")}});
  const NodeOutput obj = g.Constant(Tensor::ScalarInt(7));
  Node* setattr = g.AddNode("PySetAttr", {obj, v},
                            {{"attr", std::string("state")}});
  const NodeOutput f = g.Constant(Tensor::ScalarBool(false));
  Node* assert_node =
      g.AddNode("Assert", {f}, {{"assumption", std::string("a")}});
  assert_node->AddControlInput(assign);
  assert_node->AddControlInput(setattr);
  EXPECT_THROW(Run(g, {{assert_node, 0}}), AssumptionFailed);
  EXPECT_FLOAT_EQ(variables_.Read("w").ScalarValue(), 1.0f);
  EXPECT_FLOAT_EQ(host_.attrs.at({7, "state"}).ScalarValue(), 5.0f);
  EXPECT_TRUE(host_.writes.empty());
}

TEST_F(ExecutorTest, PyAttrLocalCopySemantics) {
  // Fig. 5: a write followed by a read inside one run sees the local copy;
  // the host heap is written exactly once, at commit.
  host_.attrs[{11, "state"}] = Tensor::Scalar(1);
  Graph g;
  const NodeOutput obj = g.Constant(Tensor::ScalarInt(11));
  const NodeOutput v = g.Constant(Tensor::Scalar(42));
  Node* set = g.AddNode("PySetAttr", {obj, v}, {{"attr", std::string("state")}});
  Node* get = g.AddNode("PyGetAttr", {obj}, {{"attr", std::string("state")}});
  get->AddControlInput(set);
  const auto out = Run(g, {{get, 0}});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 42.0f);  // read saw local copy
  EXPECT_TRUE(host_.reads.empty());              // host read bypassed
  EXPECT_EQ(host_.writes.size(), 1u);            // single commit write
  EXPECT_FLOAT_EQ(host_.attrs.at({11, "state"}).ScalarValue(), 42.0f);
}

TEST_F(ExecutorTest, PySubscrStagedAndCommitted) {
  host_.subscrs[{3, 0}] = Tensor::Scalar(10);
  Graph g;
  const NodeOutput obj = g.Constant(Tensor::ScalarInt(3));
  const NodeOutput idx = g.Constant(Tensor::ScalarInt(0));
  Node* get = g.AddNode("PyGetSubscr", {obj, idx});
  Node* doubled = g.AddNode("Add", {{get, 0}, {get, 0}});
  Node* set = g.AddNode("PySetSubscr", {obj, idx, {doubled, 0}});
  const auto out = Run(g, {{set, 0}});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 20.0f);
  EXPECT_FLOAT_EQ(host_.subscrs.at({3, 0}).ScalarValue(), 20.0f);
}

TEST_F(ExecutorTest, ApplySGDUpdatesVariableAtCommit) {
  variables_.Assign("w", Tensor::FromVector({1, 2}, Shape{2}));
  Graph g;
  const NodeOutput grad = g.Constant(Tensor::FromVector({10, 10}, Shape{2}));
  const NodeOutput lr = g.Constant(Tensor::Scalar(0.1f));
  Node* sgd = g.AddNode("ApplySGD", {grad, lr}, {{"var", std::string("w")}});
  Run(g, {{sgd, 0}});
  const auto w = variables_.Read("w").data<float>();
  EXPECT_FLOAT_EQ(w[0], 0.0f);
  EXPECT_FLOAT_EQ(w[1], 1.0f);
}

TEST_F(ExecutorTest, ReadVariableSeesStagedWrite) {
  variables_.Assign("v", Tensor::Scalar(1));
  Graph g;
  const NodeOutput c = g.Constant(Tensor::Scalar(5));
  Node* assign = g.AddNode("AssignVariable", {c}, {{"var", std::string("v")}});
  Node* read = g.AddNode("ReadVariable", {}, {{"var", std::string("v")}});
  read->AddControlInput(assign);
  Node* plus = g.AddNode("Add", {{read, 0}, c});
  const auto out = Run(g, {{plus, 0}});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 10.0f);
}

TEST_F(ExecutorTest, OpsExecutedCounter) {
  Graph g;
  const NodeOutput a = g.Constant(Tensor::Scalar(1));
  Node* n1 = g.AddNode("Neg", {a});
  Node* n2 = g.AddNode("Neg", {{n1, 0}});
  RunMetrics metrics;
  Executor executor(nullptr, &variables_, &host_, &rng_);
  RunGraph(executor, g, {}, std::vector<NodeOutput>{{n2, 0}}, &metrics);
  EXPECT_EQ(metrics.ops_executed, 2);  // Const resolves without a kernel
}

TEST_F(ExecutorTest, RandomOpsDeterministicPerSeed) {
  Graph g;
  Node* r1 = g.AddNode("RandomNormal", {},
                       {{"shape", std::vector<std::int64_t>{4}},
                        {"mean", 0.0},
                        {"stddev", 1.0}});
  Rng rng_a(9);
  Rng rng_b(9);
  Executor ex_a(nullptr, &variables_, &host_, &rng_a);
  Executor ex_b(nullptr, &variables_, &host_, &rng_b);
  const std::vector<NodeOutput> fetches{{r1, 0}};
  const auto a = RunGraph(ex_a, g, {}, fetches);
  const auto b = RunGraph(ex_b, g, {}, fetches);
  EXPECT_TRUE(a[0].ElementsEqual(b[0]));
}

TEST_F(ExecutorTest, UnknownOpThrows) {
  Graph g;
  const NodeOutput c = g.Constant(Tensor::Scalar(1));
  Node* bad = g.AddNode("NoSuchOp", {c});
  EXPECT_THROW(Run(g, {{bad, 0}}), InvalidArgument);
}

}  // namespace
}  // namespace janus
