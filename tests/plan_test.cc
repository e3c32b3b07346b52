// Tests for the compile-once ExecutionPlan layer: plan reuse must be
// bit-identical to fresh planning for DAG, Switch/Merge, and nested
// While/Invoke graphs; a plan binds its source nodes to positional
// arguments at build time; nested calls run the function plans built once
// beside the caller's, and the engine builds plans only at generation.
#include "runtime/plan.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "core/engine.h"
#include "frontend/builtins.h"
#include "obs/trace.h"
#include "runtime/executor.h"
#include "tensor/ops.h"

namespace janus {
namespace {

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.dtype(), b.dtype());
  ASSERT_EQ(a.shape().dims(), b.shape().dims());
  const std::size_t bytes =
      static_cast<std::size_t>(a.num_elements()) * DTypeSize(a.dtype());
  const void* pa = nullptr;
  const void* pb = nullptr;
  switch (a.dtype()) {
    case DType::kFloat32:
      pa = a.data<float>().data();
      pb = b.data<float>().data();
      break;
    case DType::kInt64:
      pa = a.data<std::int64_t>().data();
      pb = b.data<std::int64_t>().data();
      break;
    case DType::kBool:
      pa = a.data<bool>().data();
      pb = b.data<bool>().data();
      break;
  }
  EXPECT_EQ(std::memcmp(pa, pb, bytes), 0);
}

class PlanTest : public ::testing::Test {
 protected:
  Executor MakeExecutor() {
    return Executor(&functions_, &variables_, nullptr, &rng_);
  }

  FunctionLibrary library_;
  FunctionPlans functions_;  // built from library_ once it is complete
  VariableStore variables_;
  Rng rng_{42};
};

TEST_F(PlanTest, BuildBindsArgumentsAndRejectsUnboundSources) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  const NodeOutput y = g.Placeholder("y", DType::kFloat32);
  const NodeOutput unused = g.Placeholder("unused", DType::kFloat32);
  Node* diff = g.AddNode("Sub", {x, y});
  const std::vector<NodeOutput> fetches{{diff, 0}};

  // Arguments bind by position, whatever the graph order; an argument the
  // fetches do not need takes a slot and is ignored.
  const auto plan = ExecutionPlan::Build(
      g, fetches, std::vector<Node*>{y.node, unused.node, x.node});
  ASSERT_EQ(plan->arguments().size(), 3u);
  EXPECT_EQ(plan->nodes()[static_cast<std::size_t>(plan->IndexOf(y.node))]
                .arg_index,
            0);
  Executor executor = MakeExecutor();
  const auto out = executor.Run(
      *plan, std::vector<Tensor>{Tensor::Scalar(1), Tensor(),
                                 Tensor::Scalar(5)});
  EXPECT_FLOAT_EQ(out[0].ScalarValue(), 4.0f);

  // A reachable Placeholder that is not an argument.
  EXPECT_THROW(ExecutionPlan::Build(g, fetches, std::vector<Node*>{x.node}),
               InvalidArgument);
  // An argument that is not a source, and one listed twice.
  EXPECT_THROW(ExecutionPlan::Build(
                   g, fetches, std::vector<Node*>{x.node, y.node, diff}),
               InvalidArgument);
  EXPECT_THROW(ExecutionPlan::Build(
                   g, fetches, std::vector<Node*>{x.node, y.node, x.node}),
               InvalidArgument);

  // A function body's reachable Param that is not among its arguments.
  Graph body;
  Node* p0 = body.AddNode("Param", {}, {{"index", std::int64_t{0}}});
  Node* p1 = body.AddNode("Param", {}, {{"index", std::int64_t{1}}});
  Node* sum = body.AddNode("Add", {{p0, 0}, {p1, 0}});
  const std::vector<NodeOutput> results{{sum, 0}};
  EXPECT_THROW(ExecutionPlan::Build(body, results, std::vector<Node*>{p0}),
               InvalidArgument);
  EXPECT_NO_THROW(
      ExecutionPlan::Build(body, results, std::vector<Node*>{p0, p1}));
}

TEST_F(PlanTest, ConditionalPlanKeepsOnlyFetchReachableNodes) {
  // pred ? x * 3 : x + 100 through Switch/Merge. An Exp on the true branch
  // that nothing fetches or anchors is left out of the plan, as a DAG plan
  // would leave it out; an AssignVariable anchored to the fetch by a
  // control edge stays in and commits.
  Graph g;
  const NodeOutput pred = g.Placeholder("pred", DType::kBool);
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* sw = g.AddNode("Switch", {x, pred}, {}, 2);
  Node* times3 = g.AddNode("Mul", {{sw, 1}, g.Constant(Tensor::Scalar(3))});
  Node* plus100 =
      g.AddNode("Add", {{sw, 0}, g.Constant(Tensor::Scalar(100))});
  Node* stray = g.AddNode("Exp", {{sw, 1}});
  Node* merge = g.AddNode("Merge", {{times3, 0}, {plus100, 0}}, {}, 2);
  Node* write = g.AddNode("AssignVariable", {x}, {{"var", std::string("v")}});
  Node* result = g.AddNode("Identity", {{merge, 0}});
  result->AddControlInput(write);
  const std::vector<NodeOutput> fetches{{result, 0}};

  const auto plan = ExecutionPlan::Build(
      g, fetches, std::vector<Node*>{pred.node, x.node});
  EXPECT_EQ(plan->IndexOf(stray), -1);
  EXPECT_GE(plan->IndexOf(write), 0);
  EXPECT_EQ(plan->nodes().size(), g.nodes().size() - 1);

  Executor executor = MakeExecutor();
  for (const bool taken : {true, false}) {
    const float input = taken ? 2.0f : 4.0f;
    const auto out = executor.Run(
        *plan, std::vector<Tensor>{Tensor::ScalarBool(taken),
                                   Tensor::Scalar(input)});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FLOAT_EQ(out[0].ScalarValue(), taken ? 6.0f : 104.0f);
    EXPECT_FLOAT_EQ(variables_.Read("v").ScalarValue(), input);
  }
}

TEST_F(PlanTest, ReusedDagPlanMatchesFreshPlan) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* left = g.AddNode("Square", {x});
  Node* right = g.AddNode("Neg", {x});
  Node* join = g.AddNode("Add", {{left, 0}, {right, 0}});
  const std::vector<NodeOutput> fetches{{join, 0}};
  const std::vector<Node*> params{x.node};
  const std::vector<Tensor> args{
      Tensor::FromVector({1.5f, -2.25f}, Shape{2})};

  Executor executor = MakeExecutor();
  const auto reused = ExecutionPlan::Build(g, fetches, params);
  // Same shared plan dispatched many times vs. a from-scratch plan each run.
  for (int i = 0; i < 3; ++i) {
    const auto fresh = ExecutionPlan::Build(g, fetches, params);
    const auto a = executor.Run(*reused, args);
    const auto b = executor.Run(*fresh, args);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) ExpectBitIdentical(a[j], b[j]);
  }
}

TEST_F(PlanTest, ReusedDynamicPlanMatchesFreshPlan) {
  // pred ? x * 3 : x + 100 through Switch/Merge, fetching the value and the
  // taken index, with both predicate values.
  Graph g;
  const NodeOutput pred = g.Placeholder("pred", DType::kBool);
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* sw = g.AddNode("Switch", {x, pred}, {}, 2);
  Node* times3 = g.AddNode("Mul", {{sw, 1}, g.Constant(Tensor::Scalar(3))});
  Node* plus100 =
      g.AddNode("Add", {{sw, 0}, g.Constant(Tensor::Scalar(100))});
  Node* merge = g.AddNode("Merge", {{times3, 0}, {plus100, 0}}, {}, 2);
  const std::vector<NodeOutput> fetches{{merge, 0}, {merge, 1}};
  const std::vector<Node*> params{pred.node, x.node};
  Executor executor = MakeExecutor();
  const auto reused = ExecutionPlan::Build(g, fetches, params);
  for (const bool taken : {true, false, true, false}) {
    const std::vector<Tensor> args{Tensor::ScalarBool(taken),
                                   Tensor::Scalar(1.5f)};
    const auto fresh = ExecutionPlan::Build(g, fetches, params);
    const auto a = executor.Run(*reused, args);
    const auto b = executor.Run(*fresh, args);
    ASSERT_EQ(a.size(), 2u);
    ASSERT_EQ(b.size(), 2u);
    EXPECT_FLOAT_EQ(a[0].ScalarValue(), taken ? 4.5f : 101.5f);
    EXPECT_EQ(a[1].ScalarIntValue(), taken ? 0 : 1);
    for (std::size_t j = 0; j < a.size(); ++j) ExpectBitIdentical(a[j], b[j]);
  }
}

TEST_F(PlanTest, NestedWhileAndInvokeReusePerFunctionPlans) {
  // carried: (i, acc); captures: (n); body doubles acc via a nested Invoke.
  auto dbl = std::make_unique<GraphFunction>();
  dbl->name = "dbl";
  {
    Node* p = dbl->graph.AddNode("Param", {}, {{"index", std::int64_t{0}}});
    Node* d = dbl->graph.AddNode("Add", {{p, 0}, {p, 0}});
    dbl->parameters = {p};
    dbl->results = {{d, 0}};
  }
  library_.Register(std::move(dbl));

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
    Node* acc2 = bg.AddNode("Invoke", {{acc, 0}},
                            {{"function", std::string("dbl")}});
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
  const std::vector<NodeOutput> fetches{{loop, 1}};
  const std::vector<Node*> params{n.node};
  const std::vector<Tensor> args{Tensor::ScalarInt(10)};

  // Every plan is built up front: the main plan and one per function.
  functions_ = BuildFunctionPlans(library_);
  ASSERT_EQ(functions_.size(), 3u);
  Executor executor = MakeExecutor();
  const auto reused = ExecutionPlan::Build(g, fetches, params);

  // Runs dispatch the While and the nested Invoke through those plans and
  // never build one: a traced run records no plan_build span.
  obs::Trace::Reset();
  obs::Trace::Enable();
  const auto a = executor.Run(*reused, args);
  const auto b = executor.Run(*reused, args);
  obs::Trace::Disable();
  int plan_builds = 0;
  int executed = 0;
  for (const obs::TraceEvent& event : obs::Trace::Collect()) {
    if (event.name == "plan_build") ++plan_builds;
    if (event.name == "execute_plan") ++executed;
  }
  obs::Trace::Reset();
  EXPECT_EQ(plan_builds, 0);
  EXPECT_EQ(executed, 2);
  EXPECT_FLOAT_EQ(a[0].ScalarValue(), 1024.0f);
  ExpectBitIdentical(a[0], b[0]);

  const auto fresh = ExecutionPlan::Build(g, fetches, params);
  const auto c = executor.Run(*fresh, args);
  ExpectBitIdentical(a[0], c[0]);
}

TEST_F(PlanTest, EngineRunsPlanBuiltAtGenerationTime) {
  // End-to-end: after the engine generates a graph, its plan is prebuilt;
  // no subsequent cached-graph execution builds one.
  VariableStore variables;
  Rng rng(1);
  minipy::Interpreter interp(&variables, &rng);
  minipy::InstallBuiltins(interp);
  JanusEngine engine(&interp, EngineOptions{});
  engine.Attach();
  interp.Run(R"(
w = variable('w', constant([[0.5]]))
x = constant([[1.0], [2.0]])
def fn():
    return reduce_mean(matmul(x, w))
for i in range(6):
    optimize(fn, 0.01)
)");
  ASSERT_GT(engine.stats().graph_generations, 0);
  const std::int64_t builds_after_generation = engine.stats().plan_builds;
  const std::int64_t graph_runs_before = engine.stats().graph_executions;
  EXPECT_GT(builds_after_generation, 0);

  for (int i = 0; i < 5; ++i) interp.Run("optimize(fn, 0.01)\n");

  EXPECT_EQ(engine.stats().graph_executions, graph_runs_before + 5);
  // The compile-once guarantee: zero plan construction on the hot path.
  EXPECT_EQ(engine.stats().plan_builds, builds_after_generation);
}

}  // namespace
}  // namespace janus
