// Tests for the plan/unit verifier (src/verify): clean plans pass, every
// catalogued seeded corruption is diagnosed with its named invariant plus a
// node attribution, the unit-level checks (captures, dtype, ladder
// consistency) catch hand-built violations with distinct diagnostics, and
// the auto-run hook rejects bad plans only when verification is enabled.
#include "verify/plan_verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/compiled_graph.h"
#include "runtime/fusion.h"
#include "verify/corruption.h"
#include "verify/unit_verifier.h"

namespace janus {
namespace verify {
namespace {

// A built (graph, plan) pair; the graph must outlive the plan. Node
// pointers survive the Graph move (nodes are heap-allocated).
struct Built {
  Graph g;
  std::vector<NodeOutput> fetches;
  std::shared_ptr<const ExecutionPlan> plan;
};

// Diamond DAG without fusable chains: x -> {Square, Transpose} -> MatMul.
// Built with fusion off so the corruption tests see plain kernel nodes.
// MatMul also waits on Square through a control edge (redundant with its
// data edge), so the control-edge entries have a target.
Built BuildPlainDag() {
  Built b;
  const NodeOutput x = b.g.Placeholder("x", DType::kFloat32);
  Node* sq = b.g.AddNode("Square", {x});
  Node* tr = b.g.AddNode("Transpose", {x});
  Node* mm = b.g.AddNode("MatMul", {{sq, 0}, {tr, 0}});
  mm->AddControlInput(sq);
  b.fetches = {{mm, 0}};
  b.plan = ExecutionPlan::Build(b.g, b.fetches, std::vector<Node*>{x.node},
                                PlanOptions{.enable_fusion = false});
  return b;
}

// Six-Add elementwise chain that fuses into one region (fusion_test.cc),
// followed by a non-fusable consumer so the plan keeps a kernel node
// outside the region (the out-of-region rewiring corruption needs one).
Built BuildFusedDag() {
  Built b;
  const NodeOutput x = b.g.Placeholder("x", DType::kFloat32);
  const NodeOutput one = b.g.Constant(Tensor::Full(Shape{8, 8}, 1.0f));
  NodeOutput v = x;
  for (int i = 0; i < 6; ++i) v = {b.g.AddNode("Add", {v, one}), 0};
  Node* tr = b.g.AddNode("Transpose", {v});
  b.fetches = {{tr, 0}};
  b.plan = ExecutionPlan::Build(b.g, b.fetches, std::vector<Node*>{x.node},
                                PlanOptions{.enable_fusion = true});
  return b;
}

// pred ? x * 3 : x + 100 through Switch/Merge.
Built BuildCond() {
  Built b;
  const NodeOutput pred = b.g.Placeholder("pred", DType::kBool);
  const NodeOutput x = b.g.Placeholder("x", DType::kFloat32);
  Node* sw = b.g.AddNode("Switch", {x, pred}, {}, 2);
  Node* times3 =
      b.g.AddNode("Mul", {{sw, 1}, b.g.Constant(Tensor::Scalar(3))});
  Node* plus100 =
      b.g.AddNode("Add", {{sw, 0}, b.g.Constant(Tensor::Scalar(100))});
  Node* merge = b.g.AddNode("Merge", {{times3, 0}, {plus100, 0}}, {}, 2);
  b.fetches = {{merge, 0}};
  b.plan = ExecutionPlan::Build(b.g, b.fetches,
                                std::vector<Node*>{pred.node, x.node});
  return b;
}

// pred ? Transpose((x + 1) + 1) : x — the two-Add chain on the true arm
// fuses into one region, and its non-fusable consumer stays a kernel node.
Built BuildFusedCond() {
  Built b;
  const NodeOutput pred = b.g.Placeholder("pred", DType::kBool);
  const NodeOutput x = b.g.Placeholder("x", DType::kFloat32);
  const NodeOutput one = b.g.Constant(Tensor::Full(Shape{8, 8}, 1.0f));
  Node* sw = b.g.AddNode("Switch", {x, pred}, {}, 2);
  Node* inc1 = b.g.AddNode("Add", {{sw, 1}, one});
  Node* inc2 = b.g.AddNode("Add", {{inc1, 0}, one});
  Node* tr = b.g.AddNode("Transpose", {{inc2, 0}});
  Node* merge = b.g.AddNode("Merge", {{tr, 0}, {sw, 0}}, {}, 2);
  b.fetches = {{merge, 0}};
  b.plan = ExecutionPlan::Build(b.g, b.fetches,
                                std::vector<Node*>{pred.node, x.node},
                                PlanOptions{.enable_fusion = true});
  return b;
}

// Catalog entries whose target every fixture has: a node with inputs, an
// out-edge, a kernel node, an argument, a fetch, an in-place-capable node.
std::set<std::string> Expected(std::initializer_list<std::string> extra) {
  std::set<std::string> names = {
      "self-loop", "producer-out-of-range", "producer-negative",
      "slot-out-of-range", "edge-drop", "edge-duplicate", "edge-slot-skew",
      "phantom-edge", "pending-undercount", "pending-overcount", "kind-flip",
      "kernel-null", "argument-index-range", "index-skew", "index-erase", "index-out-of-range",
      "fetch-producer-range", "fetch-output-slot-range",
      "fetch-dropped-remap", "liveness-undercount", "liveness-overcount",
      "liveness-fetch-unprotected", "liveness-spurious-protection",
      "inplace-illegal", "inplace-dropped", "memory-size-mismatch",
  };
  names.insert(extra.begin(), extra.end());
  return names;
}

// The fusion.* entries; they apply to any plan with a region of >= 2
// members and a plan node outside it.
const std::vector<std::string> kFusionEntries = {
    "fusion-null-plan", "fusion-drop-root-member", "fusion-reduction-flag",
    "fusion-operand-dangling", "fusion-external-arity",
    "fusion-member-kernel-null", "fusion-out-of-region-consumer",
    "fusion-interior-fetched", "fusion-interior-control",
};

void ExpectApplied(const std::set<std::string>& applied,
                   const std::set<std::string>& expected) {
  for (const std::string& name : expected) {
    EXPECT_TRUE(applied.count(name)) << name << " did not apply";
  }
}

bool HasInvariant(const Report& report, const std::string& invariant) {
  return std::any_of(report.issues.begin(), report.issues.end(),
                     [&invariant](const Issue& issue) {
                       return issue.invariant == invariant;
                     });
}

// Applies every applicable corruption from the catalog against a fresh
// build from `make`, asserting each is diagnosed with its expected
// invariant and that every reported issue carries a node attribution.
// Returns the names of the corruptions that applied.
std::set<std::string> RunCatalog(Built (*make)()) {
  std::set<std::string> applied;
  for (const Corruption& corruption : PlanCorruptions()) {
    Built b = make();
    const Report baseline = VerifyPlan(b.g, *b.plan);
    EXPECT_TRUE(baseline.ok())
        << "baseline not clean for " << corruption.name << ":\n"
        << baseline.ToString();
    if (!baseline.ok()) continue;
    PlanCorruptor corruptor(&b.g, b.plan.get());
    if (!corruption.apply(corruptor)) continue;
    applied.insert(corruption.name);
    const Report report = VerifyPlan(b.g, *b.plan);
    EXPECT_FALSE(report.ok())
        << corruption.name << " was not detected at all";
    EXPECT_TRUE(HasInvariant(report, corruption.expected_invariant))
        << corruption.name << " expected invariant "
        << corruption.expected_invariant << " but got:\n"
        << report.ToString();
    for (const Issue& issue : report.issues) {
      EXPECT_FALSE(issue.node.empty())
          << corruption.name << ": issue without node attribution";
    }
  }
  return applied;
}

// ---- clean plans ----

TEST(VerifyPlanTest, CleanPlainDagPasses) {
  Built b = BuildPlainDag();
  const Report report = VerifyPlan(b.g, *b.plan);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks, 0);
}

TEST(VerifyPlanTest, CleanFusedDagPasses) {
  Built b = BuildFusedDag();
  ASSERT_EQ(b.plan->fused_regions().size(), 1u);
  const Report report = VerifyPlan(b.g, *b.plan);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(VerifyPlanTest, CleanDynPlanPasses) {
  Built b = BuildCond();
  const Report report = VerifyPlan(b.g, *b.plan);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(VerifyPlanTest, CleanFusedDynPlanPasses) {
  Built b = BuildFusedCond();
  ASSERT_EQ(b.plan->fused_regions().size(), 1u);
  const Report report = VerifyPlan(b.g, *b.plan);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// ---- the seeded corruption catalog, over all four fixtures ----

TEST(VerifyPlanTest, PlainDagCorruptionsCaught) {
  ExpectApplied(RunCatalog(&BuildPlainDag),
                Expected({"back-edge", "control-drop"}));
}

TEST(VerifyPlanTest, FusedDagCorruptionsCaught) {
  std::set<std::string> expected = Expected({"back-edge"});
  expected.insert(kFusionEntries.begin(), kFusionEntries.end());
  ExpectApplied(RunCatalog(&BuildFusedDag), expected);
}

TEST(VerifyPlanTest, DynCorruptionsCaught) {
  ExpectApplied(RunCatalog(&BuildCond), Expected({"back-edge"}));
}

TEST(VerifyPlanTest, FusedDynLoopCorruptionsCaught) {
  std::set<std::string> expected = Expected({"back-edge"});
  expected.insert(kFusionEntries.begin(), kFusionEntries.end());
  ExpectApplied(RunCatalog(&BuildFusedCond), expected);
}

TEST(VerifyPlanTest, AtLeastTwentyDistinctCorruptionsCaught) {
  std::set<std::string> all;
  for (Built (*make)() :
       {&BuildPlainDag, &BuildFusedDag, &BuildCond, &BuildFusedCond}) {
    for (const std::string& name : RunCatalog(make)) all.insert(name);
  }
  EXPECT_GE(all.size(), 20u) << "only " << all.size()
                             << " distinct corruptions applied";
  // No catalog entry is dead: each one applies to some fixture.
  EXPECT_EQ(all.size(), PlanCorruptions().size());
}

// The ISSUE's named negative cases must each map to a distinct diagnostic.
TEST(VerifyPlanTest, NamedNegativeCasesHaveDistinctDiagnostics) {
  const std::vector<std::pair<std::string, Built (*)()>> cases = {
      {"back-edge", &BuildPlainDag},               // cycle injection
      {"fetch-dropped-remap", &BuildPlainDag},     // dropped fetch remap
      {"liveness-undercount", &BuildPlainDag},
      {"fusion-out-of-region-consumer", &BuildFusedDag},
  };
  std::set<std::string> invariants;
  for (const auto& [name, make] : cases) {
    const std::vector<Corruption> catalog = PlanCorruptions();
    const auto it = std::find_if(
        catalog.begin(), catalog.end(),
        [&name](const Corruption& c) { return c.name == name; });
    ASSERT_NE(it, catalog.end()) << name;
    Built b = make();
    PlanCorruptor corruptor(&b.g, b.plan.get());
    ASSERT_TRUE(it->apply(corruptor)) << name << " did not apply";
    const Report report = VerifyPlan(b.g, *b.plan);
    EXPECT_TRUE(HasInvariant(report, it->expected_invariant))
        << name << ":\n" << report.ToString();
    invariants.insert(it->expected_invariant);
  }
  // Four cases, four different invariants (dtype mismatch is the fifth,
  // covered at the unit layer below).
  EXPECT_EQ(invariants.size(), cases.size());
}

// ---- unit-level checks (janus_verify_unit) ----

// A minimal, valid compiled unit: y = Square(x) with one tensor capture.
CompiledGraph MakeCleanUnit() {
  CompiledGraph unit;
  const NodeOutput x = unit.graph.Placeholder("x", DType::kFloat32);
  Node* sq = unit.graph.AddNode("Square", {x});
  unit.fetches = {{sq, 0}};
  CaptureSpec capture;
  capture.placeholder_name = "x";
  capture.kind = ObservedKind::kTensor;
  capture.dtype = DType::kFloat32;
  capture.shape = ShapeAssumption::Unknown();
  unit.captures.push_back(capture);
  unit.despecialization_level = 0;
  unit.BuildPlans(false);
  return unit;
}

TEST(VerifyUnitTest, CleanUnitPasses) {
  const CompiledGraph unit = MakeCleanUnit();
  const Report report = VerifyCompiledUnit(unit);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(VerifyUnitTest, CaptureDtypeMismatchCaught) {
  CompiledGraph unit = MakeCleanUnit();
  unit.captures[0].dtype = DType::kInt64;  // placeholder attr says float32
  const Report report = VerifyCompiledUnit(unit);
  EXPECT_TRUE(HasInvariant(report, "unit.capture_dtype"))
      << report.ToString();
}

TEST(VerifyUnitTest, MissingCapturePlaceholderCaught) {
  CompiledGraph unit = MakeCleanUnit();
  unit.captures[0].arg_slot = 5;  // the main plan takes one argument
  const Report report = VerifyCompiledUnit(unit);
  EXPECT_TRUE(HasInvariant(report, "unit.capture_placeholder"))
      << report.ToString();
}

TEST(VerifyUnitTest, CapturesOutOfArgumentOrderCaught) {
  CompiledGraph unit;
  const NodeOutput x = unit.graph.Placeholder("x", DType::kFloat32);
  const NodeOutput y = unit.graph.Placeholder("y", DType::kFloat32);
  unit.fetches = {{unit.graph.AddNode("Sub", {x, y}), 0}};
  for (const char* name : {"x", "y"}) {
    CaptureSpec capture;
    capture.placeholder_name = name;
    unit.captures.push_back(capture);
  }
  unit.BuildPlans(false);
  ASSERT_TRUE(VerifyCompiledUnit(unit).ok());
  // Swapped slots would feed each capture's value to the other's
  // placeholder.
  std::swap(unit.captures[0].arg_slot, unit.captures[1].arg_slot);
  EXPECT_TRUE(HasInvariant(VerifyCompiledUnit(unit), "unit.plan_arguments"));
}

TEST(VerifyUnitTest, FunctionPlanArgumentsMustBeParameters) {
  CompiledGraph unit = MakeCleanUnit();
  auto fn = std::make_unique<GraphFunction>();
  fn->name = "sub";
  Node* a = fn->graph.AddNode("Param", {}, {{"index", std::int64_t{0}}});
  Node* b = fn->graph.AddNode("Param", {}, {{"index", std::int64_t{1}}});
  Node* diff = fn->graph.AddNode("Sub", {{a, 0}, {b, 0}});
  fn->parameters = {a, b};
  fn->results = {{diff, 0}};
  unit.library = std::make_shared<FunctionLibrary>();
  const GraphFunction& registered = unit.library->Register(std::move(fn));
  unit.BuildPlans(false);
  ASSERT_TRUE(VerifyCompiledUnit(unit).ok());
  // A plan that binds the parameters in the wrong order.
  unit.function_plans["sub"] = ExecutionPlan::Build(
      registered.graph, registered.results, std::vector<Node*>{b, a});
  const Report report = VerifyCompiledUnit(unit);
  EXPECT_TRUE(HasInvariant(report, "unit.plan_arguments"))
      << report.ToString();
  // And a table without the function's plan.
  unit.function_plans.clear();
  EXPECT_TRUE(HasInvariant(VerifyCompiledUnit(unit), "unit.function_plans"));
}

TEST(VerifyUnitTest, ShapeAssumptionInconsistentWithLadderCaught) {
  // A level-2 (DropShapes) unit must not pin a shape assumption.
  CompiledGraph unit = MakeCleanUnit();
  unit.despecialization_level = 2;
  unit.captures[0].shape = ShapeAssumption::Exact(Shape{4, 4});
  const Report report = VerifyCompiledUnit(unit);
  EXPECT_TRUE(HasInvariant(report, "unit.shape_level"))
      << report.ToString();
}

TEST(VerifyUnitTest, LadderLevelOutOfRangeCaught) {
  CompiledGraph unit = MakeCleanUnit();
  unit.despecialization_level = 7;
  const Report report = VerifyCompiledUnit(unit);
  EXPECT_TRUE(HasInvariant(report, "unit.ladder_level"))
      << report.ToString();
}

TEST(VerifyUnitTest, MissingMainPlanCaught) {
  CompiledGraph unit = MakeCleanUnit();
  unit.plan = nullptr;
  const Report report = VerifyCompiledUnit(unit);
  EXPECT_TRUE(HasInvariant(report, "unit.plan_missing"))
      << report.ToString();
}

TEST(VerifyUnitTest, DroppedAssertCaught) {
  CompiledGraph unit = MakeCleanUnit();
  unit.num_assert_ops = 5;  // generation claims guards the graph lacks
  const Report report = VerifyCompiledUnit(unit);
  EXPECT_TRUE(HasInvariant(report, "unit.assert_count"))
      << report.ToString();
}

// ---- the auto-run hook ----

class VerifyHookTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetPlanVerifyHook(nullptr);
    SetVerifyEnabledForTesting(-1);
  }
};

TEST_F(VerifyHookTest, HookPassesCleanBuildsAndRejectsCorruptPlans) {
  InstallPlanVerifier();
  SetVerifyEnabledForTesting(1);
  // Clean plans build through the hook without throwing.
  Built b = BuildPlainDag();
  ASSERT_NE(GetPlanVerifyHook(), nullptr);
  EXPECT_NO_THROW(GetPlanVerifyHook()(b.g, *b.plan));
  // A corrupted plan is rejected with the report in the message.
  PlanCorruptor corruptor(&b.g, b.plan.get());
  ASSERT_GT(b.plan->memory().nodes.size(), 0u);
  corruptor.memory().nodes[0].output_reads += 1;
  EXPECT_THROW(GetPlanVerifyHook()(b.g, *b.plan), InternalError);
}

TEST_F(VerifyHookTest, DisabledHookSkipsVerification) {
  InstallPlanVerifier();
  SetVerifyEnabledForTesting(0);
  Built b = BuildPlainDag();
  PlanCorruptor corruptor(&b.g, b.plan.get());
  ASSERT_GT(b.plan->memory().nodes.size(), 0u);
  corruptor.memory().nodes[0].output_reads += 1;
  EXPECT_NO_THROW(GetPlanVerifyHook()(b.g, *b.plan));
}

}  // namespace
}  // namespace verify
}  // namespace janus
