// Unit tests for the JANUS core building blocks below the engine level:
// the shape-assumption lattice (Fig. 4), value profiles, the profiler's
// feedback channel, context references, host-state tensor encoding, the
// compiled-graph entry-check machinery, and the DOT exporter.
#include <gtest/gtest.h>

#include "core/assumptions.h"
#include "core/compiled_graph.h"
#include "core/engine.h"
#include "core/host_state.h"
#include "core/profiler.h"
#include "frontend/builtins.h"
#include "graph/dot.h"

namespace janus {
namespace {

// ---- ShapeAssumption lattice ----

TEST(ShapeAssumptionTest, ExactMatchesOnlyThatShape) {
  const auto a = ShapeAssumption::Exact(Shape{4, 8});
  EXPECT_TRUE(a.Matches(Shape{4, 8}));
  EXPECT_FALSE(a.Matches(Shape{3, 8}));
  EXPECT_FALSE(a.Matches(Shape{4, 8, 1}));
  EXPECT_TRUE(a.IsExact());
  EXPECT_EQ(a.ExactShape(), (Shape{4, 8}));
}

TEST(ShapeAssumptionTest, RelaxationWildcardsMismatchedDims) {
  // The Fig. 4 walk: (4,8) observed (3,8) -> (?,8).
  const auto relaxed =
      ShapeAssumption::Exact(Shape{4, 8}).Relaxed(Shape{3, 8});
  EXPECT_TRUE(relaxed.Matches(Shape{3, 8}));
  EXPECT_TRUE(relaxed.Matches(Shape{2, 8}));
  EXPECT_TRUE(relaxed.Matches(Shape{6, 8}));
  EXPECT_FALSE(relaxed.Matches(Shape{4, 7}));
  EXPECT_FALSE(relaxed.IsExact());
  EXPECT_EQ(relaxed.ToString(), "(?, 8)");
}

TEST(ShapeAssumptionTest, RankMismatchCollapsesToUnknown) {
  const auto relaxed =
      ShapeAssumption::Exact(Shape{4, 8}).Relaxed(Shape{4, 8, 1});
  EXPECT_TRUE(relaxed.is_unknown());
  EXPECT_TRUE(relaxed.Matches(Shape{}));
  EXPECT_TRUE(relaxed.Matches(Shape{1, 2, 3, 4}));
}

TEST(ShapeAssumptionTest, RelaxationIsMonotone) {
  // Once a dimension is wildcarded it never re-pins.
  auto a = ShapeAssumption::Exact(Shape{4, 8});
  a = a.Relaxed(Shape{3, 8});
  a = a.Relaxed(Shape{4, 8});  // the original shape reappears
  EXPECT_FALSE(a.IsExact());
  EXPECT_TRUE(a.Matches(Shape{9, 8}));
}

TEST(ShapeAssumptionTest, ScalarShapes) {
  const auto scalar = ShapeAssumption::Exact(Shape{});
  EXPECT_TRUE(scalar.Matches(Shape{}));
  EXPECT_FALSE(scalar.Matches(Shape{1}));
  EXPECT_TRUE(scalar.IsExact());
}

// ---- ValueProfile ----

TEST(ValueProfileTest, StableScalarStaysStable) {
  ValueProfile profile;
  for (int i = 0; i < 5; ++i) {
    profile.Observe(ObservedKind::kInt, DType::kInt64, nullptr, 7.0, "", 0);
  }
  EXPECT_EQ(profile.kind, ObservedKind::kInt);
  EXPECT_TRUE(profile.value_stable);
  EXPECT_EQ(profile.observations, 5);
}

TEST(ValueProfileTest, ChangingValueBreaksStability) {
  ValueProfile profile;
  profile.Observe(ObservedKind::kInt, DType::kInt64, nullptr, 7.0, "", 0);
  profile.Observe(ObservedKind::kInt, DType::kInt64, nullptr, 8.0, "", 0);
  EXPECT_FALSE(profile.value_stable);
  EXPECT_EQ(profile.kind, ObservedKind::kInt);
}

TEST(ValueProfileTest, KindChangeBecomesMixed) {
  ValueProfile profile;
  profile.Observe(ObservedKind::kInt, DType::kInt64, nullptr, 1.0, "", 0);
  profile.Observe(ObservedKind::kString, DType::kInt64, nullptr, 0.0, "x", 0);
  EXPECT_EQ(profile.kind, ObservedKind::kMixed);
}

TEST(ValueProfileTest, TensorShapesRelaxAcrossObservations) {
  ValueProfile profile;
  const Shape s1{4, 8};
  const Shape s2{3, 8};
  profile.Observe(ObservedKind::kTensor, DType::kFloat32, &s1, 0, "", 0);
  EXPECT_TRUE(profile.shape.IsExact());
  profile.Observe(ObservedKind::kTensor, DType::kFloat32, &s2, 0, "", 0);
  EXPECT_FALSE(profile.shape.IsExact());
  EXPECT_TRUE(profile.shape.Matches(Shape{9, 8}));
}

TEST(ValueProfileTest, HeapIdentityTracking) {
  ValueProfile profile;
  profile.Observe(ObservedKind::kObject, DType::kInt64, nullptr, 0, "", 11);
  EXPECT_TRUE(profile.heap_stable);
  profile.Observe(ObservedKind::kObject, DType::kInt64, nullptr, 0, "", 12);
  EXPECT_FALSE(profile.heap_stable);
}

TEST(BranchProfileTest, StabilityAndDirection) {
  BranchProfile branch;
  branch.taken = 5;
  EXPECT_TRUE(branch.Stable());
  EXPECT_TRUE(branch.Direction());
  branch.not_taken = 1;
  EXPECT_FALSE(branch.Stable());
}

TEST(LoopProfileTest, TripCountStability) {
  LoopProfile loop;
  loop.Observe(10);
  loop.Observe(10);
  EXPECT_TRUE(loop.stable);
  EXPECT_EQ(loop.trip_count, 10);
  loop.Observe(11);
  EXPECT_FALSE(loop.stable);
}

// ---- Profiler feedback channel ----

TEST(ProfilerTest, FailedAssumptionsAreRemembered) {
  Profiler profiler;
  EXPECT_FALSE(profiler.HasFailed("branch:stmt7"));
  profiler.MarkAssumptionFailed("branch:stmt7");
  EXPECT_TRUE(profiler.HasFailed("branch:stmt7"));
  EXPECT_FALSE(profiler.HasFailed("branch:stmt8"));
}

TEST(ProfilerTest, ContextProfilesAccumulate) {
  Profiler profiler;
  ValueProfile& slot =
      profiler.ObserveContext("x", minipy::Value{std::int64_t{3}});
  EXPECT_EQ(&profiler.ObserveContext("x", minipy::Value{std::int64_t{3}}),
            &slot);
  EXPECT_TRUE(slot.value_stable);
  // Observing through the slot a capture keeps is the same observation.
  profiler.ObserveContext(slot, minipy::Value{std::int64_t{4}});
  EXPECT_FALSE(slot.value_stable);
  EXPECT_EQ(profiler.total_observations(), 3);
}

// ---- ContextRef resolution and entry checks ----

class ContextRefTest : public ::testing::Test {
 protected:
  ContextRefTest() : interp_(&variables_, &rng_) {
    minipy::InstallBuiltins(interp_);
  }
  VariableStore variables_;
  Rng rng_{1};
  minipy::Interpreter interp_;
};

TEST_F(ContextRefTest, ResolvesArguments) {
  ContextRef ref;
  ref.arg_index = 1;
  const std::vector<minipy::Value> args{std::int64_t{1}, std::int64_t{2}};
  EXPECT_EQ(std::get<std::int64_t>(ref.Resolve(args)), 2);
  ref.arg_index = 5;
  EXPECT_THROW(ref.Resolve(args), InvalidArgument);
}

TEST_F(ContextRefTest, ResolvesAttrAndIndexSteps) {
  interp_.Run(R"(
class Box:
    def __init__(self):
        self.items = [10, 20, 30]
b = Box()
)");
  // Build a ref equivalent to b.items[2] anchored in the global env.
  interp_.SetGlobal("probe_target", interp_.GetGlobal("b"));
  ContextRef ref;
  ref.arg_index = 0;
  ref.steps.push_back(ContextRef::Step{true, "items", 0});
  ref.steps.push_back(ContextRef::Step{false, "", 2});
  const std::vector<minipy::Value> args{interp_.GetGlobal("b")};
  EXPECT_EQ(std::get<std::int64_t>(ref.Resolve(args)), 30);
  EXPECT_EQ(ref.ToString(), "arg0.items[2]");
}

TEST_F(ContextRefTest, MissingStepsThrow) {
  interp_.Run("class E:\n    pass\ne = E()\n");
  ContextRef ref;
  ref.arg_index = 0;
  ref.steps.push_back(ContextRef::Step{true, "nope", 0});
  const std::vector<minipy::Value> args{interp_.GetGlobal("e")};
  EXPECT_THROW(ref.Resolve(args), InvalidArgument);
}

TEST_F(ContextRefTest, EntryValueMatching) {
  EXPECT_TRUE(EntryValueMatches(minipy::Value{std::int64_t{3}},
                                minipy::Value{std::int64_t{3}}));
  EXPECT_FALSE(EntryValueMatches(minipy::Value{std::int64_t{3}},
                                 minipy::Value{std::int64_t{4}}));
  EXPECT_TRUE(EntryValueMatches(minipy::Value{std::string("a")},
                                minipy::Value{std::string("a")}));
  // Heap values compare by identity.
  interp_.Run("xs = [1]\nys = [1]\n");
  EXPECT_TRUE(EntryValueMatches(interp_.GetGlobal("xs"),
                                interp_.GetGlobal("xs")));
  EXPECT_FALSE(EntryValueMatches(interp_.GetGlobal("xs"),
                                 interp_.GetGlobal("ys")));
  // Tensors must never be entry expectations.
  EXPECT_THROW(EntryValueMatches(minipy::Value{Tensor::Scalar(1)},
                                 minipy::Value{Tensor::Scalar(1)}),
               InternalError);
}

// ---- Host-state adapter ----

class HostStateTest : public ::testing::Test {
 protected:
  HostStateTest() : interp_(&variables_, &rng_), host_(&interp_) {
    minipy::InstallBuiltins(interp_);
  }
  VariableStore variables_;
  Rng rng_{1};
  minipy::Interpreter interp_;
  InterpreterHostState host_;
};

TEST_F(HostStateTest, EncodesValueKinds) {
  EXPECT_EQ(EncodeValueAsTensor(minipy::Value{std::int64_t{5}})
                .ScalarIntValue(),
            5);
  EXPECT_FLOAT_EQ(
      EncodeValueAsTensor(minipy::Value{2.5}).ScalarValue(), 2.5f);
  EXPECT_TRUE(EncodeValueAsTensor(minipy::Value{true}).ScalarBoolValue());
  // None encodes as the null pointer.
  EXPECT_EQ(EncodeValueAsTensor(minipy::Value{minipy::NoneType{}})
                .ScalarIntValue(),
            0);
  // Heap values encode as their heap ids.
  auto list = interp_.MakeList({minipy::Value{std::int64_t{1}}});
  EXPECT_EQ(EncodeValueAsTensor(minipy::Value{list}).ScalarIntValue(),
            list->heap_id());
  // Functions have no encoding.
  interp_.Run("def f():\n    pass\n");
  EXPECT_THROW(EncodeValueAsTensor(interp_.GetGlobal("f")), NotConvertible);
}

TEST_F(HostStateTest, AttrRoundTripThroughPointers) {
  interp_.Run(R"(
class Cell:
    def __init__(self):
        self.state = constant([1.0, 2.0])
c = Cell()
)");
  const auto obj = std::get<std::shared_ptr<minipy::ObjectValue>>(
      interp_.GetGlobal("c"));
  const Tensor read = host_.GetAttr(obj->heap_id(), "state");
  EXPECT_EQ(read.shape(), (Shape{2}));
  host_.SetAttr(obj->heap_id(), "state", Tensor::Scalar(9));
  EXPECT_FLOAT_EQ(std::get<Tensor>(obj->attrs.at("state")).ScalarValue(),
                  9.0f);
  EXPECT_THROW(host_.GetAttr(obj->heap_id(), "missing"), InvalidArgument);
}

TEST_F(HostStateTest, SubscrNegativeIndexAndBounds) {
  auto list = interp_.MakeList(
      {minipy::Value{Tensor::Scalar(1)}, minipy::Value{Tensor::Scalar(2)}});
  EXPECT_FLOAT_EQ(host_.GetSubscr(list->heap_id(), -1).ScalarValue(), 2.0f);
  EXPECT_THROW(host_.GetSubscr(list->heap_id(), 7), InvalidArgument);
  host_.SetSubscr(list->heap_id(), 0, Tensor::Scalar(42));
  EXPECT_FLOAT_EQ(std::get<Tensor>(list->items[0]).ScalarValue(), 42.0f);
}

// ---- DOT exporter ----

TEST(DotTest, RendersNodesEdgesAndControlDeps) {
  Graph g;
  const NodeOutput x = g.Placeholder("x", DType::kFloat32);
  Node* sq = g.AddNode("Square", {x}, {}, 1, "square");
  Node* anchor = g.AddNode("NoOp", {}, {}, 1, "anchor");
  anchor->AddControlInput(sq);
  const std::string dot = ToDot(g, "demo");
  EXPECT_NE(dot.find("digraph \"demo\""), std::string::npos);
  EXPECT_NE(dot.find("square"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // control edge
}

TEST(DotTest, FunctionsMarkParamsAndResults) {
  GraphFunction fn;
  fn.name = "f";
  Node* p = fn.graph.AddNode("Param", {}, {{"index", std::int64_t{0}}});
  Node* sq = fn.graph.AddNode("Square", {{p, 0}});
  fn.parameters = {p};
  fn.results = {{sq, 0}};
  const std::string dot = ToDot(fn);
  EXPECT_NE(dot.find("palegreen"), std::string::npos);  // param styling
  EXPECT_NE(dot.find("result 0"), std::string::npos);
}

TEST(DotTest, CompiledGraphRendersEndToEnd) {
  // Export the graph JANUS generated for a real training step.
  VariableStore variables;
  Rng rng(2);
  minipy::Interpreter interp(&variables, &rng);
  minipy::InstallBuiltins(interp);
  JanusEngine engine(&interp, EngineOptions{});
  engine.Attach();
  interp.Run(R"(
w = variable('w', constant([1.0]))
def fn():
    return reduce_sum(w * w)
for i in range(6):
    optimize(fn, 0.01)
)");
  EXPECT_GT(engine.stats().graph_executions, 0);
}

}  // namespace
}  // namespace janus
