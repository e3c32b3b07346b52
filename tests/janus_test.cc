// End-to-end tests of the JANUS engine: profiling, speculative graph
// generation, caching, assumption validation, fallback, deferred state
// update, shape relaxation (Fig. 4), recursion, BASE-mode lowering, the
// tracing baseline's deliberate incorrectness, and every builtin of the
// builtin table converting exactly as the interpreter runs it.
#include "core/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "frontend/builtins.h"

namespace janus {
namespace {

using minipy::Interpreter;
using minipy::Value;

class JanusTest : public ::testing::Test {
 protected:
  // Builds a fresh interpreter + engine with the given options.
  struct Session {
    Session(EngineOptions options, std::uint64_t seed = 17)
        : rng(seed), interp(&variables, &rng), engine(&interp, options) {
      minipy::InstallBuiltins(interp);
      engine.Attach();
    }
    VariableStore variables;
    Rng rng;
    Interpreter interp;
    JanusEngine engine;

    double Num(const std::string& global) {
      const Value v = interp.GetGlobal(global);
      if (const auto* t = std::get_if<Tensor>(&v)) return t->ElementAsDouble(0);
      if (const auto* d = std::get_if<double>(&v)) return *d;
      if (const auto* i = std::get_if<std::int64_t>(&v)) {
        return static_cast<double>(*i);
      }
      if (const auto* b = std::get_if<bool>(&v)) return *b ? 1 : 0;
      ADD_FAILURE() << "global " << global << " is not numeric";
      return 0;
    }
  };
};

// Graph mode returns every result as a tensor, while imperative mode may
// return a plain number; both are compared as tensors, bit for bit.
Tensor AsTensor(const Value& v) {
  if (const auto* t = std::get_if<Tensor>(&v)) return *t;
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return Tensor::ScalarInt(*i);
  }
  if (const auto* d = std::get_if<double>(&v)) {
    return Tensor::Scalar(static_cast<float>(*d));
  }
  ADD_FAILURE() << "result is a " << minipy::ValueTypeName(v);
  return Tensor();
}

// A linear-regression training program exercising the basic conversion path.
constexpr const char* kLinearProgram = R"(
w = variable('w', constant([[0.2]]))
b = variable('b', constant([0.0]))
x = constant([[1.0], [2.0], [3.0], [4.0]])
y = constant([[2.5], [4.5], [6.5], [8.5]])

def loss_fn():
    pred = matmul(x, w) + b
    err = pred - y
    return reduce_mean(err * err)

losses = []
for i in range(30):
    losses.append(float(optimize(loss_fn, 0.04)))
first = losses[0]
last = losses[29]
)";

TEST_F(JanusTest, ConvertsAndTrainsLinearModel) {
  Session session(EngineOptions{});
  session.interp.Run(kLinearProgram);
  EXPECT_LT(session.Num("last"), session.Num("first") * 0.05);
  const auto& stats = session.engine.stats();
  // 3 profiled imperative steps, then graph executions.
  EXPECT_EQ(stats.imperative_executions, 3);
  EXPECT_EQ(stats.graph_generations, 1);
  EXPECT_EQ(stats.graph_executions, 27);
  EXPECT_EQ(stats.assumption_failures, 0);
}

TEST_F(JanusTest, GraphModeMatchesImperativeMode) {
  Session janus_session(EngineOptions{});
  Session imperative_session(EngineOptions::ImperativePreset());
  janus_session.interp.Run(kLinearProgram);
  imperative_session.interp.Run(kLinearProgram);
  EXPECT_NEAR(janus_session.Num("last"), imperative_session.Num("last"),
              1e-4);
  // Learned parameters agree too.
  const float wj = janus_session.variables.Read("w").data<float>()[0];
  const float wi = imperative_session.variables.Read("w").data<float>()[0];
  EXPECT_NEAR(wj, wi, 1e-4f);
  EXPECT_EQ(imperative_session.engine.stats().graph_executions, 0);
}

TEST_F(JanusTest, StableBranchIsSpeculatedThenFallsBackOnFlip) {
  // The branch direction is stable during profiling, then flips: the
  // speculative graph's AssertOp must fail, execution falls back, and a
  // relaxed (dynamic-branch) graph takes over — Fig. 2 (E).
  constexpr const char* program = R"(
w = variable('sw', constant([2.0]))
mode = constant([1.0])

def loss_fn():
    h = w * 3.0
    if reduce_sum(mode) > 0.0:
        out = h * h
    else:
        out = h + 100.0
    return reduce_sum(out)

r1 = 0.0
for i in range(8):
    r1 = float(optimize(loss_fn, 0.0))
)";
  Session session(EngineOptions{});
  session.interp.Run(program);
  EXPECT_NEAR(session.Num("r1"), 36.0, 1e-3);
  const auto stats_before = session.engine.stats();
  EXPECT_GE(stats_before.graph_executions, 4);
  EXPECT_EQ(stats_before.assumption_failures, 0);

  // Flip the branch: mode becomes negative.
  session.interp.Run(R"(
mode = constant([-1.0])
r2 = 0.0
for i in range(8):
    r2 = float(optimize(loss_fn, 0.0))
r3 = float(optimize(loss_fn, 0.0))
)");
  EXPECT_NEAR(session.Num("r2"), 106.0, 1e-3);
  const auto& stats = session.engine.stats();
  EXPECT_GE(stats.assumption_failures, 1);
  EXPECT_GE(stats.fallbacks, 1);
  // After relaxation the dynamic-branch graph executes without failures.
  EXPECT_GT(stats.graph_executions, stats_before.graph_executions);
}

TEST_F(JanusTest, DynamicBranchReadingAnAttributeKeepsItsGraph) {
  // The branch flips twice. After the first flip the regenerated graph has
  // a Switch/Merge conditional whose then-side reads self.gain; the write
  // after the `if` and the side-effect anchor must not die with that read
  // when the else side runs, or every run of the graph would fail and
  // fall back.
  constexpr const char* program = R"(
class Scaler:
    def __init__(self):
        self.gain = constant([1.0])
    def step(self, x):
        if reduce_sum(x) > 0.0:
            out = reduce_sum(x * self.gain)
        else:
            out = reduce_sum(x * x)
        self.gain = self.gain * 1.01
        return out

model = Scaler()
pos = constant([1.0, 2.0, 3.0])
neg = constant([-1.0, -2.0, -3.0])

def run_once():
    return model.step(data)

out = 0.0
for data in [pos, neg, pos]:
    for i in range(6):
        out = optimize(run_once, 0.0)
gain = model.gain
)";
  Session janus(EngineOptions{});
  Session imperative(EngineOptions::ImperativePreset());
  janus.interp.Run(program);
  imperative.interp.Run(program);
  for (const char* global : {"out", "gain"}) {
    const Tensor got = AsTensor(janus.interp.GetGlobal(global));
    const Tensor want = AsTensor(imperative.interp.GetGlobal(global));
    EXPECT_TRUE(got.ElementsEqual(want))
        << global << ": " << got.ToString() << " vs " << want.ToString();
  }
  const EngineStats stats = janus.engine.stats();
  EXPECT_LE(stats.fallbacks, 1);
  EXPECT_GE(stats.graph_executions, 14);
}

TEST_F(JanusTest, Fig1StatePassingMatchesImperative) {
  // The paper's Figure 1 pattern: attribute state carried across calls via
  // deferred PyGetAttr/PySetAttr.
  constexpr const char* program = R"(
class RNNModel:
    def __init__(self):
        self.state = constant([[0.5, 0.5]])
        self.w = variable('fig1_w', constant([[0.3, 0.1], [0.2, 0.4]]))
    def __call__(self, item):
        state = tanh(matmul(self.state, self.w) + item)
        self.state = state
        return reduce_mean(state * state)

model = RNNModel()
items = [constant([[1.0, 0.0]]), constant([[0.0, 1.0]])]
total = 0.0
for i in range(10):
    for item in items:
        total = total + float(optimize(lambda: model(item), 0.05))
final_state = reduce_sum(model.state)
)";
  Session janus_session(EngineOptions{});
  Session imperative_session(EngineOptions::ImperativePreset());
  janus_session.interp.Run(program);
  imperative_session.interp.Run(program);
  EXPECT_NEAR(janus_session.Num("total"), imperative_session.Num("total"),
              2e-3);
  EXPECT_NEAR(janus_session.Num("final_state"),
              imperative_session.Num("final_state"), 1e-3);
  EXPECT_GT(janus_session.engine.stats().graph_executions, 0);
}

TEST_F(JanusTest, ShapeRelaxationFollowsFig4) {
  // Shapes (4,2) for a while, then (3,2): first generation pins (4,2); the
  // (3,2) batch misses, regenerates with (?,2); a later (2,2) batch then
  // hits the relaxed graph without another generation.
  constexpr const char* program = R"(
w = variable('rw', constant([[1.0], [1.0]]))
batch = zeros([4, 2])

def loss_fn():
    return reduce_mean(matmul(batch, w))

for i in range(6):
    optimize(loss_fn, 0.0)
)";
  Session session(EngineOptions{});
  session.interp.Run(program);
  const auto gen_after_first = session.engine.stats().graph_generations;
  EXPECT_EQ(gen_after_first, 1);

  session.interp.Run(R"(
batch = zeros([3, 2])
for i in range(3):
    optimize(loss_fn, 0.0)
)");
  const auto gen_after_relax = session.engine.stats().graph_generations;
  EXPECT_EQ(gen_after_relax, 2);  // one regeneration with relaxed shape

  session.interp.Run(R"(
batch = zeros([2, 2])
for i in range(3):
    optimize(loss_fn, 0.0)
)");
  // The (?,2) graph covers the new batch size: no further generation.
  EXPECT_EQ(session.engine.stats().graph_generations, gen_after_relax);
}

TEST_F(JanusTest, UnconvertibleFunctionStaysImperative) {
  constexpr const char* program = R"(
w = variable('uw', constant([1.0]))
def loss_fn():
    try:
        x = w * 2.0
    except Error:
        x = w
    return reduce_sum(x)

out = 0.0
for i in range(8):
    out = float(optimize(loss_fn, 0.0))
)";
  Session session(EngineOptions{});
  session.interp.Run(program);
  EXPECT_NEAR(session.Num("out"), 2.0, 1e-5);
  const auto& stats = session.engine.stats();
  EXPECT_EQ(stats.graph_executions, 0);
  EXPECT_GE(stats.not_convertible, 1);
  EXPECT_EQ(stats.imperative_executions, 8);
}

TEST_F(JanusTest, TracingBakesStateWritesAndJanusDoesNot) {
  // State accumulation: each step doubles self.scale. Tracing bakes the
  // traced value and drops the write; JANUS tracks it correctly.
  constexpr const char* program = R"(
class Model:
    def __init__(self):
        self.scale = constant([1.0])
    def step(self):
        self.scale = self.scale * 2.0
        return reduce_sum(self.scale)

m = Model()
out = 0.0
for i in range(6):
    out = float(optimize(lambda: m.step(), 0.0))
)";
  Session janus_session(EngineOptions{});
  janus_session.interp.Run(program);
  EXPECT_NEAR(janus_session.Num("out"), 64.0, 1e-3);  // 2^6

  Session tracing_session(EngineOptions::TracingPreset());
  tracing_session.interp.Run(program);
  // First call is imperative (scale -> 2); every traced execution returns
  // the baked value and never updates the state: silently wrong.
  EXPECT_NEAR(tracing_session.Num("out"), 4.0, 1e-3);
  EXPECT_GT(tracing_session.engine.stats().graph_executions, 0);
}

TEST_F(JanusTest, TracingMisbakesBranchJanusAsserts) {
  // Batch-norm-style training/eval flag: tracing converts the first trace's
  // branch and silently keeps it; JANUS guards it with an AssertOp and
  // falls back correctly when the flag flips.
  constexpr const char* program = R"(
class Net:
    def __init__(self):
        self.training = True
    def forward(self, x):
        if self.training:
            return reduce_sum(x * 2.0)
        return reduce_sum(x * 1000.0)

net = Net()
data = constant([1.0, 2.0])

def loss_fn():
    return net.forward(data)

train_out = 0.0
for i in range(6):
    train_out = float(optimize(loss_fn, 0.0))
net.training = False
eval_out = float(optimize(loss_fn, 0.0))
)";
  Session janus_session(EngineOptions{});
  janus_session.interp.Run(program);
  EXPECT_NEAR(janus_session.Num("train_out"), 6.0, 1e-3);
  EXPECT_NEAR(janus_session.Num("eval_out"), 3000.0, 1e-3);

  Session tracing_session(EngineOptions::TracingPreset());
  tracing_session.interp.Run(program);
  EXPECT_NEAR(tracing_session.Num("train_out"), 6.0, 1e-3);
  // Tracing baked self.training == True: eval silently wrong.
  EXPECT_NEAR(tracing_session.Num("eval_out"), 6.0, 1e-3);
}

TEST_F(JanusTest, RecursiveTreeFunctionConverts) {
  // TreeRNN-style recursion over per-sample tree objects: dynamic object
  // pointers, PyGetAttr type dispatch, InvokeOp recursion, and training.
  constexpr const char* program = R"(
class Node:
    def __init__(self, is_leaf, emb, left, right):
        self.is_leaf = is_leaf
        self.emb = emb
        self.left = left
        self.right = right

w = variable('tree_w', constant([[0.5, 0.1], [0.2, 0.3]]))

def embed(node):
    if node.is_leaf == 1:
        return node.emb
    a = embed(node.left)
    b = embed(node.right)
    return tanh(matmul(a + b, w))

def make_leaf(v):
    return Node(1, constant([v]), None, None)

def make_pair(l, r):
    return Node(0, None, l, r)

tree_a = make_pair(make_leaf([1.0, 0.0]), make_leaf([0.0, 1.0]))
tree_b = make_pair(make_pair(make_leaf([1.0, 1.0]), make_leaf([0.5, 0.5])),
                   make_leaf([0.2, 0.8]))
trees = [tree_a, tree_b]

current = tree_a

def loss_fn():
    out = embed(current)
    return reduce_mean(out * out)

losses = []
for i in range(8):
    for t in trees:
        current = t
        losses.append(float(optimize(loss_fn, 0.02)))
n = len(losses)
last = losses[15]
)";
  Session janus_session(EngineOptions{});
  Session imperative_session(EngineOptions::ImperativePreset());
  janus_session.interp.Run(program);
  imperative_session.interp.Run(program);
  EXPECT_EQ(janus_session.Num("n"), 16);
  EXPECT_NEAR(janus_session.Num("last"), imperative_session.Num("last"),
              2e-3);
  EXPECT_GT(janus_session.engine.stats().graph_executions, 0);
  EXPECT_EQ(janus_session.engine.stats().not_convertible, 0);
}

TEST_F(JanusTest, BaseModeLowersLoopToFunctionalWhile) {
  // With speculative unrolling disabled (BASE of Fig. 7), a data-dependent
  // range loop becomes a functional While — and still trains correctly.
  constexpr const char* program = R"(
w = variable('bw', constant([1.5]))
steps = constant_int(5)

def loss_fn():
    acc = w * 1.0
    for i in range(int(reduce_sum(cast_float(steps)))):
        acc = acc * 0.5
    return reduce_sum(acc)

out = 0.0
for i in range(8):
    out = float(optimize(loss_fn, 0.0))
)";
  EngineOptions base;
  base.generator.speculative_unroll = false;
  base.generator.specialize = false;
  base.parallel_execution = false;
  Session session(base);
  session.interp.Run(program);
  EXPECT_NEAR(session.Num("out"), 1.5 * std::pow(0.5, 5), 1e-4);
  EXPECT_GT(session.engine.stats().graph_executions, 0);
  EXPECT_EQ(session.engine.stats().not_convertible, 0);
}

TEST_F(JanusTest, ParallelExecutionMatchesSequential) {
  EngineOptions sequential;
  sequential.parallel_execution = false;
  Session seq_session(sequential);
  Session par_session(EngineOptions{});
  seq_session.interp.Run(kLinearProgram);
  par_session.interp.Run(kLinearProgram);
  EXPECT_NEAR(seq_session.Num("last"), par_session.Num("last"), 1e-5);
}

TEST_F(JanusTest, MarkedInferenceFunctionIsConverted) {
  constexpr const char* program = R"(
w = variable('iw', constant([[2.0, 0.0], [0.0, 3.0]]))

def predict(x):
    return reduce_sum(matmul(x, w))

predict = janus_function(predict)
data = constant([[1.0, 1.0]])
out = 0.0
for i in range(8):
    out = float(predict(data))
)";
  Session session(EngineOptions{});
  session.interp.Run(program);
  EXPECT_NEAR(session.Num("out"), 5.0, 1e-4);
  EXPECT_GT(session.engine.stats().graph_executions, 0);
}

// Graph CSE once keyed constants on their 6-significant-digit text, so a
// converted function merged 1000001.0 with 1000002.0 (returning 2000004
// where the interpreter returns 2000003) and 0.1234567 with 0.1234568
// (returning 0 instead of -9.68575478e-08).
TEST_F(JanusTest, NearlyEqualConstantsStayApartInGraphs) {
  constexpr const char* program = R"(
def near(x):
    return x * 1000001.0 + x * 1000002.0

def close(x):
    return reduce_sum(x * constant([0.1234567, 1.0]) - x * constant([0.1234568, 1.0]))

near = janus_function(near)
close = janus_function(close)
a = constant([1.0])
b = constant([1.0, 1.0])
for i in range(6):
    out_near = near(a)
    out_close = close(b)
)";
  Session janus(EngineOptions{});
  Session imperative(EngineOptions::ImperativePreset());
  janus.interp.Run(program);
  imperative.interp.Run(program);
  for (const char* global : {"out_near", "out_close"}) {
    const Tensor got = AsTensor(janus.interp.GetGlobal(global));
    const Tensor want = AsTensor(imperative.interp.GetGlobal(global));
    EXPECT_TRUE(got.ElementsEqual(want))
        << global << ": " << got.ToString(4) << " vs " << want.ToString(4);
  }
  EXPECT_EQ(janus.Num("out_near"), 2000003.0);
  EXPECT_GT(janus.engine.stats().graph_executions, 0);
}

// Arithmetic simplification once rewrote `0.0 + x` to x and `x * 0.0` to
// zeros, so a converted function returned -0 where the interpreter returns
// +0, and +0 where it returns -0.
TEST_F(JanusTest, SignedZerosMatchTheInterpreterInGraphs) {
  constexpr const char* program = R"(
def accumulate(x):
    total = 0.0
    total += x
    return total

def scale(x):
    return x * 0.0

accumulate = janus_function(accumulate)
scale = janus_function(scale)
a = constant([-0.0, 2.0])
b = constant([-2.0, 1.0])
for i in range(6):
    out_acc = accumulate(a)
    out_scale = scale(b)
)";
  Session janus(EngineOptions{});
  Session imperative(EngineOptions::ImperativePreset());
  janus.interp.Run(program);
  imperative.interp.Run(program);
  for (const char* global : {"out_acc", "out_scale"}) {
    const Tensor got = AsTensor(janus.interp.GetGlobal(global));
    const Tensor want = AsTensor(imperative.interp.GetGlobal(global));
    EXPECT_TRUE(got.ElementsEqual(want))
        << global << ": " << got.ToString(4) << " vs " << want.ToString(4);
  }
  EXPECT_FALSE(std::signbit(AsTensor(janus.interp.GetGlobal("out_acc"))
                                .data<float>()[0]));
  EXPECT_TRUE(std::signbit(AsTensor(janus.interp.GetGlobal("out_scale"))
                               .data<float>()[0]));
  EXPECT_GT(janus.engine.stats().graph_executions, 0);
}

TEST_F(JanusTest, PrunedCaptureIsCheckedButFeedsNoArgument) {
  // `unused` becomes a capture placeholder that dead-code elimination
  // prunes: its capture keeps no argument slot, the main plan takes only
  // `x`, and a later call whose `unused` changes kind still misses.
  constexpr const char* program = R"(
def f(x, unused):
    return reduce_sum(x * 2.0)

f = janus_function(f)
a = constant([1.0, 2.0])
out = 0.0
for i in range(6):
    out = float(f(a, constant([5.0])))
)";
  Session session(EngineOptions{});
  session.interp.Run(program);
  EXPECT_DOUBLE_EQ(session.Num("out"), 6.0);
  EXPECT_GT(session.engine.stats().graph_executions, 0);
  int units = 0;
  session.engine.ForEachCompiledUnit(
      [&units](const std::string&, const CompiledGraph& unit) {
        ++units;
        ASSERT_EQ(unit.captures.size(), 2u);
        EXPECT_EQ(unit.captures[0].arg_slot, 0);
        EXPECT_EQ(unit.captures[1].arg_slot, -1);
        EXPECT_EQ(unit.plan->arguments().size(), 1u);
      });
  EXPECT_EQ(units, 1);
  const std::int64_t misses = session.engine.stats().cache_misses;
  session.interp.Run("out = float(f(a, 3))\n");
  EXPECT_DOUBLE_EQ(session.Num("out"), 6.0);
  EXPECT_EQ(session.engine.stats().cache_misses, misses + 1);
}

TEST_F(JanusTest, PrunedCaptureWithBakedShapeStaysChecked) {
  // `len(x)` bakes x's length into the graph as a constant, so x's
  // placeholder feeds nothing and is pruned, yet the graph depends on x's
  // shape: a call with a longer x must miss the cache, not reuse the
  // graph that multiplies by 3.
  constexpr const char* program = R"(
def g(x, y):
    return y * len(x)

g = janus_function(g)
a = constant([1.0, 2.0, 3.0])
out = 0.0
for i in range(6):
    out = float(g(a, constant([2.0])))
)";
  Session session(EngineOptions{});
  session.interp.Run(program);
  EXPECT_DOUBLE_EQ(session.Num("out"), 6.0);
  EXPECT_GT(session.engine.stats().graph_executions, 0);
  int units = 0;
  session.engine.ForEachCompiledUnit(
      [&units](const std::string&, const CompiledGraph& unit) {
        ++units;
        ASSERT_EQ(unit.captures.size(), 2u);
        EXPECT_EQ(unit.captures[0].arg_slot, -1);
      });
  EXPECT_EQ(units, 1);
  const std::int64_t misses = session.engine.stats().cache_misses;
  session.interp.Run(
      "out = float(g(constant([1.0, 2.0, 3.0, 4.0]), constant([2.0])))\n");
  EXPECT_DOUBLE_EQ(session.Num("out"), 8.0);
  EXPECT_EQ(session.engine.stats().cache_misses, misses + 1);
}

TEST_F(JanusTest, AssertionsCanBeDisabled) {
  EngineOptions no_asserts;
  no_asserts.generator.insert_assertions = false;
  Session session(no_asserts);
  session.interp.Run(kLinearProgram);
  EXPECT_LT(session.Num("last"), session.Num("first") * 0.05);
}

TEST_F(JanusTest, DeferredPrintOnlyOnSuccess) {
  // print inside a converted function is buffered and committed; this just
  // exercises the PyPrint path end-to-end.
  constexpr const char* program = R"(
w = variable('pw', constant([1.0]))
def loss_fn():
    loss = reduce_sum(w * w)
    print('loss is', loss)
    return loss
for i in range(5):
    optimize(loss_fn, 0.0)
)";
  Session session(EngineOptions{});
  testing::internal::CaptureStdout();
  session.interp.Run(program);
  const std::string output = testing::internal::GetCapturedStdout();
  // 5 executions, 5 printed lines (imperative and graph mode alike).
  EXPECT_EQ(std::count(output.begin(), output.end(), '\n'), 5);
  EXPECT_NE(output.find("loss is"), std::string::npos);
}

TEST_F(JanusTest, FailedTrainingStepDropsTheTape) {
  // A loss function that raises must not leave the eager tape recording:
  // the engine's imperative training step discards it.
  Session session(EngineOptions{});
  session.interp.Run(R"(
w = variable('tape_w', constant([1.0]))
def bad():
    y = w * 2.0
    raise 'loss failed'
caught = False
try:
    optimize(bad, 0.1)
except Error as e:
    caught = True
)");
  EXPECT_TRUE(std::get<bool>(session.interp.GetGlobal("caught")));
  EXPECT_FALSE(session.interp.eager().TapeActive());
}

// One call per builtin that the generator lowers to an op or evaluates
// statically, over fixed arguments (`x` is a 2x2 float tensor).
const std::map<std::string, std::string>& BuiltinCases() {
  static const auto* const cases = new std::map<std::string, std::string>{
      {"abs", "abs(-3.5)"},
      {"argmax", "argmax(x, 1)"},
      {"avgpool", "avgpool(img, 2, 2)"},
      {"cast_float", "cast_float(ids)"},
      {"cast_int", "cast_int(x)"},
      {"constant", "constant([[1.5, 2.0], [3.0, 4.0]])"},
      {"constant_int", "constant_int([3, 1, 2])"},
      {"conv2d", "conv2d(img, flt, 1, 'SAME')"},
      {"exp", "exp(x)"},
      {"fill", "fill([2, 2], 0.25)"},
      {"float", "float(7)"},
      {"gather", "gather(x, ids)"},
      {"int", "int(2.75)"},
      {"log", "log(pos)"},
      {"log_softmax", "log_softmax(x)"},
      {"matmul", "matmul(x, y)"},
      {"maximum", "maximum(x, y)"},
      {"maxpool", "maxpool(img, 2, 2)"},
      {"minimum", "minimum(x, y)"},
      {"onehot", "onehot(ids, 3)"},
      {"ones", "ones([3])"},
      {"rand_uniform", "rand_uniform([2, 3], -1.0, 1.0)"},
      {"randn", "randn([2, 3], 0.5)"},
      {"reduce_max", "reduce_max(x, 1)"},
      {"reduce_mean", "reduce_mean(x)"},
      {"reduce_sum", "reduce_sum(x, 0)"},
      {"relu", "relu(x)"},
      {"reshape", "reshape(x, [4])"},
      {"select", "select(x > 0.0, x, y)"},
      {"sigmoid", "sigmoid(x)"},
      {"slice2d", "slice2d(x, 0, 1, 1, -1)"},
      {"softmax", "softmax(x)"},
      {"softmax_xent", "softmax_xent(x, ids)"},
      {"sqrt", "sqrt(pos)"},
      {"square", "square(x)"},
      {"stop_gradient", "stop_gradient(x)"},
      {"tanh", "tanh(x)"},
      {"transpose", "transpose(x)"},
      {"zeros", "zeros([2, 3])"},
  };
  return *cases;
}

TEST_F(JanusTest, EveryConvertibleBuiltinMatchesImperative) {
  // Differential test driven by the builtin table: every op builtin and
  // every statically evaluated builtin, eager against the generated graph.
  // A builtin added to the table without a case here fails the test.
  constexpr const char* kPrelude = R"(
a = constant([[1.0, -2.0], [3.0, 0.5]])
y = constant([[0.5, 1.0], [-1.0, 2.0]])
pos = constant([[0.5, 1.0], [2.0, 4.0]])
ids = constant_int([1, 0])
img = constant([[[[1.0], [2.0], [0.0], [1.0]], [[0.5], [3.0], [1.0], [2.0]],
                 [[2.0], [1.0], [4.0], [0.0]], [[1.0], [0.0], [2.0], [3.0]]]])
flt = constant([[[[1.0, -1.0]], [[0.5, 2.0]]], [[[0.0, 1.0]], [[2.0, 0.5]]]])
)";
  for (const minipy::BuiltinSpec& spec : minipy::BuiltinTable()) {
    if (!spec.is_op() && !spec.static_eval) continue;
    SCOPED_TRACE(spec.name);
    const auto it = BuiltinCases().find(spec.name);
    ASSERT_NE(it, BuiltinCases().end())
        << "no differential case for builtin " << spec.name;
    const std::string program = std::string(kPrelude) +
                                "def f(x):\n    return " + it->second +
                                "\n\nf = janus_function(f)\nout = []\n"
                                "for i in range(6):\n    out.append(f(a))\n";
    Session imperative(EngineOptions::ImperativePreset());
    Session janus(EngineOptions{});
    imperative.interp.Run(program);
    janus.interp.Run(program);
    EXPECT_GT(janus.engine.stats().graph_executions, 0);
    const auto want = std::get<std::shared_ptr<minipy::ListValue>>(
        imperative.interp.GetGlobal("out"));
    const auto got = std::get<std::shared_ptr<minipy::ListValue>>(
        janus.interp.GetGlobal("out"));
    ASSERT_EQ(want->items.size(), 6u);
    ASSERT_EQ(got->items.size(), 6u);
    const bool random = spec.name == std::string("randn") ||
                        spec.name == std::string("rand_uniform");
    for (std::size_t i = 0; i < 6; ++i) {
      const Tensor expected = AsTensor(want->items[i]);
      const Tensor actual = AsTensor(got->items[i]);
      if (random) {
        EXPECT_EQ(actual.dtype(), expected.dtype()) << "call " << i;
        EXPECT_EQ(actual.shape(), expected.shape()) << "call " << i;
      } else {
        EXPECT_TRUE(actual.ElementsEqual(expected))
            << "call " << i << ": " << actual.ToString() << " vs "
            << expected.ToString();
      }
    }
  }
}

// A builtin call the generator used to treat differently from the
// interpreter, or a call with a bad static argument. `f` runs 8 times with
// its branch never taken, then once with it taken; each call must return
// what imperative mode returns or raise the same error.
struct BuiltinDivergence {
  const char* label;
  const char* call;   // what `f` returns from its branch
  const char* error;  // the error the taken branch raises, or null
  bool base;          // Fig. 7 BASE: no speculative unrolling or specialization
};

// Prints a case as its label. Without it gtest prints the struct's raw
// bytes (pointers and padding), so the test names it lists would change
// from one run to the next.
void PrintTo(const BuiltinDivergence& param, std::ostream* os) {
  *os << param.label;
}

class BuiltinDivergenceTest
    : public JanusTest,
      public ::testing::WithParamInterface<BuiltinDivergence> {};

TEST_P(BuiltinDivergenceTest, MatchesImperativeMode) {
  const BuiltinDivergence& param = GetParam();
  // Without an expected error the call is also f's ordinary result.
  const std::string result =
      param.error == nullptr ? param.call : "reduce_sum(x * 2.0)";
  const std::string program =
      std::string("def f(x):\n    n = -9007199254740993\n"
                  "    if reduce_sum(x) > 100.0:\n        return ") +
      param.call + "\n    return " + result +
      "\n\nf = janus_function(f)\nsmall = constant([1.0, 2.0])\n"
      "big = constant([100.0, 200.0])\n";
  EngineOptions options;
  if (param.base) {
    options.generator.speculative_unroll = false;
    options.generator.specialize = false;
  }
  Session imperative(EngineOptions::ImperativePreset());
  Session janus(options);
  imperative.interp.Run(program);
  janus.interp.Run(program);
  // What one call produced: a result, or the message of the error raised.
  const auto call = [](Session& session, const char* arg) {
    std::pair<std::optional<Tensor>, std::string> outcome;
    try {
      session.interp.Run(std::string("r = f(") + arg + ")\n");
      outcome.first = AsTensor(session.interp.GetGlobal("r"));
    } catch (const minipy::MiniPyError& error) {
      outcome.second = error.what();
    }
    return outcome;
  };
  for (int i = 0; i <= 8; ++i) {
    const char* arg = i < 8 ? "small" : "big";
    SCOPED_TRACE(std::string("call ") + std::to_string(i) + " f(" + arg + ")");
    const auto want = call(imperative, arg);
    const auto got = call(janus, arg);
    EXPECT_EQ(got.second, want.second);
    ASSERT_EQ(got.first.has_value(), want.first.has_value());
    if (want.first.has_value()) {
      EXPECT_TRUE(got.first->ElementsEqual(*want.first))
          << got.first->ToString() << " vs " << want.first->ToString();
    }
    if (i == 8 && param.error != nullptr) {
      EXPECT_NE(want.second.find(param.error), std::string::npos)
          << want.second;
    }
  }
  // With speculation on, f converts and its graph computes the result.
  if (!param.base) {
    EXPECT_GT(janus.engine.stats().graph_executions, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Calls, BuiltinDivergenceTest,
    ::testing::Values(
        // BASE used to crash on range() (an unchecked bounds[0]) and let
        // std::out_of_range escape Compile on len() and argmax(x).
        BuiltinDivergence{"range", "range()",
                          "range(): wrong number of arguments", true},
        BuiltinDivergence{"len", "len()", "len(): wrong number of arguments",
                          true},
        BuiltinDivergence{"argmax", "argmax(x)",
                          "argmax(): wrong number of arguments", true},
        // An extra argument used to be dropped instead of raising.
        BuiltinDivergence{"relu", "relu(x, x)",
                          "relu(): wrong number of arguments", true},
        // abs of a static int used to go through a double.
        BuiltinDivergence{"abs", "abs(n)", nullptr, false},
        // So did int of an int and of an int64 tensor, whose graph form
        // (Cast) was already exact.
        BuiltinDivergence{"int_int", "int(n)", nullptr, false},
        BuiltinDivergence{"int_int64_tensor",
                          "int(constant_int(9007199254740993))", nullptr,
                          false},
        // int and float of a tensor take its element 0, where the graph
        // used to cast the whole tensor.
        BuiltinDivergence{"int_int64_vector",
                          "int(constant_int([9007199254740993]))", nullptr,
                          false},
        BuiltinDivergence{"float_vector", "float(x * 2.0)", nullptr, false},
        // A float with no int64 value raises in both modes, where both
        // used to return an undefined conversion.
        BuiltinDivergence{"int_out_of_range", "int(x * 1e30)",
                          "int(): cannot convert 1e+32 to int64", true},
        // Bad static arguments raise the interpreter's own error.
        BuiltinDivergence{"bad_axis", "reduce_sum(x, 'a')",
                          "reduce_sum: expected an int, got str", true},
        BuiltinDivergence{"bad_shape", "reshape(x, [2, 'b'])",
                          "reshape: expected an int, got str", true},
        BuiltinDivergence{"bad_padding", "conv2d(x, x, 1, 2)",
                          "conv2d: expected a string, got int", true},
        BuiltinDivergence{"ragged", "constant([[1.0], [2.0, 3.0]])",
                          "constant(): ragged nested list", true}),
    [](const ::testing::TestParamInfo<BuiltinDivergence>& info) {
      return std::string(info.param.label);
    });

}  // namespace
}  // namespace janus
