// Tests for the MiniPy frontend: lexer, parser, interpreter semantics
// (dynamic control flow, dynamic types, impure functions — the paper's three
// dynamic-feature classes), builtins, and eager tape training.
#include "frontend/interpreter.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>

#include "frontend/builtins.h"
#include "frontend/lexer.h"
#include "frontend/parser.h"
#include "obs/profile.h"

namespace janus::minipy {
namespace {

class FrontendTest : public ::testing::Test {
 protected:
  FrontendTest() : interp_(&variables_, &rng_) { InstallBuiltins(interp_); }

  Value RunAndGet(const std::string& source, const std::string& global) {
    interp_.Run(source);
    return interp_.GetGlobal(global);
  }

  double Num(const Value& v) {
    if (const auto* i = std::get_if<std::int64_t>(&v)) {
      return static_cast<double>(*i);
    }
    if (const auto* d = std::get_if<double>(&v)) return *d;
    if (const auto* t = std::get_if<Tensor>(&v)) return t->ElementAsDouble(0);
    if (const auto* b = std::get_if<bool>(&v)) return *b ? 1 : 0;
    ADD_FAILURE() << "not numeric: " << ValueTypeName(v);
    return 0;
  }

  VariableStore variables_;
  Rng rng_{11};
  Interpreter interp_;
};

// ---- Lexer ----

TEST(LexerTest, TokenizesOperatorsAndLiterals) {
  const auto tokens = Tokenize("x = 3 + 4.5 ** 2\n");
  ASSERT_GE(tokens.size(), 8u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kName);
  EXPECT_EQ(tokens[1].kind, TokenKind::kAssign);
  EXPECT_EQ(tokens[2].kind, TokenKind::kInt);
  EXPECT_EQ(tokens[2].int_value, 3);
  EXPECT_EQ(tokens[4].kind, TokenKind::kFloat);
  EXPECT_DOUBLE_EQ(tokens[4].float_value, 4.5);
  EXPECT_EQ(tokens[5].kind, TokenKind::kDoubleStar);
}

TEST(LexerTest, IndentationProducesLayoutTokens) {
  const auto tokens = Tokenize("if x:\n    y = 1\nz = 2\n");
  int indents = 0;
  int dedents = 0;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kIndent) ++indents;
    if (t.kind == TokenKind::kDedent) ++dedents;
  }
  EXPECT_EQ(indents, 1);
  EXPECT_EQ(dedents, 1);
}

TEST(LexerTest, NewlinesInsideBracketsIgnored) {
  const auto tokens = Tokenize("x = [1,\n     2,\n     3]\n");
  int newlines = 0;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kNewline) ++newlines;
  }
  EXPECT_EQ(newlines, 1);
}

TEST(LexerTest, CommentsAndBlankLinesSkipped) {
  const auto tokens = Tokenize("# header\n\nx = 1  # trailing\n");
  EXPECT_EQ(tokens[0].kind, TokenKind::kName);
}

TEST(LexerTest, StringEscapes) {
  const auto tokens = Tokenize("s = 'a\\nb'\n");
  EXPECT_EQ(tokens[2].text, "a\nb");
}

TEST(LexerTest, UnterminatedStringThrows) {
  EXPECT_THROW(Tokenize("s = 'oops\n"), InvalidArgument);
}

TEST(LexerTest, InconsistentIndentThrows) {
  EXPECT_THROW(Tokenize("if x:\n    y = 1\n  z = 2\n"), InvalidArgument);
}

// ---- Parser ----

TEST(ParserTest, ParsesFunctionAndClass) {
  const Module m = Parse(R"(
def f(a, b):
    return a + b

class Model:
    def __init__(self):
        self.state = 0
)");
  ASSERT_EQ(m.body.size(), 2u);
  EXPECT_EQ(m.body[0]->kind, StmtKind::kDef);
  EXPECT_EQ(m.body[0]->params.size(), 2u);
  EXPECT_EQ(m.body[1]->kind, StmtKind::kClass);
  EXPECT_EQ(m.body[1]->methods.size(), 1u);
}

TEST(ParserTest, OperatorPrecedence) {
  const Module m = Parse("x = 1 + 2 * 3 ** 2\n");
  const Expr* root = m.body[0]->value.get();
  ASSERT_EQ(root->kind, ExprKind::kBinary);
  EXPECT_EQ(root->binary_op, BinaryOp::kAdd);  // * and ** bind tighter
}

TEST(ParserTest, UniqueNodeIds) {
  const Module m = Parse("x = 1 + 2\ny = x * 3\n");
  EXPECT_GT(m.num_nodes, 5);
}

TEST(ParserTest, UnsupportedKeywordsRejected) {
  EXPECT_THROW(Parse("import os\n"), InvalidArgument);
  EXPECT_THROW(Parse("def f():\n    yield 1\n"), InvalidArgument);
  EXPECT_THROW(Parse("with x:\n    pass\n"), InvalidArgument);
}

TEST(ParserTest, SyntaxErrorHasLineNumber) {
  try {
    Parse("x = 1\ny = (\n");
    FAIL();
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
  }
}

TEST(ParserTest, DeepNestingRaisesInsteadOfOverflowing) {
  for (const std::string& brackets : {std::string("()"), std::string("[]")}) {
    const std::string source = "x = " + std::string(100000, brackets[0]) +
                               "1" + std::string(100000, brackets[1]) + "\n";
    try {
      Parse(source);
      FAIL() << "parsed 100k nested '" << brackets[0] << "'";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("line 1: nesting deeper than 200"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ParserTest, NestingAtTheLimitParses) {
  // The expression statement is depth 1 and each bracket adds one, so
  // kMaxNestingDepth - 1 brackets nest exactly at the limit.
  const auto nested = [](int depth, char open, char close) {
    return "x = " + std::string(static_cast<std::size_t>(depth), open) + "1" +
           std::string(static_cast<std::size_t>(depth), close) + "\n";
  };
  const int at_limit = kMaxNestingDepth - 1;
  EXPECT_NO_THROW(Parse(nested(at_limit, '(', ')')));
  EXPECT_NO_THROW(Parse(nested(at_limit, '[', ']')));
  EXPECT_THROW(Parse(nested(at_limit + 1, '(', ')')), InvalidArgument);
  EXPECT_THROW(Parse(nested(at_limit + 1, '[', ']')), InvalidArgument);
  // Prefix operators and elif chains nest too.
  EXPECT_THROW(Parse("x = " + std::string(100000, '-') + "1\n"),
               InvalidArgument);
  std::string elifs = "if x:\n    pass\n";
  for (int i = 0; i < kMaxNestingDepth; ++i) elifs += "elif x:\n    pass\n";
  EXPECT_THROW(Parse(elifs), InvalidArgument);
}

// ---- Interpreter: core semantics ----

TEST_F(FrontendTest, RerunningSourceReusesItsParse) {
  const std::string source = "def f(x):\n    return x + 1\n";
  interp_.Run(source);
  const auto first =
      std::get<std::shared_ptr<FunctionValue>>(interp_.GetGlobal("f"));
  interp_.Run(source);
  const auto second =
      std::get<std::shared_ptr<FunctionValue>>(interp_.GetGlobal("f"));
  // A fresh function object per run, over the one kept AST.
  EXPECT_NE(first, second);
  EXPECT_EQ(first->def, second->def);
  EXPECT_EQ(Num(interp_.EvaluateExpression("f(2)")), 3);
  EXPECT_EQ(Num(interp_.EvaluateExpression("f(2)")), 3);
}

TEST_F(FrontendTest, ArithmeticAndPrecedence) {
  EXPECT_EQ(Num(RunAndGet("x = 2 + 3 * 4\n", "x")), 14);
  EXPECT_EQ(Num(RunAndGet("y = (2 + 3) * 4\n", "y")), 20);
  EXPECT_EQ(Num(RunAndGet("z = 2 ** 3 ** 2\n", "z")), 512);  // right assoc
  EXPECT_EQ(Num(RunAndGet("q = 7 // 2\n", "q")), 3);
  EXPECT_EQ(Num(RunAndGet("r = -7 // 2\n", "r")), -4);
  EXPECT_EQ(Num(RunAndGet("m = -7 % 3\n", "m")), 2);  // Python modulo
  EXPECT_DOUBLE_EQ(Num(RunAndGet("d = 7 / 2\n", "d")), 3.5);
}

TEST_F(FrontendTest, DynamicTyping) {
  // The same variable holds an int, then a string, then a list (DT).
  interp_.Run(R"(
x = 1
x = x + 1
t1 = x
x = 'hello '
x = x + 'world'
t2 = x
x = [1, 2] + [3]
t3 = len(x)
)");
  EXPECT_EQ(Num(interp_.GetGlobal("t1")), 2);
  EXPECT_EQ(std::get<std::string>(interp_.GetGlobal("t2")), "hello world");
  EXPECT_EQ(Num(interp_.GetGlobal("t3")), 3);
}

TEST_F(FrontendTest, ControlFlow) {
  interp_.Run(R"(
total = 0
for i in range(10):
    if i % 2 == 0:
        total += i
    else:
        total -= 1
while total > 10:
    total = total - 10
)");
  // evens 0..8 sum to 20, minus 5 odd decrements = 15; then 15-10 = 5.
  EXPECT_EQ(Num(interp_.GetGlobal("total")), 5);
}

TEST_F(FrontendTest, BreakAndContinue) {
  interp_.Run(R"(
acc = 0
for i in range(100):
    if i == 5:
        break
    if i % 2 == 1:
        continue
    acc += i
)");
  EXPECT_EQ(Num(interp_.GetGlobal("acc")), 6);  // 0 + 2 + 4
}

TEST_F(FrontendTest, FunctionsAndRecursion) {
  interp_.Run(R"(
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
result = fib(10)
)");
  EXPECT_EQ(Num(interp_.GetGlobal("result")), 55);
}

// A `return` outside a function, or a `break`/`continue` outside a loop,
// used to escape Interpreter::Run as an uncaught C++ exception and abort
// the process. A def body starts outside any loop.
// Runaway recursion raises a MiniPy error near the end of the stack, where
// it used to overflow it; `except` catches it, and the interpreter runs the
// next program.
TEST_F(FrontendTest, RunawayRecursionRaisesAndTheSessionLivesOn) {
  interp_.Run("def g(n):\n    return g(n + 1)\n");
  try {
    interp_.Run("g(0)\n");
    ADD_FAILURE() << "g(0) returned";
  } catch (const MiniPyError& error) {
    EXPECT_STREQ(error.what(), "maximum recursion depth exceeded");
  }
  EXPECT_EQ(std::get<std::string>(RunAndGet(R"(
caught = ''
try:
    g(0)
except Exception as e:
    caught = e
)", "caught")),
            "maximum recursion depth exceeded");
  EXPECT_EQ(Num(RunAndGet("def h(n):\n    if n == 0:\n        return 0\n"
                          "    return 1 + h(n - 1)\nr = h(50)\n",
                          "r")),
            50);
}

TEST_F(FrontendTest, StrayControlStatementsAreParseErrors) {
  const char* const sources[] = {
      "return 1\n",
      "x = 1\nreturn\n",
      "if True:\n    return 2\n",
      "break\n",
      "continue\n",
      "if True:\n    break\n",
      "def f():\n    break\n",
      "def f():\n    continue\n",
      "for i in range(2):\n    def f():\n        break\n",
      "while False:\n    pass\nbreak\n",
      "try:\n    x = 1\nfinally:\n    return 3\n",
      "class C:\n    def m(self):\n        return 1\nreturn 4\n",
  };
  for (const char* source : sources) {
    EXPECT_THROW(interp_.Run(source), InvalidArgument) << source;
  }
  try {
    interp_.Run("x = 1\n\nfor i in range(3):\n    pass\ncontinue\n");
    ADD_FAILURE() << "stray continue parsed";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << e.what();
  }
  // The interpreter is still usable.
  EXPECT_EQ(Num(RunAndGet("y = 7\n", "y")), 7);
}

TEST_F(FrontendTest, ReturnThroughLoopsRunsFinally) {
  interp_.Run(R"(
log = []
def find(limit):
    n = 0
    try:
        while n < limit:
            for i in range(10):
                if n == 2 and i == 3:
                    return n * 10 + i
            n += 1
    finally:
        log.append(n)
    return -1
result = find(5)
missing = find(1)
)");
  EXPECT_EQ(Num(interp_.GetGlobal("result")), 23);
  EXPECT_EQ(Num(interp_.GetGlobal("missing")), -1);
  interp_.Run("first = log[0]\nsecond = log[1]\ncount = len(log)\n");
  EXPECT_EQ(Num(interp_.GetGlobal("first")), 2);
  EXPECT_EQ(Num(interp_.GetGlobal("second")), 1);
  EXPECT_EQ(Num(interp_.GetGlobal("count")), 2);
}

// A function called from a finally block does not replace the value a
// pending `return` carries; a `return` in the finally block does.
TEST_F(FrontendTest, FinallyKeepsOrReplacesThePendingReturn) {
  interp_.Run(R"(
def g():
    return 100
def kept():
    try:
        return 1
    finally:
        g()
def replaced():
    try:
        return 1
    finally:
        return 2
def swallowed():
    try:
        raise 'boom'
    finally:
        return 3
a = kept()
b = replaced()
c = swallowed()
)");
  EXPECT_EQ(Num(interp_.GetGlobal("a")), 1);
  EXPECT_EQ(Num(interp_.GetGlobal("b")), 2);
  EXPECT_EQ(Num(interp_.GetGlobal("c")), 3);
}

TEST_F(FrontendTest, BreakAndContinueInNestedLoops) {
  interp_.Run(R"(
acc = 0
for i in range(4):
    j = 0
    while True:
        j += 1
        if j > i:
            break
        if j == 2:
            continue
        for k in range(10):
            if k == 1:
                break
            acc += 100
        acc += j
    if i == 2:
        continue
    acc += 1000
)");
  // i=0: no inner trips; i=1: j=1; i=2: j=1, j=2 skipped; i=3: j=1, 3.
  // Each counted j adds 100 + j; every i but 2 adds 1000.
  EXPECT_EQ(Num(interp_.GetGlobal("acc")),
            3000 + (101) + (101) + (101 + 103));
}

TEST_F(FrontendTest, BodyWithoutReturnYieldsNone) {
  interp_.Run(R"(
def f(x):
    y = x + 1
def g():
    for i in range(3):
        pass
a = f(1)
b = g()
)");
  EXPECT_TRUE(Is<NoneType>(interp_.GetGlobal("a")));
  EXPECT_TRUE(Is<NoneType>(interp_.GetGlobal("b")));
}

TEST_F(FrontendTest, ClosuresCaptureEnvironment) {
  interp_.Run(R"(
def make_adder(k):
    def add(x):
        return x + k
    return add
add5 = make_adder(5)
result = add5(37)
)");
  EXPECT_EQ(Num(interp_.GetGlobal("result")), 42);
}

TEST_F(FrontendTest, LambdaExpressions) {
  interp_.Run(R"(
f = lambda a, b: a * b + 1
result = f(6, 7)
)");
  EXPECT_EQ(Num(interp_.GetGlobal("result")), 43);
}

TEST_F(FrontendTest, GlobalStatement) {
  interp_.Run(R"(
counter = 0
def bump():
    global counter
    counter = counter + 1
bump()
bump()
bump()
)");
  EXPECT_EQ(Num(interp_.GetGlobal("counter")), 3);
}

TEST_F(FrontendTest, ClassesAndImpureMethods) {
  // The RNN state-passing pattern of Fig. 1: a method reads and mutates an
  // object attribute (IF).
  interp_.Run(R"(
class Accumulator:
    def __init__(self, start):
        self.state = start
    def add(self, x):
        self.state = self.state + x
        return self.state

acc = Accumulator(10)
a = acc.add(1)
b = acc.add(2)
final = acc.state
)");
  EXPECT_EQ(Num(interp_.GetGlobal("a")), 11);
  EXPECT_EQ(Num(interp_.GetGlobal("b")), 13);
  EXPECT_EQ(Num(interp_.GetGlobal("final")), 13);
}

TEST_F(FrontendTest, CallableObjectsViaDunderCall) {
  interp_.Run(R"(
class Doubler:
    def __call__(self, x):
        return x * 2
d = Doubler()
result = d(21)
)");
  EXPECT_EQ(Num(interp_.GetGlobal("result")), 42);
}

TEST_F(FrontendTest, ListsAndDicts) {
  interp_.Run(R"(
xs = [1, 2, 3]
xs.append(4)
xs[0] = 10
d = {'a': 1, 2: 'two'}
d['b'] = xs[3]
n = len(xs) + len(d)
has = 2 in d
first = xs[0]
neg = xs[-1]
)");
  EXPECT_EQ(Num(interp_.GetGlobal("n")), 7);
  EXPECT_TRUE(std::get<bool>(interp_.GetGlobal("has")));
  EXPECT_EQ(Num(interp_.GetGlobal("first")), 10);
  EXPECT_EQ(Num(interp_.GetGlobal("neg")), 4);
}

TEST_F(FrontendTest, TupleUnpacking) {
  interp_.Run("a, b = [1, 2]\nc = a + b\n");
  EXPECT_EQ(Num(interp_.GetGlobal("c")), 3);
}

TEST_F(FrontendTest, TryExceptFinallyAndRaise) {
  interp_.Run(R"(
log = []
def risky(x):
    try:
        if x > 0:
            raise 'positive!'
        log.append('ok')
    except Error as e:
        log.append('caught')
    finally:
        log.append('finally')

risky(1)
risky(-1)
n = len(log)
)");
  EXPECT_EQ(Num(interp_.GetGlobal("n")), 4);  // caught,finally,ok,finally
}

TEST_F(FrontendTest, UncaughtRaisePropagates) {
  EXPECT_THROW(interp_.Run("raise 'boom'\n"), MiniPyError);
}

TEST_F(FrontendTest, BooleanShortCircuit) {
  interp_.Run(R"(
def boom():
    raise 'should not run'
a = False and boom()
b = True or boom()
)");
  EXPECT_FALSE(std::get<bool>(interp_.GetGlobal("a")));
  EXPECT_TRUE(std::get<bool>(interp_.GetGlobal("b")));
}

TEST_F(FrontendTest, NameErrorsHaveMessages) {
  try {
    interp_.Run("x = undefined_name\n");
    FAIL();
  } catch (const MiniPyError& e) {
    EXPECT_NE(std::string(e.what()).find("undefined_name"),
              std::string::npos);
  }
}

TEST_F(FrontendTest, IntBuiltinKeepsInt64Exact) {
  // 2^53 + 1 has no double; a conversion through double reads 2^53.
  interp_.Run(R"(
a = int(9007199254740993)
b = int(constant_int([9007199254740993]))
c = int(-9007199254740993)
d = int(-2.7)
e = int(constant([2.9]))
f = int(-9223372036854775808.0)
)");
  EXPECT_EQ(std::get<std::int64_t>(interp_.GetGlobal("a")),
            9007199254740993);
  EXPECT_EQ(std::get<std::int64_t>(interp_.GetGlobal("b")),
            9007199254740993);
  EXPECT_EQ(std::get<std::int64_t>(interp_.GetGlobal("c")),
            -9007199254740993);
  EXPECT_EQ(std::get<std::int64_t>(interp_.GetGlobal("d")), -2);
  EXPECT_EQ(std::get<std::int64_t>(interp_.GetGlobal("e")), 2);
  EXPECT_EQ(std::get<std::int64_t>(interp_.GetGlobal("f")),
            std::numeric_limits<std::int64_t>::min());
}

TEST_F(FrontendTest, IntBuiltinRejectsFloatsWithoutInt64Value) {
  interp_.Run("inf = 1e300 * 1e300\nnan = inf - inf\n");
  for (const char* call :
       {"int(1e300)", "int(-1e300)", "int(inf)", "int(-inf)", "int(nan)",
        "int(9223372036854775808.0)", "int(constant([1e30]))",
        "int(constant([1.0]) * nan)"}) {
    SCOPED_TRACE(call);
    try {
      interp_.Run(std::string("r = ") + call + "\n");
      ADD_FAILURE() << "no error";
    } catch (const MiniPyError& e) {
      EXPECT_NE(std::string(e.what()).find("int(): cannot convert"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---- Interpreter: tensors ----

TEST_F(FrontendTest, TensorArithmeticWithBroadcast) {
  interp_.Run(R"(
a = constant([[1.0, 2.0], [3.0, 4.0]])
b = constant([10.0, 20.0])
c = a * 2 + b
s = reduce_sum(c)
)");
  EXPECT_DOUBLE_EQ(Num(interp_.GetGlobal("s")), 2 + 4 + 6 + 8 + 4 * 15);
}

TEST_F(FrontendTest, TensorIterationAndSubscript) {
  interp_.Run(R"(
m = constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
total = 0.0
for row in m:
    total = total + reduce_sum(row)
first_row_sum = reduce_sum(m[0])
)");
  EXPECT_DOUBLE_EQ(Num(interp_.GetGlobal("total")), 21);
  EXPECT_DOUBLE_EQ(Num(interp_.GetGlobal("first_row_sum")), 3);
}

TEST_F(FrontendTest, TensorComparisonsAndSelect) {
  interp_.Run(R"(
x = constant([1.0, -2.0, 3.0])
mask = x > 0
y = select(mask, x, 0.0 * x)
s = reduce_sum(y)
)");
  EXPECT_DOUBLE_EQ(Num(interp_.GetGlobal("s")), 4);
}

TEST_F(FrontendTest, MatmulAndShapes) {
  interp_.Run(R"(
a = constant([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
b = transpose(a)
c = matmul(a, b)
dims = c.shape
)");
  const auto dims =
      std::get<std::shared_ptr<ListValue>>(interp_.GetGlobal("dims"));
  EXPECT_EQ(Num(dims->items[0]), 2);
  EXPECT_EQ(Num(dims->items[1]), 2);
}

TEST_F(FrontendTest, VariablesPersistAcrossStatements) {
  interp_.Run(R"(
w = variable('w', constant([1.0, 2.0]))
assign(w, w * 3)
s = reduce_sum(w)
)");
  EXPECT_DOUBLE_EQ(Num(interp_.GetGlobal("s")), 9);
  EXPECT_TRUE(variables_.Contains("w"));
}

// ---- Imperative training via the tape ----

TEST_F(FrontendTest, OptimizeRunsSgdOnLinearRegression) {
  // Fit y = 2x with a scalar weight; loss must decrease.
  interp_.Run(R"(
w = variable('lin_w', constant([[0.5]]))
x = constant([[1.0], [2.0], [3.0]])
y = constant([[2.0], [4.0], [6.0]])

def loss_fn():
    pred = matmul(x, w)
    err = pred - y
    return reduce_mean(err * err)

first = optimize(loss_fn, 0.05)
for i in range(60):
    last = optimize(loss_fn, 0.05)
)");
  const double first = Num(interp_.GetGlobal("first"));
  const double last = Num(interp_.GetGlobal("last"));
  EXPECT_LT(last, first * 0.05);
  // Weight converged near 2.
  EXPECT_NEAR(variables_.Read("lin_w").data<float>()[0], 2.0f, 0.1f);
}

TEST_F(FrontendTest, GradientsBuiltinMatchesManualDerivative) {
  interp_.Run(R"(
w = variable('gw', constant([3.0]))
def f():
    return reduce_sum(w * w)
g = gradients(f)
)");
  const auto dict =
      std::get<std::shared_ptr<DictValue>>(interp_.GetGlobal("g"));
  const Tensor grad = std::get<Tensor>(dict->items.at(DictKey{"gw"}));
  EXPECT_FLOAT_EQ(grad.data<float>()[0], 6.0f);  // d(w^2)/dw = 2w
}

TEST_F(FrontendTest, FailedOptimizeAndGradientsDropTheTape) {
  // A loss function that raises must not leave the eager tape recording,
  // or every later eager op would record onto it.
  interp_.Run(R"(
w = variable('tape_w', constant([1.0]))
def bad():
    y = w * 2.0
    raise 'loss failed'
caught = 0
try:
    optimize(bad, 0.1)
except Error as e:
    caught = caught + 1
)");
  EXPECT_FALSE(interp_.eager().TapeActive());
  interp_.Run(R"(
try:
    gradients(bad)
except Error as e:
    caught = caught + 1
)");
  EXPECT_FALSE(interp_.eager().TapeActive());
  EXPECT_EQ(Num(interp_.GetGlobal("caught")), 2);
}

TEST_F(FrontendTest, GradientsFlowThroughPythonControlFlow) {
  // The tape records through interpreter-level loops and branches (DCF).
  interp_.Run(R"(
w = variable('cw', constant([2.0]))
def f():
    acc = w
    for i in range(3):
        if i % 2 == 0:
            acc = acc * w
        else:
            acc = acc + w
    return reduce_sum(acc)
g = gradients(f)
)");
  // acc = ((w*w)+w)*w = w^3+w^2; d/dw = 3w^2+2w = 16 at w=2.
  const auto dict =
      std::get<std::shared_ptr<DictValue>>(interp_.GetGlobal("g"));
  const Tensor grad = std::get<Tensor>(dict->items.at(DictKey{"cw"}));
  EXPECT_FLOAT_EQ(grad.data<float>()[0], 16.0f);
}

TEST_F(FrontendTest, EagerOpsPayTheDispatchPenalty) {
  // Eager ops run through the executor's one kernel dispatch, which pays
  // the calibrated penalty before every kernel. Only the lower bound is
  // asserted: a slow host cannot make it flake.
  interp_.eager().set_dispatch_penalty_ns(2'000'000);
  const Tensor a = Tensor::Full(Shape{4}, 1.0f);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) interp_.eager().Execute("Add", {a, a});
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(10));
}

TEST_F(FrontendTest, TapeBackwardPlanTakesForwardValuesAsArguments) {
  // The backward plan reads the recorded forward values as Placeholder
  // arguments, so no forward node (the variable reads among them) is part
  // of it, and it is built unfused: each backward op is its own dispatch.
  obs::ProfileRegistry::Global().Reset();
  interp_.Run(R"(
w = variable('tape_arg_w', constant([[0.5, -1.0], [2.0, 1.5]]))
x = constant([[1.0, 2.0], [3.0, 4.0]])
def loss_fn():
    h = matmul(x, w)
    return reduce_mean(tanh(h * 2.0 + 1.0) * h - h)
loss = optimize(loss_fn, 0.1)
)");
  std::shared_ptr<obs::PlanProfile> tape;
  for (const auto& profile : obs::ProfileRegistry::Global().Profiles()) {
    if (profile->unit() == "<imperative tape>") tape = profile;  // newest
  }
  ASSERT_NE(tape, nullptr);
  int placeholders = 0;
  for (const obs::ProfileNodeInfo& node : tape->nodes()) {
    EXPECT_NE(node.op, "ReadVariable") << node.name;
    EXPECT_NE(node.op, "FusedRegion") << node.name;
    if (node.op == "Placeholder") ++placeholders;
  }
  EXPECT_GE(placeholders, 1);
}

TEST_F(FrontendTest, Fig1RnnPatternTrainsImperatively) {
  // The paper's Figure 1 program shape: state passing through an object
  // attribute across optimize() calls.
  interp_.Run(R"(
class RNNModel:
    def __init__(self):
        self.state = zeros([1, 4])
        self.w = variable('rnn_w', randn([8, 4], 0.1))
    def __call__(self, sequence):
        state = self.state
        outputs = []
        for item in sequence:
            joined = concat([state, item], 1)
            state = tanh(matmul(joined, self.w))
            outputs = outputs + [state]
        self.state = stop_gradient(state)
        total = 0.0
        for out in outputs:
            total = total + reduce_mean(out * out)
        return total

model = RNNModel()
sequences = [constant([[1.0, 0.0, 0.0, 1.0]]), constant([[0.0, 1.0, 1.0, 0.0]])]
losses = []
for i in range(4):
    for seq in sequences:
        losses.append(optimize(lambda: model([seq]), 0.1))
n = len(losses)
)");
  EXPECT_EQ(Num(interp_.GetGlobal("n")), 8);
}

TEST_F(FrontendTest, StatementCounterAdvances) {
  const auto before = interp_.statements_executed();
  interp_.Run("x = 1\ny = 2\nz = x + y\n");
  EXPECT_GE(interp_.statements_executed() - before, 3);
}

// ---- Observer hooks ----

class RecordingObserver : public ExecutionObserver {
 public:
  void OnBranch(const Stmt*, bool taken) override {
    branches.push_back(taken);
  }
  void OnLoopFinished(const Stmt*, std::int64_t trips) override {
    loops.push_back(trips);
  }
  void OnFunctionEntry(const Stmt* def, std::span<const Value>) override {
    entries.push_back(def->name);
  }
  std::vector<bool> branches;
  std::vector<std::int64_t> loops;
  std::vector<std::string> entries;
};

TEST_F(FrontendTest, ObserverSeesBranchesLoopsAndCalls) {
  RecordingObserver observer;
  interp_.set_observer(&observer);
  interp_.Run(R"(
def f(n):
    total = 0
    for i in range(n):
        if i % 2 == 0:
            total += i
    return total
r = f(4)
)");
  interp_.set_observer(nullptr);
  ASSERT_EQ(observer.loops.size(), 1u);
  EXPECT_EQ(observer.loops[0], 4);
  EXPECT_EQ(observer.branches.size(), 4u);
  ASSERT_EQ(observer.entries.size(), 1u);
  EXPECT_EQ(observer.entries[0], "f");
}

}  // namespace
}  // namespace janus::minipy
