// Unit tests for the tensor substrate: shapes, broadcasting, elementwise
// kernels, linear algebra, reductions, NN ops, and gather/scatter, plus two
// oracle sweeps: one holds the strided kernels (broadcast loops, reductions,
// BroadcastTo, Slice, SliceGrad) to per-element reference maps, the other
// holds MatMul and the Conv2D family to the loop nests they replaced.
#include "tensor/ops.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "tensor/elementwise.h"
#include "tensor/tensor.h"

namespace janus {

// gtest finds this by argument-dependent lookup. Without it a Shape prints as
// its raw bytes, which hold heap addresses, so the parameterized test names
// below would change from one build to the next.
void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.ToString(); }

namespace {

using ::testing::Test;

Tensor Vec(std::vector<float> v) {
  const auto n = static_cast<std::int64_t>(v.size());
  return Tensor::FromVector(std::move(v), Shape{n});
}

Tensor Mat(std::vector<float> v, std::int64_t rows, std::int64_t cols) {
  return Tensor::FromVector(std::move(v), Shape{rows, cols});
}

void ExpectNear(const Tensor& t, const std::vector<float>& expected,
                float tol = 1e-5f) {
  ASSERT_EQ(t.num_elements(), static_cast<std::int64_t>(expected.size()));
  const auto data = t.data<float>();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(data[i], expected[i], tol) << "at index " << i;
  }
}

TEST(ShapeTest, RankAndElements) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.num_elements(), 24);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.ToString(), "(2, 3, 4)");
}

TEST(ShapeTest, ScalarShape) {
  const Shape s{};
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.num_elements(), 1);
}

TEST(ShapeTest, Strides) {
  const Shape s{2, 3, 4};
  const auto strides = s.Strides();
  EXPECT_EQ(strides, (std::vector<std::int64_t>{12, 4, 1}));
}

TEST(ShapeTest, BroadcastCompatible) {
  EXPECT_EQ(BroadcastShapes(Shape{4, 1}, Shape{3}), (Shape{4, 3}));
  EXPECT_EQ(BroadcastShapes(Shape{}, Shape{2, 2}), (Shape{2, 2}));
  EXPECT_EQ(BroadcastShapes(Shape{5, 1, 3}, Shape{1, 2, 1}), (Shape{5, 2, 3}));
}

TEST(ShapeTest, BroadcastOneAgainstZeroIsZero) {
  EXPECT_EQ(BroadcastShapes(Shape{0, 3}, Shape{3}), (Shape{0, 3}));
  EXPECT_EQ(BroadcastShapes(Shape{3, 1}, Shape{0, 1, 4}), (Shape{0, 3, 4}));
  const Tensor sum =
      ops::Add(Tensor::Zeros(DType::kFloat32, Shape{0, 3}), Vec({1, 2, 3}));
  EXPECT_EQ(sum.shape(), (Shape{0, 3}));
  EXPECT_EQ(ops::BroadcastTo(Vec({1}), Shape{0, 3}).shape(), (Shape{0, 3}));
}

TEST(ShapeTest, BroadcastIncompatibleThrows) {
  EXPECT_THROW(BroadcastShapes(Shape{2, 3}, Shape{4, 3}), InvalidArgument);
}

TEST(TensorTest, FactoryAndAccess) {
  const Tensor z = Tensor::Zeros(DType::kFloat32, Shape{2, 2});
  ExpectNear(z, {0, 0, 0, 0});
  const Tensor f = Tensor::Full(Shape{3}, 2.5f);
  ExpectNear(f, {2.5f, 2.5f, 2.5f});
  const Tensor s = Tensor::Scalar(7.0f);
  EXPECT_FLOAT_EQ(s.ScalarValue(), 7.0f);
  const Tensor i = Tensor::ScalarInt(42);
  EXPECT_EQ(i.ScalarIntValue(), 42);
  EXPECT_TRUE(Tensor::ScalarBool(true).ScalarBoolValue());
}

TEST(TensorTest, ReshapeSharesBufferAndChecksCount) {
  const Tensor t = Vec({1, 2, 3, 4});
  const Tensor r = t.Reshaped(Shape{2, 2});
  EXPECT_EQ(r.shape(), (Shape{2, 2}));
  EXPECT_THROW(t.Reshaped(Shape{3}), InvalidArgument);
}

TEST(TensorTest, ElementsEqual) {
  EXPECT_TRUE(Vec({1, 2}).ElementsEqual(Vec({1, 2})));
  EXPECT_FALSE(Vec({1, 2}).ElementsEqual(Vec({1, 3})));
  EXPECT_FALSE(Vec({1, 2}).ElementsEqual(Tensor::ScalarInt(1)));
}

TEST(TensorTest, DTypeMismatchThrows) {
  const Tensor t = Tensor::ScalarInt(1);
  EXPECT_THROW(t.data<float>(), InternalError);
}

TEST(TensorTest, DefaultTensorsShareOneZeroBuffer) {
  const Tensor a;
  const Tensor b;
  EXPECT_EQ(a.ScalarValue(), 0.0f);
  EXPECT_TRUE(a.SharesBufferWith(b));
  // The shared placeholder is always multiply-referenced, so it can never
  // be stolen for in-place writes.
  EXPECT_FALSE(a.BufferUnique());
}

TEST(TensorTest, ZerosAreZeroAndUninitializedIsDistinct) {
  const Tensor z = Tensor::Zeros(DType::kFloat32, Shape{3, 3});
  for (const float v : z.data<float>()) EXPECT_EQ(v, 0.0f);
  const Tensor u = Tensor::Uninitialized(DType::kInt64, Shape{2});
  EXPECT_EQ(u.byte_size(), 16u);
}

TEST(InPlaceReuseTest, NoReuseWithoutActiveScope) {
  // Outside an InPlaceScope, kernels always allocate fresh outputs — even
  // when an operand's buffer is uniquely referenced.
  const Tensor t = Vec({-1, 2, -3});
  EXPECT_TRUE(t.BufferUnique());
  const Tensor r = ops::Relu(t);
  EXPECT_FALSE(r.SharesBufferWith(t));
  ExpectNear(t, {-1, 2, -3});
}

TEST(InPlaceReuseTest, SharedBufferIsNeverMutatedInsideScope) {
  // Copy-on-write under in-place reuse: a second live reference must force
  // a fresh allocation even when the executor has opened the scope.
  Tensor x = Vec({-1, -2, -3});
  const Tensor alias = x;
  const InPlaceScope scope(true);
  const Tensor r = ops::Relu(x);
  EXPECT_FALSE(r.SharesBufferWith(x));
  ExpectNear(r, {0, 0, 0});
  ExpectNear(x, {-1, -2, -3});
  ExpectNear(alias, {-1, -2, -3});
}

TEST(InPlaceReuseTest, UniqueDeadInputIsReusedInsideScope) {
  // With the scope open (as the executor does for plan-marked nodes) and a
  // uniquely-referenced operand, the kernel writes over the dead buffer.
  Tensor t = Vec({-1, 2, -3});
  const void* buffer = t.data_id();
  const InPlaceScope scope(true);
  const Tensor r = ops::Relu(t);
  EXPECT_EQ(r.data_id(), buffer);
  ExpectNear(r, {0, 2, 0});
}

TEST(InPlaceReuseTest, ByteSizeMismatchForcesFreshAllocation) {
  // Comparisons produce bool (1 byte/elem) from float operands (4): the
  // byte-size gate must reject the steal despite matching element counts.
  Tensor a = Vec({1, 2, 3});
  Tensor b = Vec({2, 2, 2});
  const InPlaceScope scope(true);
  const Tensor r = ops::Less(a, b);
  EXPECT_FALSE(r.SharesBufferWith(a));
  EXPECT_FALSE(r.SharesBufferWith(b));
  EXPECT_EQ(r.dtype(), DType::kBool);
}

TEST(InPlaceReuseTest, BroadcastOperandsAreNeverReused) {
  // Broadcast Add takes the indexer path (output index != input index), so
  // neither operand's buffer may be stolen even inside the scope.
  Tensor m = Tensor::Full(Shape{2, 3}, 1.0f);
  Tensor row = Vec({10, 20, 30});
  const InPlaceScope scope(true);
  const Tensor r = ops::Add(m, row);
  EXPECT_FALSE(r.SharesBufferWith(m));
  EXPECT_FALSE(r.SharesBufferWith(row));
  ExpectNear(r, {11, 21, 31, 11, 21, 31});
}

TEST(ElementwiseTest, AddSameShape) {
  ExpectNear(ops::Add(Vec({1, 2, 3}), Vec({10, 20, 30})), {11, 22, 33});
}

TEST(ElementwiseTest, AddBroadcastScalar) {
  ExpectNear(ops::Add(Vec({1, 2, 3}), Tensor::Scalar(5)), {6, 7, 8});
}

TEST(ElementwiseTest, AddBroadcastRows) {
  const Tensor a = Mat({1, 2, 3, 4, 5, 6}, 2, 3);
  const Tensor row = Vec({10, 20, 30});
  ExpectNear(ops::Add(a, row), {11, 22, 33, 14, 25, 36});
}

TEST(ElementwiseTest, AddBroadcastColumns) {
  const Tensor a = Mat({1, 2, 3, 4, 5, 6}, 2, 3);
  const Tensor col = Mat({100, 200}, 2, 1);
  ExpectNear(ops::Add(a, col), {101, 102, 103, 204, 205, 206});
}

TEST(ElementwiseTest, IntArithmetic) {
  const Tensor a = Tensor::FromVectorInt({7, -7}, Shape{2});
  const Tensor b = Tensor::FromVectorInt({2, 2}, Shape{2});
  const Tensor fd = ops::FloorDiv(a, b);
  EXPECT_EQ(fd.data<std::int64_t>()[0], 3);
  EXPECT_EQ(fd.data<std::int64_t>()[1], -4);  // floor semantics
  const Tensor m = ops::Mod(a, b);
  EXPECT_EQ(m.data<std::int64_t>()[0], 1);
  EXPECT_EQ(m.data<std::int64_t>()[1], 1);  // Python-style modulo
}

TEST(ElementwiseTest, TrueDivPromotesIntToFloat) {
  const Tensor q = ops::Div(Tensor::ScalarInt(7), Tensor::ScalarInt(2));
  EXPECT_EQ(q.dtype(), DType::kFloat32);
  EXPECT_FLOAT_EQ(q.ScalarValue(), 3.5f);
}

TEST(ElementwiseTest, DivByZeroIntThrows) {
  EXPECT_THROW(ops::FloorDiv(Tensor::ScalarInt(1), Tensor::ScalarInt(0)),
               InvalidArgument);
}

TEST(ElementwiseTest, PowFloatAndInt) {
  EXPECT_FLOAT_EQ(ops::Pow(Tensor::Scalar(2), Tensor::Scalar(10)).ScalarValue(),
                  1024.0f);
  EXPECT_EQ(
      ops::Pow(Tensor::ScalarInt(3), Tensor::ScalarInt(4)).ScalarIntValue(),
      81);
}

TEST(ElementwiseTest, DTypeMismatchThrows) {
  EXPECT_THROW(ops::Add(Tensor::Scalar(1), Tensor::ScalarInt(1)),
               InvalidArgument);
}

TEST(ElementwiseTest, UnaryMath) {
  ExpectNear(ops::Neg(Vec({1, -2})), {-1, 2});
  ExpectNear(ops::Abs(Vec({-3, 4})), {3, 4});
  ExpectNear(ops::Exp(Vec({0, 1})), {1.0f, std::exp(1.0f)});
  ExpectNear(ops::Log(Vec({1, std::exp(2.0f)})), {0, 2});
  ExpectNear(ops::Sqrt(Vec({4, 9})), {2, 3});
  ExpectNear(ops::Square(Vec({3, -2})), {9, 4});
  ExpectNear(ops::Relu(Vec({-1, 0, 2})), {0, 0, 2});
  ExpectNear(ops::Sigmoid(Vec({0})), {0.5f});
  ExpectNear(ops::Tanh(Vec({0})), {0});
  ExpectNear(ops::Sign(Vec({-5, 0, 3})), {-1, 0, 1});
}

TEST(ElementwiseTest, ReluGradMasks) {
  ExpectNear(ops::ReluGrad(Vec({10, 10, 10}), Vec({-1, 0, 2})), {0, 0, 10});
}

TEST(ComparisonTest, ProducesBools) {
  const Tensor lt = ops::Less(Vec({1, 5}), Vec({3, 3}));
  EXPECT_EQ(lt.dtype(), DType::kBool);
  EXPECT_EQ(lt.data<std::uint8_t>()[0], 1);
  EXPECT_EQ(lt.data<std::uint8_t>()[1], 0);
  EXPECT_TRUE(ops::Equal(Tensor::ScalarInt(4), Tensor::ScalarInt(4))
                  .ScalarBoolValue());
  EXPECT_TRUE(ops::GreaterEqual(Tensor::Scalar(2), Tensor::Scalar(2))
                  .ScalarBoolValue());
}

TEST(ComparisonTest, LogicalOps) {
  const Tensor t = Tensor::ScalarBool(true);
  const Tensor f = Tensor::ScalarBool(false);
  EXPECT_FALSE(ops::LogicalAnd(t, f).ScalarBoolValue());
  EXPECT_TRUE(ops::LogicalOr(t, f).ScalarBoolValue());
  EXPECT_TRUE(ops::LogicalNot(f).ScalarBoolValue());
}

TEST(SelectTest, PicksByCondition) {
  const Tensor cond = ops::Greater(Vec({1, -1, 2}), Tensor::Scalar(0));
  ExpectNear(ops::Select(cond, Vec({10, 20, 30}), Vec({-10, -20, -30})),
             {10, -20, 30});
}

TEST(MatMulTest, Basic) {
  const Tensor a = Mat({1, 2, 3, 4}, 2, 2);
  const Tensor b = Mat({5, 6, 7, 8}, 2, 2);
  ExpectNear(ops::MatMul(a, b), {19, 22, 43, 50});
}

TEST(MatMulTest, RectangularShapes) {
  const Tensor a = Mat({1, 0, 0, 1, 1, 1}, 3, 2);
  const Tensor b = Mat({2, 3, 4, 5, 6, 7, 8, 9}, 2, 4);
  const Tensor c = ops::MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{3, 4}));
  ExpectNear(c, {2, 3, 4, 5, 6, 7, 8, 9, 8, 10, 12, 14});
}

TEST(MatMulTest, IncompatibleThrows) {
  EXPECT_THROW(ops::MatMul(Mat({1, 2}, 1, 2), Mat({1, 2, 3}, 1, 3)),
               InvalidArgument);
}

TEST(TransposeTest, Basic) {
  ExpectNear(ops::Transpose(Mat({1, 2, 3, 4, 5, 6}, 2, 3)),
             {1, 4, 2, 5, 3, 6});
}

TEST(ReduceTest, SumAll) {
  EXPECT_FLOAT_EQ(ops::ReduceSum(Mat({1, 2, 3, 4}, 2, 2)).ScalarValue(), 10);
}

TEST(ReduceTest, SumAxis0) {
  ExpectNear(ops::ReduceSum(Mat({1, 2, 3, 4, 5, 6}, 2, 3), {0}), {5, 7, 9});
}

TEST(ReduceTest, SumAxis1KeepDims) {
  const Tensor r = ops::ReduceSum(Mat({1, 2, 3, 4, 5, 6}, 2, 3), {1}, true);
  EXPECT_EQ(r.shape(), (Shape{2, 1}));
  ExpectNear(r, {6, 15});
}

TEST(ReduceTest, NegativeAxis) {
  ExpectNear(ops::ReduceSum(Mat({1, 2, 3, 4}, 2, 2), {-1}), {3, 7});
}

TEST(ReduceTest, Mean) {
  EXPECT_FLOAT_EQ(ops::ReduceMean(Vec({2, 4, 6})).ScalarValue(), 4);
}

TEST(ReduceTest, Max) {
  ExpectNear(ops::ReduceMax(Mat({1, 9, 3, 4, 5, 6}, 2, 3), {1}), {9, 6});
}

TEST(ReduceTest, ReduceToShapeReversesBroadcast) {
  const Tensor grad = Mat({1, 1, 1, 1, 1, 1}, 2, 3);
  const Tensor row = ops::ReduceToShape(grad, Shape{3});
  ExpectNear(row, {2, 2, 2});
  const Tensor col = ops::ReduceToShape(grad, Shape{2, 1});
  ExpectNear(col, {3, 3});
  const Tensor scalar = ops::ReduceToShape(grad, Shape{});
  EXPECT_FLOAT_EQ(scalar.ScalarValue(), 6);
}

TEST(ArgMaxTest, LastAxis) {
  const Tensor am = ops::ArgMax(Mat({1, 9, 3, 6, 5, 4}, 2, 3), -1);
  EXPECT_EQ(am.dtype(), DType::kInt64);
  EXPECT_EQ(am.data<std::int64_t>()[0], 1);
  EXPECT_EQ(am.data<std::int64_t>()[1], 0);
}

TEST(SoftmaxTest, RowsSumToOne) {
  const Tensor sm = ops::Softmax(Mat({1, 2, 3, 1, 1, 1}, 2, 3));
  const Tensor sums = ops::ReduceSum(sm, {1});
  ExpectNear(sums, {1, 1});
  // Uniform logits give uniform probabilities.
  const auto data = sm.data<float>();
  EXPECT_NEAR(data[3], 1.0f / 3, 1e-5f);
}

TEST(SoftmaxTest, NumericallyStableForLargeLogits) {
  const Tensor sm = ops::Softmax(Mat({1000, 1001, 999}, 1, 3));
  const auto data = sm.data<float>();
  EXPECT_FALSE(std::isnan(data[0]));
  EXPECT_GT(data[1], data[0]);
}

TEST(SoftmaxXentTest, MatchesManualComputation) {
  const Tensor logits = Mat({2, 1, 0, 0, 1, 2}, 2, 3);
  const Tensor labels = Tensor::FromVectorInt({0, 2}, Shape{2});
  const Tensor losses = ops::SoftmaxCrossEntropy(logits, labels);
  // loss = -log softmax(logits)[label]
  const float denom = std::exp(2.0f) + std::exp(1.0f) + std::exp(0.0f);
  const float expected = -std::log(std::exp(2.0f) / denom);
  ExpectNear(losses, {expected, expected}, 1e-4f);
}

TEST(OneHotTest, Basic) {
  const Tensor oh = ops::OneHot(Tensor::FromVectorInt({1, 0}, Shape{2}), 3);
  ExpectNear(oh, {0, 1, 0, 1, 0, 0});
}

TEST(OneHotTest, OutOfRangeThrows) {
  EXPECT_THROW(ops::OneHot(Tensor::FromVectorInt({5}, Shape{1}), 3),
               InvalidArgument);
}

TEST(ConcatTest, Axis0AndAxis1) {
  const Tensor a = Mat({1, 2, 3, 4}, 2, 2);
  const Tensor b = Mat({5, 6}, 1, 2);
  const Tensor c0 = ops::Concat({a, b}, 0);
  EXPECT_EQ(c0.shape(), (Shape{3, 2}));
  ExpectNear(c0, {1, 2, 3, 4, 5, 6});

  const Tensor col = Mat({9, 8}, 2, 1);
  const Tensor c1 = ops::Concat({a, col}, 1);
  EXPECT_EQ(c1.shape(), (Shape{2, 3}));
  ExpectNear(c1, {1, 2, 9, 3, 4, 8});
}

TEST(StackTest, AddsLeadingAxis) {
  const Tensor s = ops::Stack({Vec({1, 2}), Vec({3, 4}), Vec({5, 6})});
  EXPECT_EQ(s.shape(), (Shape{3, 2}));
  ExpectNear(s, {1, 2, 3, 4, 5, 6});
}

TEST(SliceTest, Basic) {
  const Tensor a = Mat({1, 2, 3, 4, 5, 6, 7, 8, 9}, 3, 3);
  const Tensor s = ops::Slice(a, {1, 0}, {2, 2});
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  ExpectNear(s, {4, 5, 7, 8});
}

TEST(SliceTest, NegativeOneSizeMeansToEnd) {
  const Tensor a = Vec({1, 2, 3, 4, 5});
  ExpectNear(ops::Slice(a, {2}, {-1}), {3, 4, 5});
}

TEST(SliceTest, OutOfBoundsThrows) {
  EXPECT_THROW(ops::Slice(Vec({1, 2}), {1}, {5}), InvalidArgument);
}

TEST(CastTest, RoundTrips) {
  const Tensor f = ops::Cast(Tensor::ScalarInt(3), DType::kFloat32);
  EXPECT_FLOAT_EQ(f.ScalarValue(), 3.0f);
  const Tensor i = ops::Cast(Tensor::Scalar(2.9f), DType::kInt64);
  EXPECT_EQ(i.ScalarIntValue(), 2);
  const Tensor b = ops::Cast(Tensor::Scalar(0.0f), DType::kBool);
  EXPECT_FALSE(b.ScalarBoolValue());
}

TEST(CastTest, Int64ToFloat32RoundsOnce) {
  // 2^54 + 2^30 + 1 lies just above the midpoint of two adjacent floats, so
  // one rounding goes up. Rounding through double first lands exactly on
  // the midpoint and ties to even, down.
  const std::int64_t x = (std::int64_t{1} << 54) + (std::int64_t{1} << 30) + 1;
  const Tensor f = ops::Cast(Tensor::FromVectorInt({x, -x}, Shape{2}),
                             DType::kFloat32);
  EXPECT_EQ(f.data<float>()[0], static_cast<float>(x));
  EXPECT_EQ(f.data<float>()[0], 18014400656965632.0f);
  EXPECT_EQ(f.data<float>()[1], -18014400656965632.0f);
}

TEST(CastTest, BoolIsNonZero) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor b = ops::Cast(
      Tensor::FromVector({0.0f, -0.0f, nan, 0.5f, -3.0f}, Shape{5}),
      DType::kBool);
  const auto bv = b.data<std::uint8_t>();
  EXPECT_EQ(std::vector<std::uint8_t>(bv.begin(), bv.end()),
            (std::vector<std::uint8_t>{0, 0, 1, 1, 1}));
  const Tensor i = ops::Cast(b, DType::kInt64);
  const auto iv = i.data<std::int64_t>();
  EXPECT_EQ(std::vector<std::int64_t>(iv.begin(), iv.end()),
            (std::vector<std::int64_t>{0, 0, 1, 1, 1}));
  ExpectNear(ops::Cast(b, DType::kFloat32), {0, 0, 1, 1, 1});
  const Tensor t = ops::Cast(Tensor::FromVectorInt({0, -5, 1}, Shape{3}),
                             DType::kBool);
  const auto tv = t.data<std::uint8_t>();
  EXPECT_EQ(std::vector<std::uint8_t>(tv.begin(), tv.end()),
            (std::vector<std::uint8_t>{0, 1, 1}));
}

TEST(BroadcastToTest, Materialises) {
  const Tensor b = ops::BroadcastTo(Vec({1, 2}), Shape{3, 2});
  ExpectNear(b, {1, 2, 1, 2, 1, 2});
  EXPECT_THROW(ops::BroadcastTo(Vec({1, 2, 3}), Shape{2, 2}), InvalidArgument);
}

TEST(GatherTest, LooksUpRows) {
  const Tensor params = Mat({1, 2, 10, 20, 100, 200}, 3, 2);
  const Tensor ids = Tensor::FromVectorInt({2, 0, 2}, Shape{3});
  const Tensor g = ops::Gather(params, ids);
  EXPECT_EQ(g.shape(), (Shape{3, 2}));
  ExpectNear(g, {100, 200, 1, 2, 100, 200});
}

TEST(GatherTest, OutOfVocabThrows) {
  EXPECT_THROW(ops::Gather(Mat({1, 2}, 1, 2),
                           Tensor::FromVectorInt({1}, Shape{1})),
               InvalidArgument);
}

TEST(GatherGradTest, ScatterAddsDuplicates) {
  const Tensor ids = Tensor::FromVectorInt({1, 1, 0}, Shape{3});
  const Tensor grad = Mat({1, 1, 2, 2, 5, 5}, 3, 2);
  const Tensor g = ops::GatherGrad(Shape{3, 2}, ids, grad);
  ExpectNear(g, {5, 5, 3, 3, 0, 0});
}

TEST(Conv2DTest, IdentityFilterPreservesInput) {
  // 1x1 filter with weight 1: output == input.
  const Tensor input = Tensor::FromVector({1, 2, 3, 4}, Shape{1, 2, 2, 1});
  const Tensor filter = Tensor::FromVector({1}, Shape{1, 1, 1, 1});
  const Tensor out = ops::Conv2D(input, filter, 1, "VALID");
  EXPECT_EQ(out.shape(), (Shape{1, 2, 2, 1}));
  ExpectNear(out, {1, 2, 3, 4});
}

TEST(Conv2DTest, SumFilterValid) {
  // 2x2 all-ones filter over a 3x3 image: each output is a window sum.
  const Tensor input =
      Tensor::FromVector({1, 2, 3, 4, 5, 6, 7, 8, 9}, Shape{1, 3, 3, 1});
  const Tensor filter = Tensor::FromVector({1, 1, 1, 1}, Shape{2, 2, 1, 1});
  const Tensor out = ops::Conv2D(input, filter, 1, "VALID");
  EXPECT_EQ(out.shape(), (Shape{1, 2, 2, 1}));
  ExpectNear(out, {12, 16, 24, 28});
}

TEST(Conv2DTest, SamePaddingKeepsSpatialSize) {
  const Tensor input =
      Tensor::FromVector({1, 2, 3, 4, 5, 6, 7, 8, 9}, Shape{1, 3, 3, 1});
  const Tensor filter =
      Tensor::FromVector({0, 0, 0, 0, 1, 0, 0, 0, 0}, Shape{3, 3, 1, 1});
  const Tensor out = ops::Conv2D(input, filter, 1, "SAME");
  EXPECT_EQ(out.shape(), (Shape{1, 3, 3, 1}));
  ExpectNear(out, {1, 2, 3, 4, 5, 6, 7, 8, 9});  // centre-tap identity
}

TEST(Conv2DTest, StrideTwoHalvesOutput) {
  const Tensor input = Tensor::Full(Shape{1, 4, 4, 1}, 1.0f);
  const Tensor filter = Tensor::FromVector({1}, Shape{1, 1, 1, 1});
  const Tensor out = ops::Conv2D(input, filter, 2, "VALID");
  EXPECT_EQ(out.shape(), (Shape{1, 2, 2, 1}));
}

TEST(Conv2DTest, MultiChannel) {
  // 2 input channels summed by a 1x1 filter into one output channel.
  const Tensor input =
      Tensor::FromVector({1, 10, 2, 20, 3, 30, 4, 40}, Shape{1, 2, 2, 2});
  const Tensor filter = Tensor::FromVector({1, 1}, Shape{1, 1, 2, 1});
  ExpectNear(ops::Conv2D(input, filter, 1, "VALID"), {11, 22, 33, 44});
}

TEST(Conv2DGradTest, GradInputOfSumFilterSpreadsGradient) {
  const Shape in_shape{1, 2, 2, 1};
  const Tensor filter = Tensor::FromVector({1, 1, 1, 1}, Shape{2, 2, 1, 1});
  const Tensor grad = Tensor::FromVector({1}, Shape{1, 1, 1, 1});
  const Tensor gi = ops::Conv2DGradInput(in_shape, filter, grad, 1, "VALID");
  ExpectNear(gi, {1, 1, 1, 1});
}

TEST(Conv2DGradTest, GradFilterAccumulatesInput) {
  const Tensor input = Tensor::FromVector({1, 2, 3, 4}, Shape{1, 2, 2, 1});
  const Tensor grad = Tensor::FromVector({1}, Shape{1, 1, 1, 1});
  const Tensor gf =
      ops::Conv2DGradFilter(input, Shape{2, 2, 1, 1}, grad, 1, "VALID");
  ExpectNear(gf, {1, 2, 3, 4});
}

TEST(PoolTest, MaxPoolPicksWindowMax) {
  const Tensor input = Tensor::FromVector({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16},
                                          Shape{1, 4, 4, 1});
  const Tensor out = ops::MaxPool2D(input, 2, 2);
  EXPECT_EQ(out.shape(), (Shape{1, 2, 2, 1}));
  ExpectNear(out, {6, 8, 14, 16});
}

TEST(PoolTest, MaxPoolGradRoutesToArgmax) {
  const Tensor input =
      Tensor::FromVector({1, 5, 2, 3}, Shape{1, 2, 2, 1});
  const Tensor grad = Tensor::FromVector({7}, Shape{1, 1, 1, 1});
  const Tensor gi = ops::MaxPool2DGrad(input, grad, 2, 2);
  ExpectNear(gi, {0, 7, 0, 0});
}

// A window's gradient goes to the tap its forward read: the first NaN if
// the window holds one, else the first maximum. A window of NaNs used to
// send its gradient to input element 0, outside the window.
TEST(PoolTest, MaxPoolGradStaysInsideItsWindow) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor input =
      Tensor::FromVector({1, 2, nan, nan, 3, 4, nan, nan}, Shape{1, 2, 4, 1});
  const Tensor forward = ops::MaxPool2D(input, 2, 2);
  EXPECT_EQ(forward.data<float>()[0], 4.0f);
  EXPECT_TRUE(std::isnan(forward.data<float>()[1]));
  const Tensor grad = Tensor::FromVector({10, 20}, Shape{1, 1, 2, 1});
  ExpectNear(ops::MaxPool2DGrad(input, grad, 2, 2),
             {0, 0, 20, 0, 0, 10, 0, 0});

  // A NaN after the maximum still wins the window.
  const Tensor mixed = Tensor::FromVector({5, 1, nan, 2}, Shape{1, 2, 2, 1});
  EXPECT_TRUE(std::isnan(ops::MaxPool2D(mixed, 2, 2).data<float>()[0]));
  ExpectNear(ops::MaxPool2DGrad(mixed, Tensor::FromVector({7}, Shape{1, 1, 1, 1}),
                                2, 2),
             {0, 0, 7, 0});
}

TEST(PoolTest, MaxPoolOfNegativeInfinityReadsNegativeInfinity) {
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor input = Tensor::FromVector({-inf, -inf, -inf, -inf},
                                          Shape{1, 2, 2, 1});
  EXPECT_EQ(ops::MaxPool2D(input, 2, 2).data<float>()[0], -inf);
  ExpectNear(ops::MaxPool2DGrad(input, Tensor::FromVector({3}, Shape{1, 1, 1, 1}),
                                2, 2),
             {3, 0, 0, 0});
}

TEST(PoolTest, AvgPoolAveragesAndGradSpreads) {
  const Tensor input = Tensor::FromVector({2, 4, 6, 8}, Shape{1, 2, 2, 1});
  EXPECT_FLOAT_EQ(
      ops::AvgPool2D(input, 2, 2).data<float>()[0], 5.0f);
  const Tensor grad = Tensor::FromVector({4}, Shape{1, 1, 1, 1});
  ExpectNear(ops::AvgPool2DGrad(Shape{1, 2, 2, 1}, grad, 2, 2), {1, 1, 1, 1});
}

// A window that overhangs the input by less than the stride used to pass
// the size check (the output count rounded up to 1) and read past the
// input.
TEST(PoolTest, WindowLargerThanInputThrows) {
  const Tensor input = Tensor::Full(Shape{1, 3, 3, 1}, 1.0f);
  EXPECT_THROW(ops::MaxPool2D(input, 4, 2), InvalidArgument);
  EXPECT_THROW(ops::AvgPool2D(input, 4, 2), InvalidArgument);
  EXPECT_THROW(ops::AvgPool2DGrad(Shape{1, 3, 3, 1},
                                  Tensor::Full(Shape{1, 1, 1, 1}, 1.0f), 4, 2),
               InvalidArgument);
}

TEST(RandomTest, DeterministicUnderSeed) {
  Rng rng1(123);
  Rng rng2(123);
  const Tensor a = ops::RandomNormal(Shape{8}, 0, 1, rng1);
  const Tensor b = ops::RandomNormal(Shape{8}, 0, 1, rng2);
  EXPECT_TRUE(a.ElementsEqual(b));
}

TEST(RandomTest, UniformWithinRange) {
  Rng rng(7);
  const Tensor u = ops::RandomUniform(Shape{100}, -2, 3, rng);
  for (const float v : u.data<float>()) {
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

// Property-style sweep: ReduceToShape(grad_of(a op b), shape(x)) always has
// the operand's shape, for every broadcast combination.
class BroadcastShapeSweep
    : public ::testing::TestWithParam<std::pair<Shape, Shape>> {};

TEST_P(BroadcastShapeSweep, ReduceToShapeRestoresOperandShape) {
  const auto& [sa, sb] = GetParam();
  const Tensor a = Tensor::Full(sa, 1.0f);
  const Tensor b = Tensor::Full(sb, 2.0f);
  const Tensor out = ops::Add(a, b);
  EXPECT_EQ(out.shape(), BroadcastShapes(sa, sb));
  const Tensor grad = Tensor::Full(out.shape(), 1.0f);
  EXPECT_EQ(ops::ReduceToShape(grad, sa).shape(), sa);
  EXPECT_EQ(ops::ReduceToShape(grad, sb).shape(), sb);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, BroadcastShapeSweep,
    ::testing::Values(std::pair<Shape, Shape>{Shape{4, 3}, Shape{3}},
                      std::pair<Shape, Shape>{Shape{4, 3}, Shape{4, 1}},
                      std::pair<Shape, Shape>{Shape{2, 1, 3}, Shape{1, 5, 1}},
                      std::pair<Shape, Shape>{Shape{}, Shape{2, 2}},
                      std::pair<Shape, Shape>{Shape{1}, Shape{3, 1}},
                      std::pair<Shape, Shape>{Shape{5}, Shape{5}}));

// ---- Oracle sweep: the strided kernels against per-element maps ----
//
// The references below locate every element's operand offsets with a
// div/mod per axis, as the kernels did before they walked their operands
// by runs (tensor/strided.h). Each kernel must produce the same dtype,
// shape and bytes, or raise an error of the same type with the same text.

struct Outcome {
  std::string error;  // "<type>: <what>"; empty when a tensor came back
  DType dtype = DType::kFloat32;
  Shape shape;
  std::vector<unsigned char> bytes;
};

template <typename F>
Outcome Capture(F&& f) {
  Outcome outcome;
  try {
    const Tensor t = f();
    outcome.dtype = t.dtype();
    outcome.shape = t.shape();
    const auto* p =
        static_cast<const unsigned char*>(ops::ElementData(t, t.dtype()));
    outcome.bytes.assign(p, p + t.byte_size());
  } catch (const std::exception& e) {
    outcome.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  return outcome;
}

void ExpectSameOutcome(const Outcome& got, const Outcome& want,
                       const std::string& what) {
  EXPECT_EQ(got.error, want.error) << what;
  EXPECT_EQ(got.dtype, want.dtype) << what;
  EXPECT_EQ(got.shape, want.shape) << what;
  EXPECT_TRUE(got.bytes == want.bytes) << what << ": bytes differ";
}

// Row-major strides of `s` aligned to the trailing axes of a rank-`rank`
// iteration shape; 0 where `s` lacks the axis or has it at size 1.
std::vector<std::int64_t> RefStrides(const Shape& s, int rank) {
  std::vector<std::int64_t> strides(static_cast<std::size_t>(rank), 0);
  const auto native = s.Strides();
  const int offset = rank - s.rank();
  for (int i = 0; i < s.rank(); ++i) {
    strides[static_cast<std::size_t>(offset + i)] =
        s.dim(i) == 1 ? 0 : native[static_cast<std::size_t>(i)];
  }
  return strides;
}

// The element that position `index` of row-major `dims` reads from an
// array with `strides`, offset by `begin` per axis: a div/mod per axis.
std::int64_t RefMap(std::int64_t index, const std::vector<std::int64_t>& dims,
                    const std::vector<std::int64_t>& strides,
                    const std::vector<std::int64_t>& begin) {
  std::int64_t src = 0;
  std::int64_t rem = index;
  for (int axis = static_cast<int>(dims.size()) - 1; axis >= 0; --axis) {
    const auto u = static_cast<std::size_t>(axis);
    const std::int64_t coord = rem % dims[u];
    rem /= dims[u];
    src += (coord + begin[u]) * strides[u];
  }
  return src;
}

void CopyElement(const Tensor& src, std::int64_t from, Tensor& dst,
                 std::int64_t to) {
  const std::size_t size = DTypeSize(src.dtype());
  std::memcpy(static_cast<char*>(ops::MutableElementData(dst)) +
                  static_cast<std::size_t>(to) * size,
              static_cast<const char*>(ops::ElementData(src, src.dtype())) +
                  static_cast<std::size_t>(from) * size,
              size);
}

Tensor RefBroadcastTo(const Tensor& a, const Shape& shape) {
  if (a.shape() == shape) return a;
  if (BroadcastShapes(a.shape(), shape) != shape) {
    throw InvalidArgument("cannot broadcast " + a.shape().ToString() + " to " +
                          shape.ToString());
  }
  Tensor out(a.dtype(), shape);
  const auto strides = RefStrides(a.shape(), shape.rank());
  const std::vector<std::int64_t> begin(static_cast<std::size_t>(shape.rank()),
                                        0);
  for (std::int64_t i = 0; i < shape.num_elements(); ++i) {
    CopyElement(a, RefMap(i, shape.dims(), strides, begin), out, i);
  }
  return out;
}

// The op element by element: its same-index loop over both operands
// expanded to the output shape by the map above.
Tensor RefBinary(const ops::ElementwiseOp& op, const Tensor& a,
                 const Tensor& b) {
  if (op.equal_shapes && a.shape() != b.shape()) {
    throw InvalidArgument(std::string(op.name) + ": shape mismatch");
  }
  const Shape out = BroadcastShapes(a.shape(), b.shape());
  return ops::Apply(op, RefBroadcastTo(a, out), RefBroadcastTo(b, out));
}

Tensor RefSlice(const Tensor& a, const std::vector<std::int64_t>& begin,
                const std::vector<std::int64_t>& size) {
  if (static_cast<int>(begin.size()) != a.rank() ||
      static_cast<int>(size.size()) != a.rank()) {
    throw InvalidArgument("Slice: begin/size rank mismatch");
  }
  std::vector<std::int64_t> out_dims(begin.size());
  for (int i = 0; i < a.rank(); ++i) {
    const auto u = static_cast<std::size_t>(i);
    const std::int64_t extent = size[u] == -1 ? a.dim(i) - begin[u] : size[u];
    if (begin[u] < 0 || extent < 0 || begin[u] + extent > a.dim(i)) {
      throw InvalidArgument("Slice: out of bounds on axis " +
                            std::to_string(i));
    }
    out_dims[u] = extent;
  }
  Tensor out(a.dtype(), Shape(out_dims));
  const auto strides = a.shape().Strides();
  for (std::int64_t i = 0; i < out.num_elements(); ++i) {
    CopyElement(a, RefMap(i, out_dims, strides, begin), out, i);
  }
  return out;
}

Tensor RefSliceGrad(const Tensor& grad, const Shape& shape,
                    const std::vector<std::int64_t>& begin) {
  Tensor out = Tensor::Zeros(DType::kFloat32, shape);
  const auto out_strides = shape.Strides();
  auto ov = out.mutable_data<float>();
  const auto gv = grad.data<float>();
  for (std::int64_t i = 0; i < grad.num_elements(); ++i) {
    ov[static_cast<std::size_t>(
        RefMap(i, grad.shape().dims(), out_strides, begin))] =
        gv[static_cast<std::size_t>(i)];
  }
  return out;
}

enum class RefReduction { kSum, kMean, kMax };

Tensor RefReduce(const Tensor& a, std::vector<int> axes, bool keep_dims,
                 RefReduction kind) {
  const auto norm = ops::NormalizeAxes(std::move(axes), a.rank());
  if (a.dtype() != DType::kFloat32) {
    throw InvalidArgument("Reduce: requires float32 operands");
  }
  Tensor out = Tensor::Full(
      ops::ReducedShape(a.shape(), norm, keep_dims),
      kind == RefReduction::kMax ? std::numeric_limits<float>::lowest() : 0.0f);
  // The output's strides at full rank, 0 on reduced axes.
  std::vector<std::int64_t> out_strides(static_cast<std::size_t>(a.rank()), 0);
  std::int64_t stride = 1;
  std::int64_t count = 1;
  for (int i = a.rank() - 1; i >= 0; --i) {
    if (std::binary_search(norm.begin(), norm.end(), i)) {
      count *= a.dim(i);
    } else {
      out_strides[static_cast<std::size_t>(i)] = stride;
      stride *= a.dim(i);
    }
  }
  const std::vector<std::int64_t> begin(static_cast<std::size_t>(a.rank()), 0);
  auto ov = out.mutable_data<float>();
  const auto av = a.data<float>();
  for (std::int64_t k = 0; k < a.num_elements(); ++k) {
    float& slot = ov[static_cast<std::size_t>(
        RefMap(k, a.shape().dims(), out_strides, begin))];
    const float v = av[static_cast<std::size_t>(k)];
    slot = kind == RefReduction::kMax ? (slot > v ? slot : v) : slot + v;
  }
  if (kind == RefReduction::kMean) {
    const float scale = 1.0f / static_cast<float>(count);
    for (float& v : ov) v = v * scale;
  }
  return out;
}

// Deterministic operands. Variant 0 mixes in special values (NaN, signed
// zeros, infinities, zero integers); variant 1 holds finite non-zero
// values only, so integer FloorDiv and Mod yield bytes instead of errors.
Tensor OracleValues(DType dtype, const Shape& shape, int variant, int salt) {
  static constexpr float kInf = std::numeric_limits<float>::infinity();
  static const float kFloats[2][11] = {
      {1.5f, -2.25f, 0.0f, -0.0f, std::numeric_limits<float>::quiet_NaN(),
       kInf, -kInf, 3.0f, -0.5f, 7.75f, 1e-3f},
      {1.5f, -2.25f, 0.75f, 3.0f, -0.5f, 7.75f, 2.0f, -4.0f, 1.25f, 5.5f,
       -1.0f}};
  static constexpr std::int64_t kInts[2][11] = {
      {3, -2, 0, 5, -1, 2, -4, 1, 0, 4, -3},
      {3, -2, 1, 5, -1, 2, -4, 1, 6, 4, -3}};
  Tensor t(dtype, shape);
  for (std::int64_t i = 0; i < t.num_elements(); ++i) {
    const auto u = static_cast<std::size_t>(i);
    const auto k = static_cast<std::size_t>((i * 7 + salt * 3) % 11);
    const auto v = static_cast<std::size_t>(variant);
    switch (dtype) {
      case DType::kFloat32:
        t.mutable_data<float>()[u] = kFloats[v][k];
        break;
      case DType::kInt64:
        t.mutable_data<std::int64_t>()[u] = kInts[v][k];
        break;
      case DType::kBool:
        t.mutable_data<std::uint8_t>()[u] = variant == 0 ? k % 2 : k % 3 != 0;
        break;
    }
  }
  return t;
}

std::string Describe(const Tensor& t) {
  return std::string(DTypeName(t.dtype())) + t.shape().ToString();
}

TEST(StridedOracleTest, BinaryOpsMatchPerElementMaps) {
  const std::vector<std::pair<Shape, Shape>> shapes = {
      {Shape{2, 3}, Shape{2, 3}},              // same shape
      {Shape{2, 3, 4}, Shape{4}},              // rank mismatch
      {Shape{4}, Shape{2, 3, 4}},
      {Shape{2, 1, 4}, Shape{2, 3, 4}},        // size-1 middle axis
      {Shape{3, 4, 1, 5}, Shape{3, 1, 1, 5}},
      {Shape{4, 1, 3}, Shape{1, 5, 1}},        // both sides broadcast
      {Shape{5, 1, 2, 1}, Shape{1, 3, 1, 4}},
      {Shape{6, 1}, Shape{1, 7}},
      {Shape{2, 3}, Shape{}},                  // scalars
      {Shape{}, Shape{2, 3}},
      {Shape{1}, Shape{}},
      {Shape{}, Shape{}},
      {Shape{0, 3}, Shape{3}},                 // zero-size dims
      {Shape{2, 0, 3}, Shape{1, 1}},
      {Shape{3, 1}, Shape{0, 1, 4}},
  };
  const DType dtypes[] = {DType::kFloat32, DType::kInt64, DType::kBool};
  int broadcast_results = 0;
  for (const ops::ElementwiseOp& op : ops::ElementwiseOps()) {
    if (op.arity != 2) continue;
    for (const DType da : dtypes) {
      for (const DType db : dtypes) {
        for (const auto& [sa, sb] : shapes) {
          for (const int variant : {0, 1}) {
            const Tensor a = OracleValues(da, sa, variant, 0);
            const Tensor b = OracleValues(db, sb, variant, 5);
            const Outcome got = Capture([&] { return ops::Apply(op, a, b); });
            const Outcome want = Capture([&] { return RefBinary(op, a, b); });
            ExpectSameOutcome(got, want,
                              std::string(op.name) + " " + Describe(a) + " " +
                                  Describe(b) + " variant " +
                                  std::to_string(variant));
            if (sa != sb && got.error.empty()) ++broadcast_results;
          }
        }
      }
    }
  }
  // The sweep compares bytes, not only errors, for most broadcast cases.
  EXPECT_GT(broadcast_results, 900);
}

TEST(StridedOracleTest, ReductionsMatchPerElementMap) {
  const Shape shape{3, 1, 4, 5};
  std::vector<float> values;
  for (int i = 0; i < 60; ++i) {
    // Magnitudes far apart, so a changed summation order changes bits.
    values.push_back(static_cast<float>((i * 37) % 101 - 50) * 0.37f *
                     (i % 7 == 0 ? 1e6f : 1.0f));
  }
  std::vector<float> specials = values;
  specials[9] = std::numeric_limits<float>::quiet_NaN();
  specials[22] = -0.0f;
  std::vector<Tensor> inputs = {Tensor::FromVector(values, shape),
                                Tensor::FromVector(specials, shape)};
  struct Kind {
    const char* name;
    RefReduction ref;
    Tensor (*op)(const Tensor&, std::vector<int>, bool);
  };
  const Kind kinds[] = {{"ReduceSum", RefReduction::kSum, &ops::ReduceSum},
                        {"ReduceMean", RefReduction::kMean, &ops::ReduceMean},
                        {"ReduceMax", RefReduction::kMax, &ops::ReduceMax}};
  for (const Kind& kind : kinds) {
    for (const Tensor& input : inputs) {
      for (int mask = 0; mask < 16; ++mask) {
        std::vector<int> axes;
        for (int axis = 0; axis < 4; ++axis) {
          if ((mask >> axis) & 1) axes.push_back(axis);
        }
        for (const bool keep_dims : {false, true}) {
          const Outcome got =
              Capture([&] { return kind.op(input, axes, keep_dims); });
          const Outcome want = Capture(
              [&] { return RefReduce(input, axes, keep_dims, kind.ref); });
          ExpectSameOutcome(got, want,
                            std::string(kind.name) + " mask " +
                                std::to_string(mask) + " keep_dims " +
                                std::to_string(keep_dims));
          EXPECT_TRUE(got.error.empty()) << got.error;
        }
      }
    }
    const Tensor ints = Tensor::FullInt(shape, 2);
    ExpectSameOutcome(Capture([&] { return kind.op(ints, {1}, false); }),
                      Capture([&] {
                        return RefReduce(ints, {1}, false, kind.ref);
                      }),
                      std::string(kind.name) + " int64");
    ExpectSameOutcome(
        Capture([&] { return kind.op(inputs[0], {4}, false); }),
        Capture([&] { return RefReduce(inputs[0], {4}, false, kind.ref); }),
        std::string(kind.name) + " bad axis");
  }
}

TEST(StridedOracleTest, BroadcastToMatchesPerElementMap) {
  const std::vector<std::pair<Shape, Shape>> cases = {
      {Shape{8}, Shape{8, 8, 8, 8}},   {Shape{3, 1}, Shape{2, 3, 4}},
      {Shape{}, Shape{2, 3}},          {Shape{1}, Shape{0, 3}},
      {Shape{2, 1, 3}, Shape{2, 4, 3}}, {Shape{1, 5, 1}, Shape{4, 5, 3}},
      {Shape{3}, Shape{3}},            {Shape{3}, Shape{2, 2}},
      {Shape{2, 3}, Shape{3}},         {Shape{1, 3}, Shape{3}},
  };
  for (const DType dtype : {DType::kFloat32, DType::kInt64, DType::kBool}) {
    for (const auto& [from, to] : cases) {
      const Tensor a = OracleValues(dtype, from, 0, 1);
      ExpectSameOutcome(Capture([&] { return ops::BroadcastTo(a, to); }),
                        Capture([&] { return RefBroadcastTo(a, to); }),
                        "BroadcastTo " + Describe(a) + " to " + to.ToString());
    }
  }
}

TEST(StridedOracleTest, SliceMatchesPerElementMap) {
  struct Case {
    Shape shape;
    std::vector<std::int64_t> begin;
    std::vector<std::int64_t> size;
  };
  const std::vector<Case> cases = {
      {Shape{4, 6}, {1, 2}, {2, 3}},
      {Shape{4, 6}, {0, 0}, {4, 6}},
      {Shape{4, 6}, {1, 0}, {2, -1}},
      {Shape{4, 6}, {0, 5}, {4, 1}},
      {Shape{3, 4, 5}, {1, 1, 1}, {2, -1, 3}},
      {Shape{3, 4, 5}, {0, 2, 0}, {3, 1, 5}},
      {Shape{2, 3, 4, 5}, {1, 0, 2, 1}, {1, -1, 2, -1}},
      {Shape{5}, {2}, {-1}},
      {Shape{2, 3}, {0, 3}, {2, 0}},
      {Shape{}, {}, {}},
      {Shape{4, 6}, {1}, {2}},         // rank mismatch
      {Shape{4, 6}, {3, 0}, {2, 6}},   // out of bounds
      {Shape{4, 6}, {-1, 0}, {1, 6}},
      {Shape{4, 6}, {0, 2}, {1, -2}},
  };
  for (const DType dtype : {DType::kFloat32, DType::kInt64, DType::kBool}) {
    for (const Case& c : cases) {
      const Tensor a = OracleValues(dtype, c.shape, 1, 2);
      ExpectSameOutcome(
          Capture([&] { return ops::Slice(a, c.begin, c.size); }),
          Capture([&] { return RefSlice(a, c.begin, c.size); }),
          "Slice " + Describe(a) + " at " + Shape(c.begin).ToString() +
              " size " + Shape(c.size).ToString());
    }
  }
}

TEST(StridedOracleTest, SliceGradMatchesPerElementMap) {
  struct Case {
    Shape grad;
    Shape shape;
    std::vector<std::int64_t> begin;
  };
  const std::vector<Case> cases = {
      {Shape{16, 64}, Shape{16, 256}, {0, 64}},
      {Shape{2, 5, 3}, Shape{4, 5, 6}, {1, 0, 2}},
      {Shape{1, 4}, Shape{3, 4}, {2, 0}},
      {Shape{3, 1}, Shape{3, 4}, {0, 3}},
      {Shape{0, 3}, Shape{2, 3}, {1, 0}},
      {Shape{3}, Shape{7}, {4}},
      {Shape{}, Shape{}, {}},
  };
  for (const Case& c : cases) {
    const Tensor grad = OracleValues(DType::kFloat32, c.grad, 1, 3);
    ExpectSameOutcome(
        Capture([&] { return ops::SliceGrad(grad, c.shape, c.begin); }),
        Capture([&] { return RefSliceGrad(grad, c.shape, c.begin); }),
        "SliceGrad " + Describe(grad) + " into " + c.shape.ToString());
  }
  const Tensor ints = Tensor::FullInt(Shape{2, 2}, 1);
  ExpectSameOutcome(
      Capture([&] { return ops::SliceGrad(ints, Shape{2, 4}, {0, 1}); }),
      Capture([&] { return RefSliceGrad(ints, Shape{2, 4}, {0, 1}); }),
      "SliceGrad int64");
}

// ---- Oracle sweep: the contraction loop against the loops it replaced ----
//
// MatMul and the Conv2D family used to be four loop nests that added into
// the output in their innermost loop and skipped zero left-hand elements.
// They are kept below, verbatim, as the reference. On operands whose other
// side is finite, a skipped zero only adds +-0 to a sum that started at +0,
// so the one contraction loop (tensor/contract.h) must give the same bytes.
// The values span magnitudes far apart, so any reordered sum changes bits.

Tensor RefMatMul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw InvalidArgument("MatMul: incompatible shapes " +
                          a.shape().ToString() + " x " + b.shape().ToString());
  }
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  Tensor out = Tensor::Zeros(DType::kFloat32, Shape{m, n});
  const auto av = a.data<float>();
  const auto bv = b.data<float>();
  auto ov = out.mutable_data<float>();
  // i-k-j loop order for cache-friendly access to b and out rows.
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = av[static_cast<std::size_t>(i * k + kk)];
      if (aik == 0.0f) continue;
      const std::size_t brow = static_cast<std::size_t>(kk * n);
      const std::size_t orow = static_cast<std::size_t>(i * n);
      for (std::int64_t j = 0; j < n; ++j) {
        ov[orow + static_cast<std::size_t>(j)] +=
            aik * bv[brow + static_cast<std::size_t>(j)];
      }
    }
  }
  return out;
}

struct RefGeometry {
  std::int64_t batch, in_h, in_w, in_c;
  std::int64_t f_h, f_w, out_c;
  std::int64_t out_h, out_w;
  std::int64_t pad_top, pad_left;
  int stride;
};

RefGeometry MakeRefGeometry(const Shape& input, const Shape& filter,
                            int stride, const std::string& padding) {
  RefGeometry g{};
  g.batch = input.dim(0);
  g.in_h = input.dim(1);
  g.in_w = input.dim(2);
  g.in_c = input.dim(3);
  g.f_h = filter.dim(0);
  g.f_w = filter.dim(1);
  g.out_c = filter.dim(3);
  g.stride = stride;
  if (padding == "SAME") {
    g.out_h = (g.in_h + stride - 1) / stride;
    g.out_w = (g.in_w + stride - 1) / stride;
    g.pad_top = std::max<std::int64_t>(
                    0, (g.out_h - 1) * stride + g.f_h - g.in_h) / 2;
    g.pad_left = std::max<std::int64_t>(
                     0, (g.out_w - 1) * stride + g.f_w - g.in_w) / 2;
  } else {
    g.out_h = (g.in_h - g.f_h) / stride + 1;
    g.out_w = (g.in_w - g.f_w) / stride + 1;
    g.pad_top = 0;
    g.pad_left = 0;
  }
  return g;
}

Tensor RefConv2D(const Tensor& input, const Tensor& filter, int stride,
                 const std::string& padding) {
  const RefGeometry g =
      MakeRefGeometry(input.shape(), filter.shape(), stride, padding);
  Tensor out =
      Tensor::Zeros(DType::kFloat32, Shape{g.batch, g.out_h, g.out_w, g.out_c});
  const auto in = input.data<float>();
  const auto fl = filter.data<float>();
  auto ov = out.mutable_data<float>();
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
      for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
        for (std::int64_t fh = 0; fh < g.f_h; ++fh) {
          const std::int64_t ih = oh * g.stride + fh - g.pad_top;
          if (ih < 0 || ih >= g.in_h) continue;
          for (std::int64_t fw = 0; fw < g.f_w; ++fw) {
            const std::int64_t iw = ow * g.stride + fw - g.pad_left;
            if (iw < 0 || iw >= g.in_w) continue;
            const std::size_t in_base = static_cast<std::size_t>(
                ((n * g.in_h + ih) * g.in_w + iw) * g.in_c);
            const std::size_t f_base =
                static_cast<std::size_t>((fh * g.f_w + fw) * g.in_c * g.out_c);
            const std::size_t out_base = static_cast<std::size_t>(
                ((n * g.out_h + oh) * g.out_w + ow) * g.out_c);
            for (std::int64_t c = 0; c < g.in_c; ++c) {
              const float x = in[in_base + static_cast<std::size_t>(c)];
              if (x == 0.0f) continue;
              const std::size_t f_row =
                  f_base + static_cast<std::size_t>(c * g.out_c);
              for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
                ov[out_base + static_cast<std::size_t>(oc)] +=
                    x * fl[f_row + static_cast<std::size_t>(oc)];
              }
            }
          }
        }
      }
    }
  }
  return out;
}

Tensor RefConv2DGradInput(const Shape& input_shape, const Tensor& filter,
                          const Tensor& grad, int stride,
                          const std::string& padding) {
  const RefGeometry g =
      MakeRefGeometry(input_shape, filter.shape(), stride, padding);
  Tensor out = Tensor::Zeros(DType::kFloat32, input_shape);
  const auto fl = filter.data<float>();
  const auto gv = grad.data<float>();
  auto ov = out.mutable_data<float>();
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
      for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
        const std::size_t g_base = static_cast<std::size_t>(
            ((n * g.out_h + oh) * g.out_w + ow) * g.out_c);
        for (std::int64_t fh = 0; fh < g.f_h; ++fh) {
          const std::int64_t ih = oh * g.stride + fh - g.pad_top;
          if (ih < 0 || ih >= g.in_h) continue;
          for (std::int64_t fw = 0; fw < g.f_w; ++fw) {
            const std::int64_t iw = ow * g.stride + fw - g.pad_left;
            if (iw < 0 || iw >= g.in_w) continue;
            const std::size_t in_base = static_cast<std::size_t>(
                ((n * g.in_h + ih) * g.in_w + iw) * g.in_c);
            const std::size_t f_base =
                static_cast<std::size_t>((fh * g.f_w + fw) * g.in_c * g.out_c);
            for (std::int64_t c = 0; c < g.in_c; ++c) {
              float acc = 0.0f;
              const std::size_t f_row =
                  f_base + static_cast<std::size_t>(c * g.out_c);
              for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
                acc += gv[g_base + static_cast<std::size_t>(oc)] *
                       fl[f_row + static_cast<std::size_t>(oc)];
              }
              ov[in_base + static_cast<std::size_t>(c)] += acc;
            }
          }
        }
      }
    }
  }
  return out;
}

Tensor RefConv2DGradFilter(const Tensor& input, const Shape& filter_shape,
                           const Tensor& grad, int stride,
                           const std::string& padding) {
  const RefGeometry g =
      MakeRefGeometry(input.shape(), filter_shape, stride, padding);
  Tensor out = Tensor::Zeros(DType::kFloat32, filter_shape);
  const auto in = input.data<float>();
  const auto gv = grad.data<float>();
  auto ov = out.mutable_data<float>();
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t oh = 0; oh < g.out_h; ++oh) {
      for (std::int64_t ow = 0; ow < g.out_w; ++ow) {
        const std::size_t g_base = static_cast<std::size_t>(
            ((n * g.out_h + oh) * g.out_w + ow) * g.out_c);
        for (std::int64_t fh = 0; fh < g.f_h; ++fh) {
          const std::int64_t ih = oh * g.stride + fh - g.pad_top;
          if (ih < 0 || ih >= g.in_h) continue;
          for (std::int64_t fw = 0; fw < g.f_w; ++fw) {
            const std::int64_t iw = ow * g.stride + fw - g.pad_left;
            if (iw < 0 || iw >= g.in_w) continue;
            const std::size_t in_base = static_cast<std::size_t>(
                ((n * g.in_h + ih) * g.in_w + iw) * g.in_c);
            const std::size_t f_base =
                static_cast<std::size_t>((fh * g.f_w + fw) * g.in_c * g.out_c);
            for (std::int64_t c = 0; c < g.in_c; ++c) {
              const float x = in[in_base + static_cast<std::size_t>(c)];
              if (x == 0.0f) continue;
              const std::size_t f_row =
                  f_base + static_cast<std::size_t>(c * g.out_c);
              for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
                ov[f_row + static_cast<std::size_t>(oc)] +=
                    x * gv[g_base + static_cast<std::size_t>(oc)];
              }
            }
          }
        }
      }
    }
  }
  return out;
}

// Finite values of both signs whose magnitudes run from 2^-20 to 2^20, so
// sums of them round differently in another order. With `zeros`, every
// third element is +0 or -0: the elements the old loops skipped.
Tensor ContractionValues(const Shape& shape, int salt, bool zeros) {
  Tensor t(DType::kFloat32, shape);
  auto data = t.mutable_data<float>();
  for (std::int64_t i = 0; i < t.num_elements(); ++i) {
    const std::int64_t h = (i * 2654435761LL + salt * 40503LL) % 1000003;
    float v = std::ldexp(1.0f + static_cast<float>(h % 997) / 997.0f,
                         static_cast<int>(h % 41) - 20);
    if (h % 2 == 0) v = -v;
    if (zeros && i % 3 == 1) v = h % 2 == 0 ? -0.0f : 0.0f;
    data[static_cast<std::size_t>(i)] = v;
  }
  return t;
}

TEST(ContractionOracleTest, MatMulMatchesLoopNest) {
  struct Case {
    std::int64_t m, k, n;
  };
  const std::vector<Case> cases = {
      // Zoo shapes: LeNet, ResNet50, Inception-v3, LSTM, LM, TreeRNN,
      // TreeLSTM, A3C/PPO, AN, pix2pix.
      {16, 144, 8}, {32, 144, 8}, {8, 128, 8}, {8, 256, 8}, {8, 64, 128},
      {8, 32, 16}, {16, 128, 256}, {16, 64, 64}, {1, 16, 16}, {1, 16, 2},
      {1, 32, 16}, {20, 4, 32}, {32, 32, 2}, {32, 32, 1}, {16, 16, 64},
      {16, 64, 144}, {16, 144, 64}, {16, 64, 1}, {1, 64, 1},
      // Tile edges: rows and columns that are not multiples of the tile.
      {5, 7, 3}, {3, 9, 13}, {6, 17, 12}, {9, 31, 20}, {7, 5, 9}, {4, 3, 4},
      // Zero-size dims.
      {0, 4, 5}, {4, 0, 5}, {4, 5, 0}, {0, 0, 0},
  };
  int salt = 0;
  for (const Case& c : cases) {
    const Tensor a = ContractionValues(Shape{c.m, c.k}, ++salt, true);
    const Tensor b = ContractionValues(Shape{c.k, c.n}, ++salt, false);
    const Outcome want = Capture([&] { return RefMatMul(a, b); });
    const std::string what = "MatMul " + Describe(a) + " x " + Describe(b);
    ExpectSameOutcome(Capture([&] { return ops::MatMul(a, b); }), want, what);
    // A transposed operand is the stored transpose read by swapped strides.
    const Tensor at = ops::Transpose(a);
    const Tensor bt = ops::Transpose(b);
    ExpectSameOutcome(Capture([&] { return ops::MatMul(at, b, true, false); }),
                      want, what + " (transpose_a)");
    ExpectSameOutcome(Capture([&] { return ops::MatMul(a, bt, false, true); }),
                      want, what + " (transpose_b)");
    ExpectSameOutcome(Capture([&] { return ops::MatMul(at, bt, true, true); }),
                      want, what + " (both)");
    // The gradient rule's products against the Transpose + MatMul it used
    // to emit: dA = dC x B^T and dB = A^T x dC.
    const Tensor dc = ContractionValues(Shape{c.m, c.n}, ++salt, true);
    ExpectSameOutcome(
        Capture([&] { return ops::MatMul(dc, b, false, true); }),
        Capture([&] { return RefMatMul(dc, ops::Transpose(b)); }),
        what + " (input gradient)");
    ExpectSameOutcome(
        Capture([&] { return ops::MatMul(a, dc, true, false); }),
        Capture([&] { return RefMatMul(ops::Transpose(a), dc); }),
        what + " (weight gradient)");
  }
  ExpectSameOutcome(
      Capture([&] { return ops::MatMul(Mat({1, 2}, 1, 2), Mat({1, 2, 3}, 1, 3)); }),
      Capture([&] { return RefMatMul(Mat({1, 2}, 1, 2), Mat({1, 2, 3}, 1, 3)); }),
      "MatMul shape error");
}

TEST(ContractionOracleTest, Conv2DFamilyMatchesLoopNests) {
  struct Case {
    Shape input, filter;
    int stride;
    const char* padding;
  };
  const std::vector<Case> cases = {
      // Zoo shapes: LeNet, ResNet50, Inception-v3 (both modules), pix2pix.
      {Shape{16, 12, 12, 1}, Shape{3, 3, 1, 8}, 1, "SAME"},
      {Shape{16, 6, 6, 8}, Shape{3, 3, 8, 16}, 1, "SAME"},
      {Shape{8, 8, 8, 3}, Shape{3, 3, 3, 8}, 1, "SAME"},
      {Shape{8, 8, 8, 8}, Shape{3, 3, 8, 8}, 1, "SAME"},
      {Shape{8, 8, 8, 8}, Shape{1, 1, 8, 4}, 1, "SAME"},
      {Shape{8, 8, 8, 8}, Shape{3, 3, 8, 4}, 1, "SAME"},
      {Shape{8, 8, 8, 8}, Shape{5, 5, 8, 4}, 1, "SAME"},
      {Shape{8, 8, 8, 16}, Shape{1, 1, 16, 4}, 1, "SAME"},
      {Shape{8, 8, 8, 16}, Shape{3, 3, 16, 4}, 1, "SAME"},
      {Shape{8, 8, 8, 16}, Shape{5, 5, 16, 4}, 1, "SAME"},
      {Shape{1, 8, 8, 1}, Shape{3, 3, 1, 8}, 1, "SAME"},
      {Shape{1, 8, 8, 8}, Shape{3, 3, 8, 1}, 1, "SAME"},
      {Shape{1, 8, 8, 2}, Shape{3, 3, 2, 4}, 2, "SAME"},
      // Strides 2 and 3, VALID, tile edges (out_c and pixel counts that
      // are not multiples of the tile).
      {Shape{2, 7, 9, 3}, Shape{3, 2, 3, 5}, 2, "VALID"},
      {Shape{3, 10, 7, 2}, Shape{4, 3, 2, 7}, 3, "SAME"},
      {Shape{1, 11, 11, 4}, Shape{5, 5, 4, 9}, 3, "VALID"},
      {Shape{2, 5, 5, 6}, Shape{2, 2, 6, 3}, 1, "VALID"},
      {Shape{1, 6, 6, 1}, Shape{6, 6, 1, 2}, 1, "VALID"},
      // Zero-size dims: batch 0, in_c = 0, out_c = 0.
      {Shape{0, 5, 5, 3}, Shape{3, 3, 3, 4}, 1, "SAME"},
      {Shape{2, 5, 5, 0}, Shape{3, 3, 0, 4}, 1, "SAME"},
      {Shape{2, 5, 5, 3}, Shape{3, 3, 3, 0}, 2, "VALID"},
  };
  int salt = 100;
  for (const Case& c : cases) {
    const Tensor input = ContractionValues(c.input, ++salt, true);
    const Tensor filter = ContractionValues(c.filter, ++salt, false);
    const std::string what = "Conv2D " + Describe(input) + " * " +
                             Describe(filter) + " stride " +
                             std::to_string(c.stride) + " " + c.padding;
    const Outcome forward = Capture(
        [&] { return RefConv2D(input, filter, c.stride, c.padding); });
    ExpectSameOutcome(Capture([&] {
                        return ops::Conv2D(input, filter, c.stride, c.padding);
                      }),
                      forward, what);
    const Tensor grad = ContractionValues(forward.shape, ++salt, true);
    ExpectSameOutcome(
        Capture([&] {
          return ops::Conv2DGradInput(c.input, filter, grad, c.stride,
                                      c.padding);
        }),
        Capture([&] {
          return RefConv2DGradInput(c.input, filter, grad, c.stride, c.padding);
        }),
        what + " (grad input)");
    ExpectSameOutcome(
        Capture([&] {
          return ops::Conv2DGradFilter(input, c.filter, grad, c.stride,
                                       c.padding);
        }),
        Capture([&] {
          return RefConv2DGradFilter(input, c.filter, grad, c.stride,
                                     c.padding);
        }),
        what + " (grad filter)");
  }
}

// No kernel skips a zero operand: 0 * NaN and 0 * inf are NaN, so a NaN or
// inf in a weight reaches the output even behind a zero activation.
TEST(ContractionTest, NonFiniteValuesReachTheOutput) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor a = Mat({0, 1}, 1, 2);
  const Tensor b = Mat({nan, inf, 2, 3}, 2, 2);
  const auto expect_nan = [](const Tensor& t, const std::string& what) {
    for (const float v : t.data<float>()) EXPECT_TRUE(std::isnan(v)) << what;
  };
  expect_nan(ops::MatMul(a, b), "MatMul");
  expect_nan(ops::MatMul(ops::Transpose(a), b, true, false), "transpose_a");
  expect_nan(ops::MatMul(a, ops::Transpose(b), false, true), "transpose_b");
  expect_nan(ops::MatMul(ops::Transpose(a), ops::Transpose(b), true, true),
             "both");

  // A zero input pixel under a NaN filter tap: the interior output is NaN.
  const Tensor zeros = Tensor::Zeros(DType::kFloat32, Shape{1, 3, 3, 1});
  Tensor filter = Tensor::Full(Shape{3, 3, 1, 1}, 1.0f);
  filter.mutable_data<float>()[4] = nan;
  const Tensor out = ops::Conv2D(zeros, filter, 1, "SAME");
  EXPECT_TRUE(std::isnan(out.data<float>()[4]));

  // A zero input under an inf in dY: the filter gradient is NaN.
  Tensor grad = Tensor::Full(Shape{1, 3, 3, 1}, 1.0f);
  grad.mutable_data<float>()[4] = inf;
  const Tensor dfilter =
      ops::Conv2DGradFilter(zeros, Shape{1, 1, 1, 1}, grad, 1, "VALID");
  EXPECT_TRUE(std::isnan(dfilter.data<float>()[0]));
}

}  // namespace
}  // namespace janus
