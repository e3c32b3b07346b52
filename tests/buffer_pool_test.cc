// Tests for the pooled tensor allocator (tensor/buffer_pool.h) and the
// plan-time liveness analysis that feeds it (runtime/memory_plan.h):
// size-class geometry, freelist reuse, concurrent alloc/free, Trim bounds,
// the single-zeroing-path contract of Tensor::Zeros over recycled storage,
// and mid-run recycling / in-place reuse through the DAG executor.
#include "tensor/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "run_graph.h"
#include "runtime/executor.h"
#include "runtime/memory_plan.h"
#include "runtime/plan.h"
#include "tensor/tensor.h"

namespace janus {
namespace {

TEST(BufferPoolTest, SizeClassGeometry) {
  EXPECT_EQ(BufferPool::SizeClassFor(1), 0);
  EXPECT_EQ(BufferPool::SizeClassFor(BufferPool::kMinClassBytes), 0);
  EXPECT_EQ(BufferPool::SizeClassFor(BufferPool::kMinClassBytes + 1), 1);
  EXPECT_EQ(BufferPool::SizeClassFor(128), 1);
  EXPECT_EQ(BufferPool::SizeClassFor(129), 2);
  EXPECT_EQ(BufferPool::ClassBytes(0), BufferPool::kMinClassBytes);
  // Each class doubles; every request rounds up to its class capacity.
  for (int c = 0; c < BufferPool::kNumClasses; ++c) {
    const std::size_t bytes = BufferPool::ClassBytes(c);
    EXPECT_EQ(bytes, BufferPool::kMinClassBytes << c);
    EXPECT_EQ(BufferPool::SizeClassFor(bytes), c);
  }
  // Beyond the largest class: oversize, never pooled.
  const std::size_t largest =
      BufferPool::ClassBytes(BufferPool::kNumClasses - 1);
  EXPECT_EQ(BufferPool::SizeClassFor(largest + 1), BufferPool::kNumClasses);
}

TEST(BufferPoolTest, ReuseAfterRelease) {
  const Shape shape{8, 8};
  const void* first_id = nullptr;
  {
    const Tensor t = Tensor::Uninitialized(DType::kFloat32, shape);
    first_id = t.data_id();
  }  // released to the thread cache
  const BufferPool::Stats before = BufferPool::Global().Snapshot();
  const Tensor again = Tensor::Uninitialized(DType::kFloat32, shape);
  const BufferPool::Stats after = BufferPool::Global().Snapshot();
  // LIFO thread cache: the very block just released comes back.
  EXPECT_EQ(again.data_id(), first_id);
  EXPECT_EQ(after.pool_hits, before.pool_hits + 1);
  EXPECT_EQ(after.pool_misses, before.pool_misses);
}

TEST(BufferPoolTest, OversizeAllocationsBypassThePool) {
  // 3 MiB of floats: beyond the largest (2 MiB) class.
  const Shape shape{3 * 256 * 1024};
  const BufferPool::Stats before = BufferPool::Global().Snapshot();
  { const Tensor t = Tensor::Uninitialized(DType::kFloat32, shape); }
  { const Tensor t = Tensor::Uninitialized(DType::kFloat32, shape); }
  const BufferPool::Stats after = BufferPool::Global().Snapshot();
  // Both allocations are fresh (no freelist), and neither release retained
  // anything.
  EXPECT_EQ(after.pool_misses, before.pool_misses + 2);
  EXPECT_EQ(after.pool_hits, before.pool_hits);
  EXPECT_EQ(after.retained_bytes, before.retained_bytes);
}

TEST(BufferPoolTest, TrimReleasesRetainedBlocks) {
  const Shape shape{256};  // 1 KiB
  {
    std::vector<Tensor> live;
    for (int i = 0; i < 16; ++i) {
      live.push_back(Tensor::Uninitialized(DType::kFloat32, shape));
    }
  }  // all 16 released; some spill from the thread cache to central
  const BufferPool::Stats held = BufferPool::Global().Snapshot();
  EXPECT_GE(held.retained_bytes, 16 * 1024);
  BufferPool::Global().Trim();
  const BufferPool::Stats trimmed = BufferPool::Global().Snapshot();
  EXPECT_EQ(trimmed.trims, held.trims + 1);
  EXPECT_LT(trimmed.retained_bytes, held.retained_bytes);
  // The calling thread's cache was flushed and central was emptied, so the
  // next allocation cannot be served from a freelist.
  const Tensor fresh = Tensor::Uninitialized(DType::kFloat32, shape);
  const BufferPool::Stats after = BufferPool::Global().Snapshot();
  EXPECT_EQ(after.pool_misses, trimmed.pool_misses + 1);
}

TEST(BufferPoolTest, ZerosAreZeroOverRecycledDirtyBuffer) {
  const Shape shape{8, 8};
  const void* dirty_id = nullptr;
  {
    Tensor dirty = Tensor::Full(shape, 123.0f);
    dirty_id = dirty.data_id();
  }  // the all-123 block returns to the thread cache
  // Zeros must establish zeroes itself (the single zeroing path): the
  // recycled payload arrives with the old contents.
  const Tensor z = Tensor::Zeros(DType::kFloat32, shape);
  EXPECT_EQ(z.data_id(), dirty_id);
  for (const float v : z.data<float>()) EXPECT_EQ(v, 0.0f);
}

TEST(BufferPoolTest, ConcurrentAllocFreeIsConsistent) {
  constexpr int kTasks = 8;
  constexpr int kIterations = 500;
  const BufferPool::Stats before = BufferPool::Global().Snapshot();
  std::atomic<int> failures{0};
  {
    ThreadPool pool(4);
    for (int task = 0; task < kTasks; ++task) {
      pool.Schedule([task, &failures] {
        for (int i = 0; i < kIterations; ++i) {
          const std::int64_t n = 16 + 64 * ((task + i) % 5);
          Tensor t = Tensor::Uninitialized(DType::kFloat32, Shape{n});
          const float fill = static_cast<float>(task * 1000 + i);
          for (float& v : t.mutable_data<float>()) v = fill;
          for (const float v : t.data<float>()) {
            if (v != fill) failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }  // ThreadPool destructor drains the queue and joins
  EXPECT_EQ(failures.load(), 0);
  const BufferPool::Stats after = BufferPool::Global().Snapshot();
  EXPECT_EQ(after.allocations - before.allocations, kTasks * kIterations);
  // Every allocation is either a freelist hit or a fresh block.
  EXPECT_EQ((after.pool_hits - before.pool_hits) +
                (after.pool_misses - before.pool_misses),
            kTasks * kIterations);
}

TEST(MemoryPlanTest, InPlaceAllowlistIsSameIndexOnly) {
  EXPECT_TRUE(OpSupportsInPlace("Add"));
  EXPECT_TRUE(OpSupportsInPlace("Relu"));
  EXPECT_TRUE(OpSupportsInPlace("ReluGrad"));
  EXPECT_TRUE(OpSupportsInPlace("LogicalNot"));
  EXPECT_FALSE(OpSupportsInPlace("Transpose"));
  EXPECT_FALSE(OpSupportsInPlace("MatMul"));
  EXPECT_FALSE(OpSupportsInPlace("ReduceSum"));
  EXPECT_FALSE(OpSupportsInPlace("BroadcastTo"));
}

TEST(MemoryPlanTest, BuildComputesReadsProtectionAndCapability) {
  Graph g;
  const NodeOutput c = g.Constant(Tensor::Full(Shape{2, 3}, 1.0f));
  Node* t1 = g.AddNode("Transpose", {c});
  Node* add = g.AddNode("Add", {{t1, 0}, {t1, 0}});
  const std::vector<NodeOutput> fetches{{add, 0}};
  const auto plan = ExecutionPlan::Build(g, fetches, {});
  const MemoryPlan& mem = plan->memory();
  ASSERT_EQ(mem.nodes.size(), plan->nodes().size());

  const int ci = plan->IndexOf(c.node);
  const int t1i = plan->IndexOf(t1);
  const int addi = plan->IndexOf(add);
  ASSERT_GE(ci, 0);
  ASSERT_GE(t1i, 0);
  ASSERT_GE(addi, 0);
  EXPECT_EQ(mem.nodes[static_cast<std::size_t>(ci)].output_reads, 1);
  // Both Add inputs read t1: two counted reads.
  EXPECT_EQ(mem.nodes[static_cast<std::size_t>(t1i)].output_reads, 2);
  EXPECT_FALSE(mem.nodes[static_cast<std::size_t>(t1i)].fetch_protected);
  EXPECT_FALSE(mem.nodes[static_cast<std::size_t>(t1i)].in_place_capable);
  EXPECT_EQ(mem.nodes[static_cast<std::size_t>(addi)].output_reads, 0);
  EXPECT_TRUE(mem.nodes[static_cast<std::size_t>(addi)].fetch_protected);
  EXPECT_TRUE(mem.nodes[static_cast<std::size_t>(addi)].in_place_capable);
}

class MemoryPlanLivenessTest : public ::testing::Test {
 protected:
  std::vector<Tensor> Run(const Graph& g, std::vector<NodeOutput> fetches,
                          RunMetrics* metrics) {
    Executor executor(nullptr, &variables_, nullptr, &rng_);
    return RunGraph(executor, g, {}, fetches, metrics);
  }

  VariableStore variables_;
  Rng rng_{7};
};

TEST_F(MemoryPlanLivenessTest, IntermediateBuffersRecycleWithinOneRun) {
  // A chain of Transposes (NOT in-place capable): node k's freshly
  // allocated output must be served from node k-2's mid-run-released
  // buffer, so even a cold pool sees at most two fresh blocks.
  constexpr int kChain = 8;
  Graph g;
  NodeOutput v = g.Constant(Tensor::Full(Shape{8, 8}, 3.0f));
  for (int i = 0; i < kChain; ++i) {
    v = {g.AddNode("Transpose", {v}), 0};
  }
  // Force the process-global default-Tensor zero buffer into existence so
  // its one-time allocation doesn't count against this run.
  const Tensor warm_default;
  BufferPool::Global().Trim();  // cold pool: recycling must come from within
  RunMetrics metrics;
  const std::vector<Tensor> results = Run(g, {v}, &metrics);
  ASSERT_EQ(results.size(), 1u);
  for (const float x : results[0].data<float>()) EXPECT_EQ(x, 3.0f);
  EXPECT_LE(metrics.pool_misses, 2);
  EXPECT_GE(metrics.pool_hits, kChain - 2);
  // Every transpose output but the fetched one (plus the const's slot) was
  // dropped the moment its consumer finished reading it.
  EXPECT_GE(metrics.buffers_released, kChain - 1);
  EXPECT_EQ(metrics.in_place_reuses, 0);  // Transpose never writes in place
}

TEST_F(MemoryPlanLivenessTest, ElementwiseChainRunsInPlace) {
  constexpr int kChain = 8;
  Graph g;
  NodeOutput v = g.Constant(Tensor::Full(Shape{8, 8}, 1.0f));
  const NodeOutput one = g.Constant(Tensor::Full(Shape{8, 8}, 1.0f));
  for (int i = 0; i < kChain; ++i) {
    v = {g.AddNode("Add", {v, one}), 0};
  }
  // Per-op in-place reuse is what this test measures; fusion would collapse
  // the whole chain into one region with no intermediates at all.
  const std::vector<NodeOutput> fetches{v};
  const auto plan =
      ExecutionPlan::Build(g, fetches, {}, {.enable_fusion = false});
  Executor executor(nullptr, &variables_, nullptr, &rng_);
  RunMetrics metrics;
  const std::vector<Tensor> results = executor.Run(*plan, {}, &metrics);
  ASSERT_EQ(results.size(), 1u);
  for (const float x : results[0].data<float>()) {
    EXPECT_EQ(x, 1.0f + kChain);
  }
  // Every Add but the first (whose inputs are protected const values)
  // steals its dead input's buffer instead of allocating.
  EXPECT_GE(metrics.in_place_reuses, kChain - 1);
}

TEST_F(MemoryPlanLivenessTest, FetchedValuesSurviveRecycling) {
  // Fetch an intermediate AND the chain end: the intermediate is
  // fetch-protected, so recycling must not clobber it even though a later
  // node consumes it.
  Graph g;
  const NodeOutput c = g.Constant(Tensor::Full(Shape{4, 4}, 2.0f));
  const NodeOutput mid = {g.AddNode("Transpose", {c}), 0};
  const NodeOutput end = {g.AddNode("Transpose", {mid}), 0};
  RunMetrics metrics;
  const std::vector<Tensor> results = Run(g, {mid, end}, &metrics);
  ASSERT_EQ(results.size(), 2u);
  for (const float x : results[0].data<float>()) EXPECT_EQ(x, 2.0f);
  for (const float x : results[1].data<float>()) EXPECT_EQ(x, 2.0f);
}

}  // namespace
}  // namespace janus
