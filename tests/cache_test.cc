// Tests for the src/cache subsystem: the ShapeAssumption lattice edges the
// despecialization ladder walks, the SpecializationCache's budgets /
// cost-aware eviction / churn ladder, and the engine running end-to-end
// through its own cache.
#include "cache/specialization_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/assumptions.h"
#include "core/engine.h"
#include "core/profiler.h"
#include "frontend/builtins.h"

namespace janus {
namespace {

using cache::CacheOptions;
using cache::SpecializationCache;

// ===========================================================================
// ShapeAssumption lattice edges (Fig. 4)
// ===========================================================================

TEST(ShapeAssumptionTest, RankChangeCollapsesToUnknown) {
  const auto exact = ShapeAssumption::Exact(Shape({4, 2}));
  const auto relaxed = exact.Relaxed(Shape({4, 2, 1}));
  EXPECT_TRUE(relaxed.is_unknown());
  EXPECT_EQ(relaxed.rank(), -1);
  EXPECT_TRUE(relaxed.Matches(Shape({7})));
}

TEST(ShapeAssumptionTest, ScalarExactMatchesOnlyScalar) {
  const auto scalar = ShapeAssumption::Exact(Shape{});
  EXPECT_TRUE(scalar.IsExact());
  EXPECT_EQ(scalar.rank(), 0);
  EXPECT_TRUE(scalar.Matches(Shape{}));
  EXPECT_FALSE(scalar.Matches(Shape({1})));
  // Relaxing a scalar against a scalar is the identity.
  const auto relaxed = scalar.Relaxed(Shape{});
  EXPECT_TRUE(relaxed.IsExact());
  EXPECT_EQ(relaxed.rank(), 0);
}

TEST(ShapeAssumptionTest, UnknownRelaxationIsIdempotent) {
  const auto unknown = ShapeAssumption::Unknown();
  const auto once = unknown.Relaxed(Shape({3, 3}));
  EXPECT_TRUE(once.is_unknown());
  const auto twice = once.Relaxed(Shape({5}));
  EXPECT_TRUE(twice.is_unknown());
  EXPECT_TRUE(unknown.RelaxedToRank().is_unknown());
}

TEST(ShapeAssumptionTest, AnyOfRankMatchesByRankOnly) {
  const auto rank2 = ShapeAssumption::AnyOfRank(2);
  EXPECT_FALSE(rank2.is_unknown());
  EXPECT_FALSE(rank2.IsExact());
  EXPECT_EQ(rank2.rank(), 2);
  EXPECT_TRUE(rank2.Matches(Shape({1, 1})));
  EXPECT_TRUE(rank2.Matches(Shape({100, 7})));
  EXPECT_FALSE(rank2.Matches(Shape({3})));
  EXPECT_FALSE(rank2.Matches(Shape{}));
  EXPECT_EQ(rank2.ToString(), "(?, ?)");
}

TEST(ShapeAssumptionTest, RelaxedToRankDropsDimsButKeepsRank) {
  const auto exact = ShapeAssumption::Exact(Shape({4, 2}));
  const auto ranked = exact.RelaxedToRank();
  EXPECT_EQ(ranked.rank(), 2);
  EXPECT_TRUE(ranked.Matches(Shape({9, 9})));
  EXPECT_FALSE(ranked.Matches(Shape({9})));
  // Partially-wildcarded shapes also drop to rank-only.
  const auto partial = exact.Relaxed(Shape({3, 2}));  // (?, 2)
  EXPECT_FALSE(partial.Matches(Shape({3, 5})));
  EXPECT_TRUE(partial.RelaxedToRank().Matches(Shape({3, 5})));
}

// ===========================================================================
// Profiler failed-assumption bound (the unbounded-growth fix)
// ===========================================================================

TEST(ProfilerTest, FailedAssumptionsAgeOutAtCap) {
  Profiler profiler;
  for (std::size_t i = 0; i < Profiler::kMaxFailedAssumptions + 50; ++i) {
    profiler.MarkAssumptionFailed("id" + std::to_string(i));
  }
  EXPECT_EQ(profiler.failed_assumption_count(),
            Profiler::kMaxFailedAssumptions);
  // Oldest marks aged out; newest retained.
  EXPECT_FALSE(profiler.HasFailed("id0"));
  EXPECT_TRUE(profiler.HasFailed(
      "id" + std::to_string(Profiler::kMaxFailedAssumptions + 49)));
}

TEST(ProfilerTest, RemarkingRefreshesAgingStamp) {
  Profiler profiler;
  profiler.MarkAssumptionFailed("keep");
  for (std::size_t i = 0; i < Profiler::kMaxFailedAssumptions - 1; ++i) {
    profiler.MarkAssumptionFailed("filler" + std::to_string(i));
  }
  profiler.MarkAssumptionFailed("keep");  // refresh
  profiler.MarkAssumptionFailed("overflow");
  EXPECT_TRUE(profiler.HasFailed("keep"));
  EXPECT_FALSE(profiler.HasFailed("filler0"));
}

// ===========================================================================
// SpecializationCache
// ===========================================================================

class SpecializationCacheTest : public ::testing::Test {
 protected:
  static CacheOptions SmallOptions() {
    CacheOptions options;
    options.max_bytes = 1 << 20;
    options.max_entries = 64;
    options.max_entries_per_key = 4;
    options.churn_per_level = 2;
    return options;
  }

  SpecializationCache::Key KeyFor(int unit, std::uint64_t variant = 0) {
    return {reinterpret_cast<const void*>(
                static_cast<std::uintptr_t>(unit + 1)),
            variant};
  }

  static SpecializationCache::Payload MakePayload(int tag) {
    return std::make_shared<int>(tag);
  }

  obs::MetricsRegistry registry;
};

TEST_F(SpecializationCacheTest, LookupReturnsMruFirst) {
  SpecializationCache cache(SmallOptions(), &registry);
  const auto key = KeyFor(0);
  auto first = cache.Insert(key, MakePayload(1), 100, 1000);
  auto second = cache.Insert(key, MakePayload(2), 100, 1000);
  auto listed = cache.Lookup(key);
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], second);  // most recent insert first
  // Using `first` moves it to the front.
  cache.BeginUse(first);
  listed = cache.Lookup(key);
  EXPECT_EQ(listed[0], first);
}

TEST_F(SpecializationCacheTest, PerKeyCapEvictsKeyLru) {
  auto options = SmallOptions();
  options.max_entries_per_key = 2;
  SpecializationCache cache(options, &registry);
  const auto key = KeyFor(0);
  auto a = cache.Insert(key, MakePayload(1), 100, 1000);
  auto b = cache.Insert(key, MakePayload(2), 100, 1000);
  auto c = cache.Insert(key, MakePayload(3), 100, 1000);
  const auto listed = cache.Lookup(key);
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], c);
  EXPECT_EQ(listed[1], b);
  EXPECT_FALSE(a->resident);
  EXPECT_EQ(cache.Stats(key).evictions, 1);
}

TEST_F(SpecializationCacheTest, ByteBudgetEvictsCheapBulkyFirst) {
  auto options = SmallOptions();
  options.max_bytes = 1000;
  SpecializationCache cache(options, &registry);
  // Hot + expensive-per-byte vs cold + cheap-per-byte.
  const auto hot_key = KeyFor(0);
  auto hot = cache.Insert(hot_key, MakePayload(1), 100, 1'000'000);
  for (int i = 0; i < 8; ++i) {
    cache.BeginUse(hot);
    cache.OnRunSuccess(hot_key);
  }
  auto cold = cache.Insert(KeyFor(1), MakePayload(2), 800, 100);
  // A third entry pushes past 1000 bytes; the cheap bulky one must go.
  auto fresh = cache.Insert(KeyFor(2), MakePayload(3), 300, 500'000);
  EXPECT_TRUE(hot->resident);
  EXPECT_FALSE(cold->resident);
  EXPECT_TRUE(fresh->resident);
  const auto snapshot = cache.TakeSnapshot();
  EXPECT_LE(snapshot.bytes_in_use, 1000);
}

TEST_F(SpecializationCacheTest, EntryBudgetBoundsResidency) {
  auto options = SmallOptions();
  options.max_entries = 3;
  SpecializationCache cache(options, &registry);
  for (int i = 0; i < 10; ++i) {
    cache.Insert(KeyFor(i), MakePayload(i), 10, 100);
  }
  EXPECT_EQ(cache.TakeSnapshot().entries, 3);
}

TEST_F(SpecializationCacheTest, OversizedEntryInsertsNonResident) {
  auto options = SmallOptions();
  options.max_bytes = 1000;
  SpecializationCache cache(options, &registry);
  auto small = cache.Insert(KeyFor(0), MakePayload(1), 100, 100);
  auto huge = cache.Insert(KeyFor(1), MakePayload(2), 5000, 100);
  EXPECT_TRUE(small->resident);  // never evicted to make room for huge
  EXPECT_FALSE(huge->resident);
  // The caller's ref still carries the payload for the current run.
  EXPECT_NE(huge->payload, nullptr);
  EXPECT_TRUE(cache.Lookup(KeyFor(1)).empty());
}

TEST_F(SpecializationCacheTest, EvictThenReinsertCountsChurnAndClimbsLadder) {
  auto options = SmallOptions();
  options.max_entries_per_key = 1;
  options.churn_per_level = 2;
  SpecializationCache cache(options, &registry);
  const auto key = KeyFor(0);
  EXPECT_EQ(cache.DespecializationLevel(key), 0);
  cache.Insert(key, MakePayload(0), 100, 100);
  for (int i = 1; i <= 5; ++i) {
    // Each insert evicts the previous entry (cap 1); the *next* insert
    // then counts one evict-then-reinsert churn event, so the final
    // eviction has no churn yet.
    cache.Insert(key, MakePayload(i), 100, 100);
  }
  const auto stats = cache.Stats(key);
  EXPECT_EQ(stats.evictions, 5);
  EXPECT_EQ(stats.churn_events, 4);
  EXPECT_EQ(stats.ladder_level, 2);  // 4 events / 2 per level
  EXPECT_EQ(cache.DespecializationLevel(key), 2);
}

TEST_F(SpecializationCacheTest, LadderIsCappedAtMaxLevel) {
  auto options = SmallOptions();
  options.max_entries_per_key = 1;
  options.churn_per_level = 1;
  options.max_ladder_level = 3;
  SpecializationCache cache(options, &registry);
  const auto key = KeyFor(0);
  for (int i = 0; i < 12; ++i) {
    auto entry = cache.Insert(key, MakePayload(i), 100, 100);
    cache.OnEntryFailure(key, entry);
  }
  EXPECT_EQ(cache.DespecializationLevel(key), 3);
}

TEST_F(SpecializationCacheTest, FailureRemovesEntryAndBumpsEpoch) {
  SpecializationCache cache(SmallOptions(), &registry);
  const auto key = KeyFor(0);
  auto entry = cache.Insert(key, MakePayload(1), 100, 100);
  cache.OnEntryFailure(key, entry);
  EXPECT_TRUE(cache.Lookup(key).empty());
  EXPECT_FALSE(entry->resident);
  EXPECT_EQ(cache.Stats(key).failures, 1);
}

TEST_F(SpecializationCacheTest, TextReportNamesBudgetsAndCounters) {
  SpecializationCache cache(SmallOptions(), &registry);
  const auto key = KeyFor(0);
  auto entry = cache.Insert(key, MakePayload(1), 100, 100);
  cache.BeginUse(entry);
  cache.OnRunSuccess(key);
  const std::string report = cache.TextReport();
  EXPECT_NE(report.find("cache.insertions"), std::string::npos);
  EXPECT_NE(report.find("cache.hits"), std::string::npos);
  EXPECT_NE(report.find("cache.lookup_ns"), std::string::npos);
  EXPECT_NE(report.find("budget"), std::string::npos);
}

// ===========================================================================
// Engine end-to-end through the cache
// ===========================================================================

class CacheEngineTest : public ::testing::Test {
 protected:
  struct Session {
    Session(EngineOptions options, std::uint64_t seed = 17)
        : rng(seed), interp(&variables, &rng), engine(&interp, options) {
      minipy::InstallBuiltins(interp);
      engine.Attach();
    }
    VariableStore variables;
    Rng rng;
    minipy::Interpreter interp;
    JanusEngine engine;

    double Num(const std::string& global) {
      const minipy::Value v = interp.GetGlobal(global);
      if (const auto* t = std::get_if<Tensor>(&v)) {
        return t->ElementAsDouble(0);
      }
      if (const auto* d = std::get_if<double>(&v)) return *d;
      if (const auto* i = std::get_if<std::int64_t>(&v)) {
        return static_cast<double>(*i);
      }
      ADD_FAILURE() << "global " << global << " is not numeric";
      return 0;
    }
  };
};

TEST_F(CacheEngineTest, TightBudgetForcesEvictionsButStaysCorrect) {
  EngineOptions options;
  options.cache.max_entries = 1;  // every second unit evicts the first
  options.cache.max_entries_per_key = 1;
  Session session(options);
  // Two conversion units ping-pong: with one resident entry total, each
  // run of one evicts the other's graph, yet results must stay exact.
  session.interp.Run(R"(
wa = variable('wa', constant([2.0]))
wb = variable('wb', constant([3.0]))

def loss_a():
    return reduce_sum(wa * wa)

def loss_b():
    return reduce_sum(wb * wb * wb)

ra = 0.0
rb = 0.0
for i in range(20):
    ra = float(optimize(loss_a, 0.0))
    rb = float(optimize(loss_b, 0.0))
)");
  EXPECT_NEAR(session.Num("ra"), 4.0, 1e-4);
  EXPECT_NEAR(session.Num("rb"), 27.0, 1e-4);
  const auto& cache = session.engine.graph_cache();
  EXPECT_EQ(cache.TakeSnapshot().entries, 1);
  const obs::Counter* evictions =
      session.engine.metrics().FindCounter("cache.evictions");
  ASSERT_NE(evictions, nullptr);
  EXPECT_GT(evictions->Value(), 0);
  // Evict/regenerate churn climbed the despecialization ladder.
  const obs::Counter* churn =
      session.engine.metrics().FindCounter("cache.churn_events");
  ASSERT_NE(churn, nullptr);
  EXPECT_GT(churn->Value(), 0);
  EXPECT_EQ(session.engine.stats().assumption_failures, 0);
}

TEST_F(CacheEngineTest, AssumptionFailureDemotesViaEpoch) {
  Session session(EngineOptions{});
  session.interp.Run(R"(
w = variable('ew', constant([2.0]))
mode = constant([1.0])

def loss_fn():
    h = w * 3.0
    if reduce_sum(mode) > 0.0:
        out = h * h
    else:
        out = h + 100.0
    return reduce_sum(out)

r1 = 0.0
for i in range(12):
    r1 = float(optimize(loss_fn, 0.0))
)");
  // Flip the branch: the AssertOp fails, the entry dies, the unit falls
  // back to the imperative executor.
  session.interp.Run(R"(
mode = constant([-1.0])
r2 = 0.0
for i in range(8):
    r2 = float(optimize(loss_fn, 0.0))
)");
  EXPECT_NEAR(session.Num("r2"), 106.0, 1e-3);
  EXPECT_GE(session.engine.stats().assumption_failures, 1);
}

TEST_F(CacheEngineTest, BakedConstantsAreCheckedOnEveryCall) {
  // A stable scalar argument and a stable global are baked into the graph
  // as constants, guarded only by entry checks. However long the unit has
  // run cleanly, a new argument or a rebound global must reach the result.
  const std::string program = R"(
x = constant([1.0, 2.0, 3.0])
scale = 10.0

def f(n):
    return reduce_sum(x * n) * scale

f = janus_function(f)
for i in range(100):
    f(2.0)
new_arg = float(f(3.0))
scale = 100.0
new_global = float(f(2.0))
)";
  Session imperative(EngineOptions::ImperativePreset());
  Session janus(EngineOptions{});
  imperative.interp.Run(program);
  janus.interp.Run(program);
  EXPECT_EQ(imperative.Num("new_arg"), 180.0);
  EXPECT_EQ(imperative.Num("new_global"), 1200.0);
  EXPECT_EQ(janus.Num("new_arg"), imperative.Num("new_arg"));
  EXPECT_EQ(janus.Num("new_global"), imperative.Num("new_global"));
  EXPECT_GT(janus.engine.stats().graph_executions, 90);
}

TEST_F(CacheEngineTest, EachEngineOwnsItsCache) {
  EngineOptions options;
  options.cache.max_entries = 3;
  Session first(options);
  Session second(EngineOptions{});
  first.interp.Run(R"(
w = variable('ow', constant([2.0]))

def loss_fn():
    return reduce_sum(w * w)

for i in range(6):
    optimize(loss_fn, 0.0)
)");
  // The first engine's budget and entries are its own; the second engine,
  // which has run nothing, sees neither.
  EXPECT_EQ(first.engine.graph_cache().options().max_entries, 3);
  EXPECT_EQ(first.engine.graph_cache().TakeSnapshot().entries, 1);
  EXPECT_EQ(second.engine.graph_cache().TakeSnapshot().entries, 0);
  const obs::Counter* insertions =
      first.engine.metrics().FindCounter("cache.insertions");
  ASSERT_NE(insertions, nullptr);
  EXPECT_EQ(insertions->Value(), 1);
}

TEST_F(CacheEngineTest, DespecializedRegenerationStopsShapeThrash) {
  EngineOptions options;
  options.cache.max_entries_per_key = 1;  // every regeneration evicts
  options.cache.churn_per_level = 2;
  Session session(options);
  // Batch size changes every few calls. With one candidate per key, each
  // exact-shape regeneration evicts the previous one — churn that must
  // drive the ladder until a relaxed graph stops the thrash.
  session.interp.Run(R"(
w = variable('dw', constant([[1.0], [1.0]]))
batch = zeros([4, 2])

def loss_fn():
    return reduce_mean(matmul(batch, w))

for i in range(6):
    optimize(loss_fn, 0.0)
)");
  for (int size = 2; size <= 9; ++size) {
    session.interp.Run("batch = zeros([" + std::to_string(size) +
                       ", 2])\nfor i in range(3):\n    optimize(loss_fn, "
                       "0.0)\n");
  }
  const auto stats = session.engine.stats();
  // The relaxed (?, 2) graph eventually absorbs every batch size: far
  // fewer generations than batch-size changes.
  EXPECT_LT(stats.graph_generations, 8);
  EXPECT_GT(stats.graph_executions, 0);
  EXPECT_EQ(stats.assumption_failures, 0);
}

}  // namespace
}  // namespace janus
