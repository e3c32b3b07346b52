// Tests for the observability subsystem (src/obs): span tracer ring
// buffers and nesting, histogram bucket/percentile math, Chrome-trace JSON
// schema round trips, threaded metric accumulation, DOT heat annotation,
// the plan-node sampler's profile records and trace events, and the
// end-to-end engine trace including a forced fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "frontend/builtins.h"
#include "frontend/eager.h"
#include "graph/dot.h"
#include "obs/json_check.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace janus {
namespace {

using obs::ChromeTraceSummary;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::Trace;
using obs::TraceEvent;
using obs::TraceScope;

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Trace::Disable();
    Trace::Reset();
    obs::ProfileRegistry::Global().Reset();
  }
  void TearDown() override {
    Trace::Disable();
    Trace::Reset();
    Trace::SetBufferCapacityForTesting(0);  // restore default
    obs::DisableProfiling();
    obs::ProfileRegistry::Global().Reset();
  }
};

// ---- tracer ----

TEST_F(ObsTest, DisabledTracerRecordsNoEvents) {
  ASSERT_FALSE(Trace::Enabled());
  {
    TraceScope outer("outer", "test");
    TraceScope inner("inner", "test");
    Trace::RecordInstant("marker", "test");
    Trace::RecordComplete("explicit", "test", 0, 10);
  }
  EXPECT_EQ(Trace::TotalRecorded(), 0);
  EXPECT_TRUE(Trace::Collect().empty());
  // The sampler is inert too: no tracer, no profiling.
  EXPECT_FALSE(obs::ShouldSampleProfileNode());
}

TEST_F(ObsTest, ScopeRecordsCompleteEventWithArgs) {
  Trace::Enable();
  {
    TraceScope span("unit_span", "test");
    span.AddArg("items", 42);
    span.AddArg("detail", "extra");
  }
  const std::vector<TraceEvent> events = Trace::Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit_span");
  EXPECT_STREQ(events[0].category, "test");
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_GE(events[0].dur_ns, 0);
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_STREQ(events[0].args[0].key, "items");
  EXPECT_EQ(events[0].args[0].number, 42);
  EXPECT_STREQ(events[0].args[1].key, "detail");
  EXPECT_EQ(events[0].args[1].text, "extra");
}

TEST_F(ObsTest, SpanNestingAcrossThreads) {
  Trace::Enable();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      TraceScope outer("outer_" + std::to_string(t), "nest");
      for (int i = 0; i < 3; ++i) {
        TraceScope inner("inner_" + std::to_string(t), "nest");
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const std::vector<TraceEvent> events = Trace::Collect();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * 4));

  // Each worker got its own tracer tid, and every inner span nests inside
  // its thread's outer span.
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const TraceEvent& event : events) by_tid[event.tid].push_back(&event);
  ASSERT_EQ(by_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, thread_events] : by_tid) {
    ASSERT_EQ(thread_events.size(), 4u);
    const TraceEvent* outer = nullptr;
    for (const TraceEvent* event : thread_events) {
      if (event->name.rfind("outer_", 0) == 0) outer = event;
    }
    ASSERT_NE(outer, nullptr);
    for (const TraceEvent* event : thread_events) {
      if (event == outer) continue;
      EXPECT_GE(event->start_ns, outer->start_ns);
      EXPECT_LE(event->start_ns + event->dur_ns,
                outer->start_ns + outer->dur_ns);
    }
  }
}

TEST_F(ObsTest, RingBufferDropsOldestBeyondCapacity) {
  Trace::SetBufferCapacityForTesting(16);
  Trace::Enable();
  // Record from a fresh thread so the shrunken capacity applies.
  std::thread recorder([] {
    for (int i = 0; i < 40; ++i) {
      Trace::RecordComplete("event_" + std::to_string(i), "ring", i, 1);
    }
  });
  recorder.join();
  EXPECT_EQ(Trace::TotalRecorded(), 40);
  EXPECT_EQ(Trace::TotalDropped(), 24);
  const std::vector<TraceEvent> events = Trace::Collect();
  ASSERT_EQ(events.size(), 16u);
  // The survivors are the newest 16, still in order.
  EXPECT_EQ(events.front().name, "event_24");
  EXPECT_EQ(events.back().name, "event_39");
}

// ---- histograms ----

TEST_F(ObsTest, HistogramBucketEdges) {
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketFor(-5), 0);
  EXPECT_EQ(Histogram::BucketFor(1), 1);
  EXPECT_EQ(Histogram::BucketFor(2), 2);
  EXPECT_EQ(Histogram::BucketFor(3), 2);
  EXPECT_EQ(Histogram::BucketFor(4), 3);
  EXPECT_EQ(Histogram::BucketFor(1023), 10);
  EXPECT_EQ(Histogram::BucketFor(1024), 11);
  EXPECT_EQ(Histogram::BucketLowerBound(2), 2);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3);
  EXPECT_EQ(Histogram::BucketLowerBound(11), 1024);
  EXPECT_EQ(Histogram::BucketUpperBound(11), 2047);
  // Values at bucket boundaries land exactly once.
  Histogram h;
  h.Record(2);
  h.Record(3);
  h.Record(4);
  EXPECT_EQ(h.BucketCount(2), 2);
  EXPECT_EQ(h.BucketCount(3), 1);
  EXPECT_EQ(h.Count(), 3);
}

TEST_F(ObsTest, HistogramSingleValuePercentiles) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(100);
  // Clamping to observed min/max makes a single-valued distribution exact
  // at every percentile, including bucket-interior values.
  EXPECT_EQ(h.Percentile(0), 100);
  EXPECT_EQ(h.Percentile(50), 100);
  EXPECT_EQ(h.Percentile(99), 100);
  EXPECT_EQ(h.Percentile(100), 100);
  EXPECT_EQ(h.Min(), 100);
  EXPECT_EQ(h.Max(), 100);
  EXPECT_DOUBLE_EQ(h.Mean(), 100.0);
}

TEST_F(ObsTest, HistogramUniformPercentiles) {
  Histogram h;
  for (std::int64_t v = 1; v <= 1024; ++v) h.Record(v);
  EXPECT_EQ(h.Count(), 1024);
  EXPECT_EQ(h.Sum(), 1024 * 1025 / 2);
  // Rank 512 is the first value of bucket [512, 1023]: exactly 512.
  EXPECT_EQ(h.Percentile(50), 512);
  // p99 (rank 1014) interpolates inside [512, 1023]; uniform data aligned
  // to the bucket makes that accurate to a few counts.
  EXPECT_NEAR(static_cast<double>(h.Percentile(99)), 1014.0, 8.0);
  // Percentiles are monotone and bounded by the observed extremes.
  std::int64_t previous = 0;
  for (const double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    const std::int64_t value = h.Percentile(p);
    EXPECT_GE(value, previous);
    EXPECT_GE(value, h.Min());
    EXPECT_LE(value, h.Max());
    previous = value;
  }
  EXPECT_EQ(h.Percentile(100), 1024);
}

TEST_F(ObsTest, HistogramEmptyAndReset) {
  Histogram h;
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
  h.Record(7);
  EXPECT_EQ(h.Count(), 1);
  h.Reset();
  EXPECT_EQ(h.Count(), 0);
  EXPECT_EQ(h.Percentile(99), 0);
}

// ---- threaded accumulation (EngineStats/RunMetrics substrate) ----

TEST_F(ObsTest, ThreadedCounterAndHistogramStress) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Re-resolve through the registry map each round sometimes, to
      // stress concurrent GetCounter/GetHistogram too.
      obs::Counter& counter = registry.GetCounter("stress.counter");
      Histogram& histogram = registry.GetHistogram("stress.histogram");
      for (int i = 0; i < kIterations; ++i) {
        counter.Increment();
        histogram.Record(i % 1024);
        if (i % 4096 == 0) {
          registry.GetCounter("stress.counter").Add(0);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(registry.GetCounter("stress.counter").Value(),
            static_cast<std::int64_t>(kThreads) * kIterations);
  Histogram& histogram = registry.GetHistogram("stress.histogram");
  EXPECT_EQ(histogram.Count(), static_cast<std::int64_t>(kThreads) * kIterations);
  std::int64_t expected_sum = 0;
  for (int i = 0; i < kIterations; ++i) expected_sum += i % 1024;
  EXPECT_EQ(histogram.Sum(), expected_sum * kThreads);
  EXPECT_EQ(histogram.Min(), 0);
  EXPECT_EQ(histogram.Max(), 1023);
}

// ---- Chrome-trace JSON ----

TEST_F(ObsTest, ChromeTraceJsonRoundTrip) {
  Trace::Enable();
  {
    TraceScope span("span \"quoted\\\n", "cat/one");
    span.AddArg("count", 7);
  }
  Trace::RecordInstant("instant_marker", "cat two",
                       {{"detail", "detail \"x\"\t"}});
  Trace::RecordComplete("plain", "cat", 100, 50);

  const std::string path =
      ::testing::TempDir() + "/janus_obs_roundtrip.json";
  Trace::WriteChromeTrace(path);

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::ostringstream content;
  content << file.rdbuf();

  std::string error;
  ChromeTraceSummary summary;
  ASSERT_TRUE(obs::ValidateChromeTrace(content.str(), &error, &summary))
      << error;
  EXPECT_EQ(summary.num_events, 3);
  // Escaped characters survive the round trip.
  EXPECT_TRUE(summary.names.count("span \"quoted\\\n") != 0u);
  EXPECT_TRUE(summary.names.count("instant_marker") != 0u);
  EXPECT_TRUE(summary.categories.count("cat two") != 0u);
  EXPECT_TRUE(summary.phases.count("X") != 0u);
  EXPECT_TRUE(summary.phases.count("i") != 0u);
  std::remove(path.c_str());
}

TEST_F(ObsTest, JsonCheckRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(obs::ValidateChromeTrace("", &error));
  EXPECT_FALSE(obs::ValidateChromeTrace("{}", &error));
  EXPECT_FALSE(obs::ValidateChromeTrace("{\"traceEvents\":[{]}", &error));
  EXPECT_FALSE(obs::ValidateChromeTrace(
      R"({"traceEvents":[{"name":"a","cat":"b"}]})", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(obs::ValidateChromeTrace(
      R"({"traceEvents":[]} trailing)", &error));
  // A well-formed minimal trace passes.
  EXPECT_TRUE(obs::ValidateChromeTrace(
      R"({"traceEvents":[{"name":"a","cat":"b","ph":"X","ts":0,"dur":1}]})",
      &error))
      << error;
}

// ---- DOT heat annotation ----

TEST_F(ObsTest, DotAnnotatesPerOpTimingFromRegistry) {
  Graph g;
  const NodeOutput c = g.Constant(Tensor::Scalar(1.0f));
  Node* hot_node = g.AddNode("ObsHeatHot", {c});
  Node* cold_node = g.AddNode("ObsHeatCold", {{hot_node, 0}});
  // The node times a plan's profile holds after sampled runs.
  std::vector<obs::ProfileNodeInfo> infos(2);
  infos[0].name = hot_node->name();
  infos[0].op = hot_node->op();
  infos[1].name = cold_node->name();
  infos[1].op = cold_node->op();
  auto profile = std::make_shared<obs::PlanProfile>(std::move(infos));
  for (int i = 0; i < 10; ++i) {
    profile->Record(0, 40000);
    profile->Record(1, 100);
  }
  obs::ProfileRegistry::Global().Register(profile);

  const std::string plain = ToDot(g, "heat");
  EXPECT_EQ(plain.find("~40.0us"), std::string::npos);

  DotOptions options;
  options.annotate_timing = true;
  const std::string annotated = ToDot(g, "heat", options);
  // Mean latency appears in the label; the hottest node gets the strongest
  // heat color, the cold node a pale one.
  EXPECT_NE(annotated.find("~40.0us"), std::string::npos);
  EXPECT_NE(annotated.find("~100ns"), std::string::npos);
  EXPECT_NE(annotated.find("#e34a33"), std::string::npos);
  EXPECT_NE(annotated.find("#fef0d9"), std::string::npos);
}

// ---- end-to-end: engine decision loop in a trace file ----

TEST_F(ObsTest, EngineTraceCapturesDecisionLoopIncludingFallback) {
  const std::string path = ::testing::TempDir() + "/janus_engine_trace.json";
  VariableStore variables;
  Rng rng(7);
  minipy::Interpreter interp(&variables, &rng);
  minipy::InstallBuiltins(interp);
  Trace::Enable();  // process-wide: the one tracing switch
  JanusEngine engine(&interp, EngineOptions{});
  engine.Attach();

  // Stable branch during profiling, then a flip: the speculative graph's
  // assertion fails at runtime and the engine falls back (Fig. 2 (E)).
  interp.Run(R"(
w = variable('obs_w', constant([2.0]))
mode = constant([1.0])

def loss_fn():
    h = w * 3.0
    if reduce_sum(mode) > 0.0:
        out = h * h
    else:
        out = h + 100.0
    return reduce_sum(out)

for i in range(8):
    r = float(optimize(loss_fn, 0.0))
)");
  interp.Run(R"(
mode = constant([-1.0])
for i in range(8):
    r = float(optimize(loss_fn, 0.0))
)");
  const EngineStats stats = engine.stats();
  EXPECT_GE(stats.assumption_failures, 1);
  EXPECT_GE(stats.fallbacks, 1);
  EXPECT_GE(stats.graph_executions, 1);
  EXPECT_GE(stats.graph_generations, 1);

  // The text report carries the decision-loop counters, phase histograms,
  // and allocator traffic; the kernels the tracer sampled land in the plan
  // profiles.
  const std::string report = engine.StatsReport();
  EXPECT_NE(report.find("engine.graph_executions"), std::string::npos);
  EXPECT_NE(report.find("engine.assumption_failures"), std::string::npos);
  EXPECT_NE(report.find("engine.imperative_ns"), std::string::npos);
  EXPECT_NE(report.find("engine.graph_execution_ns"), std::string::npos);
  EXPECT_NE(report.find("buffer pool"), std::string::npos);
  EXPECT_FALSE(obs::CollectProfileSamples().empty());

  engine.Detach();
  Trace::WriteChromeTrace(path);

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::ostringstream content;
  content << file.rdbuf();
  std::string error;
  ChromeTraceSummary summary;
  std::vector<obs::ChromeTraceEvent> events;
  ASSERT_TRUE(
      obs::ValidateChromeTrace(content.str(), &error, &summary, &events))
      << error;
  EXPECT_GT(summary.num_events, 10);
  // The acceptance set: profiling, generation, plan build, graph
  // execution, per-op kernel samples, and the forced fallback as both the
  // imperative rerun's span and the decision that names its assumption.
  EXPECT_TRUE(summary.names.count("profile") != 0u);
  EXPECT_TRUE(summary.names.count("graph_generation") != 0u);
  EXPECT_TRUE(summary.names.count("plan_build") != 0u);
  EXPECT_TRUE(summary.names.count("graph_execution") != 0u);
  EXPECT_TRUE(summary.categories.count("kernel") != 0u);
  EXPECT_TRUE(summary.categories.count("engine") != 0u);
  const auto has = [&events](std::string_view cat, std::string_view name) {
    return std::any_of(events.begin(), events.end(),
                       [&](const obs::ChromeTraceEvent& event) {
                         return event.cat == cat && event.name == name;
                       });
  };
  EXPECT_TRUE(has("engine", "fallback"));
  EXPECT_TRUE(has(obs::kDecisionCategory, "fallback"));
  EXPECT_TRUE(has(obs::kDecisionCategory, "assert_failure"));
  std::remove(path.c_str());
}

// Sampled count of eager dispatches of `op` in the pinned "<eager>" profile.
std::int64_t EagerSampleCount(const std::string& op) {
  for (const auto& profile : obs::ProfileRegistry::Global().Profiles()) {
    if (profile->unit() != "<eager>") continue;
    for (int i = 0; i < profile->num_nodes(); ++i) {
      if (profile->nodes()[static_cast<std::size_t>(i)].op != op) continue;
      const Histogram* samples = profile->Samples(i);
      return samples != nullptr ? samples->Count() : 0;
    }
  }
  return 0;
}

TEST_F(ObsTest, KernelTimingWithoutTracerFillsRegistryOnly) {
  const std::int64_t count_before = EagerSampleCount("Add");
  obs::EnableProfiling();
  ASSERT_FALSE(Trace::Enabled());
  VariableStore variables;
  Rng rng(3);
  minipy::EagerContext eager(&variables, &rng);
  const Tensor a = Tensor::Full(Shape{4, 4}, 1.0f);
  for (int i = 0; i < 256; ++i) {
    eager.Execute("Add", {a, a});
  }
  obs::DisableProfiling();
  // 256 ops sampled at a jittered ~64 stride: every gap is < 96
  // (NextSampleGap draws from [32, 96)), so at least 2 new samples land in
  // the eager profile's Add node even in the worst draw.
  EXPECT_GE(EagerSampleCount("Add") - count_before, 2);
  // No tracer: nothing hit the ring buffers.
  EXPECT_EQ(Trace::TotalRecorded(), 0);
}

TEST_F(ObsTest, TracingSamplesPlanNodesAndEagerDispatch) {
  // Tracing alone turns the sampler on: a plan's nodes record into its
  // profile and emit "kernel" events, eager dispatch emits "eager" events.
  Trace::Enable();
  ASSERT_FALSE(obs::ProfilingEnabled());
  VariableStore variables;
  Rng rng(3);
  minipy::EagerContext eager(&variables, &rng);
  const Tensor a = Tensor::Full(Shape{4, 4}, 1.0f);
  for (int i = 0; i < 256; ++i) eager.Execute("Neg", {a});

  Graph g;
  NodeOutput x = g.Constant(Tensor::Full(Shape{4, 4}, 0.25f));
  for (int i = 0; i < 64; ++i) x = {g.AddNode("MatMul", {x, x}), 0};
  Executor executor(nullptr, &variables, nullptr, &rng);
  const auto plan = ExecutionPlan::Build(g, std::vector<NodeOutput>{x}, {});
  for (int run = 0; run < 4; ++run) executor.Run(*plan, {});
  Trace::Disable();

  std::set<std::string> categories;
  for (const TraceEvent& event : Trace::Collect()) {
    categories.insert(event.category);
  }
  EXPECT_TRUE(categories.count("eager") != 0u);
  EXPECT_TRUE(categories.count("kernel") != 0u);
  EXPECT_GE(EagerSampleCount("Neg"), 2);
  std::int64_t plan_samples = 0;
  for (const auto& profile : obs::ProfileRegistry::Global().Profiles()) {
    if (profile->unit() == "<eager>") continue;
    for (int i = 0; i < profile->num_nodes(); ++i) {
      if (const Histogram* samples = profile->Samples(i)) {
        plan_samples += samples->Count();
      }
    }
  }
  EXPECT_GE(plan_samples, 2);
}

}  // namespace
}  // namespace janus
