// Tests for the live-introspection layer (src/obs): decision events on the
// trace (args round-tripped through the Chrome-trace JSON, ring overflow,
// threaded publication, the disabled fast path), the Prometheus text
// exposition (name sanitation, label escaping, counter + histogram
// rendering), the introspection hub's source retirement, the HTTP endpoint
// routing with /flightz, an end-to-end socket scrape of a live engine, and
// fallback root-cause attribution naming the exact failing assumption.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "frontend/builtins.h"
#include "obs/http_export.h"
#include "obs/json_check.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace janus {
namespace {

using obs::ChromeTraceEvent;
using obs::HttpExportServer;
using obs::HttpResponse;
using obs::IntrospectionHub;
using obs::MetricsRegistry;
using obs::Trace;
using obs::TraceEvent;

class IntrospectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Trace::Disable();
    Trace::Reset();
    IntrospectionHub::Global().ResetForTesting();
  }
  void TearDown() override {
    Trace::Disable();
    Trace::Reset();
    Trace::SetBufferCapacityForTesting(0);  // restore default
    IntrospectionHub::Global().ResetForTesting();
  }
};

// Interpreter + engine pair (mirrors janus_test.cc's Session).
struct Session {
  explicit Session(EngineOptions options = EngineOptions{})
      : rng(17), interp(&variables, &rng), engine(&interp, options) {
    minipy::InstallBuiltins(interp);
    engine.Attach();
  }
  VariableStore variables;
  Rng rng;
  minipy::Interpreter interp;
  JanusEngine engine;
};

// A trace event's arg `key` as text: the string, or the integer's decimal
// rendering; empty when absent.
std::string ArgOf(const TraceEvent& event, std::string_view key) {
  for (const obs::TraceArg& arg : event.args) {
    if (key == arg.key) {
      return arg.is_text ? arg.text : std::to_string(arg.number);
    }
  }
  return {};
}

// Trains a unit on a stable branch, then flips it: the speculative graph's
// AssertOp fails and the engine falls back (Fig. 2 (E)).
constexpr const char* kFlipProgram = R"(
w = variable('sw', constant([2.0]))
mode = constant([1.0])

def loss_fn():
    h = w * 3.0
    if reduce_sum(mode) > 0.0:
        out = h * h
    else:
        out = h + 100.0
    return reduce_sum(out)

for i in range(8):
    optimize(loss_fn, 0.0)

mode = constant([-1.0])
for i in range(4):
    optimize(loss_fn, 0.0)
)";

// ---- decision events ----

TEST_F(IntrospectionTest, DisabledTraceHasFastPathGuard) {
  ASSERT_FALSE(Trace::Enabled());
  // Every producer site (engine, executor, profiler, cache) guards on
  // Trace::Enabled(); a session that generates, falls back and blacklists
  // with the tracer off must record nothing.
  Session session;
  session.interp.Run(kFlipProgram);
  ASSERT_GE(session.engine.stats().fallbacks, 1);
  EXPECT_EQ(Trace::TotalRecorded(), 0);
}

TEST_F(IntrospectionTest, DecisionKindsRoundTripWithArgs) {
  const std::vector<std::string> kinds = {
      "fallback",       "entry_mismatch", "cache_miss",
      "refusal",        "assert_failure", "assumption_blacklisted",
      "cache_insert",   "cache_evict",    "cache_despecialize"};
  const std::string assumed = "say \"hi\"\nline\ttab\\end";
  const std::string observed = std::string("ctl\x01");
  Trace::Enable();
  for (const std::string& kind : kinds) {
    Trace::RecordDecision(kind.c_str(), {{"unit", "0xabc"},
                                         {"assumed", assumed},
                                         {"observed", observed},
                                         {"level", 2},
                                         {"validate_ns", -5}});
  }
  Trace::RecordComplete("not_a_decision", "engine", 0, 1);
  Trace::Disable();

  std::string error;
  std::vector<ChromeTraceEvent> events;
  ASSERT_TRUE(obs::ValidateChromeTrace(Trace::ToChromeJson(), &error, nullptr,
                                       &events))
      << error;
  std::vector<std::string> seen;
  for (const ChromeTraceEvent& event : events) {
    if (event.cat != obs::kDecisionCategory) continue;
    seen.push_back(event.name);
    EXPECT_EQ(event.ph, "i");
    EXPECT_EQ(event.args.at("unit"), "0xabc");
    // Escapes decode back to the original strings; ints keep their text.
    EXPECT_EQ(event.args.at("assumed"), assumed);
    EXPECT_EQ(event.args.at("observed"), observed);
    EXPECT_EQ(event.args.at("level"), "2");
    EXPECT_EQ(event.args.at("validate_ns"), "-5");
  }
  EXPECT_EQ(seen, kinds);
}

TEST_F(IntrospectionTest, RingOverflowKeepsNewestRecords) {
  // Decisions share each thread's ring with spans and sampled kernel
  // events: once the ring wraps, the oldest decisions are gone and the
  // newest survive, oldest first.
  Trace::SetBufferCapacityForTesting(8);
  Trace::Enable();
  std::thread recorder([] {  // a fresh thread gets the shrunken ring
    for (int i = 0; i < 6; ++i) {
      const std::string detail = std::string("d").append(std::to_string(i));
      Trace::RecordDecision("cache_insert", {{"detail", detail}});
      Trace::RecordComplete("MatMul", "kernel", Trace::NowNs(), 1);
    }
  });
  recorder.join();
  EXPECT_EQ(Trace::TotalDropped(), 4);
  const std::vector<TraceEvent> decisions = Trace::CollectDecisions(0);
  ASSERT_EQ(decisions.size(), 4u);
  EXPECT_EQ(ArgOf(decisions.front(), "detail"), "d2");
  EXPECT_EQ(ArgOf(decisions.back(), "detail"), "d5");
}

TEST_F(IntrospectionTest, ThreadedWritersNeverTearRecords) {
  Trace::Enable();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::atomic<bool> done{false};
  // A scraper serializes the rings while the writers publish, as /flightz
  // does against a live process.
  std::thread scraper([&done] {
    while (!done.load()) {
      std::string error;
      EXPECT_TRUE(obs::ValidateChromeTrace(
          Trace::ToChromeJson(Trace::CollectDecisions(64)), &error))
          << error;
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      const std::string tag = "writer-" + std::to_string(t) +
                              "-payload-payload-payload";
      for (int i = 0; i < kPerThread; ++i) {
        // Same string in two args: a torn event would disagree.
        Trace::RecordDecision("cache_insert",
                              {{"unit", tag}, {"detail", tag}});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  done.store(true);
  scraper.join();
  EXPECT_EQ(Trace::TotalRecorded(), kThreads * kPerThread);
  const std::vector<TraceEvent> events = Trace::CollectDecisions(0);
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (const TraceEvent& event : events) {
    EXPECT_EQ(ArgOf(event, "unit"), ArgOf(event, "detail"));
    EXPECT_NE(ArgOf(event, "unit").find("writer-"), std::string::npos);
  }
}

// ---- Prometheus exposition ----

TEST_F(IntrospectionTest, MetricNameSanitization) {
  EXPECT_EQ(obs::PrometheusMetricName("engine.graph_executions"),
            "janus_engine_graph_executions");
  EXPECT_EQ(obs::PrometheusMetricName("cache.hits"), "janus_cache_hits");
  EXPECT_EQ(obs::PrometheusMetricName("weird-name$x"), "janus_weird_name_x");
  EXPECT_EQ(obs::PrometheusMetricName("a:b_c9"), "janus_a:b_c9");
}

TEST_F(IntrospectionTest, LabelValueEscaping) {
  EXPECT_EQ(obs::PrometheusEscapeLabelValue("plain"), "plain");
  EXPECT_EQ(obs::PrometheusEscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::PrometheusEscapeLabelValue("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::PrometheusEscapeLabelValue("two\nlines"), "two\\nlines");
}

TEST_F(IntrospectionTest, RendersCountersAndValidates) {
  MetricsRegistry registry;
  registry.GetCounter("engine.fallbacks").Add(3);
  IntrospectionHub::Global().RegisterMetricsSource(&registry);

  const std::string text = obs::RenderPrometheusText();
  EXPECT_NE(text.find("# TYPE janus_engine_fallbacks counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("janus_engine_fallbacks 3\n"), std::string::npos);

  std::string error;
  obs::PrometheusSummary summary;
  ASSERT_TRUE(obs::ValidatePrometheusText(text, &error, &summary)) << error;
  EXPECT_GT(summary.num_samples, 0);
  EXPECT_NE(summary.families.count("janus_engine_fallbacks"), 0u);
  IntrospectionHub::Global().UnregisterMetricsSource(&registry);
}

TEST_F(IntrospectionTest, RendersHistogramBucketsSumAndCount) {
  MetricsRegistry registry;
  obs::Histogram& histogram = registry.GetHistogram("engine.imperative_ns");
  histogram.Record(5);
  histogram.Record(100);
  IntrospectionHub::Global().RegisterMetricsSource(&registry);

  const std::string text = obs::RenderPrometheusText();
  EXPECT_NE(text.find("# TYPE janus_engine_imperative_ns histogram\n"),
            std::string::npos);
  // Cumulative buckets end at +Inf == count; sum and count trail.
  EXPECT_NE(text.find("janus_engine_imperative_ns_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("janus_engine_imperative_ns_sum 105\n"),
            std::string::npos);
  EXPECT_NE(text.find("janus_engine_imperative_ns_count 2\n"),
            std::string::npos);
  // The le="7" bucket (values 4..7) holds the 5; cumulative count 1.
  EXPECT_NE(text.find("janus_engine_imperative_ns_bucket{le=\"7\"} 1\n"),
            std::string::npos);

  std::string error;
  ASSERT_TRUE(obs::ValidatePrometheusText(text, &error, nullptr)) << error;
  IntrospectionHub::Global().UnregisterMetricsSource(&registry);
}

TEST_F(IntrospectionTest, KernelTimersCollapseIntoLabeledFamily) {
  // A plan profile's node histograms roll up by op into one labeled family.
  obs::ProfileRegistry::Global().Reset();
  std::vector<obs::ProfileNodeInfo> infos(3);
  infos[0].name = "add_a";
  infos[0].op = "Add";
  infos[1].name = "add_b";
  infos[1].op = "Add";
  infos[2].name = "matmul";
  infos[2].op = "MatMul";
  auto profile = std::make_shared<obs::PlanProfile>(std::move(infos));
  obs::ProfileRegistry::Global().Register(profile);
  // Nothing sampled yet: no family.
  EXPECT_EQ(obs::RenderPrometheusText().find("janus_kernel_ns"),
            std::string::npos);
  profile->Record(0, 10);
  profile->Record(1, 12);
  profile->Record(2, 20);

  const std::string text = obs::RenderPrometheusText();
  obs::ProfileRegistry::Global().Reset();
  EXPECT_NE(text.find("# TYPE janus_kernel_ns histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("janus_kernel_ns_bucket{op=\"Add\","),
            std::string::npos);
  // Both Add nodes land in one series.
  EXPECT_NE(text.find("janus_kernel_ns_count{op=\"Add\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("janus_kernel_ns_count{op=\"MatMul\"} 1\n"),
            std::string::npos);
  // Not exported as separate families.
  EXPECT_EQ(text.find("janus_kernel_Add"), std::string::npos);

  std::string error;
  ASSERT_TRUE(obs::ValidatePrometheusText(text, &error, nullptr)) << error;
}

TEST_F(IntrospectionTest, PrometheusValidatorRejectsNonFiniteSamples) {
  std::string error;
  EXPECT_FALSE(obs::ValidatePrometheusText("janus_x NaN\n", &error, nullptr));
  EXPECT_NE(error.find("non-finite"), std::string::npos) << error;
  EXPECT_FALSE(obs::ValidatePrometheusText("janus_x +Inf\n", &error, nullptr));
  EXPECT_NE(error.find("non-finite"), std::string::npos) << error;
  EXPECT_FALSE(obs::ValidatePrometheusText("janus_x -Inf\n", &error, nullptr));
  // Values that overflow double parse to infinity and are just as broken.
  EXPECT_FALSE(obs::ValidatePrometheusText("janus_x 1e999\n", &error, nullptr));
  EXPECT_NE(error.find("non-finite"), std::string::npos) << error;
  // Finite values, including negative and exponent forms, stay valid.
  EXPECT_TRUE(obs::ValidatePrometheusText("janus_x -3.5e2\n", &error, nullptr))
      << error;
  // The "+Inf" histogram-bucket LABEL is part of the format, not a sample
  // value, and must still be accepted.
  EXPECT_TRUE(obs::ValidatePrometheusText(
      "janus_h_bucket{le=\"+Inf\"} 2\n", &error, nullptr))
      << error;
}

TEST_F(IntrospectionTest, PrometheusValidatorRejectsDuplicateSeries) {
  std::string error;
  // Same bare series twice.
  EXPECT_FALSE(obs::ValidatePrometheusText("janus_x 1\njanus_x 2\n", &error,
                                           nullptr));
  EXPECT_NE(error.find("duplicate series"), std::string::npos) << error;
  // Same labeled series with the labels in a different order: still the
  // same series identity.
  EXPECT_FALSE(obs::ValidatePrometheusText(
      "janus_x{a=\"1\",b=\"2\"} 1\njanus_x{b=\"2\",a=\"1\"} 2\n", &error,
      nullptr));
  EXPECT_NE(error.find("duplicate series"), std::string::npos) << error;
  // Different label values are distinct series and fine.
  EXPECT_TRUE(obs::ValidatePrometheusText(
      "janus_x{a=\"1\"} 1\njanus_x{a=\"2\"} 2\n", &error, nullptr))
      << error;
  // Same name with and without labels are distinct series too.
  EXPECT_TRUE(obs::ValidatePrometheusText(
      "janus_x 1\njanus_x{a=\"1\"} 2\n", &error, nullptr))
      << error;
}

TEST_F(IntrospectionTest, UnregisteredSourcesRetireInsteadOfVanishing) {
  {
    MetricsRegistry registry;
    registry.GetCounter("engine.graph_executions").Add(7);
    IntrospectionHub::Global().RegisterMetricsSource(&registry);
    IntrospectionHub::Global().UnregisterMetricsSource(&registry);
  }  // registry destroyed; the fold must have copied the values out
  const auto counters = IntrospectionHub::Global().MergedCounters();
  const auto it = counters.find("engine.graph_executions");
  ASSERT_NE(it, counters.end());
  EXPECT_GE(it->second, 7);

  const int id = IntrospectionHub::Global().RegisterStatusSource(
      "engine test", [] { return std::string("final words"); });
  IntrospectionHub::Global().UnregisterStatusSource(id);
  const std::string status = IntrospectionHub::Global().StatusText();
  EXPECT_NE(status.find("[retired]"), std::string::npos);
  EXPECT_NE(status.find("final words"), std::string::npos);
}

// ---- HTTP routing ----

TEST_F(IntrospectionTest, HandlePathRoutes) {
  EXPECT_EQ(HttpExportServer::HandlePath("/healthz").body, "ok\n");
  EXPECT_EQ(HttpExportServer::HandlePath("/healthz").status, 200);
  EXPECT_EQ(HttpExportServer::HandlePath("/no-such").status, 404);
  EXPECT_NE(HttpExportServer::HandlePath("/").body.find("/metrics"),
            std::string::npos);
  const HttpResponse metrics = HttpExportServer::HandlePath("/metrics");
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");
  std::string error;
  EXPECT_TRUE(obs::ValidatePrometheusText(metrics.body, &error, nullptr))
      << error;
}

TEST_F(IntrospectionTest, FlightzServesRecentRecordsWithLimit) {
  Trace::Enable();
  for (int i = 0; i < 5; ++i) {
    const std::string detail = std::string("r").append(std::to_string(i));
    Trace::RecordDecision("cache_insert", {{"detail", detail}});
    Trace::RecordComplete("graph_execution", "engine", 0, 1);
  }
  const HttpResponse response = HttpExportServer::HandlePath("/flightz?n=2");
  EXPECT_EQ(response.content_type, "application/json");
  std::string error;
  std::vector<ChromeTraceEvent> events;
  ASSERT_TRUE(obs::ValidateChromeTrace(response.body, &error, nullptr,
                                       &events))
      << error;
  // The newest 2 decision events, oldest first; spans are not decisions.
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].cat, obs::kDecisionCategory);
  EXPECT_EQ(events[0].args.at("detail"), "r3");
  EXPECT_EQ(events[1].args.at("detail"), "r4");
}

// ---- end-to-end socket scrape ----

std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return {};
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string BodyOf(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string()
                                    : response.substr(split + 4);
}

TEST_F(IntrospectionTest, EndToEndScrapeOfLiveEngine) {
  Session session;
  session.interp.Run(R"(
w = variable('w', constant([[0.5]]))
x = constant([[1.0], [2.0]])
def fn():
    return reduce_mean(matmul(x, w))
for i in range(8):
    optimize(fn, 0.01)
)");
  HttpExportServer& server = HttpExportServer::Global();
  ASSERT_TRUE(server.Start(0));  // free port
  ASSERT_GT(server.port(), 0);

  const std::string metrics_response = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics_response.find("HTTP/1.1 200 OK"), std::string::npos);
  const std::string metrics = BodyOf(metrics_response);
  std::string error;
  obs::PrometheusSummary summary;
  ASSERT_TRUE(obs::ValidatePrometheusText(metrics, &error, &summary))
      << error;
  EXPECT_NE(summary.families.count("janus_engine_graph_executions"), 0u);
  EXPECT_NE(metrics.find("janus_engine_graph_executions"), std::string::npos);

  const std::string statusz = BodyOf(HttpGet(server.port(), "/statusz"));
  EXPECT_NE(statusz.find("per-unit despecialization ladder"),
            std::string::npos);
  EXPECT_NE(statusz.find("fn ["), std::string::npos);  // the unit's name

  EXPECT_EQ(BodyOf(HttpGet(server.port(), "/healthz")), "ok\n");
  server.Stop();
  EXPECT_FALSE(server.running());
}

// ---- fallback attribution ----

TEST_F(IntrospectionTest, ForcedFallbackNamesFailingAssumption) {
  Trace::Enable();
  Session session;
  session.interp.Run(kFlipProgram);
  Trace::Disable();
  const EngineStats stats = session.engine.stats();
  ASSERT_GE(stats.fallbacks, 1);

  const std::vector<TraceEvent> decisions = Trace::CollectDecisions(0);
  const TraceEvent* fallback = nullptr;
  const TraceEvent* assert_failure = nullptr;
  std::int64_t fallbacks = 0;
  for (const TraceEvent& event : decisions) {
    if (event.name == "fallback") {
      ++fallbacks;
      if (!ArgOf(event, "assumption").empty()) fallback = &event;
    }
    if (event.name == "assert_failure") assert_failure = &event;
  }
  // Each decision is recorded once: one fallback event per fallback.
  EXPECT_EQ(fallbacks, stats.fallbacks);
  // The engine-side decision carries the unit context and the exact
  // failing assumption with its assumed-vs-observed rendering.
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(ArgOf(*fallback, "name"), "loss_fn");
  EXPECT_EQ(ArgOf(*fallback, "assumption").rfind("branch:", 0), 0u)
      << ArgOf(*fallback, "assumption");
  EXPECT_EQ(ArgOf(*fallback, "assumed"), "branch taken");
  EXPECT_NE(ArgOf(*fallback, "observed").find("Tensor<bool"),
            std::string::npos)
      << ArgOf(*fallback, "observed");
  // The executor-side decision names the same assumption at the kernel
  // site.
  ASSERT_NE(assert_failure, nullptr);
  EXPECT_EQ(ArgOf(*assert_failure, "assumption"),
            ArgOf(*fallback, "assumption"));
  EXPECT_NE(ArgOf(*assert_failure, "node").find("Assert"), std::string::npos);

  // The per-unit ladder section of the status report names the unit.
  const std::string report = session.engine.StatsReport();
  EXPECT_NE(report.find("per-unit despecialization ladder"),
            std::string::npos);
  EXPECT_NE(report.find("loss_fn ["), std::string::npos);
}

}  // namespace
}  // namespace janus
