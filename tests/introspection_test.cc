// Tests for the live-introspection layer (src/obs): the speculation
// flight recorder (ring overflow, JSONL schema, threaded publication),
// the Prometheus text exposition (name sanitation, label escaping,
// counter + histogram rendering), the introspection hub's source
// retirement, the HTTP endpoint routing, an end-to-end socket scrape of a
// live engine, and fallback root-cause attribution naming the exact
// failing assumption.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "frontend/builtins.h"
#include "obs/http_export.h"
#include "obs/json_check.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace janus {
namespace {

using obs::FlatObject;
using obs::FlatValue;
using obs::HttpExportServer;
using obs::HttpResponse;
using obs::IntrospectionHub;
using obs::Ledger;
using obs::LedgerRecord;
using obs::MetricsRegistry;

class IntrospectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Ledger::Disable();
    Ledger::Global().SetCapacityForTesting(0);  // default capacity
    IntrospectionHub::Global().ResetForTesting();
  }
  void TearDown() override {
    Ledger::Disable();
    Ledger::Global().SetCapacityForTesting(0);
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

LedgerRecord MakeRecord(const char* kind, std::string detail = {}) {
  LedgerRecord record;
  record.kind = kind;
  record.unit = "0xabc";
  record.detail = std::move(detail);
  return record;
}

// ---- ledger ----

TEST_F(IntrospectionTest, DisabledLedgerHasFastPathGuard) {
  ASSERT_FALSE(Ledger::Enabled());
  // Producer sites all guard on Enabled(); a full engine session with the
  // recorder off must publish nothing.
  const std::int64_t before = Ledger::Global().TotalRecorded();
  Session session;
  session.interp.Run(R"(
w = variable('w', constant([[0.5]]))
x = constant([[1.0], [2.0]])
def fn():
    return reduce_mean(matmul(x, w))
for i in range(6):
    optimize(fn, 0.01)
)");
  EXPECT_EQ(Ledger::Global().TotalRecorded(), before);
}

TEST_F(IntrospectionTest, RingOverflowKeepsNewestRecords) {
  Ledger& ledger = Ledger::Global();
  ledger.SetCapacityForTesting(8);
  Ledger::Enable();
  for (int i = 0; i < 20; ++i) {
    ledger.Record(
        MakeRecord("run", std::string("r").append(std::to_string(i))));
  }
  EXPECT_EQ(ledger.TotalRecorded(), 20);
  EXPECT_EQ(ledger.TotalDropped(), 12);
  const std::vector<LedgerRecord> records = ledger.Snapshot();
  ASSERT_EQ(records.size(), 8u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    // Oldest-first, exactly the last capacity records.
    EXPECT_EQ(records[i].seq, static_cast<std::int64_t>(12 + i));
    EXPECT_EQ(records[i].detail,
              std::string("r").append(std::to_string(12 + i)));
  }
}

TEST_F(IntrospectionTest, SnapshotHonorsMaxRecords) {
  Ledger& ledger = Ledger::Global();
  ledger.SetCapacityForTesting(16);
  Ledger::Enable();
  for (int i = 0; i < 10; ++i) ledger.Record(MakeRecord("run"));
  const std::vector<LedgerRecord> records = ledger.Snapshot(3);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.front().seq, 7);
  EXPECT_EQ(records.back().seq, 9);
}

TEST_F(IntrospectionTest, JsonLineEscapesAndValidates) {
  LedgerRecord record = MakeRecord("fallback");
  record.name = "loss_fn";
  record.assumption = "shape:x";
  record.assumed = "say \"hi\"\nline\ttab\\end";
  record.observed = std::string("ctl\x01");
  record.level = 2;
  record.cache_hit = 1;
  record.execute_ns = 1234;
  Ledger::Enable();
  Ledger::Global().SetCapacityForTesting(4);
  Ledger::Global().Record(record);
  const std::vector<LedgerRecord> records = Ledger::Global().Snapshot();
  ASSERT_EQ(records.size(), 1u);

  const std::string line = Ledger::ToJsonLine(records[0]);
  std::string error;
  FlatObject fields;
  ASSERT_TRUE(obs::ValidateLedgerLine(line, &fields, &error)) << error;
  EXPECT_EQ(fields["kind"].text, "fallback");
  EXPECT_EQ(fields["assumption"].text, "shape:x");
  // Escapes decode back to the original strings.
  EXPECT_EQ(fields["assumed"].text, record.assumed);
  EXPECT_EQ(fields["observed"].kind, FlatValue::Kind::kString);
  EXPECT_EQ(fields["level"].text, "2");
  EXPECT_EQ(fields["execute_ns"].text, "1234");
}

TEST_F(IntrospectionTest, LedgerLineValidatorRejectsBadRecords) {
  std::string error;
  EXPECT_FALSE(obs::ValidateLedgerLine("{\"seq\":1}", nullptr, &error));
  EXPECT_NE(error.find("ts_ns"), std::string::npos);
  EXPECT_FALSE(obs::ValidateLedgerLine(
      "{\"seq\":1,\"ts_ns\":2}", nullptr, &error));
  EXPECT_NE(error.find("kind"), std::string::npos);
  EXPECT_FALSE(obs::ValidateLedgerLine(
      "{\"seq\":\"one\",\"ts_ns\":2,\"kind\":\"run\"}", nullptr, &error));
  EXPECT_FALSE(obs::ValidateLedgerLine(
      "{\"seq\":1,\"ts_ns\":2,\"kind\":\"run\",\"nested\":{}}", nullptr,
      &error));
  EXPECT_TRUE(obs::ValidateLedgerLine(
      "{\"seq\":1,\"ts_ns\":2,\"kind\":\"run\"}", nullptr, &error)) << error;
}

TEST_F(IntrospectionTest, ThreadedWritersNeverTearRecords) {
  Ledger& ledger = Ledger::Global();
  ledger.SetCapacityForTesting(64);
  Ledger::Enable();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ledger, t] {
      const std::string tag = "writer-" + std::to_string(t) +
                              "-payload-payload-payload";
      for (int i = 0; i < kPerThread; ++i) {
        LedgerRecord record;
        record.kind = "run";
        record.unit = tag;    // same string in two fields: a torn slot
        record.detail = tag;  // would disagree
        ledger.Record(std::move(record));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ledger.TotalRecorded(), kThreads * kPerThread);
  const std::vector<LedgerRecord> records = ledger.Snapshot();
  EXPECT_FALSE(records.empty());
  for (const LedgerRecord& record : records) {
    EXPECT_EQ(record.unit, record.detail);
    EXPECT_NE(record.unit.find("writer-"), std::string::npos);
  }
}

TEST_F(IntrospectionTest, WriteJsonlProducesValidatableFile) {
  Ledger& ledger = Ledger::Global();
  ledger.SetCapacityForTesting(16);
  Ledger::Enable();
  for (int i = 0; i < 5; ++i) {
    ledger.Record(
        MakeRecord("generation", std::string("g").append(std::to_string(i))));
  }
  const std::string path =
      ::testing::TempDir() + "/introspection_test_ledger.jsonl";
  ASSERT_TRUE(ledger.WriteJsonl(path));
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  int lines = 0;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    std::string error;
    EXPECT_TRUE(obs::ValidateLedgerLine(line, nullptr, &error))
        << line << ": " << error;
    ++lines;
  }
  EXPECT_EQ(lines, 5);
  std::remove(path.c_str());
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
  // The ledger's own counters are always exported.
  EXPECT_NE(text.find("janus_ledger_records_total"), std::string::npos);

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
  Ledger& ledger = Ledger::Global();
  ledger.SetCapacityForTesting(16);
  Ledger::Enable();
  for (int i = 0; i < 5; ++i) {
    ledger.Record(
        MakeRecord("run", std::string("r").append(std::to_string(i))));
  }
  const HttpResponse response = HttpExportServer::HandlePath("/flightz?n=2");
  std::istringstream lines(response.body);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::string error;
    EXPECT_TRUE(obs::ValidateLedgerLine(line, nullptr, &error)) << error;
    ++count;
  }
  EXPECT_EQ(count, 2);
  // The newest records are served.
  EXPECT_NE(response.body.find("r4"), std::string::npos);
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
  Ledger::Global().SetCapacityForTesting(1024);
  Ledger::Enable();
  Session session;
  // Stable branch during profiling, then flipped: the speculative graph's
  // AssertOp fails and the engine falls back (Fig. 2 (E)).
  session.interp.Run(R"(
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
)");
  ASSERT_GE(session.engine.stats().fallbacks, 1);

  const std::vector<LedgerRecord> records = Ledger::Global().Snapshot();
  const LedgerRecord* fallback = nullptr;
  const LedgerRecord* assert_failure = nullptr;
  for (const LedgerRecord& record : records) {
    if (std::string_view(record.kind) == "fallback" &&
        !record.assumption.empty()) {
      fallback = &record;
    }
    if (std::string_view(record.kind) == "assert_failure") {
      assert_failure = &record;
    }
  }
  // The engine-side record carries the unit context and the exact failing
  // assumption with its assumed-vs-observed rendering.
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(fallback->name, "loss_fn");
  EXPECT_EQ(fallback->assumption.rfind("branch:", 0), 0u)
      << fallback->assumption;
  EXPECT_EQ(fallback->assumed, "branch taken");
  EXPECT_NE(fallback->observed.find("Tensor<bool"), std::string::npos)
      << fallback->observed;
  // The executor-side record names the same assumption at the kernel site.
  ASSERT_NE(assert_failure, nullptr);
  EXPECT_EQ(assert_failure->assumption, fallback->assumption);
  EXPECT_NE(assert_failure->detail.find("Assert"), std::string::npos);

  // The per-unit ladder section of the status report names the unit.
  const std::string report = session.engine.StatsReport();
  EXPECT_NE(report.find("per-unit despecialization ladder"),
            std::string::npos);
  EXPECT_NE(report.find("loss_fn ["), std::string::npos);
}

}  // namespace
}  // namespace janus
