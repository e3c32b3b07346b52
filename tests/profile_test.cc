// Tests for the source-attributed continuous profiler (src/obs/profile):
// provenance stamping through generation, autodiff and fusion for every
// zoo model; the lock-free per-plan accumulator under threaded recording;
// the live /profilez endpoint scraped over a real socket; folded-stacks
// rendering and parsing; and profdiff regression detection.
#include "obs/profile.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "frontend/builtins.h"
#include "frontend/eager.h"
#include "models/zoo.h"
#include "obs/http_export.h"

namespace janus {
namespace {

using obs::FoldedProfile;
using obs::HttpExportServer;
using obs::PlanProfile;
using obs::ProfileNodeInfo;
using obs::ProfileRegistry;
using obs::ProfileSample;

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::DisableProfiling();
    ProfileRegistry::Global().Reset();
  }
  void TearDown() override {
    obs::DisableProfiling();
    ProfileRegistry::Global().Reset();
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

constexpr const char* kTrainingScript = R"(
w = variable('w', constant([[0.5], [0.25]]))
x = constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
def loss_fn():
    h = matmul(x, w)
    return reduce_mean(h * h)
for i in range(24):
    optimize(loss_fn, 0.01)
)";

// ---- provenance through generation + autodiff + fusion (zoo sweep) ----

class ZooProvenance : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { ProfileRegistry::Global().Reset(); }
  void TearDown() override { ProfileRegistry::Global().Reset(); }
};

TEST_P(ZooProvenance, EveryPlanNodeCarriesASourceSite) {
  const models::ModelSpec& spec = models::FindModel(GetParam());
  models::ModelSession session(spec, EngineOptions{});
  for (int i = 0; i < 12; ++i) session.Step();

  // Every engine-generated plan (unit-keyed at BuildPlans) and every
  // "<imperative tape>" backward plan must attribute all of its nodes —
  // including autodiff-cloned gradient nodes, the tape plan's argument
  // placeholders and every member of a fused region — back to an imperative
  // source site. The eager-dispatch profile is not a plan: one node per
  // kernel op, no site.
  int unit_plans = 0;
  int nodes_checked = 0;
  for (const auto& profile : ProfileRegistry::Global().Profiles()) {
    if (profile->unit().empty() || profile->unit() == "<eager>") continue;
    ++unit_plans;
    for (const ProfileNodeInfo& info : profile->nodes()) {
      ++nodes_checked;
      EXPECT_TRUE(info.site.known())
          << spec.name << ": node '" << info.name << "' (" << info.op
          << ") in unit '" << profile->unit() << "' has no source site";
      for (const ProfileNodeInfo& member : info.members) {
        ++nodes_checked;
        EXPECT_TRUE(member.site.known())
            << spec.name << ": fused member '" << member.name << "' ("
            << member.op << ") has no source site";
      }
    }
  }
  if (session.engine().stats().graph_executions > 0) {
    EXPECT_GT(unit_plans, 0) << "converted model registered no keyed plans";
    EXPECT_GT(nodes_checked, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ZooProvenance,
    ::testing::Values("LeNet", "ResNet50", "Inception-v3", "LSTM", "LM",
                      "TreeRNN", "TreeLSTM", "A3C", "PPO", "AN", "pix2pix"));

// ---- end-to-end accumulation against a live engine ----

TEST_F(ProfileTest, EngineRunAccumulatesSourceAttributedSamples) {
  obs::EnableProfiling();
  Session session;
  session.interp.Run(kTrainingScript);
  ASSERT_GT(session.engine.stats().graph_executions, 0);

  const std::vector<ProfileSample> samples = obs::CollectProfileSamples();
  ASSERT_FALSE(samples.empty());
  bool found_attributed = false;
  for (const ProfileSample& sample : samples) {
    if (sample.unit == "loss_fn" && sample.count > 0 &&
        !sample.function.empty() && sample.line > 0) {
      found_attributed = true;
      EXPECT_EQ(sample.function, "loss_fn");
    }
  }
  EXPECT_TRUE(found_attributed)
      << "no sampled node attributed to loss_fn source";

  // Unit totals carry the engine-side phase accounting.
  bool found_unit = false;
  for (const obs::ProfileUnitTotals& unit :
       obs::CollectProfileUnitTotals()) {
    if (unit.unit != "loss_fn") continue;
    found_unit = true;
    EXPECT_EQ(unit.variant.rfind("training(", 0), 0u) << unit.variant;
    EXPECT_GT(unit.runs, 0u);
    EXPECT_GT(unit.generation_ns, 0);
  }
  EXPECT_TRUE(found_unit);

  // Both renderings carry the attribution: the folded stacks as
  // unit;function;function:line;op frames, the text view by unit and line.
  FoldedProfile folded;
  std::string error;
  ASSERT_TRUE(obs::ParseFoldedProfile(obs::RenderFoldedStacks(), &folded,
                                      &error))
      << error;
  bool found_stack = false;
  for (const auto& [stack, ns] : folded.stack_ns) {
    if (stack.rfind("loss_fn;loss_fn;loss_fn:", 0) == 0 && ns > 0) {
      found_stack = true;
    }
  }
  EXPECT_TRUE(found_stack) << "no loss_fn;loss_fn;loss_fn:<line>;op stack";
  const std::string text = obs::RenderProfileText();
  EXPECT_NE(text.find("loss_fn"), std::string::npos);
  EXPECT_NE(text.find("== by source line =="), std::string::npos);
}

TEST_F(ProfileTest, DisabledProfilingRecordsNoSamples) {
  ASSERT_FALSE(obs::ProfilingEnabled());
  Session session;
  session.interp.Run(kTrainingScript);
  for (const ProfileSample& sample : obs::CollectProfileSamples()) {
    EXPECT_EQ(sample.count, 0u) << sample.node;
  }
}

// ---- threaded accumulator ----

TEST_F(ProfileTest, ThreadedRecordingLosesNoCountsOrTime) {
  std::vector<ProfileNodeInfo> infos(4);
  for (int i = 0; i < 4; ++i) {
    infos[static_cast<std::size_t>(i)].name =
        std::string("n").append(std::to_string(i));
  }
  PlanProfile profile(std::move(infos));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&profile, t] {
      for (int i = 0; i < kPerThread; ++i) {
        profile.Record(i % 4, (i % 100) + t);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::int64_t total_count = 0;
  for (int i = 0; i < 4; ++i) {
    // Every thread raced to allocate the node's histogram on its first
    // sample; exactly one was published and nothing was lost.
    const obs::Histogram* samples = profile.Samples(i);
    ASSERT_NE(samples, nullptr);
    EXPECT_EQ(samples->Count(),
              static_cast<std::int64_t>(kThreads) * kPerThread / 4);
    total_count += samples->Count();
    // max = largest duration any thread recorded on this slot.
    EXPECT_GE(samples->Max(), 99);
    std::int64_t bucket_sum = 0;
    for (int b = 0; b < obs::Histogram::kNumBuckets; ++b) {
      bucket_sum += samples->BucketCount(b);
    }
    EXPECT_EQ(bucket_sum, samples->Count()) << "histogram lost samples";
  }
  EXPECT_EQ(total_count, static_cast<std::int64_t>(kThreads) * kPerThread);
  // Out-of-range indices are ignored, not UB.
  profile.Record(-1, 5);
  profile.Record(4, 5);
  EXPECT_EQ(profile.Samples(-1), nullptr);
  EXPECT_EQ(profile.Samples(4), nullptr);
}

TEST_F(ProfileTest, EagerDispatchProfileIsPinnedPastTheCap) {
  obs::EnableProfiling();
  VariableStore variables;
  Rng rng(3);
  minipy::EagerContext eager(&variables, &rng);
  const Tensor a = Tensor::Full(Shape{2, 2}, 1.0f);
  for (int i = 0; i < 256; ++i) eager.Execute("Neg", {a});
  obs::DisableProfiling();
  // Plan registrations churn past the cap; the eager profile stays.
  for (std::size_t i = 0; i <= ProfileRegistry::kMaxProfiles; ++i) {
    ProfileRegistry::Global().Register(
        std::make_shared<PlanProfile>(std::vector<ProfileNodeInfo>(1)));
  }
  EXPECT_GT(ProfileRegistry::Global().dropped(), 0u);
  bool found = false;
  for (const ProfileSample& sample : obs::CollectProfileSamples()) {
    if (sample.unit == "<eager>" && sample.op == "Neg" && sample.count > 0) {
      found = true;
      EXPECT_EQ(sample.variant, "eager");
    }
  }
  EXPECT_TRUE(found) << "eager samples dropped with the oldest plans";
}

TEST_F(ProfileTest, LiveRegistrationSurvivesTheCap) {
  // One profile a live plan still owns, then more than a cap's worth of
  // registrations that only the registry holds (finished tape plans): the
  // cap drops those, never the live one.
  const auto live =
      std::make_shared<PlanProfile>(std::vector<ProfileNodeInfo>(1));
  live->SetKey("live_unit", "inference", 0);
  ProfileRegistry::Global().Register(live);
  for (std::size_t i = 0; i <= ProfileRegistry::kMaxProfiles; ++i) {
    ProfileRegistry::Global().Register(
        std::make_shared<PlanProfile>(std::vector<ProfileNodeInfo>(1)));
  }
  EXPECT_GT(ProfileRegistry::Global().dropped(), 0u);
  const auto profiles = ProfileRegistry::Global().Profiles();
  EXPECT_NE(std::find(profiles.begin(), profiles.end(), live),
            profiles.end())
      << "the cap dropped a profile its plan still owns";
}

TEST_F(ProfileTest, FreshThreadDoesNotSampleItsFirstEagerOp) {
  // A thread's first op is not sampled: one sample would be scaled up by
  // the stride and stand for 64 executions of whatever ran first.
  obs::EnableProfiling();
  std::thread([] {
    VariableStore variables;
    Rng rng(3);
    minipy::EagerContext eager(&variables, &rng);
    eager.Execute("Neg", {Tensor::Full(Shape{2, 2}, 1.0f)});
  }).join();
  obs::DisableProfiling();
  for (const ProfileSample& sample : obs::CollectProfileSamples()) {
    EXPECT_EQ(sample.count, 0u) << sample.unit << " " << sample.op;
  }
}

// ---- live socket scrape of /profilez ----

TEST_F(ProfileTest, HttpEndpointsServeProfile) {
  obs::EnableProfiling();
  Session session;
  session.interp.Run(kTrainingScript);

  HttpExportServer& server = HttpExportServer::Global();
  ASSERT_TRUE(server.Start(0));  // free port
  ASSERT_GT(server.port(), 0);

  const auto http_get = [&](const std::string& path) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
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
    const std::size_t split = response.find("\r\n\r\n");
    EXPECT_NE(split, std::string::npos) << path;
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << path;
    return split == std::string::npos ? std::string()
                                      : response.substr(split + 4);
  };

  const std::string text = http_get("/profilez");
  EXPECT_NE(text.find("loss_fn"), std::string::npos);
  EXPECT_NE(text.find("== by source line =="), std::string::npos);
  EXPECT_NE(text.find("== top nodes =="), std::string::npos);
  // Folded stacks are the one profile file format: no binary export.
  EXPECT_EQ(HttpExportServer::HandlePath("/pprof/profile").status, 404);

  server.Stop();
}

// ---- folded stacks + profdiff ----

TEST_F(ProfileTest, FoldedStacksRenderWriteAndParse) {
  obs::EnableProfiling();
  Session session;
  session.interp.Run(kTrainingScript);

  const std::string folded = obs::RenderFoldedStacks();
  ASSERT_FALSE(folded.empty());
  FoldedProfile parsed;
  std::string error;
  ASSERT_TRUE(obs::ParseFoldedProfile(folded, &parsed, &error)) << error;
  EXPECT_GT(parsed.total_ns, 0.0);
  bool found = false;
  for (const auto& [stack, ns] : parsed.stack_ns) {
    if (stack.rfind("loss_fn;", 0) == 0) found = true;
  }
  EXPECT_TRUE(found) << "no stack rooted at the unit name";

  // WriteFoldedStacks (the JANUS_PROFILE exit path) round-trips via file.
  const std::string path =
      ::testing::TempDir() + "/profile_test_folded.txt";
  obs::WriteFoldedStacks(path);
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string content;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    content.append(buffer, n);
  }
  std::fclose(file);
  std::remove(path.c_str());
  FoldedProfile from_file;
  ASSERT_TRUE(obs::ParseFoldedProfile(content, &from_file, &error)) << error;
  EXPECT_EQ(from_file.stack_ns.size(), parsed.stack_ns.size());
}

TEST_F(ProfileTest, ParseFoldedProfileRejectsMalformedInput) {
  FoldedProfile out;
  std::string error;
  EXPECT_FALSE(obs::ParseFoldedProfile("stack_without_value\n", &out, &error));
  EXPECT_FALSE(obs::ParseFoldedProfile("a;b not_a_number\n", &out, &error));
  EXPECT_FALSE(obs::ParseFoldedProfile("a;b -5\n", &out, &error));
  ASSERT_TRUE(obs::ParseFoldedProfile("a;b;Op 10\na;b;Op 5\nc;d;Op 5\n",
                                      &out, &error))
      << error;
  EXPECT_DOUBLE_EQ(out.stack_ns.at("a;b;Op"), 15.0);  // duplicates sum
  EXPECT_DOUBLE_EQ(out.total_ns, 20.0);
}

TEST_F(ProfileTest, ProfDiffFlagsShareRegressionsBySite) {
  FoldedProfile before;
  std::string error;
  ASSERT_TRUE(obs::ParseFoldedProfile(
      "unit;fn;fn:3;MatMul 800\nunit;fn;fn:4;Mul 200\n", &before, &error));
  // After: fn:4 grew from 20% to 60% of total; fn:3 shrank. Absolute times
  // doubled everywhere, which share-based diffing ignores.
  FoldedProfile after;
  ASSERT_TRUE(obs::ParseFoldedProfile(
      "unit;fn;fn:3;MatMul 1600\nunit;fn;fn:4;Mul 2400\n", &after, &error));

  const obs::ProfileDiffResult diff = obs::DiffProfilesBySite(before, after);
  ASSERT_FALSE(diff.entries.empty());
  // Sorted by delta descending: the regressing site leads.
  EXPECT_EQ(diff.entries.front().site, "unit;fn;fn:4");
  EXPECT_NEAR(diff.entries.front().delta_pp, 40.0, 1e-9);
  EXPECT_NEAR(diff.max_regression_pp, 40.0, 1e-9);
  // The leaf op frame is folded away: two ops on one line are one site.
  for (const obs::ProfileDiffEntry& entry : diff.entries) {
    EXPECT_EQ(entry.site.find("MatMul"), std::string::npos);
  }

  // A uniform scale-up is not a regression.
  const obs::ProfileDiffResult same = obs::DiffProfilesBySite(before, before);
  EXPECT_NEAR(same.max_regression_pp, 0.0, 1e-9);
}

}  // namespace
}  // namespace janus
