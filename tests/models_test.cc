// Tests for the model zoo: every Table 2 model must run imperatively,
// convert under JANUS (graph executions observed, no refusals), produce
// finite losses matching the imperative executor, and learn.
#include "models/zoo.h"

#include <cmath>

#include <gtest/gtest.h>

#include "models/cartpole.h"
#include "models/datasets.h"

namespace janus::models {
namespace {

TEST(DatasetsTest, SyntheticImagesHaveClassStructure) {
  Rng rng(5);
  const auto [x, y] = SyntheticImageBatch(rng, 8, 12, 12, 1, 8);
  EXPECT_EQ(x.shape(), (Shape{8, 12, 12, 1}));
  EXPECT_EQ(y.shape(), (Shape{8}));
  for (const std::int64_t label : y.data<std::int64_t>()) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 8);
  }
}

TEST(DatasetsTest, MarkovTokensShifted) {
  Rng rng(5);
  const auto [x, y] = MarkovTokenBatch(rng, 6, 4, 16);
  EXPECT_EQ(x.shape(), (Shape{6, 4}));
  // y[t] == x[t+1] for t < T-1 (same chain, shifted).
  const auto xv = x.data<std::int64_t>();
  const auto yv = y.data<std::int64_t>();
  for (int t = 0; t < 5; ++t) {
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(yv[static_cast<std::size_t>(t * 4 + b)],
                xv[static_cast<std::size_t>((t + 1) * 4 + b)]);
    }
  }
}

TEST(CartPoleTest, PhysicsAndTermination) {
  Rng rng(3);
  CartPole env(&rng, 200);
  const auto s0 = env.Reset();
  for (const double v : s0) EXPECT_LE(std::fabs(v), 0.05);
  // Constant action must eventually tip the pole over.
  bool done = false;
  int steps = 0;
  while (!done && steps < 500) {
    const auto result = env.Step(1);
    done = result.done;
    EXPECT_DOUBLE_EQ(result.reward, 1.0);
    ++steps;
  }
  EXPECT_TRUE(done);
  EXPECT_LT(steps, 200);
}

TEST(ZooTest, HasElevenModels) {
  EXPECT_EQ(ModelZoo().size(), 11u);
  EXPECT_EQ(FindModel("LeNet").category, "CNN");
  EXPECT_EQ(FindModel("TreeLSTM").category, "TreeNN");
  EXPECT_THROW(FindModel("nope"), InvalidArgument);
}

// Parameterised sweep: every model under JANUS must convert and match the
// imperative executor's losses.
class ZooSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooSweep, RunsImperatively) {
  const ModelSpec& spec = FindModel(GetParam());
  ModelSession session(spec, EngineOptions::ImperativePreset());
  for (int i = 0; i < 3; ++i) {
    const double loss = session.Step();
    EXPECT_TRUE(std::isfinite(loss)) << "step " << i;
  }
  EXPECT_EQ(session.engine().stats().graph_executions, 0);
}

TEST_P(ZooSweep, ConvertsUnderJanus) {
  const ModelSpec& spec = FindModel(GetParam());
  ModelSession session(spec, EngineOptions{});
  for (int i = 0; i < 10; ++i) {
    const double loss = session.Step();
    ASSERT_TRUE(std::isfinite(loss)) << "step " << i;
  }
  const auto& stats = session.engine().stats();
  EXPECT_GT(stats.graph_executions, 0)
      << "model never executed a converted graph";
  EXPECT_EQ(stats.not_convertible, 0) << "generator refused the model";
}

TEST_P(ZooSweep, JanusMatchesImperative) {
  const ModelSpec& spec = FindModel(GetParam());
  ModelSession janus_session(spec, EngineOptions{}, 7);
  ModelSession imperative_session(spec, EngineOptions::ImperativePreset(), 7);
  // The default session's plans calibrate, then either stay on the calling
  // thread or fan out to the pool; both must be bitwise equal to an engine
  // without a pool, well past calibration.
  EngineOptions sequential;
  sequential.parallel_execution = false;
  ModelSession sequential_session(spec, sequential, 7);
  for (int i = 0; i < 16; ++i) {
    const double a = janus_session.Step();
    EXPECT_EQ(a, sequential_session.Step())
        << spec.name << " pool scheduling changed the loss at step " << i;
    if (i >= 8) continue;
    const double b = imperative_session.Step();
    // Same seeds, same data stream; both paths use the same gradient rules.
    EXPECT_NEAR(a, b, 5e-2 * std::max(1.0, std::fabs(b)))
        << spec.name << " diverged at step " << i;
  }
}

TEST_P(ZooSweep, BaseModeRuns) {
  const ModelSpec& spec = FindModel(GetParam());
  EngineOptions base;
  base.generator.speculative_unroll = false;
  base.generator.specialize = false;
  base.parallel_execution = false;
  ModelSession session(spec, base);
  for (int i = 0; i < 8; ++i) {
    const double loss = session.Step();
    ASSERT_TRUE(std::isfinite(loss)) << "step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ZooSweep,
    ::testing::Values("LeNet", "ResNet50", "Inception-v3", "LSTM", "LM",
                      "TreeRNN", "TreeLSTM", "A3C", "PPO", "AN", "pix2pix"));

TEST(ZooLearningTest, LeNetAccuracyImproves) {
  ModelSession session(FindModel("LeNet"), EngineOptions{});
  const double before = session.Eval();
  for (int i = 0; i < 60; ++i) session.Step();
  const double after = session.Eval();
  EXPECT_GT(after, before + 0.2);  // well above chance by 60 steps
}

TEST(ZooLearningTest, LstmPerplexityDrops) {
  ModelSession session(FindModel("LSTM"), EngineOptions{});
  const double before = session.Eval();
  for (int i = 0; i < 200; ++i) session.Step();
  const double after = session.Eval();
  EXPECT_LT(after, before * 0.85);
}

TEST(ZooLearningTest, TreeRnnLearnsSentiment) {
  ModelSession session(FindModel("TreeRNN"), EngineOptions{});
  for (int i = 0; i < 150; ++i) session.Step();
  // Average eval accuracy over several fresh trees.
  double acc = 0;
  for (int i = 0; i < 20; ++i) acc += session.Eval();
  acc /= 20;
  EXPECT_GT(acc, 0.6);
}

}  // namespace
}  // namespace janus::models
