// Quickstart: train a small model written as an imperative MiniPy program,
// transparently converted to a symbolic dataflow graph by JANUS.
//
// What to look for in the output:
//  * the first `profile_threshold` (3) steps run on the imperative executor
//    while the Profiler gathers context observations,
//  * the 4th step triggers speculative graph generation; every later step
//    executes the cached graph,
//  * the final statistics show the Fig. 2 execution-model counters.
#include <cstdio>

#include "core/engine.h"
#include "frontend/builtins.h"

int main() {
  using namespace janus;

  // A session: shared parameter store + seeded RNG + interpreter + engine.
  VariableStore variables;
  Rng rng(42);
  minipy::Interpreter interp(&variables, &rng);
  minipy::InstallBuiltins(interp);

  JanusEngine engine(&interp, EngineOptions{});
  engine.Attach();  // installs the profiler, interceptor, and optimize()

  // An imperative DL program: dynamic typing, a Python-style loop, and a
  // model object — exactly the style of the paper's Figure 1.
  interp.Run(R"(
w = variable('w', randn([2, 1], 0.5))
b = variable('b', zeros([1]))
x = constant([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
y = constant([[0.0], [1.0], [1.0], [2.0]])

def loss_fn():
    pred = matmul(x, w) + b
    err = pred - y
    return reduce_mean(err * err)

print('training y = x0 + x1 ...')
for step in range(40):
    loss = optimize(loss_fn, 0.1)
    if step % 10 == 0:
        print('step', step, 'loss', float(loss))
print('final loss', float(loss))
)");

  const EngineStats& stats = engine.stats();
  std::printf("\n--- JANUS engine statistics ---\n");
  std::printf("imperative (profiling) executions : %lld\n",
              static_cast<long long>(stats.imperative_executions));
  std::printf("graph generations                 : %lld\n",
              static_cast<long long>(stats.graph_generations));
  std::printf("graph executions                  : %lld\n",
              static_cast<long long>(stats.graph_executions));
  std::printf("assumption failures / fallbacks   : %lld / %lld\n",
              static_cast<long long>(stats.assumption_failures),
              static_cast<long long>(stats.fallbacks));

  // Full report: decision-loop counters, per-phase latency histograms,
  // cache, fusion and buffer-pool traffic. For a timeline view, run with
  // JANUS_TRACE=trace.json and open the file in chrome://tracing; for
  // per-op and per-source-line kernel time, run with JANUS_PROFILE.
  std::printf("\n%s", engine.StatsReport().c_str());

  const float learned_w0 = variables.Read("w").data<float>()[0];
  std::printf("\nlearned w[0] = %.3f (expect ~1.0)\n", learned_w0);
  return stats.graph_executions > 0 && learned_w0 > 0.8f ? 0 : 1;
}
