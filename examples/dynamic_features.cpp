// Dynamic features tour: the three Python behaviours of paper §2.1 —
// dynamic control flow (DCF), dynamic types (DT), and impure functions
// (IF) — all converted speculatively and guarded by runtime assertions.
// The example then *breaks* an assumption on purpose and shows the
// fallback + regeneration cycle of Fig. 2.
#include <cstdio>

#include "core/engine.h"
#include "frontend/builtins.h"

int main() {
  using namespace janus;
  VariableStore variables;
  Rng rng(7);
  minipy::Interpreter interp(&variables, &rng);
  minipy::InstallBuiltins(interp);
  JanusEngine engine(&interp, EngineOptions{});
  engine.Attach();

  interp.Run(R"(
# IF: a model object whose attribute carries state across steps.
class Scaler:
    def __init__(self):
        self.gain = constant([1.0])
    def step(self, x):
        # DCF: a data-dependent branch; DT: `x` may be any tensor shape.
        if reduce_sum(x) > 0.0:
            out = reduce_sum(x * self.gain)
        else:
            out = reduce_sum(x * x)
        self.gain = self.gain * 1.01
        return out

model = Scaler()
data = constant([1.0, 2.0, 3.0])

def run_once():
    return model.step(data)

print('-- warm-up: positive inputs, stable branch --')
for i in range(6):
    out = optimize(run_once, 0.0)
print('out with growing gain:', out)
)");

  const auto before = engine.stats();
  std::printf("[C++] after warm-up: generations=%lld graph runs=%lld "
              "failures=%lld\n",
              static_cast<long long>(before.graph_generations),
              static_cast<long long>(before.graph_executions),
              static_cast<long long>(before.assumption_failures));

  // Flip the branch: the speculative AssertOp fails, JANUS falls back to
  // the imperative executor (state untouched!), then regenerates a graph
  // with a dynamic Switch/Merge conditional.
  interp.Run(R"(
print('-- flipping the branch: negative inputs --')
data = constant([-1.0, -2.0, -3.0])
for i in range(4):
    out = optimize(run_once, 0.0)
print('out on the other branch:', out)
)");

  const auto after = engine.stats();
  const long long graph_runs =
      after.graph_executions - before.graph_executions;
  std::printf("[C++] after the flip: +generations=%lld +failures=%lld "
              "+fallbacks=%lld +graph runs=%lld\n",
              static_cast<long long>(after.graph_generations -
                                     before.graph_generations),
              static_cast<long long>(after.assumption_failures -
                                     before.assumption_failures),
              static_cast<long long>(after.fallbacks - before.fallbacks),
              graph_runs);
  std::printf("The flip was caught by an AssertOp; no state was committed "
              "by the aborted run (deferred state update, paper §4.2.3).\n");
  // The flip must be caught, and the regenerated Switch/Merge graph must
  // take over from the imperative fallback.
  return after.assumption_failures > before.assumption_failures &&
                 graph_runs > 0
             ? 0
             : 1;
}
