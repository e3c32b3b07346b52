// Graph optimisation passes — the "post-processor" of the Speculative Graph
// Generator (paper §3.1). These are the optimisations that symbolic-graph
// frameworks can apply and imperative executors cannot; speculative
// unrolling and type/shape specialisation widen their applicability
// (§4.2.1: unrolling enables CSE / constant folding across what used to be
// control-flow boundaries).
#ifndef JANUS_OPT_PASSES_H_
#define JANUS_OPT_PASSES_H_

#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace janus {

// True for ops with no state, no side effects, and no control-flow
// semantics; only these participate in folding/CSE/DCE-motion.
bool IsPureOp(const std::string& op);

// Replaces pure nodes whose inputs are all Const with Const nodes by
// executing their kernels at optimisation time. Returns #nodes folded.
int ConstantFolding(Graph& graph);

// Merges duplicate pure nodes and constants: same op, inputs, control
// inputs and attrs, compared exactly (tensor attrs of at most 256 elements
// by dtype, shape and bytes; larger ones never merge). Returns #merged.
int CommonSubexpressionElimination(Graph& graph);

// Local algebraic rewrites that keep every output byte, with a rank-0
// constant operand: x + -0 -> x, x - +0 -> x, x * 1 -> x, x / 1.0 -> x,
// x ** 1 -> x, x * 0 -> ZerosLike(x) for int64 (int64 0 also for + and -),
// double-Neg elimination, Identity forwarding. Returns #rewrites.
int ArithmeticSimplification(Graph& graph);

// Keeps only ReachableNodes(graph, fetches), the nodes a plan for these
// fetches would run. Side-effecting nodes must be anchored to a fetch to
// survive. Returns #nodes removed.
int DeadCodeElimination(Graph& graph, std::span<const NodeOutput> fetches);

struct OptimizationStats {
  int folded = 0;
  int cse_merged = 0;
  int simplified = 0;
  int dce_removed = 0;
  int rounds = 0;
};

// Runs all passes to a (bounded) fixpoint.
OptimizationStats OptimizeGraph(Graph& graph,
                                std::span<const NodeOutput> fetches,
                                int max_rounds = 8);

}  // namespace janus

#endif  // JANUS_OPT_PASSES_H_
