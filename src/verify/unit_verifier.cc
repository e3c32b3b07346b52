#include "verify/unit_verifier.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

namespace janus {
namespace verify {
namespace {

void AddIssue(Report& report, const char* invariant, const std::string& node,
              std::string message) {
  report.issues.push_back(Issue{invariant, node, std::move(message)});
}

// One elementary assertion at the unit layer.
void Check(Report& report, bool ok, const char* invariant,
           const std::string& node, std::string message) {
  ++report.checks;
  if (!ok) AddIssue(report, invariant, node, std::move(message));
}

bool IsTensorLikeCapture(const CaptureSpec& capture) {
  return capture.kind == ObservedKind::kTensor ||
         capture.kind == ObservedKind::kVariable;
}

int CountAssertOps(const Graph& graph) {
  int count = 0;
  for (const auto& node : graph.nodes()) {
    if (node->op() == "Assert" || node->op() == "AssertShape") ++count;
  }
  return count;
}

// Merges a plan-level report into the unit report, prefixing each node
// attribution with where the plan lives ("main" / function name).
void MergePlanReport(Report& report, const Report& plan_report,
                     const std::string& where) {
  report.checks += plan_report.checks;
  for (const Issue& issue : plan_report.issues) {
    report.issues.push_back(
        Issue{issue.invariant, where + ":" + issue.node, issue.message});
  }
}

void VerifyPlanFetches(Report& report, const ExecutionPlan& plan,
                       std::span<const NodeOutput> expected,
                       const std::string& where) {
  Check(report, plan.fetches().size() == expected.size(),
        "unit.plan_fetches", where,
        "plan carries " + std::to_string(plan.fetches().size()) +
            " fetches but the unit expects " +
            std::to_string(expected.size()));
  const std::size_t n = std::min(plan.fetches().size(), expected.size());
  for (std::size_t i = 0; i < n; ++i) {
    Check(report, plan.fetches()[i] == expected[i], "unit.plan_fetches",
          where,
          "plan fetch " + std::to_string(i) +
              " does not match the unit's fetch list");
  }
}

}  // namespace

Report VerifyCompiledUnit(const CompiledGraph& unit) {
  Report report;

  const int level = unit.despecialization_level;
  Check(report, level >= 0 && level <= 3, "unit.ladder_level", "<unit>",
        "despecialization_level " + std::to_string(level) +
            " outside the ladder [0, 3]");

  Check(report, unit.plan != nullptr, "unit.plan_missing", "<unit>",
        "unit has no pre-built main plan (BuildPlans not run?)");
  const std::span<const Node* const> arguments =
      unit.plan != nullptr ? unit.plan->arguments()
                           : std::span<const Node* const>{};
  // Captures feed the main plan's arguments in capture order; a capture
  // whose placeholder optimization pruned feeds none (arg_slot -1).
  int next_slot = 0;
  for (const CaptureSpec& capture : unit.captures) {
    const std::string& where = capture.placeholder_name;
    if (capture.arg_slot >= 0) {
      Check(report, capture.arg_slot == next_slot, "unit.plan_arguments",
            where,
            "capture feeds argument " + std::to_string(capture.arg_slot) +
                " where capture order puts argument " +
                std::to_string(next_slot));
      ++next_slot;
      const bool in_range =
          capture.arg_slot < static_cast<int>(arguments.size());
      Check(report, in_range, "unit.capture_placeholder", where,
            "capture feeds argument " + std::to_string(capture.arg_slot) +
                " of a plan with " + std::to_string(arguments.size()));
      if (in_range) {
        const Node* node =
            arguments[static_cast<std::size_t>(capture.arg_slot)];
        Check(report,
              node->op() == "Placeholder" && node->name() == where,
              "unit.capture_placeholder", node->name(),
              "capture of '" + where + "' feeds a " + node->op() +
                  ", not its Placeholder");
        if (node->HasAttr("dtype")) {
          Check(report, node->GetDTypeAttr("dtype") == capture.dtype,
                "unit.capture_dtype", node->name(),
                "capture dtype disagrees with the placeholder's dtype "
                "attr: entry checks would admit tensors the kernels "
                "reject");
        }
      }
    }
    // Ladder consistency: the shape assumption may never be MORE specific
    // than the level the unit claims it was generated at.
    if (!IsTensorLikeCapture(capture)) continue;
    const ShapeAssumption& shape = capture.shape;
    if (level >= 2) {
      Check(report, shape.is_unknown(), "unit.shape_level", where,
            "level-" + std::to_string(level) +
                " unit pins a shape assumption (" + shape.ToString() +
                "); DropShapes() should have erased it");
    } else if (level == 1 && !shape.is_unknown()) {
      bool pinned = false;
      for (const std::optional<std::int64_t>& dim : shape.dims()) {
        if (dim.has_value()) pinned = true;
      }
      Check(report, !pinned, "unit.shape_level", where,
            "level-1 unit pins concrete dimensions (" + shape.ToString() +
                "); RelaxShapesToRank() should have wildcarded them");
    }
  }
  if (unit.plan != nullptr) {
    Check(report, next_slot == static_cast<int>(arguments.size()),
          "unit.plan_arguments", "main",
          "plan takes " + std::to_string(arguments.size()) +
              " arguments but " + std::to_string(next_slot) +
              " captures feed it");
  }

  Check(report, !unit.fetches.empty(), "unit.fetches", "<unit>",
        "unit has no fetches; executing it computes nothing");
  std::unordered_set<const Node*> in_graph;
  for (const auto& node : unit.graph.nodes()) in_graph.insert(node.get());
  for (const NodeOutput& fetch : unit.fetches) {
    Check(report, fetch.node != nullptr && in_graph.count(fetch.node) != 0,
          "unit.fetches", "<unit>",
          "fetch references a node outside the unit's graph");
  }

  // Assert-op accounting: generation counts every Assert/AssertShape it
  // emits (including inside function frames). Later graph-to-graph
  // transforms may legitimately duplicate asserts (autodiff clones forward
  // nodes into gradient bodies), but fewer asserts than recorded means a
  // speculation guard was silently deleted.
  int asserts = CountAssertOps(unit.graph);
  if (unit.library != nullptr) {
    for (const std::string& name : unit.library->FunctionNames()) {
      asserts += CountAssertOps(unit.library->Lookup(name).graph);
    }
  }
  Check(report, asserts >= unit.num_assert_ops, "unit.assert_count",
        "<unit>",
        "graph holds " + std::to_string(asserts) +
            " Assert/AssertShape ops but generation recorded " +
            std::to_string(unit.num_assert_ops) +
            ": a speculation guard was dropped");

  // Plans: the main plan plus one per library function in the function-plan
  // table, each structurally verified against its graph.
  if (unit.plan != nullptr) {
    VerifyPlanFetches(report, *unit.plan, unit.fetches, "main");
    MergePlanReport(report, VerifyPlan(unit.graph, *unit.plan), "main");
  }
  const std::vector<std::string> fn_names =
      unit.library != nullptr ? unit.library->FunctionNames()
                              : std::vector<std::string>{};
  Check(report, unit.function_plans.size() == fn_names.size(),
        "unit.function_plans", "<unit>",
        std::to_string(unit.function_plans.size()) +
            " function plans for " + std::to_string(fn_names.size()) +
            " library functions");
  for (const std::string& name : fn_names) {
    const GraphFunction& fn = unit.library->Lookup(name);
    const auto it = unit.function_plans.find(name);
    const bool present = it != unit.function_plans.end() && it->second;
    Check(report, present, "unit.function_plans", name,
          "library function has no pre-built plan");
    if (!present) continue;
    const ExecutionPlan& fn_plan = *it->second;
    Check(report,
          std::equal(fn_plan.arguments().begin(), fn_plan.arguments().end(),
                     fn.parameters.begin(), fn.parameters.end()),
          "unit.plan_arguments", name,
          "function plan's arguments are not the function's parameters");
    VerifyPlanFetches(report, fn_plan, fn.results, name);
    MergePlanReport(report, VerifyPlan(fn.graph, fn_plan), name);
  }
  return report;
}

}  // namespace verify
}  // namespace janus
