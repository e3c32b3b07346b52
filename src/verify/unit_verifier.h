// Static analysis of whole compiled units.
//
// Extends the plan verifier (plan_verifier.h) up one layer: a CompiledGraph
// couples a graph to capture specs, shape assumptions from the
// despecialization ladder, fetches, and pre-built execution plans. A unit
// that passes VerifyCompiledUnit has (a) every capture's argument slot
// landing on a Placeholder with a matching dtype, the main plan's arguments
// being exactly the capture placeholders in capture order, (b) shape
// assumptions consistent with the ladder level it claims it was generated
// at, (c) fetches that resolve into the graph, (d) a main plan plus one
// plan per library function in the function-plan table, whose arguments
// are the function's parameters, each of which also passes VerifyPlan.
//
// Lives in a separate library (janus_verify_unit) because it links against
// janus_core; the plan verifier itself stays below the core layer so the
// runtime can auto-run it.
#ifndef JANUS_VERIFY_UNIT_VERIFIER_H_
#define JANUS_VERIFY_UNIT_VERIFIER_H_

#include "core/compiled_graph.h"
#include "verify/plan_verifier.h"

namespace janus {
namespace verify {

// Verifies the unit's captures/assumptions/fetches (invariants "unit.*")
// and every plan the unit pins (main + function plans). Never throws.
Report VerifyCompiledUnit(const CompiledGraph& unit);

}  // namespace verify
}  // namespace janus

#endif  // JANUS_VERIFY_UNIT_VERIFIER_H_
