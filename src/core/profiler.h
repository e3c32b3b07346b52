// The runtime Profiler (Fig. 2 (A)): an ExecutionObserver that watches
// imperative executions and accumulates the per-site statistics the
// Speculative Graph Generator turns into context assumptions — branch
// directions, loop trip counts, callee identities, argument/attribute/
// subscript value observations (§3.1).
#ifndef JANUS_CORE_PROFILER_H_
#define JANUS_CORE_PROFILER_H_

#include <map>
#include <string>

#include "core/assumptions.h"
#include "frontend/interpreter.h"

namespace janus {

// Converts a MiniPy value into a profiling observation.
void ObserveValue(ValueProfile& profile, const minipy::Value& value);

class Profiler : public minipy::ExecutionObserver {
 public:
  // ---- ExecutionObserver ----
  void OnBranch(const minipy::Stmt* stmt, bool taken) override;
  void OnLoopFinished(const minipy::Stmt* stmt,
                      std::int64_t trip_count) override;
  void OnCall(const minipy::Expr* call, const minipy::Value& callee) override;
  void OnFunctionEntry(const minipy::Stmt* def,
                       std::span<const minipy::Value> args) override;
  void OnAttrLoad(const minipy::Expr* attr, const minipy::Value& object,
                  const minipy::Value& result) override;
  void OnSubscrLoad(const minipy::Expr* subscr, const minipy::Value& object,
                    const minipy::Value& result) override;

  // ---- queries used by the generator ----
  const BranchProfile* branch(const minipy::Stmt* stmt) const;
  const LoopProfile* loop(const minipy::Stmt* stmt) const;
  const ValueProfile* call_target(const minipy::Expr* call) const;
  const ValueProfile* argument(const minipy::Stmt* def, int index) const;
  const ValueProfile* attr_load(const minipy::Expr* attr) const;
  const ValueProfile* subscr_load(const minipy::Expr* subscr) const;

  // How many times a function body has been profiled.
  std::int64_t function_calls(const minipy::Stmt* def) const;

  // Assumption-failure feedback (§3.2): sites whose speculative treatment
  // failed at runtime are blacklisted so regeneration relaxes them. The
  // blacklist is bounded (kMaxFailedAssumptions): long-lived engines
  // re-marking ever-changing ids (e.g. value-dependent capture paths) age
  // out the oldest marks instead of growing without limit. Re-marking an
  // id refreshes its stamp, so persistently failing sites stay listed.
  static constexpr std::size_t kMaxFailedAssumptions = 256;
  void MarkAssumptionFailed(const std::string& assumption_id);
  bool HasFailed(const std::string& assumption_id) const;
  std::size_t failed_assumption_count() const {
    return failed_assumptions_.size();
  }

  // Context-value observations keyed by ContextRef path string (closure
  // captures and heap-list elements): fed by the generator when it first
  // captures a value and by the engine on every entry validation, so shape
  // and constant assumptions relax over time (Fig. 4). Slots are never
  // erased: a capture keeps the slot the generator observed into
  // (CaptureSpec::context_profile), and entry validation observes into it
  // directly, without rebuilding the key.
  ValueProfile& ObserveContext(const std::string& ref,
                               const minipy::Value& value);
  void ObserveContext(ValueProfile& slot, const minipy::Value& value);

  std::int64_t total_observations() const { return total_observations_; }

 private:
  std::map<const minipy::Stmt*, BranchProfile> branches_;
  std::map<const minipy::Stmt*, LoopProfile> loops_;
  std::map<const minipy::Expr*, ValueProfile> calls_;
  std::map<std::pair<const minipy::Stmt*, int>, ValueProfile> arguments_;
  std::map<const minipy::Expr*, ValueProfile> attr_loads_;
  std::map<const minipy::Expr*, ValueProfile> subscr_loads_;
  std::map<const minipy::Stmt*, std::int64_t> function_calls_;
  // A node-based map whose entries are never erased: the slot pointers
  // captures keep (CaptureSpec::context_profile) stay valid.
  std::map<std::string, ValueProfile> context_profiles_;
  // id -> insertion stamp (monotonic); oldest stamp evicted at the cap.
  std::map<std::string, std::int64_t> failed_assumptions_;
  std::int64_t failure_stamp_ = 0;
  std::int64_t total_observations_ = 0;
};

}  // namespace janus

#endif  // JANUS_CORE_PROFILER_H_
