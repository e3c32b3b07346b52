// Source-attributed continuous profiler, and the runtime's one sampler.
//
// JANUS executes a generated symbolic graph in place of the user's
// imperative program, which severs the link between "this line of my
// program" and "this much execution time". This module restores it: every
// ExecutionPlan registers a PlanProfile at build time — one latency
// histogram per plan node, plus a copy of each node's imperative
// SourceSite (function, line, statement) — and the executor records
// sampled per-node wall time into it. Aggregations key on
// {conversion unit, variant, despecialization level}, so a unit's cost is
// attributable across recompilations of the same source. Eager per-op
// dispatch records through the same sampler into one process-wide profile
// (unit "<eager>", one node per kernel op).
//
// Cost model (mirrors the tracer's):
//  * disabled (default): the per-node hook is one relaxed atomic load and
//    a branch;
//  * enabled (profiling or tracing on): every Nth node execution (jittered
//    stride, thread-local countdown — see internal::NextSampleGap) pays two
//    clock reads and a handful of relaxed atomic adds on the node's own
//    histogram, plus one trace event while tracing.
//
// Exports, all of the one sampler's data:
//  * JANUS_PROFILE=<path> — the one file format: a folded-stacks dump at
//    process exit ("unit;function;function:line;op <total_ns>"), directly
//    consumable by flamegraph.pl;
//  * tools/janus_profdiff — per-source-site regression diff of two folded
//    dumps (ParseFoldedProfile / DiffProfilesBySite below);
//  * /profilez on the introspection HTTP server — the live text view: top
//    nodes, per-source-line rollup, per-unit generation/validation/
//    execution split;
//  * /metrics — the janus_kernel_ns{op} family, the node histograms rolled
//    up by op (obs/http_export.h).
#ifndef JANUS_OBS_PROFILE_H_
#define JANUS_OBS_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace janus {
namespace obs {

// Mirror of graph::SourceSite, copied at plan build so obs/ never links
// against the graph layer.
struct ProfileSite {
  std::string function;
  int line = 0;
  int stmt = -1;

  bool known() const { return !function.empty() || line > 0; }
  std::string Label() const;
};

// Static metadata for one plan node, captured at plan build. For a fused
// region, `members` carries the constituent nodes (execution time recorded
// against the region is split across them at export).
struct ProfileNodeInfo {
  std::string name;  // graph node name (unique within the graph)
  std::string op;
  ProfileSite site;
  std::vector<ProfileNodeInfo> members;  // non-empty iff fused region
};

// Per-plan cost accumulator: one log2 Histogram per plan node, allocated
// on the node's first sample (a plan that is never sampled costs one
// pointer per node) and updated with relaxed atomics. The slot array is
// sized once at construction and never reallocated, so executors record
// without synchronization while an HTTP scrape reads concurrently.
class PlanProfile {
 public:
  explicit PlanProfile(std::vector<ProfileNodeInfo> nodes);
  ~PlanProfile();
  PlanProfile(const PlanProfile&) = delete;
  PlanProfile& operator=(const PlanProfile&) = delete;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<ProfileNodeInfo>& nodes() const { return nodes_; }

  // Hot path: adds one sampled execution of `index` taking `dur_ns`.
  void Record(int index, std::int64_t dur_ns);

  // The sampled durations of node `index`; nullptr until its first sample
  // and for out-of-range indices.
  const Histogram* Samples(int index) const;

  // Zeroes every node's samples (ProfileRegistry::Reset).
  void ClearSamples();

  // Aggregation key: {conversion unit, variant, despecialization level}.
  // Set once by the engine right after compilation; plans built outside an
  // engine keep the defaults ("", "", 0).
  void SetKey(std::string unit, std::string variant, int level);
  const std::string& unit() const { return unit_; }
  const std::string& variant() const { return variant_; }
  int despecialization_level() const { return level_; }

  // Inclusive phase accounting for the unit this plan executes.
  void SetGenerationNs(std::int64_t ns) {
    generation_ns_.store(ns, std::memory_order_relaxed);
  }
  void AddValidationNs(std::int64_t ns) {
    validation_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void AddRun() { runs_.fetch_add(1, std::memory_order_relaxed); }
  std::int64_t generation_ns() const {
    return generation_ns_.load(std::memory_order_relaxed);
  }
  std::int64_t validation_ns() const {
    return validation_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t runs() const { return runs_.load(std::memory_order_relaxed); }

 private:
  std::vector<ProfileNodeInfo> nodes_;
  std::unique_ptr<std::atomic<Histogram*>[]> slots_;
  std::string unit_;
  std::string variant_;
  int level_ = 0;
  std::atomic<std::int64_t> generation_ns_{0};
  std::atomic<std::int64_t> validation_ns_{0};
  std::atomic<std::uint64_t> runs_{0};
};

// Process-global set of PlanProfiles. Plans register at build and stay
// until the cap drops them (plans are shared_ptr-owned by their compiled
// units; the registry holds shared_ptrs so a scrape racing plan eviction
// still reads valid slots). Bounded: past kMaxProfiles one registration is
// dropped (dropped_ counts them) — continuous profiling must not grow
// without bound under cache churn or eager tapes. The cap drops the oldest
// registration that only the registry still holds (a finished tape plan,
// an evicted unit) before any that a live plan owns. Pinned profiles (the
// eager-dispatch profile) are exempt from the cap.
class ProfileRegistry {
 public:
  static constexpr std::size_t kMaxProfiles = 512;

  static ProfileRegistry& Global();

  void Register(std::shared_ptr<PlanProfile> profile);
  // Registers a profile the cap never drops; it lives until process exit.
  void Pin(std::shared_ptr<PlanProfile> profile);
  // Pinned profiles first, then registrations oldest first.
  std::vector<std::shared_ptr<PlanProfile>> Profiles() const;
  std::uint64_t dropped() const;

  // Drops every unpinned registration and zeroes the pinned profiles'
  // samples (tests).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<PlanProfile>> pinned_;
  std::vector<std::shared_ptr<PlanProfile>> profiles_;
  std::uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// Enable flags + the sampler
// ---------------------------------------------------------------------------

// Nominal sampling stride: ~1 in 64 node executions is timed while
// sampling is on. Exports scale counts/times back up by this factor.
// 64 keeps the enabled overhead on a chain of ~40ns ops under ~5%
// (BM_ProfileOverhead); long-running workloads still collect thousands of
// samples per second per thread.
inline constexpr std::uint32_t kProfileSampleEvery = 64;

namespace internal {
extern std::atomic<bool> profiling_enabled;
// The sampler's one enable flag: profiling or tracing is on. Kept in sync
// by EnableProfiling/DisableProfiling and Trace::Enable/Disable, so the hot
// path tests one atomic.
extern std::atomic<bool> sampling_active;
extern thread_local std::uint32_t sample_countdown;
void RefreshSampling();
// Next countdown reload: uniform in [stride/2, 3*stride/2) from a
// per-thread xorshift PRNG (mean = the stride). A deterministic every-Nth
// stride aliases with fixed-length plans — a 16-op chain under a 16-stride
// sampler times the same node forever — so the sampler draws jittered gaps
// instead. Only the enable flag is process-global; all countdown state is
// thread-local.
std::uint32_t NextSampleGap();
}  // namespace internal

void EnableProfiling();
void DisableProfiling();

inline bool ProfilingEnabled() {
  return internal::profiling_enabled.load(std::memory_order_relaxed);
}

// The executor calls this once per plan-node execution and eager dispatch
// once per op. Disabled cost: one relaxed load and a branch. The countdown
// is thread-local and the reload jittered (internal::NextSampleGap) so a
// fixed-length plan cannot alias with the stride and pin sampling onto one
// node.
inline bool ShouldSampleProfileNode() {
  if (!internal::sampling_active.load(std::memory_order_relaxed)) {
    return false;
  }
  if (internal::sample_countdown == 0) {
    internal::sample_countdown = internal::NextSampleGap() - 1;
    return true;
  }
  --internal::sample_countdown;
  return false;
}

// Records one sampled execution of node `index` of `profile`, begun at
// `start_ns` (Trace::NowNs()): into the node's histogram and, while
// tracing, as a complete event named by the node's op under `category`
// ("kernel" for plan nodes, "eager" for per-op dispatch).
void RecordSample(PlanProfile& profile, int index, const char* category,
                  std::int64_t start_ns);

// ---------------------------------------------------------------------------
// Snapshots + renderers
// ---------------------------------------------------------------------------

// One exported sample: a plan node (or fused-region member, with the
// region's time split evenly across members) under its aggregation key.
// count/total_ns are scaled by the nominal sampling stride, i.e. they
// estimate true totals; max_ns is the longest sampled execution.
struct ProfileSample {
  std::string unit;
  std::string variant;
  int level = 0;
  std::string function;
  int line = 0;
  int stmt = -1;
  std::string op;
  std::string node;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};

struct ProfileUnitTotals {
  std::string unit;
  std::string variant;
  int level = 0;
  std::int64_t generation_ns = 0;
  std::int64_t validation_ns = 0;
  std::uint64_t execution_ns = 0;  // sampled-and-scaled node time
  std::uint64_t runs = 0;
};

std::vector<ProfileSample> CollectProfileSamples();
std::vector<ProfileUnitTotals> CollectProfileUnitTotals();

// Mean per-execution ns per graph node name, aggregated across all
// registered plans (fused members get their split share). Used by the DOT
// exporter's heat coloring; node names may collide across units — callers
// get the blended mean, which is the best available without a unit hint.
std::map<std::string, double> ProfileNodeMeanNs();

// The /profilez text view.
std::string RenderProfileText();

// Folded-stacks dump: one line per sample,
//   "unit;function;function:line;op <total_ns>"
// — flamegraph.pl consumes this directly.
std::string RenderFoldedStacks();
void WriteFoldedStacks(const std::string& path);

// ---------------------------------------------------------------------------
// Folded-profile parsing + diffing (janus_profdiff)
// ---------------------------------------------------------------------------

struct FoldedProfile {
  // Full stack ("a;b;c") -> summed value.
  std::map<std::string, double> stack_ns;
  double total_ns = 0;
};

// Parses a folded-stacks dump (blank lines ignored). Returns false with a
// line-annotated *error on malformed input (no value, non-numeric value).
bool ParseFoldedProfile(std::string_view text, FoldedProfile* out,
                        std::string* error);

struct ProfileDiffEntry {
  std::string site;       // stack minus the leaf op frame
  double before_ns = 0;
  double after_ns = 0;
  double before_share = 0;  // fraction of its profile's total
  double after_share = 0;
  double delta_pp = 0;      // (after - before) share, percentage points
};

struct ProfileDiffResult {
  std::vector<ProfileDiffEntry> entries;  // sorted by delta_pp descending
  double max_regression_pp = 0;
};

// Diffs two folded profiles per source site (all frames except the leaf
// op), comparing each site's share of its own profile's total — so two
// dumps of different lengths compare meaningfully.
ProfileDiffResult DiffProfilesBySite(const FoldedProfile& before,
                                     const FoldedProfile& after);

}  // namespace obs
}  // namespace janus

#endif  // JANUS_OBS_PROFILE_H_
