// Low-overhead span tracer for the JANUS decision loop, and its one event
// stream.
//
// The engine's value proposition is a runtime loop — profile imperatively,
// speculatively generate a graph, guard it with assertions, fall back on
// failure (Fig. 2) — and this tracer makes that loop visible: every phase
// records a TraceEvent into a thread-local ring buffer (and, while tracing
// is on, the plan-node sampler of obs/profile.h records its sampled
// kernels too), and the whole process timeline exports as a single
// chrome://tracing / Perfetto-compatible JSON file.
//
// Events carry the decision loop's facts as named args, so the trace alone
// answers which unit, which assumption and what was assumed vs observed:
//  * the graph_execution span carries a cached run (unit, ladder level,
//    cache hit, validation time, ops, bytes, fused regions and ops);
//  * the profile / imperative / fallback phase spans carry the unit;
//  * the graph_generation span carries the generation (level, bytes,
//    asserts, entry checks, captures);
//  * instants in the kDecisionCategory carry each decision, named by its
//    kind: fallback, entry_mismatch, cache_miss, refusal (engine),
//    assert_failure (executor, at the kernel site),
//    assumption_blacklisted (profiler), and cache_insert, cache_evict,
//    cache_despecialize (specialization cache).
// Consumers: the JANUS_TRACE file, /flightz (the newest decisions), and
// tools/janus_explain (per-unit root cause).
//
// Cost model:
//  * disabled (the default): recording sites reduce to one relaxed atomic
//    load and a branch — cheap enough for per-op code paths (the
//    micro_overheads benchmark holds the disabled path to <5% of per-op
//    cost); producers build no args;
//  * enabled: a clock read plus a short critical section on the calling
//    thread's own ring buffer (uncontended except against a concurrent
//    Collect()). The buffer lock is a leaf lock, so producers may record
//    while holding their own locks (the cache records under its mutex).
//
// The rings are bounded: once a thread's ring is full, each new event
// overwrites that thread's oldest (TotalDropped() counts them), so sampled
// kernel events can push out older decisions on the same thread.
//
// One switch, process-wide: Trace::Enable()/Disable() programmatically
// (then Trace::WriteChromeTrace), or the JANUS_TRACE=<path> environment
// variable, which enables tracing at process start and writes the
// Chrome-trace file at exit — so any example or benchmark binary can be
// traced with no code changes. The rings are process-wide, so a trace holds
// the events of every engine in the process.
#ifndef JANUS_OBS_TRACE_H_
#define JANUS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace janus {
namespace obs {

// One named event argument: an integer or a string, under a static key.
struct TraceArg {
  TraceArg(const char* key, std::int64_t number) : key(key), number(number) {}
  TraceArg(const char* key, std::string text)
      : key(key), text(std::move(text)), is_text(true) {}

  const char* key;
  std::int64_t number = 0;
  std::string text;
  bool is_text = false;
};
using TraceArgs = std::vector<TraceArg>;

// One recorded event. `phase` follows the Chrome trace-event format: 'X'
// is a complete (duration) event, 'i' an instant marker.
struct TraceEvent {
  std::string name;
  const char* category = "";
  char phase = 'X';
  std::int64_t start_ns = 0;  // relative to the process trace epoch
  std::int64_t dur_ns = 0;    // 'X' only
  std::uint32_t tid = 0;      // tracer-assigned dense thread id
  TraceArgs args;             // rendered into the Chrome "args" object
};

// The category of the decision instants (see the list above).
inline constexpr std::string_view kDecisionCategory = "decision";

class Trace {
 public:
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void Enable();
  static void Disable();

  // Monotonic nanoseconds since the process trace epoch.
  static std::int64_t NowNs();

  static void RecordComplete(std::string name, const char* category,
                             std::int64_t start_ns, std::int64_t dur_ns,
                             TraceArgs args = {});
  static void RecordInstant(std::string name, const char* category,
                            TraceArgs args = {});
  // An instant in the decision category, named by its kind.
  static void RecordDecision(const char* kind, TraceArgs args);

  // Snapshot of every thread's ring buffer, sorted by start time. Dropped
  // (overwritten) events are not recoverable; see TotalDropped().
  static std::vector<TraceEvent> Collect();

  // Clears all buffers and the recorded/dropped totals.
  static void Reset();

  static std::int64_t TotalRecorded();
  static std::int64_t TotalDropped();

  // The newest `max_events` events of the decision category, oldest
  // first (0 = every retained one).
  static std::vector<TraceEvent> CollectDecisions(std::size_t max_events);

  // Chrome trace-event JSON ({"traceEvents": [...]}) of `events`, or of
  // Collect().
  static std::string ToChromeJson(const std::vector<TraceEvent>& events);
  static std::string ToChromeJson();
  static void WriteChromeTrace(const std::string& path);

  // Ring capacity (events per thread) applied to buffers of threads that
  // record their first event after the call. Default 32768.
  static void SetBufferCapacityForTesting(std::size_t events);

 private:
  static std::atomic<bool> enabled_;
};

// RAII span. Construction with a `const char*` name does no work when
// tracing is disabled; the std::string overload is for dynamic names on
// paths that already checked Trace::Enabled().
class TraceScope {
 public:
  TraceScope(const char* name, const char* category)
      : armed_(Trace::Enabled()), category_(category) {
    if (armed_) {
      name_ = name;
      start_ns_ = Trace::NowNs();
    }
  }
  TraceScope(std::string name, const char* category)
      : armed_(Trace::Enabled()), category_(category) {
    if (armed_) {
      name_ = std::move(name);
      start_ns_ = Trace::NowNs();
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  // Whether the span records: callers build costly args only when armed.
  bool armed() const { return armed_; }
  void AddArg(const char* key, std::int64_t value) {
    if (armed_) args_.push_back({key, value});
  }
  void AddArg(const char* key, std::string value) {
    if (armed_) args_.push_back({key, std::move(value)});
  }
  void AddArgs(TraceArgs args) {
    if (!armed_) return;
    for (TraceArg& arg : args) args_.push_back(std::move(arg));
  }

  ~TraceScope() {
    if (armed_) {
      Trace::RecordComplete(std::move(name_), category_, start_ns_,
                            Trace::NowNs() - start_ns_, std::move(args_));
    }
  }

 private:
  bool armed_;
  const char* category_;
  std::string name_;
  std::int64_t start_ns_ = 0;
  TraceArgs args_;
};

// Appends `text` to `out` with JSON string escaping (quotes, backslash,
// control characters). The one JSON string escaper: the trace exporter
// and the tools all write through it.
void AppendJsonEscaped(std::string& out, std::string_view text);

// Renders a pointer as a stable "0x..." identity string (unit join keys).
std::string PointerToHex(const void* pointer);

}  // namespace obs
}  // namespace janus

#endif  // JANUS_OBS_TRACE_H_
