// Low-overhead span tracer for the JANUS decision loop.
//
// The engine's value proposition is a runtime loop — profile imperatively,
// speculatively generate a graph, guard it with assertions, fall back on
// failure (Fig. 2) — and this tracer makes that loop visible: every phase
// records a TraceEvent into a thread-local ring buffer (and, while tracing
// is on, the plan-node sampler of obs/profile.h records its sampled
// kernels too), and the whole process timeline exports as a single
// chrome://tracing / Perfetto-compatible JSON file.
//
// Cost model:
//  * disabled (the default): recording sites reduce to one relaxed atomic
//    load and a branch — cheap enough for per-op code paths (the
//    micro_overheads benchmark holds the disabled path to <5% of per-op
//    cost);
//  * enabled: a clock read plus a short critical section on the calling
//    thread's own ring buffer (uncontended except against a concurrent
//    Collect()).
//
// Toggles: Trace::Enable()/Disable() programmatically,
// EngineOptions::trace_path per engine, or the JANUS_TRACE=<path>
// environment variable, which enables tracing at process start and writes
// the Chrome-trace file at exit — so any example or benchmark binary can be
// traced with no code changes.
#ifndef JANUS_OBS_TRACE_H_
#define JANUS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace janus {
namespace obs {

// One recorded event. `phase` follows the Chrome trace-event format: 'X'
// is a complete (duration) event, 'i' an instant marker.
struct TraceEvent {
  std::string name;
  const char* category = "";
  char phase = 'X';
  std::int64_t start_ns = 0;  // relative to the process trace epoch
  std::int64_t dur_ns = 0;    // 'X' only
  std::uint32_t tid = 0;      // tracer-assigned dense thread id
  // Optional arguments, rendered into the Chrome "args" object.
  const char* arg_key = nullptr;  // static key for an integer arg
  std::int64_t arg_value = 0;
  std::string detail;  // rendered under "detail" when non-empty
};

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
                             const char* arg_key = nullptr,
                             std::int64_t arg_value = 0,
                             std::string detail = {});
  static void RecordInstant(std::string name, const char* category,
                            std::string detail = {});

  // Snapshot of every thread's ring buffer, sorted by start time. Dropped
  // (overwritten) events are not recoverable; see TotalDropped().
  static std::vector<TraceEvent> Collect();

  // Clears all buffers and the recorded/dropped totals.
  static void Reset();

  static std::int64_t TotalRecorded();
  static std::int64_t TotalDropped();

  // Chrome trace-event JSON ({"traceEvents": [...]}) of Collect().
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

  void set_arg(const char* key, std::int64_t value) {
    arg_key_ = key;
    arg_value_ = value;
  }
  void set_detail(std::string detail) {
    if (armed_) detail_ = std::move(detail);
  }

  ~TraceScope() {
    if (armed_) {
      Trace::RecordComplete(std::move(name_), category_, start_ns_,
                            Trace::NowNs() - start_ns_, arg_key_, arg_value_,
                            std::move(detail_));
    }
  }

 private:
  bool armed_;
  const char* category_;
  std::string name_;
  std::string detail_;
  std::int64_t start_ns_ = 0;
  const char* arg_key_ = nullptr;
  std::int64_t arg_value_ = 0;
};

}  // namespace obs
}  // namespace janus

#endif  // JANUS_OBS_TRACE_H_
