#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>

#include "common/logging.h"
#include "obs/profile.h"

namespace janus {
namespace obs {
namespace {

constexpr std::size_t kDefaultRingCapacity = 32768;

std::atomic<std::size_t> g_ring_capacity{kDefaultRingCapacity};

std::int64_t SteadyNowRaw() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t TraceEpoch() {
  static const std::int64_t epoch = SteadyNowRaw();
  return epoch;
}

// Per-thread ring buffer. The owning thread appends under `mu` (uncontended
// except against a concurrent Collect/Reset); the registry keeps a
// shared_ptr so buffers survive thread exit and remain exportable.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> ring;
  std::size_t capacity = kDefaultRingCapacity;
  std::size_t next = 0;        // write cursor (mod capacity once full)
  std::int64_t recorded = 0;   // total events ever recorded
  std::uint32_t tid = 0;

  void Append(TraceEvent event) {
    const std::lock_guard<std::mutex> lock(mu);
    event.tid = tid;
    if (ring.size() < capacity) {
      ring.push_back(std::move(event));
    } else {
      ring[next % capacity] = std::move(event);
    }
    ++next;
    ++recorded;
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 1;
};

// Leaked intentionally: thread-local destructors and the JANUS_TRACE
// atexit exporter may run during process teardown and must always find a
// live registry.
Registry& GlobalRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto fresh = std::make_shared<ThreadBuffer>();
    fresh->capacity =
        std::max<std::size_t>(1, g_ring_capacity.load(std::memory_order_relaxed));
    Registry& registry = GlobalRegistry();
    const std::lock_guard<std::mutex> lock(registry.mu);
    fresh->tid = registry.next_tid++;
    registry.buffers.push_back(fresh);
    return fresh;
  }();
  return *buffer;
}

// Nanosecond count rendered as microseconds with fractional digits, the
// unit Chrome's "ts"/"dur" fields expect.
void EmitMicros(std::string& out, std::int64_t ns) {
  if (ns < 0) ns = 0;
  char text[32];
  std::snprintf(text, sizeof(text), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += text;
}

}  // namespace

std::atomic<bool> Trace::enabled_{false};

// Tracing turns the plan-node sampler on too (its kernel events land in
// the trace), so both toggles refresh its one enable flag.
void Trace::Enable() {
  TraceEpoch();  // pin the epoch before the first event
  enabled_.store(true, std::memory_order_relaxed);
  internal::RefreshSampling();
}

void Trace::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
  internal::RefreshSampling();
}

std::int64_t Trace::NowNs() { return SteadyNowRaw() - TraceEpoch(); }

void Trace::RecordComplete(std::string name, const char* category,
                           std::int64_t start_ns, std::int64_t dur_ns,
                           TraceArgs args) {
  if (!Enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.category = category;
  event.phase = 'X';
  event.start_ns = start_ns;
  event.dur_ns = dur_ns;
  event.args = std::move(args);
  LocalBuffer().Append(std::move(event));
}

void Trace::RecordInstant(std::string name, const char* category,
                          TraceArgs args) {
  if (!Enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.category = category;
  event.phase = 'i';
  event.start_ns = NowNs();
  event.args = std::move(args);
  LocalBuffer().Append(std::move(event));
}

void Trace::RecordDecision(const char* kind, TraceArgs args) {
  RecordInstant(kind, kDecisionCategory.data(), std::move(args));
}

std::vector<TraceEvent> Trace::Collect() {
  std::vector<TraceEvent> events;
  Registry& registry = GlobalRegistry();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::lock_guard<std::mutex> lock(registry.mu);
    buffers = registry.buffers;
  }
  for (const auto& buffer : buffers) {
    const std::lock_guard<std::mutex> lock(buffer->mu);
    if (buffer->ring.size() < buffer->capacity) {
      events.insert(events.end(), buffer->ring.begin(), buffer->ring.end());
    } else {
      // Full ring: oldest surviving event sits at the write cursor.
      const std::size_t cursor = buffer->next % buffer->capacity;
      events.insert(events.end(), buffer->ring.begin() + cursor,
                    buffer->ring.end());
      events.insert(events.end(), buffer->ring.begin(),
                    buffer->ring.begin() + cursor);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return events;
}

void Trace::Reset() {
  Registry& registry = GlobalRegistry();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::lock_guard<std::mutex> lock(registry.mu);
    buffers = registry.buffers;
  }
  for (const auto& buffer : buffers) {
    const std::lock_guard<std::mutex> lock(buffer->mu);
    buffer->ring.clear();
    buffer->next = 0;
    buffer->recorded = 0;
  }
}

std::int64_t Trace::TotalRecorded() {
  std::int64_t total = 0;
  Registry& registry = GlobalRegistry();
  const std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& buffer : registry.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    total += buffer->recorded;
  }
  return total;
}

std::int64_t Trace::TotalDropped() {
  std::int64_t dropped = 0;
  Registry& registry = GlobalRegistry();
  const std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& buffer : registry.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    dropped += buffer->recorded -
               static_cast<std::int64_t>(buffer->ring.size());
  }
  return dropped;
}

void Trace::SetBufferCapacityForTesting(std::size_t events) {
  g_ring_capacity.store(events == 0 ? kDefaultRingCapacity : events,
                        std::memory_order_relaxed);
}

std::vector<TraceEvent> Trace::CollectDecisions(std::size_t max_events) {
  std::vector<TraceEvent> events = Collect();
  std::erase_if(events, [](const TraceEvent& event) {
    return event.category != kDecisionCategory;
  });
  if (max_events > 0 && events.size() > max_events) {
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(max_events));
  }
  return events;
}

std::string Trace::ToChromeJson() { return ToChromeJson(Collect()); }

std::string Trace::ToChromeJson(const std::vector<TraceEvent>& events) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(out, event.name);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(out, event.category);
    out += "\",\"ph\":\"";
    out += event.phase;
    out += "\",\"pid\":1,\"tid\":" + std::to_string(event.tid) + ",\"ts\":";
    EmitMicros(out, event.start_ns);
    if (event.phase == 'X') {
      out += ",\"dur\":";
      EmitMicros(out, event.dur_ns);
    } else {
      out += ",\"s\":\"t\"";  // instant scope: thread
    }
    if (!event.args.empty()) {
      out += ",\"args\":{";
      for (std::size_t i = 0; i < event.args.size(); ++i) {
        const TraceArg& arg = event.args[i];
        if (i > 0) out += ",";
        out += "\"";
        AppendJsonEscaped(out, arg.key);
        out += "\":";
        if (arg.is_text) {
          out += "\"";
          AppendJsonEscaped(out, arg.text);
          out += "\"";
        } else {
          out += std::to_string(arg.number);
        }
      }
      out += "}";
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ns\"}";
  return out;
}

void Trace::WriteChromeTrace(const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    JANUS_LOG(kError) << "cannot open trace output file '" << path << "'";
    return;
  }
  file << ToChromeJson() << "\n";
}

void AppendJsonEscaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += hex;
        } else {
          out += c;
        }
    }
  }
}

std::string PointerToHex(const void* pointer) {
  char text[32];
  std::snprintf(text, sizeof(text), "0x%llx",
                static_cast<unsigned long long>(
                    reinterpret_cast<std::uintptr_t>(pointer)));
  return text;
}

namespace {

// JANUS_TRACE=<path>: enable tracing for the whole process and write the
// Chrome trace at exit. Runs at static-initialization time so example and
// benchmark binaries need no code changes.
struct TraceEnvInit {
  TraceEnvInit() {
    const char* path = std::getenv("JANUS_TRACE");
    if (path == nullptr || path[0] == '\0') return;
    GlobalRegistry();  // ensure the (leaked) registry outlives the handler
    Trace::Enable();
    static std::string output_path;  // atexit handlers take no arguments
    output_path = path;
    std::atexit([] { Trace::WriteChromeTrace(output_path); });
  }
};
const TraceEnvInit trace_env_init;

}  // namespace
}  // namespace obs
}  // namespace janus
