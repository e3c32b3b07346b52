// Speculation flight recorder: a bounded ring of structured per-run
// records that answers the operational question the aggregate counters
// cannot — not just *that* assumption failures, fallbacks, and cache churn
// happened, but *which* unit, *which* assumption, with what assumed vs
// observed value, and which cache event pushed a unit down the
// despecialization ladder.
//
// Producers: the engine (one record per run: cache hit/miss, ladder
// level, phase latency breakdown, ops/bytes; plus generation, refusal,
// entry-mismatch, and fallback records carrying the failing assumption's
// assumed vs observed rendering), the executors (assert failures at the
// kernel site), the profiler (assumption blacklisting), and the
// specialization cache (insert/evict/despecialize events). Consumers: the JANUS_LEDGER=<path> JSONL dump at exit, the
// /flightz HTTP endpoint, and the `janus_explain` root-cause CLI.
//
// Cost model (mirrors the tracer's):
//  * disabled (default): every producer site reduces to one relaxed
//    atomic load and a branch — no record is even constructed;
//  * enabled: writers claim a slot with one wait-free fetch_add on the
//    ticket counter, then publish through that slot's seqlock. Writers
//    never contend except on a ring-wrap collision (two in-flight writers
//    `capacity` tickets apart) or against a concurrent snapshot of the
//    same slot, both of which spin briefly. No mutex anywhere on the
//    record path, so cache callbacks may record while holding cache locks.
//
// The ring is bounded: once full, each new record overwrites the oldest
// (flight-recorder semantics); TotalDropped() counts the overwritten.
#ifndef JANUS_OBS_LEDGER_H_
#define JANUS_OBS_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace janus {
namespace obs {

// One flight-recorder record. `kind` is a static string; every other
// field is optional (empty string / -1 means "not applicable") so one
// schema serves runs, fallbacks, generations, and cache events:
//
//   run            graph execution through a cached entry (hit)
//   profile        imperative run while profiling (pre-conversion)
//   imperative     imperative run of a conversion-pinned unit
//   fallback       runtime assumption failure -> imperative fallback
//   entry_mismatch cached entry rejected by entry validation
//   cache_miss     no cached candidate was usable
//   generation     speculative graph generation (level, cost, bytes)
//   refusal        generator refused the program (NotConvertible)
//   assert_failure AssertOp aborted a graph run (executor site)
//   assumption_blacklisted  profiler stopped speculating on an id
//   cache_insert / cache_evict / cache_despecialize
//                  specialization-cache events
struct LedgerRecord {
  std::int64_t seq = -1;    // assigned by the ring
  std::int64_t ts_ns = -1;  // Trace::NowNs() timebase; assigned if < 0
  const char* kind = "";
  std::string unit;   // stable unit identity ("0x..." hex), join key
  std::string name;   // human-readable unit name, when known
  std::uint64_t variant = 0;
  int level = -1;      // despecialization ladder level
  int cache_hit = -1;  // 1 = cached graph ran, 0 = miss path, -1 = n/a
  // Failing-assumption attribution.
  std::string assumption;  // assumption id ("branch:stmt7", "shape:x")
  std::string assumed;     // what the graph speculated, rendered
  std::string observed;    // what the run actually saw, rendered
  // Phase latency breakdown (ns) and run volume.
  std::int64_t validate_ns = -1;
  std::int64_t execute_ns = -1;
  std::int64_t generate_ns = -1;
  std::int64_t ops = -1;
  std::int64_t bytes = -1;
  // Fusion accounting for "run" records: regions dispatched through the
  // superop interpreter and the member ops they covered. -1 = not a run
  // record (field omitted from the serialized line).
  std::int64_t fused_regions = -1;
  std::int64_t fused_ops = -1;
  std::string detail;
};

class Ledger {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  // The one process-wide recorder (leaked so atexit dumps always find it).
  static Ledger& Global();

  // The producer fast path: call sites test this before building records.
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void Enable();
  static void Disable();

  // Appends one record (see the cost model above). Assigns seq and, when
  // ts_ns < 0, the timestamp. Safe from any thread, including under locks.
  void Record(LedgerRecord record);

  // The most recent records, oldest first, at most `max_records` (0 = all
  // retained). Records mid-write during the snapshot are skipped, never
  // torn.
  std::vector<LedgerRecord> Snapshot(std::size_t max_records = 0) const;

  std::int64_t TotalRecorded() const;
  std::int64_t TotalDropped() const;  // overwritten by ring wrap

  // One JSON object per record; the schema trace_validate --ledger and
  // janus_explain parse. Optional fields are omitted when unset.
  static std::string ToJsonLine(const LedgerRecord& record);
  std::string ToJsonl(std::size_t max_records = 0) const;
  bool WriteJsonl(const std::string& path) const;

  // Drops every retained record and resets counters (test isolation).
  void Reset();

  // Ring capacity; rounded up to a power of two. Not safe concurrently
  // with writers — tests only. 0 restores the default (or JANUS_LEDGER_
  // CAPACITY when set).
  void SetCapacityForTesting(std::size_t capacity);
  std::size_t capacity() const { return capacity_; }

 private:
  Ledger();

  struct Slot;
  void Allocate(std::size_t capacity);

  std::unique_ptr<Slot[]> slots_;
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::atomic<std::int64_t> next_{0};

  static std::atomic<bool> enabled_;
};

// Appends `text` to `out` with JSON string escaping (quotes, backslash,
// control characters). The one JSON string escaper: the ledger, the trace
// and profile exporters and the tools all write through it.
void AppendJsonEscaped(std::string& out, std::string_view text);

// Renders a pointer as a stable "0x..." identity string (unit join keys).
std::string PointerToHex(const void* pointer);

}  // namespace obs
}  // namespace janus

#endif  // JANUS_OBS_LEDGER_H_
