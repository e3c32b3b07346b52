// Budgeted cache of specialized artifacts (compiled graphs), with
// cost-aware eviction, per-key churn accounting and a despecialization
// ladder. Each engine owns one.
//
// JANUS's compile-once/run-many model only pays off if the population of
// specialized graphs is managed: the space of (function, assumption set,
// shape) keys is effectively unbounded, and per-unit, per-Graph, unbounded
// caches would thrash. This cache is the single owner of that population:
//
//  * Budgets. A byte budget (JANUS_CACHE_BYTES) and an entry budget
//    (JANUS_CACHE_ENTRIES) bound the resident set, plus a per-key candidate
//    cap that replaces the old EngineOptions::max_cached_graphs_per_unit.
//  * Cost-aware eviction (GDSF). Each entry carries the build cost the
//    producer measured (generation + plan-build time) and a byte estimate;
//    eviction removes the entry with the lowest
//    clock + uses * cost / bytes priority, so cheap-to-rebuild bulky
//    entries go first and hot expensive entries are protected. The clock
//    inflates to each evicted priority (GreedyDual aging), so long-idle
//    entries eventually lose to fresh ones regardless of cost.
//  * Churn accounting + despecialization ladder (paper Fig. 4). Each key
//    counts churn events: runtime assumption failures and
//    evict-then-reinsert cycles. Every `churn_per_level` events raise the
//    key's ladder level; the producer consults the level when it
//    regenerates, relaxing shape -> rank -> value assumptions instead of
//    re-specializing exact graphs forever.
//
// The cache never decides whether an entry may run: the caller checks every
// candidate's entry guards on every use (Fig. 2 (1)).
//
// The payload is type-erased (shared_ptr<void>) so this layer depends only
// on src/obs. All statistics land in a MetricsRegistry as cache.* counters
// and histograms. Every method is thread-safe.
#ifndef JANUS_CACHE_SPECIALIZATION_CACHE_H_
#define JANUS_CACHE_SPECIALIZATION_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace janus {
namespace cache {

struct CacheOptions {
  // Resident-set budgets. <= 0 disables the corresponding bound.
  std::int64_t max_bytes = 256LL << 20;
  std::int64_t max_entries = 4096;
  // Candidate graphs kept per key. Replaces the removed
  // EngineOptions::max_cached_graphs_per_unit knob.
  int max_entries_per_key = 8;
  // Despecialization ladder: churn events per level step, and the deepest
  // level (see GraphGenerator::CompileHints for the level semantics).
  int churn_per_level = 3;
  int max_ladder_level = 3;

  // Defaults with JANUS_CACHE_BYTES / JANUS_CACHE_ENTRIES applied.
  static CacheOptions FromEnv();
};

// Per-key statistics, exposed for tests and reports.
struct KeyStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;
  std::int64_t failures = 0;       // runtime assumption failures
  std::int64_t churn_events = 0;
  int ladder_level = 0;
  bool evicted_since_insert = false;
  // Filled by Stats() from the live candidate list (not stored).
  std::int64_t resident_entries = 0;
};

class SpecializationCache {
 public:
  using Payload = std::shared_ptr<void>;

  // Cache key: the conversion-unit identity and a variant discriminator
  // (training mode, learning rate, ...).
  struct Key {
    const void* unit = nullptr;
    std::uint64_t variant = 0;
    auto operator<=>(const Key&) const = default;
  };

  // One resident artifact. Mutable state is guarded by the cache mutex;
  // callers treat Entry as opaque outside the accessors below.
  struct Entry {
    Payload payload;
    std::int64_t bytes = 0;
    std::int64_t cost_ns = 0;

    // Guarded by the owning cache's mutex.
    Key key;
    bool resident = false;
    std::int64_t uses = 0;
    double priority = 0.0;
  };
  using EntryRef = std::shared_ptr<Entry>;

  SpecializationCache(CacheOptions options, obs::MetricsRegistry* registry);

  // Snapshot of the key's candidates, most-recently-used first. Records
  // cache.lookup_ns.
  std::vector<EntryRef> Lookup(const Key& key);

  // Registers a freshly built artifact. Evicts per-key and cache-wide
  // budget overflow (never the entry being inserted; if the entry alone exceeds
  // the byte budget it is inserted non-resident, i.e. immediately evicted,
  // and the returned ref is the caller's only handle). An insert for a key
  // with an eviction since its last insert counts one churn event — the
  // evict/regenerate cycle the ladder exists to stop.
  EntryRef Insert(const Key& key, Payload payload, std::int64_t bytes,
                  std::int64_t cost_ns);

  // Per-use protocol, in order:
  //   BeginUse(entry)                 -- use count, LRU/GDSF touch
  //   [validate]                      -- caller-owned guard check
  //   OnRunSuccess | OnEntryFailure | (plain miss: keep iterating; call
  //   OnMiss once when no candidate was usable)
  void BeginUse(const EntryRef& entry);

  // Successful execution through this entry: counts the hit.
  void OnRunSuccess(const Key& key);

  // Runtime assumption failure (AssertOp) or kernel error while executing
  // the entry: removes it and counts churn.
  void OnEntryFailure(const Key& key, const EntryRef& entry);

  // No candidate matched the live context (the engine will regenerate once
  // profiling allows).
  void OnMiss(const Key& key);

  // Ladder level the producer should regenerate this key at.
  int DespecializationLevel(const Key& key) const;

  KeyStats Stats(const Key& key) const;

  struct Snapshot {
    std::int64_t bytes_in_use = 0;
    std::int64_t entries = 0;
    std::int64_t keys = 0;
  };
  Snapshot TakeSnapshot() const;

  const CacheOptions& options() const { return options_; }

  // Human-readable section for Engine::StatsReport(): budgets, residency,
  // and every cache.* counter/histogram in this cache's registry.
  std::string TextReport() const;

 private:
  struct KeyRecord {
    std::vector<EntryRef> entries;  // MRU first
    KeyStats stats;
  };

  // All private helpers require mu_ held (machine-checked under clang).
  // By value: see the definition — callers hand over references into the
  // very containers this function erases from.
  void EvictEntryLocked(EntryRef entry) REQUIRES(mu_);
  void EvictLowestPriorityLocked() REQUIRES(mu_);
  void TouchLocked(const EntryRef& entry) REQUIRES(mu_);
  void AddChurnLocked(const Key& key, KeyRecord& record) REQUIRES(mu_);
  void RemoveFromIndexLocked(const EntryRef& entry) REQUIRES(mu_);
  double ComputePriorityLocked(const Entry& entry) const REQUIRES(mu_);
  KeyRecord* FindRecordLocked(const Key& key) REQUIRES(mu_);

  CacheOptions options_;
  obs::MetricsRegistry* registry_;

  mutable Mutex mu_;
  std::map<Key, KeyRecord> keys_ GUARDED_BY(mu_);
  // Eviction index: priority -> entry. Entries keep no iterator back-ref;
  // removal erases the matching (priority, entry) pair.
  std::multimap<double, EntryRef> by_priority_ GUARDED_BY(mu_);
  std::int64_t bytes_in_use_ GUARDED_BY(mu_) = 0;
  std::int64_t resident_entries_ GUARDED_BY(mu_) = 0;
  double clock_ GUARDED_BY(mu_) = 0.0;  // GreedyDual aging floor

  struct Counters {
    obs::Counter* lookups;
    obs::Counter* hits;
    obs::Counter* misses;
    obs::Counter* insertions;
    obs::Counter* evictions;
    obs::Counter* bytes_evicted;
    obs::Counter* assumption_failures;
    obs::Counter* churn_events;
    obs::Counter* despecializations;
  } counters_{};
  obs::Histogram* lookup_ns_ = nullptr;
  obs::Histogram* entry_bytes_ = nullptr;
  obs::Histogram* entry_cost_ns_ = nullptr;
};

}  // namespace cache
}  // namespace janus

#endif  // JANUS_CACHE_SPECIALIZATION_CACHE_H_
