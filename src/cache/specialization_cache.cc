#include "cache/specialization_cache.h"

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <utility>

#include "obs/trace.h"

namespace janus {
namespace cache {
namespace {

std::int64_t EnvInt64(const char* name, std::int64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(env, &end, 10);
  if (end == env) return fallback;
  return static_cast<std::int64_t>(parsed);
}

// Decision event for one cache transition. Safe while holding the cache
// mutex: the trace buffer lock is a leaf lock. `bytes` < 0 omits the arg.
void RecordCacheEvent(const char* kind, const SpecializationCache::Key& key,
                      int level, std::int64_t bytes, std::string detail) {
  if (!obs::Trace::Enabled()) return;
  obs::TraceArgs args = {{"unit", obs::PointerToHex(key.unit)},
                         {"variant", std::to_string(key.variant)},
                         {"level", level}};
  if (bytes >= 0) args.push_back({"bytes", bytes});
  if (!detail.empty()) args.push_back({"detail", std::move(detail)});
  obs::Trace::RecordDecision(kind, std::move(args));
}

}  // namespace

CacheOptions CacheOptions::FromEnv() {
  CacheOptions options;
  options.max_bytes = EnvInt64("JANUS_CACHE_BYTES", options.max_bytes);
  options.max_entries = EnvInt64("JANUS_CACHE_ENTRIES", options.max_entries);
  return options;
}

SpecializationCache::SpecializationCache(CacheOptions options,
                                         obs::MetricsRegistry* registry)
    : options_(options), registry_(registry) {
  counters_.lookups = &registry_->GetCounter("cache.lookups");
  counters_.hits = &registry_->GetCounter("cache.hits");
  counters_.misses = &registry_->GetCounter("cache.misses");
  counters_.insertions = &registry_->GetCounter("cache.insertions");
  counters_.evictions = &registry_->GetCounter("cache.evictions");
  counters_.bytes_evicted = &registry_->GetCounter("cache.bytes_evicted");
  counters_.assumption_failures =
      &registry_->GetCounter("cache.assumption_failures");
  counters_.churn_events = &registry_->GetCounter("cache.churn_events");
  counters_.despecializations =
      &registry_->GetCounter("cache.despecializations");
  lookup_ns_ = &registry_->GetHistogram("cache.lookup_ns");
  entry_bytes_ = &registry_->GetHistogram("cache.entry_bytes");
  entry_cost_ns_ = &registry_->GetHistogram("cache.entry_cost_ns");
}

std::vector<SpecializationCache::EntryRef> SpecializationCache::Lookup(
    const Key& key) {
  const std::int64_t start_ns = obs::Trace::NowNs();
  std::vector<EntryRef> candidates;
  {
    const MutexLock lock(mu_);
    counters_.lookups->Increment();
    if (KeyRecord* record = FindRecordLocked(key); record != nullptr) {
      candidates = record->entries;
    }
  }
  lookup_ns_->Record(obs::Trace::NowNs() - start_ns);
  return candidates;
}

SpecializationCache::EntryRef SpecializationCache::Insert(
    const Key& key, Payload payload, std::int64_t bytes,
    std::int64_t cost_ns) {
  auto entry = std::make_shared<Entry>();
  entry->payload = std::move(payload);
  entry->bytes = std::max<std::int64_t>(bytes, 1);
  entry->cost_ns = std::max<std::int64_t>(cost_ns, 1);
  entry->key = key;

  const MutexLock lock(mu_);
  counters_.insertions->Increment();
  entry_bytes_->Record(entry->bytes);
  entry_cost_ns_->Record(entry->cost_ns);

  KeyRecord& record = keys_[key];
  record.stats.insertions += 1;
  if (record.stats.evicted_since_insert) {
    // Evict-then-regenerate cycle: the budget threw this key's work away
    // and the producer rebuilt it. Exactly the churn the ladder damps.
    record.stats.evicted_since_insert = false;
    AddChurnLocked(key, record);
  }

  // Per-key candidate cap: drop the key's own LRU candidate first.
  while (static_cast<int>(record.entries.size()) >=
         std::max(options_.max_entries_per_key, 1)) {
    EvictEntryLocked(record.entries.back());
  }

  entry->resident = true;
  entry->priority = ComputePriorityLocked(*entry);
  record.entries.insert(record.entries.begin(), entry);
  by_priority_.emplace(entry->priority, entry);
  bytes_in_use_ += entry->bytes;
  resident_entries_ += 1;
  RecordCacheEvent("cache_insert", key, record.stats.ladder_level,
                   entry->bytes,
                   "cost_ns=" + std::to_string(entry->cost_ns));

  // Cache-wide budgets. Never evict the entry being inserted unless it alone
  // busts the byte budget — then it leaves non-resident and the returned
  // ref is the caller's only handle (usable for the current run).
  while (options_.max_entries > 0 && resident_entries_ > options_.max_entries &&
         resident_entries_ > 1) {
    EvictLowestPriorityLocked();
  }
  while (options_.max_bytes > 0 && bytes_in_use_ > options_.max_bytes &&
         resident_entries_ > 1) {
    EvictLowestPriorityLocked();
  }
  if (options_.max_bytes > 0 && bytes_in_use_ > options_.max_bytes &&
      entry->resident) {
    EvictEntryLocked(entry);
  }
  return entry;
}

void SpecializationCache::BeginUse(const EntryRef& entry) {
  const MutexLock lock(mu_);
  entry->uses += 1;
  if (entry->resident) TouchLocked(entry);
}

void SpecializationCache::OnRunSuccess(const Key& key) {
  const MutexLock lock(mu_);
  counters_.hits->Increment();
  if (KeyRecord* record = FindRecordLocked(key); record != nullptr) {
    record->stats.hits += 1;
  }
}

void SpecializationCache::OnEntryFailure(const Key& key,
                                         const EntryRef& entry) {
  const MutexLock lock(mu_);
  counters_.assumption_failures->Increment();
  if (KeyRecord* record = FindRecordLocked(key); record != nullptr) {
    record->stats.failures += 1;
    AddChurnLocked(key, *record);
    std::erase(record->entries, entry);
  }
  if (entry->resident) {
    RemoveFromIndexLocked(entry);
    bytes_in_use_ -= entry->bytes;
    resident_entries_ -= 1;
    entry->resident = false;
  }
}

void SpecializationCache::OnMiss(const Key& key) {
  const MutexLock lock(mu_);
  counters_.misses->Increment();
  keys_[key].stats.misses += 1;
}

int SpecializationCache::DespecializationLevel(const Key& key) const {
  const MutexLock lock(mu_);
  const auto it = keys_.find(key);
  return it != keys_.end() ? it->second.stats.ladder_level : 0;
}

KeyStats SpecializationCache::Stats(const Key& key) const {
  const MutexLock lock(mu_);
  const auto it = keys_.find(key);
  if (it == keys_.end()) return KeyStats{};
  KeyStats stats = it->second.stats;
  for (const EntryRef& entry : it->second.entries) {
    if (entry->resident) stats.resident_entries += 1;
  }
  return stats;
}

SpecializationCache::Snapshot SpecializationCache::TakeSnapshot() const {
  const MutexLock lock(mu_);
  Snapshot snapshot;
  snapshot.bytes_in_use = bytes_in_use_;
  snapshot.entries = resident_entries_;
  snapshot.keys = static_cast<std::int64_t>(keys_.size());
  return snapshot;
}

std::string SpecializationCache::TextReport() const {
  const Snapshot snapshot = TakeSnapshot();
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "cache: %lld bytes in %lld entries over %lld keys "
                "(budget %lld bytes / %lld entries)\n",
                static_cast<long long>(snapshot.bytes_in_use),
                static_cast<long long>(snapshot.entries),
                static_cast<long long>(snapshot.keys),
                static_cast<long long>(options_.max_bytes),
                static_cast<long long>(options_.max_entries));
  out += line;
  out += registry_->TextReportForPrefix("cache.");
  return out;
}

// Takes its argument by value on purpose: callers pass references to the
// shared_ptr stored inside by_priority_ / record->entries, and this function
// erases from both containers — a reference parameter would dangle the
// moment RemoveFromIndexLocked (or the std::erase below) destroys the
// stored pointer it aliases.
void SpecializationCache::EvictEntryLocked(const EntryRef entry) {
  if (!entry->resident) return;
  RemoveFromIndexLocked(entry);
  bytes_in_use_ -= entry->bytes;
  resident_entries_ -= 1;
  entry->resident = false;
  // GreedyDual aging: the clock rises to the evicted priority, so every
  // future (re)insert and touch outbids long-idle survivors.
  clock_ = std::max(clock_, entry->priority);
  counters_.evictions->Increment();
  counters_.bytes_evicted->Add(entry->bytes);
  KeyRecord* record = FindRecordLocked(entry->key);
  if (record != nullptr) {
    record->stats.evictions += 1;
    record->stats.evicted_since_insert = true;
    std::erase(record->entries, entry);
  }
  RecordCacheEvent("cache_evict", entry->key,
                   record != nullptr ? record->stats.ladder_level : -1,
                   entry->bytes,
                   "priority=" + std::to_string(entry->priority));
}

void SpecializationCache::EvictLowestPriorityLocked() {
  if (by_priority_.empty()) return;
  EvictEntryLocked(by_priority_.begin()->second);
}

void SpecializationCache::TouchLocked(const EntryRef& entry) {
  RemoveFromIndexLocked(entry);
  entry->priority = ComputePriorityLocked(*entry);
  by_priority_.emplace(entry->priority, entry);
  if (KeyRecord* record = FindRecordLocked(entry->key); record != nullptr) {
    auto it = std::find(record->entries.begin(), record->entries.end(), entry);
    if (it != record->entries.end() && it != record->entries.begin()) {
      std::rotate(record->entries.begin(), it, it + 1);
    }
  }
}

void SpecializationCache::AddChurnLocked(const Key& key, KeyRecord& record) {
  record.stats.churn_events += 1;
  counters_.churn_events->Increment();
  const int level = std::min(
      options_.max_ladder_level,
      static_cast<int>(record.stats.churn_events /
                       std::max(options_.churn_per_level, 1)));
  if (level > record.stats.ladder_level) {
    // The ladder transition janus_explain exists to explain: which
    // key slid down, to which rung, after how much churn.
    RecordCacheEvent(
        "cache_despecialize", key, level, -1,
        "churn_events=" + std::to_string(record.stats.churn_events) +
            " from_level=" + std::to_string(record.stats.ladder_level));
    record.stats.ladder_level = level;
    counters_.despecializations->Increment();
  }
}

void SpecializationCache::RemoveFromIndexLocked(const EntryRef& entry) {
  for (auto [it, end] = by_priority_.equal_range(entry->priority); it != end;
       ++it) {
    if (it->second == entry) {
      by_priority_.erase(it);
      return;
    }
  }
}

double SpecializationCache::ComputePriorityLocked(const Entry& entry) const {
  // GDSF: clock + uses * cost / size. Hot, expensive-to-rebuild, compact
  // entries sort last in eviction order.
  const double frequency = static_cast<double>(entry.uses + 1);
  return clock_ + frequency * static_cast<double>(entry.cost_ns) /
                      static_cast<double>(entry.bytes);
}

SpecializationCache::KeyRecord* SpecializationCache::FindRecordLocked(
    const Key& key) {
  const auto it = keys_.find(key);
  return it != keys_.end() ? &it->second : nullptr;
}

}  // namespace cache
}  // namespace janus
