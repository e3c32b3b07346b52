// Root-cause attribution over a Chrome trace: a JANUS_TRACE=<path> file or
// a /flightz scrape (the event args of obs/trace.h). Where the aggregate
// counters say *that* fallbacks and cache churn happened, this answers
// *why*: per conversion unit, the top failing assumptions with their
// assumed vs observed values, the despecialization-ladder transitions with
// the churn that triggered them, and the cache-churn summary.
//
//   janus_explain <trace.json> [--top N] [--unit <name-or-hex-substr>]
//
// Exit status: 0 on success, 1 on a malformed trace, 2 on usage/IO errors
// or a trace without decision-loop events.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_check.h"

namespace {

using Args = std::map<std::string, std::string>;

std::string GetStr(const Args& args, const char* key) {
  const auto it = args.find(key);
  return it == args.end() ? std::string() : it->second;
}

std::int64_t GetInt(const Args& args, const char* key,
                    std::int64_t fallback = -1) {
  const auto it = args.find(key);
  if (it == args.end()) return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  return end == it->second.c_str() ? fallback : value;
}

std::string FormatNs(double ns) {
  char buffer[32];
  if (ns < 10'000.0) {
    std::snprintf(buffer, sizeof(buffer), "%.0f ns", ns);
  } else if (ns < 10'000'000.0) {
    std::snprintf(buffer, sizeof(buffer), "%.1f us", ns / 1e3);
  } else if (ns < 10'000'000'000.0) {
    std::snprintf(buffer, sizeof(buffer), "%.1f ms", ns / 1e6);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.2f s", ns / 1e9);
  }
  return buffer;
}

// One failing assumption within a unit, aggregated across fallback,
// entry_mismatch, and (by id) assert_failure decisions.
struct AssumptionAgg {
  std::int64_t count = 0;
  std::string assumed;   // most recent rendering
  std::string observed;  // most recent rendering
  std::map<std::string, std::int64_t> kinds;
};

// Fused-region coverage of the graph runs at one despecialization-ladder
// level. Comparing levels shows when sliding down the ladder (rank-only,
// shapeless graphs) destroys or preserves fusion coverage.
struct LevelFusion {
  std::int64_t runs = 0;
  std::int64_t fused_regions = 0;
  std::int64_t fused_ops = 0;
  std::int64_t ops = 0;
};

struct UnitAgg {
  std::string unit;  // hex identity (join key)
  std::string name;  // qualified name when any event carried one
  std::set<std::string> variants;
  std::map<std::string, std::int64_t> kind_counts;
  std::int64_t graph_runs = 0, graph_ns = 0, graph_ops = 0;
  std::int64_t fused_regions = 0, fused_ops = 0;
  std::map<std::int64_t, LevelFusion> fusion_by_level;  // key: ladder level
  std::int64_t imperative_runs = 0, imperative_ns = 0;
  std::map<std::string, AssumptionAgg> assumptions;
  std::vector<std::string> ladder;       // despecialization transitions
  std::vector<std::string> generations;  // one line per generation

  std::int64_t Count(const char* kind) const {
    const auto it = kind_counts.find(kind);
    return it == kind_counts.end() ? 0 : it->second;
  }
  std::int64_t Disruptions() const {
    return Count("fallback") + Count("entry_mismatch") +
           Count("cache_despecialize");
  }
};

void AddFailure(UnitAgg& unit, const std::string& kind, const Args& args) {
  const std::string id = GetStr(args, "assumption");
  if (id.empty()) return;
  AssumptionAgg& agg = unit.assumptions[id];
  agg.count += 1;
  agg.kinds[kind] += 1;
  const std::string assumed = GetStr(args, "assumed");
  const std::string observed = GetStr(args, "observed");
  if (!assumed.empty()) agg.assumed = assumed;
  if (!observed.empty()) agg.observed = observed;
}

void PrintUnit(const UnitAgg& unit, int top) {
  std::printf("== unit %s (%s)",
              unit.name.empty() ? "<anonymous>" : unit.name.c_str(),
              unit.unit.c_str());
  if (unit.variants.size() > 1) {
    std::printf(" [%zu variants]", unit.variants.size());
  }
  std::printf(" ==\n");

  std::printf("  runs: %lld graph", static_cast<long long>(unit.graph_runs));
  if (unit.graph_runs > 0) {
    std::printf(" (avg %s",
                FormatNs(static_cast<double>(unit.graph_ns) /
                         static_cast<double>(unit.graph_runs))
                    .c_str());
    if (unit.graph_ops > 0) {
      std::printf(", %lld ops total", static_cast<long long>(unit.graph_ops));
    }
    std::printf(")");
  }
  std::printf(", %lld imperative",
              static_cast<long long>(unit.imperative_runs));
  if (unit.imperative_runs > 0) {
    std::printf(" (avg %s)",
                FormatNs(static_cast<double>(unit.imperative_ns) /
                         static_cast<double>(unit.imperative_runs))
                    .c_str());
  }
  std::printf("\n");

  std::printf(
      "  speculation: %lld generations, %lld cache misses, %lld entry "
      "mismatches, %lld fallbacks, %lld refusals\n",
      static_cast<long long>(unit.Count("generation")),
      static_cast<long long>(unit.Count("cache_miss")),
      static_cast<long long>(unit.Count("entry_mismatch")),
      static_cast<long long>(unit.Count("fallback")),
      static_cast<long long>(unit.Count("refusal")));

  if (unit.fused_regions > 0) {
    std::printf("  fusion: %lld regions covering %lld ops",
                static_cast<long long>(unit.fused_regions),
                static_cast<long long>(unit.fused_ops));
    if (unit.graph_ops > 0) {
      std::printf(" (%.0f%% of graph ops)",
                  100.0 * static_cast<double>(unit.fused_ops) /
                      static_cast<double>(unit.graph_ops));
    }
    std::printf("\n");
    // Per-ladder-level coverage only when the unit ran at more than one
    // level: that contrast is what shows despecialization destroying (or
    // runtime re-specialization preserving) fusion.
    if (unit.fusion_by_level.size() > 1) {
      for (const auto& [level, lf] : unit.fusion_by_level) {
        std::printf("    level %lld: %lld runs, %.1f regions/run",
                    static_cast<long long>(level),
                    static_cast<long long>(lf.runs),
                    static_cast<double>(lf.fused_regions) /
                        static_cast<double>(lf.runs));
        if (lf.ops > 0) {
          std::printf(", %.0f%% of ops fused",
                      100.0 * static_cast<double>(lf.fused_ops) /
                          static_cast<double>(lf.ops));
        }
        std::printf("\n");
      }
    }
  } else if (unit.graph_runs > 0) {
    std::printf("  fusion: none\n");
  }

  if (!unit.assumptions.empty()) {
    std::vector<const std::map<std::string, AssumptionAgg>::value_type*>
        ranked;
    for (const auto& pair : unit.assumptions) ranked.push_back(&pair);
    std::sort(ranked.begin(), ranked.end(), [](const auto* a, const auto* b) {
      if (a->second.count != b->second.count) {
        return a->second.count > b->second.count;
      }
      return a->first < b->first;
    });
    std::printf("  top failing assumptions:\n");
    int shown = 0;
    for (const auto* pair : ranked) {
      if (shown++ == top) {
        std::printf("    ... and %zu more\n", ranked.size() - top);
        break;
      }
      const AssumptionAgg& agg = pair->second;
      std::string kinds;
      for (const auto& [kind, count] : agg.kinds) {
        if (!kinds.empty()) kinds += ", ";
        kinds += kind + "=" + std::to_string(count);
      }
      std::printf("    %lldx %s (%s)\n", static_cast<long long>(agg.count),
                  pair->first.c_str(), kinds.c_str());
      if (!agg.assumed.empty()) {
        std::printf("        assumed:  %s\n", agg.assumed.c_str());
      }
      if (!agg.observed.empty()) {
        std::printf("        observed: %s\n", agg.observed.c_str());
      }
    }
  }

  for (const std::string& line : unit.ladder) {
    std::printf("  ladder: %s\n", line.c_str());
  }
  for (const std::string& line : unit.generations) {
    std::printf("  generation: %s\n", line.c_str());
  }

  const std::int64_t inserts = unit.Count("cache_insert");
  const std::int64_t evicts = unit.Count("cache_evict");
  if (inserts + evicts > 0) {
    std::printf("  cache: %lld inserts, %lld evictions\n",
                static_cast<long long>(inserts),
                static_cast<long long>(evicts));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  const char* unit_filter = nullptr;
  int top = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      top = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--unit") == 0 && i + 1 < argc) {
      unit_filter = argv[++i];
    } else if (path == nullptr && argv[i][0] != '-') {
      path = argv[i];
    } else {
      path = nullptr;
      break;
    }
  }
  if (path == nullptr || top < 1) {
    std::fprintf(stderr,
                 "usage: janus_explain <trace.json> [--top N] "
                 "[--unit <name-or-hex-substr>]\n");
    return 2;
  }
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "janus_explain: cannot open '%s'\n", path);
    return 2;
  }
  std::ostringstream content;
  content << file.rdbuf();
  std::string error;
  std::vector<janus::obs::ChromeTraceEvent> events;
  if (!janus::obs::ValidateChromeTrace(content.str(), &error, nullptr,
                                       &events)) {
    std::fprintf(stderr, "janus_explain: %s: invalid trace: %s\n", path,
                 error.c_str());
    return 1;
  }

  std::map<std::string, UnitAgg> units;
  std::map<std::string, std::int64_t> kind_totals;
  // Kernel-site assert failures carry no unit; key on assumption id.
  std::map<std::string, AssumptionAgg> assert_sites;
  std::map<std::string, std::string> assert_site_nodes;
  std::set<std::string> blacklisted;
  int attributed = 0;
  for (const janus::obs::ChromeTraceEvent& event : events) {
    // Decisions are named by their kind; the engine's spans stand for the
    // run, generation and imperative-phase kinds.
    std::string kind;
    bool phase_span = false;  // an imperative run of the unit
    if (event.cat == "decision") {
      kind = event.name;
    } else if (event.cat == "engine" && event.args.count("unit") != 0u) {
      if (event.name == "graph_execution") {
        kind = "run";
      } else if (event.name == "graph_generation") {
        kind = "generation";
      } else if (event.name == "profile" || event.name == "imperative" ||
                 event.name == "fallback") {
        kind = event.name;
        phase_span = true;
      }
    }
    if (kind.empty()) continue;
    const Args& args = event.args;
    const auto ns = static_cast<std::int64_t>(event.dur_us * 1e3);
    ++attributed;
    // A fallback span is the imperative rerun of its fallback decision:
    // an imperative run, not a second fallback.
    const bool counted = !(phase_span && kind == "fallback");
    if (counted) ++kind_totals[kind];

    if (kind == "assumption_blacklisted") {
      blacklisted.insert(GetStr(args, "assumption"));
      continue;
    }
    if (kind == "assert_failure") {
      const std::string id = GetStr(args, "assumption");
      AssumptionAgg& agg = assert_sites[id];
      agg.count += 1;
      const std::string assumed = GetStr(args, "assumed");
      const std::string observed = GetStr(args, "observed");
      if (!assumed.empty()) agg.assumed = assumed;
      if (!observed.empty()) agg.observed = observed;
      const std::string node = GetStr(args, "node");
      if (!node.empty()) assert_site_nodes[id] = node;
      continue;
    }

    const std::string unit_id = GetStr(args, "unit");
    if (unit_id.empty()) continue;  // not attributable to a unit
    UnitAgg& unit = units[unit_id];
    unit.unit = unit_id;
    const std::string name = GetStr(args, "name");
    if (!name.empty()) unit.name = name;
    const std::string variant = GetStr(args, "variant");
    unit.variants.insert(variant.empty() ? "inference" : variant);

    if (counted) unit.kind_counts[kind] += 1;
    if (kind == "run") {
      const std::int64_t ops = std::max<std::int64_t>(GetInt(args, "ops"), 0);
      const std::int64_t fused_regions =
          std::max<std::int64_t>(GetInt(args, "fused_regions"), 0);
      const std::int64_t fused_ops =
          std::max<std::int64_t>(GetInt(args, "fused_ops"), 0);
      unit.graph_runs += 1;
      unit.graph_ns += ns;
      unit.graph_ops += ops;
      unit.fused_regions += fused_regions;
      unit.fused_ops += fused_ops;
      LevelFusion& lf = unit.fusion_by_level[GetInt(args, "level")];
      lf.runs += 1;
      lf.fused_regions += fused_regions;
      lf.fused_ops += fused_ops;
      lf.ops += ops;
    } else if (phase_span) {
      unit.imperative_runs += 1;
      unit.imperative_ns += ns;
    } else if (kind == "generation") {
      std::string rendered =
          "level " + std::to_string(GetInt(args, "level", 0)) + ", " +
          FormatNs(static_cast<double>(ns));
      const std::int64_t bytes = GetInt(args, "bytes");
      if (bytes >= 0) rendered += ", " + std::to_string(bytes) + " bytes";
      rendered += ", " + std::to_string(GetInt(args, "asserts", 0)) +
                  " asserts, " +
                  std::to_string(GetInt(args, "entry_checks", 0)) +
                  " entry checks, " +
                  std::to_string(GetInt(args, "captures", 0)) + " captures";
      unit.generations.push_back(std::move(rendered));
    } else if (kind == "fallback" || kind == "entry_mismatch") {
      AddFailure(unit, kind, args);
    } else if (kind == "cache_despecialize") {
      unit.ladder.push_back("-> level " +
                            std::to_string(GetInt(args, "level", 0)) + " (" +
                            GetStr(args, "detail") + ")");
    }
  }

  if (attributed == 0) {
    std::fprintf(stderr,
                 "janus_explain: %s: no decision-loop events (was the trace "
                 "taken with JANUS_TRACE?)\n",
                 path);
    return 2;
  }

  std::printf("== trace %s: %d decision-loop events, %zu units ==\n", path,
              attributed, units.size());
  std::string kinds_line;
  for (const auto& [kind, count] : kind_totals) {
    if (!kinds_line.empty()) kinds_line += ", ";
    kinds_line += kind + "=" + std::to_string(count);
  }
  std::printf("  kinds: %s\n", kinds_line.c_str());
  if (!blacklisted.empty()) {
    std::string ids;
    for (const std::string& id : blacklisted) {
      if (!ids.empty()) ids += ", ";
      ids += id;
    }
    std::printf("  blacklisted assumptions (speculation stopped): %s\n",
                ids.c_str());
  }
  std::printf("\n");

  std::vector<const UnitAgg*> ranked;
  for (const auto& [id, unit] : units) {
    if (unit_filter != nullptr &&
        unit.unit.find(unit_filter) == std::string::npos &&
        unit.name.find(unit_filter) == std::string::npos) {
      continue;
    }
    ranked.push_back(&unit);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const UnitAgg* a, const UnitAgg* b) {
              if (a->Disruptions() != b->Disruptions()) {
                return a->Disruptions() > b->Disruptions();
              }
              return a->unit < b->unit;
            });
  for (const UnitAgg* unit : ranked) PrintUnit(*unit, top);

  if (!assert_sites.empty()) {
    std::printf("== assert sites (kernel-level) ==\n");
    for (const auto& [id, agg] : assert_sites) {
      const auto node = assert_site_nodes.find(id);
      std::printf("  %lldx %s%s%s\n", static_cast<long long>(agg.count),
                  id.c_str(), node != assert_site_nodes.end() ? " at " : "",
                  node != assert_site_nodes.end() ? node->second.c_str()
                                                  : "");
      if (!agg.assumed.empty()) {
        std::printf("      assumed:  %s\n", agg.assumed.c_str());
      }
      if (!agg.observed.empty()) {
        std::printf("      observed: %s\n", agg.observed.c_str());
      }
    }
  }
  return 0;
}
