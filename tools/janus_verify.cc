// janus_verify: offline static verification of every plan the engine builds.
//
// Sweeps the model zoo (all 11 Table-2 workloads) across the
// despecialization ladder (levels 0-3) with fusion on and off, in two
// generator configurations: the default, and Fig. 7's BASE
// (generator.speculative_unroll off, so every user call is an Invoke of a
// generated function). Trains each session a few steps so the engine
// generates and caches compiled units, then runs verify::VerifyCompiledUnit
// over every resident unit: captures, shape-assumption/ladder consistency,
// fetches, and full structural verification of the main plan and every
// library-function plan.
//
// Exit status 0 = every plan clean; 1 = violations (printed, and written to
// the --json report if given); 2 = usage error. The summary line and the
// report give the counts of each configuration.
//
// Usage:
//   janus_verify [--model NAME] [--steps N] [--json PATH]
//                [--fusion on|off|both] [--max-level L]
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "models/zoo.h"
#include "obs/trace.h"
#include "verify/plan_verifier.h"
#include "verify/unit_verifier.h"

namespace {

constexpr const char* kConfigs[] = {"default", "base"};

struct SweepResult {
  const char* config = "";  // one of kConfigs
  std::string model;
  int level = 0;
  bool fusion = false;
  int units = 0;
  int checks = 0;
  std::vector<janus::verify::Issue> issues;
  std::string error;  // non-verification failure (session threw)
};

// The shared JSON string escaper, returning a value for the printf calls.
std::string Escaped(const std::string& in) {
  std::string out;
  janus::obs::AppendJsonEscaped(out, in);
  return out;
}

// The counts of the sweeps of one configuration, or of all when `config`
// is null.
struct Totals {
  int sweeps = 0;
  int units = 0;
  int checks = 0;
  int violations = 0;
  int errors = 0;
};

Totals Count(const std::vector<SweepResult>& results, const char* config) {
  Totals totals;
  for (const SweepResult& r : results) {
    if (config != nullptr && std::strcmp(r.config, config) != 0) continue;
    ++totals.sweeps;
    totals.units += r.units;
    totals.checks += r.checks;
    totals.violations += static_cast<int>(r.issues.size());
    if (!r.error.empty()) ++totals.errors;
  }
  return totals;
}

void WriteJsonReport(const std::string& path,
                     const std::vector<SweepResult>& results) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "janus_verify: cannot write %s\n", path.c_str());
    return;
  }
  const Totals total = Count(results, nullptr);
  std::fprintf(f, "{\n  \"total_checks\": %d,\n  \"total_violations\": %d,\n",
               total.checks, total.violations);
  std::fprintf(f, "  \"configs\": {");
  for (const char* config : kConfigs) {
    const Totals t = Count(results, config);
    std::fprintf(f,
                 "%s\"%s\": {\"sweeps\": %d, \"units\": %d, \"checks\": %d, "
                 "\"violations\": %d, \"errors\": %d}",
                 config == kConfigs[0] ? "" : ", ", config, t.sweeps, t.units,
                 t.checks, t.violations, t.errors);
  }
  std::fprintf(f, "},\n  \"sweeps\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"model\": \"%s\", \"level\": %d, "
                 "\"fusion\": %s, \"units\": %d, \"checks\": %d, "
                 "\"violations\": %zu",
                 r.config, Escaped(r.model).c_str(), r.level,
                 r.fusion ? "true" : "false", r.units, r.checks,
                 r.issues.size());
    if (!r.error.empty()) {
      std::fprintf(f, ", \"error\": \"%s\"", Escaped(r.error).c_str());
    }
    if (!r.issues.empty()) {
      std::fprintf(f, ", \"issues\": [");
      for (std::size_t j = 0; j < r.issues.size(); ++j) {
        const janus::verify::Issue& issue = r.issues[j];
        std::fprintf(f,
                     "%s{\"invariant\": \"%s\", \"node\": \"%s\", "
                     "\"message\": \"%s\"}",
                     j == 0 ? "" : ", ",
                     Escaped(issue.invariant).c_str(),
                     Escaped(issue.node).c_str(),
                     Escaped(issue.message).c_str());
      }
      std::fprintf(f, "]");
    }
    std::fprintf(f, "}%s\n", i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

// Trains one session `steps` steps and verifies every unit it compiled.
SweepResult Sweep(const char* config, const janus::models::ModelSpec& spec,
                  int level, bool fusion, int steps) {
  SweepResult result;
  result.config = config;
  result.model = spec.name;
  result.level = level;
  result.fusion = fusion;
  try {
    janus::EngineOptions options;
    options.enable_fusion = fusion;
    options.force_despecialization_level = level;
    options.generator.speculative_unroll = config == kConfigs[0];
    janus::models::ModelSession session(spec, options);
    for (int s = 0; s < steps; ++s) session.Step();
    session.engine().ForEachCompiledUnit(
        [&result, level](const std::string& name,
                         const janus::CompiledGraph& unit) {
          ++result.units;
          janus::verify::Report report =
              janus::verify::VerifyCompiledUnit(unit);
          // The sweep forced the ladder level; a unit claiming a
          // different one went around CompileHints.
          ++report.checks;
          if (unit.despecialization_level != level) {
            report.issues.push_back(janus::verify::Issue{
                "unit.ladder_level", "<unit>",
                "engine forced level " + std::to_string(level) +
                    " but the unit was generated at level " +
                    std::to_string(unit.despecialization_level)});
          }
          result.checks += report.checks;
          for (janus::verify::Issue& issue : report.issues) {
            issue.node = name + ":" + issue.node;
            result.issues.push_back(std::move(issue));
          }
        });
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string only_model;
  std::string json_path;
  std::string fusion_mode = "both";
  int steps = 6;
  int max_level = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "janus_verify: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--model") {
      only_model = next();
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--steps") {
      steps = std::atoi(next());
    } else if (arg == "--max-level") {
      max_level = std::atoi(next());
    } else if (arg == "--fusion") {
      fusion_mode = next();
      if (fusion_mode != "on" && fusion_mode != "off" &&
          fusion_mode != "both") {
        std::fprintf(stderr, "janus_verify: --fusion on|off|both\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: janus_verify [--model NAME] [--steps N] "
                   "[--json PATH] [--fusion on|off|both] [--max-level L]\n");
      return 2;
    }
  }

  // The sweep verifies explicitly (full reports, all units); the in-build
  // hook would instead throw away the first bad plan mid-generation.
  janus::verify::SetVerifyEnabledForTesting(0);

  std::vector<bool> fusion_settings;
  if (fusion_mode != "off") fusion_settings.push_back(true);
  if (fusion_mode != "on") fusion_settings.push_back(false);

  std::vector<SweepResult> results;
  for (const char* config : kConfigs) {
    for (const janus::models::ModelSpec& spec : janus::models::ModelZoo()) {
      if (!only_model.empty() && spec.name != only_model) continue;
      for (int level = 0; level <= max_level; ++level) {
        for (const bool fusion : fusion_settings) {
          SweepResult result = Sweep(config, spec, level, fusion, steps);
          std::printf(
              "%-7s %-12s level=%d fusion=%-3s units=%d checks=%d %s\n",
              result.config, result.model.c_str(), result.level,
              result.fusion ? "on" : "off", result.units, result.checks,
              !result.error.empty()
                  ? ("ERROR: " + result.error).c_str()
                  : (result.issues.empty() ? "OK" : "VIOLATIONS"));
          for (const janus::verify::Issue& issue : result.issues) {
            std::printf("    %s at %s: %s\n", issue.invariant.c_str(),
                        issue.node.c_str(), issue.message.c_str());
          }
          results.push_back(std::move(result));
        }
      }
    }
  }

  const auto print = [](const char* label, const Totals& t) {
    std::printf("%s%d sweeps, %d units, %d checks, %d violations, %d errors",
                label, t.sweeps, t.units, t.checks, t.violations, t.errors);
  };
  const Totals total = Count(results, nullptr);
  print("\njanus_verify: ", total);
  for (const char* config : kConfigs) {
    std::printf(config == kConfigs[0] ? " (%s: " : "; %s: ", config);
    print("", Count(results, config));
  }
  std::printf(")\n");
  if (!json_path.empty()) WriteJsonReport(json_path, results);
  return (total.violations > 0 || total.errors > 0) ? 1 : 0;
}
