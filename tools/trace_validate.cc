// Validates the observability subsystem's emitted text formats. Three
// modes, selected by the first argument:
//
//   trace_validate <trace.json> [required-event-name...]
//     Chrome-trace JSON (JANUS_TRACE / Trace::WriteChromeTrace, or a
//     /flightz scrape): full syntax check plus per-event schema (string
//     name/cat/ph, object args). Extra arguments are event names that must
//     appear; CI uses this to assert the decision-loop phases and
//     decisions were captured.
//
//   trace_validate --prom <metrics.txt> [required-family...]
//     Prometheus text exposition 0.0.4 (the /metrics endpoint): per-line
//     syntax check of comments, metric/label names, escapes, and values.
//     Extra arguments are metric families that must appear as samples.
//
//   trace_validate --folded <stacks.txt> [required-unit...]
//     Folded-stacks dump (JANUS_PROFILE=<path>): every line must be
//     "frame;frame;... <total_ns>" with a non-negative value. Extra
//     arguments are units that must appear as some stack's first frame.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "obs/json_check.h"
#include "obs/profile.h"

namespace {

bool ReadFile(const char* path, std::string* out) {
  std::ifstream file(path);
  if (!file) return false;
  std::ostringstream content;
  content << file.rdbuf();
  *out = content.str();
  return true;
}

int ValidateTrace(const char* path, int argc, char** argv, int first_extra) {
  std::string content;
  if (!ReadFile(path, &content)) {
    std::fprintf(stderr, "trace_validate: cannot open '%s'\n", path);
    return 2;
  }
  std::string error;
  janus::obs::ChromeTraceSummary summary;
  if (!janus::obs::ValidateChromeTrace(content, &error, &summary)) {
    std::fprintf(stderr, "trace_validate: %s: invalid trace: %s\n", path,
                 error.c_str());
    return 1;
  }
  std::printf("%s: %d events, %zu distinct names, %zu categories\n", path,
              summary.num_events, summary.names.size(),
              summary.categories.size());
  if (summary.num_events == 0) {
    std::fprintf(stderr, "trace_validate: trace contains no events\n");
    return 1;
  }
  int missing = 0;
  for (int i = first_extra; i < argc; ++i) {
    if (summary.names.count(argv[i]) == 0u) {
      std::fprintf(stderr,
                   "trace_validate: required event '%s' not present\n",
                   argv[i]);
      ++missing;
    } else {
      std::printf("  found required event '%s'\n", argv[i]);
    }
  }
  return missing == 0 ? 0 : 1;
}

int ValidatePrometheus(const char* path, int argc, char** argv,
                       int first_extra) {
  std::string content;
  if (!ReadFile(path, &content)) {
    std::fprintf(stderr, "trace_validate: cannot open '%s'\n", path);
    return 2;
  }
  std::string error;
  janus::obs::PrometheusSummary summary;
  if (!janus::obs::ValidatePrometheusText(content, &error, &summary)) {
    std::fprintf(stderr, "trace_validate: %s: invalid exposition: %s\n",
                 path, error.c_str());
    return 1;
  }
  std::printf("%s: %d samples, %zu families declared\n", path,
              summary.num_samples, summary.families.size());
  if (summary.num_samples == 0) {
    std::fprintf(stderr, "trace_validate: exposition contains no samples\n");
    return 1;
  }
  int missing = 0;
  for (int i = first_extra; i < argc; ++i) {
    if (summary.sample_names.count(argv[i]) == 0u &&
        summary.families.count(argv[i]) == 0u) {
      std::fprintf(stderr,
                   "trace_validate: required metric '%s' not present\n",
                   argv[i]);
      ++missing;
    } else {
      std::printf("  found required metric '%s'\n", argv[i]);
    }
  }
  return missing == 0 ? 0 : 1;
}

int ValidateFolded(const char* path, int argc, char** argv,
                   int first_extra) {
  std::string content;
  if (!ReadFile(path, &content)) {
    std::fprintf(stderr, "trace_validate: cannot open '%s'\n", path);
    return 2;
  }
  std::string error;
  janus::obs::FoldedProfile folded;
  if (!janus::obs::ParseFoldedProfile(content, &folded, &error)) {
    std::fprintf(stderr, "trace_validate: %s: invalid folded stacks: %s\n",
                 path, error.c_str());
    return 1;
  }
  std::printf("%s: %zu stacks, %.3fms total\n", path,
              folded.stack_ns.size(), folded.total_ns / 1e6);
  if (folded.stack_ns.empty()) {
    std::fprintf(stderr, "trace_validate: dump contains no stacks\n");
    return 1;
  }
  std::set<std::string> units;
  for (const auto& [stack, ns] : folded.stack_ns) {
    units.insert(stack.substr(0, stack.find(';')));
  }
  int missing = 0;
  for (int i = first_extra; i < argc; ++i) {
    if (units.count(argv[i]) == 0u) {
      std::fprintf(stderr,
                   "trace_validate: required unit '%s' not present\n",
                   argv[i]);
      ++missing;
    } else {
      std::printf("  found required unit '%s'\n", argv[i]);
    }
  }
  return missing == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--prom") == 0) {
    return ValidatePrometheus(argv[2], argc, argv, 3);
  }
  if (argc >= 3 && std::strcmp(argv[1], "--folded") == 0) {
    return ValidateFolded(argv[2], argc, argv, 3);
  }
  if (argc >= 2 && argv[1][0] != '-') {
    return ValidateTrace(argv[1], argc, argv, 2);
  }
  std::fprintf(stderr,
               "usage: trace_validate <trace.json> [required-event...]\n"
               "       trace_validate --prom <metrics.txt> "
               "[required-family...]\n"
               "       trace_validate --folded <stacks.txt> "
               "[required-unit...]\n");
  return 2;
}
