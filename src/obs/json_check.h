// Minimal parsers used to validate the observability subsystem's emitted
// text formats: Chrome-trace JSON (JANUS_TRACE, /flightz) and the
// Prometheus text exposition served on /metrics.
//
// These are deliberately not general libraries: they fully validate
// syntax and extract only what their readers need. Tests, the
// `trace_validate` CI tool and `janus_explain` parse exporter output back
// through this module.
#ifndef JANUS_OBS_JSON_CHECK_H_
#define JANUS_OBS_JSON_CHECK_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace janus {
namespace obs {

struct ChromeTraceSummary {
  int num_events = 0;
  std::set<std::string> names;
  std::set<std::string> categories;
  std::set<std::string> phases;
};

// One parsed trace event. Arg values keep their text: strings decoded,
// numbers as written; other arg values are validated and dropped.
struct ChromeTraceEvent {
  std::string name;
  std::string cat;
  std::string ph;
  double dur_us = 0;
  std::map<std::string, std::string> args;
};

// Parses `json` as a Chrome trace ({"traceEvents": [...]}). Returns false
// (with a position-annotated message in *error) on any syntax error, a
// missing "traceEvents" array, an event missing name/cat/ph string fields,
// or "args" that is not an object. On success fills *summary and *events
// when non-null.
bool ValidateChromeTrace(std::string_view json, std::string* error,
                         ChromeTraceSummary* summary = nullptr,
                         std::vector<ChromeTraceEvent>* events = nullptr);

struct PrometheusSummary {
  int num_samples = 0;
  // Family names declared by "# TYPE" lines, and the (possibly suffixed)
  // names that actually appeared on sample lines.
  std::set<std::string> families;
  std::set<std::string> sample_names;
};

// Validates a Prometheus text-format 0.0.4 exposition: every line must be
// a comment ("# HELP" / "# TYPE" with a well-formed name and type) or a
// sample `name{labels} value` whose metric name, label names, label-value
// escapes, and value all conform. Sample values must be finite (NaN/±Inf
// indicate a broken exporter; the `le="+Inf"` histogram-bucket LABEL is
// unaffected), and each series — name plus label set, order-insensitive —
// may appear at most once per exposition. On success fills *summary when
// non-null.
bool ValidatePrometheusText(std::string_view text, std::string* error,
                            PrometheusSummary* summary = nullptr);

}  // namespace obs
}  // namespace janus

#endif  // JANUS_OBS_JSON_CHECK_H_
