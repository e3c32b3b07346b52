#include "obs/json_check.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

namespace janus {
namespace obs {
namespace {

// Recursive-descent JSON parser. Values are discarded except for the
// scalar fields object walkers ask for. Throws ParseError (internal) on
// malformed input.
class Parser {
 public:
  struct ParseError {
    std::size_t position;
    std::string message;
  };

  explicit Parser(std::string_view text) : text_(text) {}

  // Parses one complete JSON value and requires end-of-input after it.
  void ParseDocument(ChromeTraceSummary* summary,
                     std::vector<ChromeTraceEvent>* events) {
    SkipWhitespace();
    ParseTopLevel(summary, events);
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing content after JSON document");
  }

 private:
  [[noreturn]] void Fail(const std::string& message) const {
    throw ParseError{pos_, message};
  }

  char Peek() const {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  char Next() {
    const char c = Peek();
    ++pos_;
    return c;
  }

  void Expect(char c) {
    if (Next() != c) {
      --pos_;
      Fail(std::string("expected '") + c + "'");
    }
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      const char c = Next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char escape = Next();
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = Next();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              Fail("bad \\u escape");
            }
          }
          // Validation only: non-ASCII code points are replaced, not
          // round-tripped.
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          Fail("bad escape character");
      }
    }
  }

  void ParseNumber() {
    if (Peek() == '-') ++pos_;
    if (std::isdigit(static_cast<unsigned char>(Peek())) == 0) {
      Fail("bad number");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (std::isdigit(static_cast<unsigned char>(Peek())) == 0) {
        Fail("bad number: no digits after decimal point");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (std::isdigit(static_cast<unsigned char>(Peek())) == 0) {
        Fail("bad number: no exponent digits");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    }
  }

  void ParseLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      Fail("bad literal");
    }
    pos_ += literal.size();
  }

  // Generic value: validated and discarded.
  void ParseValue() {
    SkipWhitespace();
    switch (Peek()) {
      case '{': ParseObject(nullptr); break;
      case '[': ParseArray(); break;
      case '"': ParseString(); break;
      case 't': ParseLiteral("true"); break;
      case 'f': ParseLiteral("false"); break;
      case 'n': ParseLiteral("null"); break;
      default: ParseNumber();
    }
  }

  void ParseArray() {
    Expect('[');
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      ParseValue();
      SkipWhitespace();
      const char c = Next();
      if (c == ']') return;
      if (c != ',') {
        --pos_;
        Fail("expected ',' or ']' in array");
      }
    }
  }

  // Parses an object. String fields are collected decoded into `strings`
  // and number fields as written into `numbers`, when non-null. When
  // `args` is non-null, the "args" field must be an object whose strings
  // and numbers are collected into `args`.
  void ParseObject(std::map<std::string, std::string>* strings,
                   std::map<std::string, std::string>* numbers = nullptr,
                   std::map<std::string, std::string>* args = nullptr) {
    Expect('{');
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      SkipWhitespace();
      const std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      SkipWhitespace();
      const char first = Peek();
      if (args != nullptr && key == "args") {
        if (first != '{') Fail("trace event \"args\" is not an object");
        ParseObject(args, args);
      } else if (strings != nullptr && first == '"') {
        (*strings)[key] = ParseString();
      } else if (numbers != nullptr &&
                 (first == '-' || (first >= '0' && first <= '9'))) {
        const std::size_t start = pos_;
        ParseNumber();
        (*numbers)[key] = std::string(text_.substr(start, pos_ - start));
      } else {
        ParseValue();
      }
      SkipWhitespace();
      const char c = Next();
      if (c == '}') return;
      if (c != ',') {
        --pos_;
        Fail("expected ',' or '}' in object");
      }
    }
  }

  // Top level: an object that must contain a "traceEvents" array whose
  // elements each carry string name/cat/ph fields.
  void ParseTopLevel(ChromeTraceSummary* summary,
                     std::vector<ChromeTraceEvent>* events) {
    Expect('{');
    bool saw_trace_events = false;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      Fail("missing \"traceEvents\" array");
    }
    while (true) {
      SkipWhitespace();
      const std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      SkipWhitespace();
      if (key == "traceEvents") {
        saw_trace_events = true;
        ParseEventArray(summary, events);
      } else {
        ParseValue();
      }
      SkipWhitespace();
      const char c = Next();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        Fail("expected ',' or '}' in object");
      }
    }
    if (!saw_trace_events) Fail("missing \"traceEvents\" array");
  }

  void ParseEventArray(ChromeTraceSummary* summary,
                       std::vector<ChromeTraceEvent>* events) {
    SkipWhitespace();
    Expect('[');
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      SkipWhitespace();
      if (Peek() != '{') Fail("trace event is not an object");
      std::map<std::string, std::string> fields;
      std::map<std::string, std::string> numbers;
      ChromeTraceEvent event;
      ParseObject(&fields, &numbers, &event.args);
      for (const char* required : {"name", "cat", "ph"}) {
        if (fields.find(required) == fields.end()) {
          Fail(std::string("trace event missing string field \"") +
               required + "\"");
        }
      }
      if (summary != nullptr) {
        ++summary->num_events;
        summary->names.insert(fields["name"]);
        summary->categories.insert(fields["cat"]);
        summary->phases.insert(fields["ph"]);
      }
      if (events != nullptr) {
        event.name = std::move(fields["name"]);
        event.cat = std::move(fields["cat"]);
        event.ph = std::move(fields["ph"]);
        if (const auto dur = numbers.find("dur"); dur != numbers.end()) {
          event.dur_us = std::strtod(dur->second.c_str(), nullptr);
        }
        events->push_back(std::move(event));
      }
      SkipWhitespace();
      const char c = Next();
      if (c == ']') return;
      if (c != ',') {
        --pos_;
        Fail("expected ',' or ']' in traceEvents");
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void FormatParseError(const Parser::ParseError& parse_error,
                      std::string* error) {
  if (error == nullptr) return;
  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "at byte %zu: ",
                parse_error.position);
  *error = prefix + parse_error.message;
}

bool SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

// ---- Prometheus text-format 0.0.4 helpers ----

bool IsMetricNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool IsMetricNameChar(char c) {
  return IsMetricNameStart(c) || (c >= '0' && c <= '9');
}

bool IsLabelNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool IsLabelNameChar(char c) {
  return IsLabelNameStart(c) || (c >= '0' && c <= '9');
}

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || !IsMetricNameStart(name[0])) return false;
  for (const char c : name.substr(1)) {
    if (!IsMetricNameChar(c)) return false;
  }
  return true;
}

// Sample VALUES must be finite: a NaN or ±Inf sample poisons every
// aggregation downstream (rate(), sum()) and always indicates a broken
// exporter — an uninitialized cell, a 0/0 ratio, an overflowed histogram
// sum. (The "+Inf" LABEL value on histogram `le` buckets is untouched:
// labels are parsed as quoted strings, never through here.)
bool IsValidSampleValue(std::string_view token, std::string* error) {
  if (token == "+Inf" || token == "-Inf" || token == "NaN" ||
      token == "+inf" || token == "-inf" || token == "inf" ||
      token == "nan" || token == "Inf") {
    return SetError(error, "non-finite sample value");
  }
  if (token.empty()) return SetError(error, "bad sample value");
  const std::string copy(token);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) {
    return SetError(error, "bad sample value");
  }
  if (!std::isfinite(value)) {
    // e.g. "1e999" overflows to +Inf without spelling it.
    return SetError(error, "non-finite sample value");
  }
  return true;
}

// Validates one sample line: name[{labels}] value [timestamp]. Returns the
// metric name via *name and the canonical series identity (name plus
// sorted label pairs) via *series_key on success — two lines with equal
// keys are the same series sampled twice, which the format forbids.
bool ValidateSampleLine(std::string_view line, std::string* name,
                        std::string* series_key, std::string* error) {
  std::size_t pos = 0;
  while (pos < line.size() && IsMetricNameChar(line[pos])) ++pos;
  if (pos == 0 || !IsValidMetricName(line.substr(0, pos))) {
    return SetError(error, "bad metric name");
  }
  *name = std::string(line.substr(0, pos));
  // Label pairs, collected for the canonical series key. Sorted so label
  // order never disguises a duplicate series.
  std::vector<std::pair<std::string, std::string>> labels;
  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    while (true) {
      if (pos >= line.size()) return SetError(error, "unterminated label set");
      if (line[pos] == '}') {
        ++pos;
        break;
      }
      const std::size_t label_start = pos;
      while (pos < line.size() && IsLabelNameChar(line[pos])) ++pos;
      if (pos == label_start || !IsLabelNameStart(line[label_start])) {
        return SetError(error, "bad label name");
      }
      const std::string_view label_name =
          line.substr(label_start, pos - label_start);
      if (pos >= line.size() || line[pos] != '=') {
        return SetError(error, "expected '=' after label name");
      }
      ++pos;
      if (pos >= line.size() || line[pos] != '"') {
        return SetError(error, "label value is not a quoted string");
      }
      ++pos;
      const std::size_t value_start = pos;
      while (true) {
        if (pos >= line.size()) {
          return SetError(error, "unterminated label value");
        }
        const char c = line[pos];
        if (c == '"') {
          break;
        }
        if (c == '\n') return SetError(error, "raw newline in label value");
        if (c == '\\') {
          ++pos;
          if (pos >= line.size() ||
              (line[pos] != '\\' && line[pos] != '"' && line[pos] != 'n')) {
            return SetError(error, "bad escape in label value");
          }
        }
        ++pos;
      }
      labels.emplace_back(
          std::string(label_name),
          std::string(line.substr(value_start, pos - value_start)));
      ++pos;  // past the closing quote
      if (pos < line.size() && line[pos] == ',') ++pos;
    }
  }
  if (series_key != nullptr) {
    std::sort(labels.begin(), labels.end());
    *series_key = *name;
    for (const auto& [label_name, label_value] : labels) {
      *series_key += '{' + label_name + '=' + label_value + '}';
    }
  }
  if (pos >= line.size() || line[pos] != ' ') {
    return SetError(error, "expected space before sample value");
  }
  while (pos < line.size() && line[pos] == ' ') ++pos;
  std::size_t value_end = pos;
  while (value_end < line.size() && line[value_end] != ' ') ++value_end;
  if (!IsValidSampleValue(line.substr(pos, value_end - pos), error)) {
    return false;
  }
  pos = value_end;
  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos < line.size()) {
    // Optional millisecond timestamp: an integer.
    if (line[pos] == '-') ++pos;
    if (pos >= line.size()) return SetError(error, "bad timestamp");
    for (; pos < line.size(); ++pos) {
      if (line[pos] < '0' || line[pos] > '9') {
        return SetError(error, "bad timestamp");
      }
    }
  }
  return true;
}

}  // namespace

bool ValidateChromeTrace(std::string_view json, std::string* error,
                         ChromeTraceSummary* summary,
                         std::vector<ChromeTraceEvent>* events) {
  ChromeTraceSummary local;
  std::vector<ChromeTraceEvent> local_events;
  try {
    Parser(json).ParseDocument(&local,
                               events != nullptr ? &local_events : nullptr);
  } catch (const Parser::ParseError& parse_error) {
    FormatParseError(parse_error, error);
    return false;
  }
  if (summary != nullptr) *summary = std::move(local);
  if (events != nullptr) *events = std::move(local_events);
  if (error != nullptr) error->clear();
  return true;
}

bool ValidatePrometheusText(std::string_view text, std::string* error,
                            PrometheusSummary* summary) {
  PrometheusSummary local;
  std::set<std::string> seen_series;
  int line_number = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, (eol == std::string_view::npos ? text.size() : eol) -
                             pos);
    pos = (eol == std::string_view::npos) ? text.size() + 1 : eol + 1;
    ++line_number;
    if (line.empty()) continue;

    std::string line_error;
    if (line[0] == '#') {
      // "# HELP <name> <docstring>" / "# TYPE <name> <type>"; other
      // comments are ignored per the format spec.
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        const bool is_type = line[2] == 'T';
        const std::string_view rest = line.substr(7);
        const std::size_t space = rest.find(' ');
        const std::string_view name =
            rest.substr(0, space == std::string_view::npos ? rest.size()
                                                           : space);
        if (!IsValidMetricName(name)) {
          line_error = "bad metric name in comment";
        } else if (is_type) {
          const std::string_view type =
              space == std::string_view::npos ? std::string_view()
                                              : rest.substr(space + 1);
          if (type != "counter" && type != "gauge" && type != "histogram" &&
              type != "summary" && type != "untyped") {
            line_error = "bad metric type";
          } else {
            local.families.insert(std::string(name));
          }
        }
      }
    } else {
      std::string name;
      std::string series_key;
      if (ValidateSampleLine(line, &name, &series_key, &line_error)) {
        ++local.num_samples;
        local.sample_names.insert(std::move(name));
        // The exposition format allows each series (name + label set)
        // exactly once per scrape; a duplicate means two sources collided
        // on one name or an exporter emitted a family twice.
        if (!seen_series.insert(std::move(series_key)).second) {
          line_error = "duplicate series";
        }
      }
    }
    if (!line_error.empty()) {
      char prefix[32];
      std::snprintf(prefix, sizeof(prefix), "line %d: ", line_number);
      return SetError(error, prefix + line_error);
    }
  }
  if (summary != nullptr) *summary = std::move(local);
  if (error != nullptr) error->clear();
  return true;
}

}  // namespace obs
}  // namespace janus
