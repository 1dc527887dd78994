// The one JSON reader for every file this repository reads back: the JSONL
// job feed (workload/feed.h), exported JSONL traces (obs/trace.h) and the
// gap-to-bound report (bound/gap.h, read by trace_explorer). Beside it sits
// the one numeral writer every JSON export uses (append_number).
//
// These files are untrusted input, so the reader is bounded: nesting
// deeper than kMaxJsonDepth is an error rather than a stack overflow, and
// numbers keep their source text until a checked accessor converts them —
// an id is read exactly as a u64, never through a double, and a value that
// is non-integral, out of range or malformed is a JsonError, never a blind
// cast. The number grammar is JSON's plus the non-finite spellings printf's
// %.17g produces (inf, -inf, nan, -nan), so every numeral the repository's
// writers emit reads back.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gurita {

/// Malformed JSON, or a value of the wrong kind or range for its use. Parse
/// errors carry the byte position.
class JsonError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Deepest array/object nesting parse_json accepts. The deepest document
/// the repository writes (the gap report) nests seven levels.
inline constexpr int kMaxJsonDepth = 64;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  /// A string's decoded contents, or a number's source text.
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  /// The member named `key` of an object; nullptr when absent or when this
  /// is not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// Like find, but a missing member is a JsonError naming `key`.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  /// The elements of an array; JsonError for any other kind.
  [[nodiscard]] const std::vector<JsonValue>& array() const;
  /// The contents of a string; JsonError for any other kind.
  [[nodiscard]] const std::string& string() const;

  /// Checked numeric conversions; JsonError unless this is a number whose
  /// value fits the target exactly. The integer accessors take integer
  /// numerals only ("3", not "3.0" or "3e0"); as_double takes any finite or
  /// non-finite double, but not one that overflows or underflows.
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] int as_int() const;
};

/// Parses one JSON document; surrounding whitespace is allowed, anything
/// else after the value is an error.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Appends `v` as %.17g: the shortest printf form that round-trips every
/// double bit-exactly through strtod, and deterministic for a given bit
/// pattern, so equal values export as equal bytes (the byte-identity
/// contract of every export rides on this). Non-finite values come out as
/// inf, -inf, nan or -nan, which parse_json reads back.
void append_number(std::string& out, double v);

/// Appends `s` with '"' and '\\' backslash-escaped, for the labels and
/// names the exports write inside string literals.
void append_escaped(std::string& out, std::string_view s);

}  // namespace gurita
