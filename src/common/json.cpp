#include "common/json.h"

#include <charconv>
#include <cstdio>
#include <system_error>

namespace gurita {

namespace {

/// Recursive-descent parser over one document. Recursion is bounded by
/// kMaxJsonDepth, so hostile nesting costs a JsonError, not the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError(what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\r' || text_[pos_] == '\n'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (++depth_ > kMaxJsonDepth)
        fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
      JsonValue v = c == '{' ? object() : array();
      --depth_;
      return v;
    }
    if (c == '"') return string_value();
    JsonValue v;
    if (consume("true") || consume("false")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = c == 't';
      return v;
    }
    if (consume("null")) return v;
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string_value().text;
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() != ',') break;
      ++pos_;
    }
    expect('}');
    return v;
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(value());
      skip_ws();
      if (peek() != ',') break;
      ++pos_;
    }
    expect(']');
    return v;
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    expect('"');
    while (peek() != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        switch (peek()) {
          case '"': case '\\': case '/': c = text_[pos_]; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          default: fail("unsupported string escape");
        }
        ++pos_;
      }
      v.text += c;
    }
    ++pos_;
    return v;
  }

  /// Scans JSON's number grammar, or %.17g's inf/nan spellings, and keeps
  /// the text; conversion waits for a checked accessor.
  JsonValue number() {
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    const auto digits = [&] {
      const std::size_t from = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
      if (pos_ == from) fail("malformed number");
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!consume("inf") && !consume("nan")) {
      if (peek() == '0') {
        ++pos_;
      } else {
        digits();
      }
      if (pos_ < text_.size() && text_[pos_] == '.') {
        ++pos_;
        digits();
      }
      if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
        ++pos_;
        if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
          ++pos_;
        digits();
      }
    }
    v.text = std::string(text_.substr(start, pos_ - start));
    return v;
  }
};

[[noreturn]] void bad_number(const JsonValue& v, const char* want) {
  throw JsonError("number " + v.text + " is not " + want);
}

void require_number(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kNumber)
    throw JsonError("expected a number");
}

/// Integer fields take integer numerals only: "3.0" or "1e3" would need a
/// trip through double, which is exact only part of the way.
template <typename Int>
Int checked_integer(const JsonValue& v, const char* want) {
  require_number(v);
  Int out = 0;
  const char* end = v.text.data() + v.text.size();
  const auto [ptr, ec] = std::from_chars(v.text.data(), end, out);
  if (ec != std::errc() || ptr != end) bad_number(v, want);
  return out;
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  if (kind != Kind::kObject) throw JsonError("expected an object");
  const JsonValue* v = find(key);
  if (v == nullptr)
    throw JsonError("missing \"" + std::string(key) + "\"");
  return *v;
}

const std::vector<JsonValue>& JsonValue::array() const {
  if (kind != Kind::kArray) throw JsonError("expected an array");
  return items;
}

const std::string& JsonValue::string() const {
  if (kind != Kind::kString) throw JsonError("expected a string");
  return text;
}

double JsonValue::as_double() const {
  require_number(*this);
  double out = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end) bad_number(*this, "a double");
  return out;
}

std::uint64_t JsonValue::as_u64() const {
  return checked_integer<std::uint64_t>(*this, "an unsigned 64-bit integer");
}

int JsonValue::as_int() const {
  return checked_integer<int>(*this, "an int");
}

JsonValue parse_json(std::string_view text) { return JsonParser(text).parse(); }

void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace gurita
