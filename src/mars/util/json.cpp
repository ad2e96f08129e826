#include "mars/util/json.h"

#include <cmath>
#include <cstdio>

#include "mars/util/error.h"
#include "mars/util/strings.h"

namespace mars {

JsonValue JsonValue::number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::integer(long long value) {
  JsonValue v;
  v.kind_ = Kind::kInteger;
  v.integer_ = value;
  return v;
}

JsonValue JsonValue::boolean(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::string(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

double JsonValue::as_number() const {
  if (kind_ == Kind::kInteger) return static_cast<double>(integer_);
  MARS_CHECK_ARG(kind_ == Kind::kNumber, "JSON value is not a number");
  return number_;
}

long long JsonValue::as_integer() const {
  MARS_CHECK_ARG(kind_ == Kind::kInteger, "JSON value is not an integer");
  return integer_;
}

bool JsonValue::as_boolean() const {
  MARS_CHECK_ARG(kind_ == Kind::kBool, "JSON value is not a boolean");
  return bool_;
}

const std::string& JsonValue::as_string() const {
  MARS_CHECK_ARG(kind_ == Kind::kString, "JSON value is not a string");
  return string_;
}

const JsonValue& JsonValue::at(std::size_t index) const {
  MARS_CHECK_ARG(kind_ == Kind::kArray, "at() on non-array JSON value");
  MARS_CHECK_ARG(index < children_.size(),
                 "JSON array index " << index << " out of range (size "
                                     << children_.size() << ")");
  return children_[index].second;
}

bool JsonValue::contains(const std::string& key) const {
  if (kind_ != Kind::kObject) return false;
  for (const auto& [name, child] : children_) {
    if (name == key) return true;
  }
  return false;
}

const JsonValue& JsonValue::get(const std::string& key) const {
  MARS_CHECK_ARG(kind_ == Kind::kObject, "get() on non-object JSON value");
  for (const auto& [name, child] : children_) {
    if (name == key) return child;
  }
  throw InvalidArgument("JSON object has no key '" + key + "'");
}

JsonValue& JsonValue::push(JsonValue value) {
  MARS_CHECK_ARG(kind_ == Kind::kArray, "push on non-array JSON value");
  children_.emplace_back(std::string(), std::move(value));
  return *this;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue value) {
  MARS_CHECK_ARG(kind_ == Kind::kObject, "set on non-object JSON value");
  children_.emplace_back(key, std::move(value));
  return *this;
}

std::string JsonValue::escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

void JsonValue::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kNumber: {
      if (!std::isfinite(number_)) {
        out += "null";
        break;
      }
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%.12g", number_);
      out += buffer;
      break;
    }
    case Kind::kInteger:
      out += std::to_string(integer_);
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kString:
      out += '"';
      out += escape(string_);
      out += '"';
      break;
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const auto& [key, child] : children_) {
        if (!first) out += ',';
        first = false;
        child.dump_to(out);
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, child] : children_) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += escape(key);
        out += "\":";
        child.dump_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

namespace {

/// Strict recursive-descent JSON parser over a single document.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument("bad JSON at offset " + std::to_string(pos_) + ": " +
                          what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t n = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  // Parsing recurses once per nesting level; cap it so a hostile or
  // corrupt document throws instead of overflowing the stack (callers
  // like the mapping cache rely on every failure being catchable).
  static constexpr int kMaxDepth = 200;

  JsonValue parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return JsonValue::string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::boolean(true);
        fail("invalid token");
      case 'f':
        if (consume_literal("false")) return JsonValue::boolean(false);
        fail("invalid token");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail("invalid token");
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    if (++depth_ > kMaxDepth) fail("nesting deeper than 200 levels");
    expect('{');
    JsonValue object = JsonValue::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return object;
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object.set(key, parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      --depth_;
      return object;
    }
  }

  JsonValue parse_array() {
    if (++depth_ > kMaxDepth) fail("nesting deeper than 200 levels");
    expect('[');
    JsonValue array = JsonValue::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return array;
    }
    for (;;) {
      array.push(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      --depth_;
      return array;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("unknown escape");
      }
    }
  }

  /// \uXXXX escapes, UTF-8 encoded. Surrogate pairs are not needed by our
  /// writer (it only escapes control characters) and are rejected.
  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape digit");
      }
    }
    if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate \\u escapes unsupported");
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '+') fail("JSON numbers cannot start with '+'");
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c < '0' || c > '9') && c != '.' && c != 'e' && c != 'E' &&
          c != '+' && c != '-') {
        break;
      }
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    // An integer too large for long long falls back to a double.
    if (const std::optional<long long> value = parse_int<long long>(token)) {
      return JsonValue::integer(*value);
    }
    if (const std::optional<double> value = parse_double(token)) {
      return JsonValue::number(*value);
    }
    fail("invalid number '" + token + "'");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace mars
