#include "util/json.h"

#include <charconv>
#include <climits>
#include <cmath>

namespace desync::util {

namespace {

[[noreturn]] void fail(std::size_t at, const std::string& what) {
  throw JsonError("json: at byte " + std::to_string(at) + ": " + what);
}

/// Recursive-descent parser over a bounded view.  Depth-limited so a
/// hostile request cannot overflow the stack.
struct Parser {
  std::string_view in;
  std::size_t pos = 0;
  int depth = 0;
  static constexpr int kMaxDepth = 64;

  void skipWs() {
    while (pos < in.size() && (in[pos] == ' ' || in[pos] == '\t' ||
                               in[pos] == '\n' || in[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= in.size()) fail(pos, "unexpected end of input");
    return in[pos];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(pos, std::string("expected '") + c + "', got '" + in[pos] + "'");
    }
    ++pos;
  }

  bool consume(std::string_view word) {
    if (in.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  Json value() {
    if (++depth > kMaxDepth) fail(pos, "nesting too deep");
    skipWs();
    Json v;
    switch (peek()) {
      case '{': v = object(); break;
      case '[': v = array(); break;
      case '"': v = Json::str(string()); break;
      case 't':
        if (!consume("true")) fail(pos, "invalid literal");
        v = Json::boolean(true);
        break;
      case 'f':
        if (!consume("false")) fail(pos, "invalid literal");
        v = Json::boolean(false);
        break;
      case 'n':
        if (!consume("null")) fail(pos, "invalid literal");
        break;
      default: v = number(); break;
    }
    --depth;
    return v;
  }

  Json object() {
    expect('{');
    Json v = Json::object();
    skipWs();
    if (peek() == '}') {
      ++pos;
      return v;
    }
    for (;;) {
      skipWs();
      std::string key = string();
      skipWs();
      expect(':');
      v.set(std::move(key), value());
      skipWs();
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json array() {
    expect('[');
    Json v = Json::array();
    skipWs();
    if (peek() == ']') {
      ++pos;
      return v;
    }
    for (;;) {
      v.push(value());
      skipWs();
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect(']');
      return v;
    }
  }

  /// Appends the UTF-8 encoding of `cp` to out.
  static void utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  unsigned hex4() {
    if (pos + 4 > in.size()) fail(pos, "truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = in[pos++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail(pos - 1, "invalid \\u escape digit");
    }
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy the run up to the next quote, backslash or control byte.
      const std::size_t run = pos;
      while (pos < in.size()) {
        const auto c = static_cast<unsigned char>(in[pos]);
        if (c < 0x20 || c == '"' || c == '\\') break;
        ++pos;
      }
      out.append(in, run, pos - run);
      if (pos >= in.size()) fail(pos, "unterminated string");
      const char c = in[pos++];
      if (c == '"') return out;
      if (c != '\\') fail(pos - 1, "unescaped control character in string");
      if (pos >= in.size()) fail(pos, "truncated escape");
      const char e = in[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = hex4();
          if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail(pos, "unpaired low surrogate");
          }
          // Surrogate pair: a high surrogate must be followed by \uDC00..
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos + 2 <= in.size() && in[pos] == '\\' && in[pos + 1] == 'u') {
              pos += 2;
              const unsigned lo = hex4();
              if (lo < 0xDC00 || lo > 0xDFFF) {
                fail(pos, "invalid low surrogate");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              fail(pos, "unpaired high surrogate");
            }
          }
          utf8(out, cp);
          break;
        }
        default: fail(pos - 1, "invalid escape character");
      }
    }
  }

  std::size_t digits() {
    const std::size_t start = pos;
    while (pos < in.size() && in[pos] >= '0' && in[pos] <= '9') ++pos;
    return pos - start;
  }

  /// RFC 8259 number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  Json number() {
    const std::size_t start = pos;
    if (pos < in.size() && in[pos] == '-') ++pos;
    const std::size_t int_start = pos;
    const std::size_t int_digits = digits();
    if (int_digits == 0) fail(start, "expected a value");
    if (int_digits > 1 && in[int_start] == '0') {
      fail(start, "leading zero in number");
    }
    if (pos < in.size() && in[pos] == '.') {
      ++pos;
      if (digits() == 0) fail(pos, "expected a digit after '.'");
    }
    if (pos < in.size() && (in[pos] == 'e' || in[pos] == 'E')) {
      ++pos;
      if (pos < in.size() && (in[pos] == '+' || in[pos] == '-')) ++pos;
      if (digits() == 0) fail(pos, "expected a digit in the exponent");
    }
    double v = 0.0;
    const auto [end, ec] = std::from_chars(in.data() + start,
                                           in.data() + pos, v);
    if (ec != std::errc() || end != in.data() + pos || !std::isfinite(v)) {
      fail(start, "number out of range '" +
                      std::string(in.substr(start, pos - start)) + "'");
    }
    return Json::number(v);
  }
};

}  // namespace

Json Json::boolean(bool b) {
  Json v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Json Json::number(double n) {
  Json v;
  v.kind_ = Kind::kNumber;
  v.num_ = n;
  return v;
}

Json Json::str(std::string s) {
  Json v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

Json Json::array() {
  Json v;
  v.kind_ = Kind::kArray;
  return v;
}

Json Json::object() {
  Json v;
  v.kind_ = Kind::kObject;
  return v;
}

bool Json::asBool() const {
  if (kind_ != Kind::kBool) throw JsonError("json: not a boolean");
  return bool_;
}

double Json::asNumber() const {
  if (kind_ != Kind::kNumber) throw JsonError("json: not a number");
  return num_;
}

const std::string& Json::asString() const {
  if (kind_ != Kind::kString) throw JsonError("json: not a string");
  return str_;
}

const std::vector<Json>& Json::asArray() const {
  if (kind_ != Kind::kArray) throw JsonError("json: not an array");
  return arr_;
}

const std::vector<std::pair<std::string, Json>>& Json::asObject() const {
  if (kind_ != Kind::kObject) throw JsonError("json: not an object");
  return obj_;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Json::getBool(std::string_view key, bool fallback) const {
  const Json* v = find(key);
  return v == nullptr ? fallback : v->asBool();
}

double Json::getNumber(std::string_view key, double fallback) const {
  const Json* v = find(key);
  return v == nullptr ? fallback : v->asNumber();
}

int Json::getInt(std::string_view key, int fallback) const {
  const Json* v = find(key);
  if (v == nullptr) return fallback;
  const double d = v->asNumber();
  // Range-check before the cast: a double past int range is undefined
  // behaviour to convert.
  if (!(d >= INT_MIN && d <= INT_MAX) || d != std::trunc(d)) {
    throw JsonError("json: '" + std::string(key) +
                    "' is not an integer in int range");
  }
  return static_cast<int>(d);
}

std::string Json::getString(std::string_view key,
                            std::string_view fallback) const {
  const Json* v = find(key);
  return v == nullptr ? std::string(fallback) : v->asString();
}

Json& Json::set(std::string key, Json value) {
  if (kind_ != Kind::kObject) throw JsonError("json: set on non-object");
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  if (kind_ != Kind::kArray) throw JsonError("json: push on non-array");
  arr_.push_back(std::move(value));
  return *this;
}

Json Json::parse(std::string_view text) {
  Parser p{text};
  Json v = p.value();
  p.skipWs();
  if (p.pos != text.size()) fail(p.pos, "trailing garbage after document");
  return v;
}

void escapeTo(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  // Room for the unescaped bytes up front, so a long string grows the
  // output once, not once per doubling.
  out.reserve(out.size() + s.size());
  const char* run = s.data();
  const char* const end = s.data() + s.size();
  for (const char* p = run; p != end; ++p) {
    const auto c = static_cast<unsigned char>(*p);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(run, p);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char u[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(u, sizeof u);
      }
    }
    run = p + 1;
  }
  out.append(run, end);
}

void Json::dumpTo(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber: {
      if (!std::isfinite(num_)) {
        out += "null";
        break;
      }
      // Shortest form that reads back exactly; integers print bare.
      char buf[32];
      out.append(buf, std::to_chars(buf, buf + sizeof buf, num_).ptr);
      break;
    }
    case Kind::kString:
      out += '"';
      escapeTo(out, str_);
      out += '"';
      break;
    case Kind::kArray:
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out += ", ";
        arr_[i].dumpTo(out);
      }
      out += ']';
      break;
    case Kind::kObject:
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i > 0) out += ", ";
        out += '"';
        escapeTo(out, obj_[i].first);
        out += "\": ";
        obj_[i].second.dumpTo(out);
      }
      out += '}';
      break;
  }
}

std::string Json::dump() const {
  std::string out;
  dumpTo(out);
  return out;
}

}  // namespace desync::util
