// The project's one JSON value, parser and writer.
//
// Everything JSON-shaped goes through here: the drdesyncd wire protocol
// (one request object per line in, one reply object per line out), the
// `drdesync --report` run reports, the bench BENCH_*.json files and the
// trace writer's string escaping (escapeTo).  The parser covers objects,
// arrays, strings (with \uXXXX escapes decoded to UTF-8), numbers, booleans
// and null with strict full-input validation: trailing garbage, unterminated
// strings, malformed escapes, lone surrogates and numbers outside the
// RFC 8259 grammar are JsonError, never a silently-truncated value.
// Object member order is preserved so dumps are deterministic.
//
// Deliberately not a general-purpose library: no comments, no NaN/Inf, no
// integer/double distinction beyond what a double holds (wire ids are
// sequence numbers well below 2^53).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace desync::util {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One JSON value (tagged union).  Cheap to move, expensive to copy.
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  static Json null() { return Json(); }
  static Json boolean(bool b);
  static Json number(double v);
  static Json str(std::string s);
  static Json array();
  static Json object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool isNull() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool isObject() const { return kind_ == Kind::kObject; }

  // --- typed reads (throw JsonError on kind mismatch) -----------------
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asNumber() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const std::vector<Json>& asArray() const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& asObject()
      const;

  // --- object access --------------------------------------------------
  /// Member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// Convenience typed lookups with defaults, for optional request fields.
  [[nodiscard]] bool getBool(std::string_view key, bool fallback) const;
  [[nodiscard]] double getNumber(std::string_view key,
                                 double fallback) const;
  /// Throws JsonError unless the member is an integer within int range.
  [[nodiscard]] int getInt(std::string_view key, int fallback) const;
  [[nodiscard]] std::string getString(std::string_view key,
                                      std::string_view fallback) const;

  // --- building -------------------------------------------------------
  /// Appends/overwrites an object member (object kind required).
  Json& set(std::string key, Json value);
  /// Appends an array element (array kind required).
  Json& push(Json value);

  /// Parses a complete JSON document; the entire input must be consumed
  /// (surrounding whitespace allowed).  Throws JsonError with a byte
  /// offset on malformed input.
  static Json parse(std::string_view text);

  /// Serializes on one line (no newlines — JSON-lines framing safe, since
  /// string escapes cover \n).  Deterministic: member order is preserved.
  /// Numbers print in the shortest form that parses back to the same
  /// double (42, 0.1, 1e-07); non-finite numbers print as null.
  [[nodiscard]] std::string dump() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;

  void dumpTo(std::string& out) const;
};

/// Appends `s` to `out` escaped as the *contents* of a JSON string literal
/// (no quotes): quotes, backslashes and every control character.  Runs of
/// bytes that need no escape are copied in bulk.
void escapeTo(std::string& out, std::string_view s);

}  // namespace desync::util
