// Minimal JSON: escaping helpers for the hand-rolled writers scattered
// through the repo (obs::to_json, MetricsRegistry::write_json, the
// Chrome-trace exporter), plus a small parse/serialize value type that
// builds the bench suite's document and serves the tools that must *read*
// JSON back — the perf-regression gate and the round-trip tests that prove
// the writers emit valid documents.
//
// Deliberately tiny: strict UTF-8 passthrough (no \uXXXX decoding beyond
// ASCII), numbers are doubles, object key order is preserved so dumps are
// deterministic and diffs stay readable.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace miro {

/// Escapes `text` for inclusion inside a JSON string literal (quotes not
/// added): backslash, double quote, and control characters.
std::string json_escape(std::string_view text);

/// Renders a double as a JSON number token. Non-finite values have no JSON
/// representation, so NaN and ±infinity become `null`; integral values
/// print without a fractional part.
std::string json_number(double value);

/// One parsed JSON value. Arrays and objects own their children; object
/// insertion order is preserved.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;  // null
  static JsonValue make_bool(bool value);
  static JsonValue make_number(double value);
  static JsonValue make_string(std::string value);
  static JsonValue make_array();
  static JsonValue make_object();

  /// Parses a complete JSON document; throws miro::Error on malformed input
  /// or trailing garbage.
  static JsonValue parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  /// Typed accessors; throw miro::Error when the kind does not match.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  /// Array access. size() also counts object members.
  std::size_t size() const;
  const JsonValue& at(std::size_t index) const;

  /// Object access: get() returns nullptr when the key is absent, at()
  /// throws. Duplicate keys resolve to the first occurrence.
  const JsonValue* get(std::string_view key) const;
  const JsonValue& at(std::string_view key) const;
  bool contains(std::string_view key) const { return get(key) != nullptr; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Builders (valid only on the matching kind; throw otherwise).
  void push_back(JsonValue value);
  void set(std::string key, JsonValue value);

  /// Serializes back to compact JSON (deterministic: preserved key order).
  std::string dump() const;

 private:
  void dump_to(std::string& out) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace miro
