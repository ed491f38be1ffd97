// Small JSON value model + strict parser/writer for the server's
// line-delimited request/response protocol (docs/DESIGN.md §10). The
// golden-corpus reader (harness/golden.cpp) parses with it too.
//
// Request lines arrive from arbitrary clients and the fuzz suite feeds
// the parser truncated, hostile and garbage input. json_parse() is a
// strict recursive-descent JSON parser with explicit resource bounds
// (nesting depth, input size) that throws Error on anything malformed
// and never reads out of bounds — every request is fully validated
// into a JsonValue before any server state is touched.
#pragma once

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "support/common.h"

namespace rapwam {

class JsonValue {
  friend class JsonParser;

 public:
  /// In the order of the alternatives of the stored variant.
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  JsonValue() = default;
  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool b) { JsonValue v; v.v_.emplace<bool>(b); return v; }
  static JsonValue integer(i64 i) { JsonValue v; v.v_.emplace<i64>(i); return v; }
  /// Stats counters are u64; the simulators' counts stay far below
  /// 2^63, which RW_CHECK enforces rather than silently wrapping.
  static JsonValue unsigned_int(u64 u);
  static JsonValue real(double d) { JsonValue v; v.v_.emplace<double>(d); return v; }
  static JsonValue string(std::string s) { JsonValue v; v.v_.emplace<std::string>(std::move(s)); return v; }
  static JsonValue array() { JsonValue v; v.v_.emplace<Items>(); return v; }
  static JsonValue object() { JsonValue v; v.v_.emplace<Members>(); return v; }

  Kind kind() const { return static_cast<Kind>(v_.index()); }
  bool is_null() const { return kind() == Kind::Null; }
  bool is_bool() const { return kind() == Kind::Bool; }
  bool is_int() const { return kind() == Kind::Int; }
  bool is_number() const { return is_int() || kind() == Kind::Double; }
  bool is_string() const { return kind() == Kind::String; }
  bool is_array() const { return kind() == Kind::Array; }
  bool is_object() const { return kind() == Kind::Object; }

  bool as_bool() const { require(Kind::Bool); return std::get<bool>(v_); }
  i64 as_int() const;      ///< Int within i64, or a Double holding an exact integer
  /// A non-negative Int. The parser keeps integer literals up to
  /// 2^64-1 exact (the golden corpus stores u64 counters), so this
  /// reaches past as_int's range.
  bool is_uint() const { return is_int() && (above_i64_ || std::get<i64>(v_) >= 0); }
  u64 as_uint() const;
  double as_double() const;
  const std::string& as_string() const { require(Kind::String); return std::get<std::string>(v_); }
  const std::vector<JsonValue>& items() const { require(Kind::Array); return std::get<Items>(v_); }
  /// Insertion-ordered key/value pairs (duplicates rejected at parse).
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    require(Kind::Object);
    return std::get<Members>(v_);
  }

  /// Object member by key, or nullptr.
  const JsonValue* find(const std::string& key) const;

  // -- builders (used for responses)
  void push_back(JsonValue v) { require(Kind::Array); std::get<Items>(v_).push_back(std::move(v)); }
  void set(std::string key, JsonValue v) {
    require(Kind::Object);
    std::get<Members>(v_).emplace_back(std::move(key), std::move(v));
  }

 private:
  using Items = std::vector<JsonValue>;
  using Members = std::vector<std::pair<std::string, JsonValue>>;

  void require(Kind k) const;

  /// One alternative at a time, indexed as Kind.
  std::variant<std::monostate, bool, i64, double, std::string, Items, Members> v_;
  bool above_i64_ = false;  ///< an Int above INT64_MAX; v_ holds its u64 bits
};

struct JsonLimits {
  std::size_t max_bytes = std::size_t(1) << 20;  ///< 1 MB per line
  std::size_t max_depth = 32;
  std::size_t max_string = std::size_t(1) << 20;
  std::size_t max_members = 4096;  ///< per object/array
};

/// Parses exactly one JSON value spanning the whole input (trailing
/// whitespace allowed, trailing data rejected). Throws Error with a
/// byte offset on malformed input; enforces `limits` so hostile input
/// cannot blow the stack (depth) or memory (size caps).
JsonValue json_parse(const std::string& text, const JsonLimits& limits = {});

/// Compact single-line rendering (the response wire format). Strings
/// are escaped; doubles use shortest round-trip formatting.
std::string json_write(const JsonValue& v);

}  // namespace rapwam
