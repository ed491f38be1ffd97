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
#include <vector>

#include "support/common.h"

namespace rapwam {

class JsonValue {
  friend class JsonParser;

 public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  JsonValue() : kind_(Kind::Null) {}
  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool b) { JsonValue v; v.kind_ = Kind::Bool; v.b_ = b; return v; }
  static JsonValue integer(i64 i) { JsonValue v; v.kind_ = Kind::Int; v.i_ = i; return v; }
  /// Stats counters are u64; the simulators' counts stay far below
  /// 2^63, which RW_CHECK enforces rather than silently wrapping.
  static JsonValue unsigned_int(u64 u);
  static JsonValue real(double d) { JsonValue v; v.kind_ = Kind::Double; v.d_ = d; return v; }
  static JsonValue string(std::string s) { JsonValue v; v.kind_ = Kind::String; v.s_ = std::move(s); return v; }
  static JsonValue array() { JsonValue v; v.kind_ = Kind::Array; return v; }
  static JsonValue object() { JsonValue v; v.kind_ = Kind::Object; return v; }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_int() const { return kind_ == Kind::Int; }
  bool is_number() const { return kind_ == Kind::Int || kind_ == Kind::Double; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  bool as_bool() const { require(Kind::Bool); return b_; }
  i64 as_int() const;      ///< Int within i64, or a Double holding an exact integer
  /// A non-negative Int. The parser keeps integer literals up to
  /// 2^64-1 exact (the golden corpus stores u64 counters), so this
  /// reaches past as_int's range.
  bool is_uint() const { return kind_ == Kind::Int && (above_i64_ || i_ >= 0); }
  u64 as_uint() const;
  double as_double() const;
  const std::string& as_string() const { require(Kind::String); return s_; }
  const std::vector<JsonValue>& items() const { require(Kind::Array); return arr_; }
  /// Insertion-ordered key/value pairs (duplicates rejected at parse).
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    require(Kind::Object);
    return obj_;
  }

  /// Object member by key, or nullptr.
  const JsonValue* find(const std::string& key) const;

  // -- builders (used for responses)
  void push_back(JsonValue v) { require(Kind::Array); arr_.push_back(std::move(v)); }
  void set(std::string key, JsonValue v) {
    require(Kind::Object);
    obj_.emplace_back(std::move(key), std::move(v));
  }

 private:
  void require(Kind k) const;

  Kind kind_;
  bool b_ = false;
  i64 i_ = 0;
  bool above_i64_ = false;  ///< an Int above INT64_MAX; i_ holds its u64 bits
  double d_ = 0.0;
  std::string s_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
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
