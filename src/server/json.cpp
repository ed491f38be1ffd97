#include "server/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace rapwam {

JsonValue JsonValue::unsigned_int(u64 u) {
  RW_CHECK(u <= u64(INT64_MAX), "counter too large for JSON integer");
  return integer(static_cast<i64>(u));
}

void JsonValue::require(Kind k) const {
  if (kind() != k) fail("json: value has wrong type");
}

i64 JsonValue::as_int() const {
  if (is_int()) {
    if (above_i64_) fail("json: integer out of range");
    return std::get<i64>(v_);
  }
  if (kind() == Kind::Double) {
    double d = std::get<double>(v_);
    if (std::nearbyint(d) != d || d < -9.2e18 || d > 9.2e18)
      fail("json: number is not an integer");
    return static_cast<i64>(d);
  }
  fail("json: value is not a number");
}

u64 JsonValue::as_uint() const {
  if (!is_uint()) fail("json: value is not a non-negative integer");
  return static_cast<u64>(std::get<i64>(v_));
}

double JsonValue::as_double() const {
  if (is_int())
    return above_i64_ ? static_cast<double>(as_uint())
                      : static_cast<double>(std::get<i64>(v_));
  if (kind() == Kind::Double) return std::get<double>(v_);
  fail("json: value is not a number");
}

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [k, v] : members())
    if (k == key) return &v;
  return nullptr;
}

class JsonParser {
 public:
  JsonParser(const std::string& text, const JsonLimits& lim) : s_(text), lim_(lim) {}

  JsonValue run() {
    if (s_.size() > lim_.max_bytes)
      fail("json: input exceeds " + std::to_string(lim_.max_bytes) + " bytes");
    JsonValue v = value(0);
    skip_ws();
    if (i_ != s_.size()) err("trailing data after value");
    return v;
  }

 private:
  [[noreturn]] void err(const std::string& what) const {
    fail("json: " + what + " at offset " + std::to_string(i_));
  }

  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r'))
      ++i_;
  }

  char peek() {
    skip_ws();
    if (i_ >= s_.size()) err("unexpected end of input");
    return s_[i_];
  }

  void expect(char c) {
    if (peek() != c) err(std::string("expected '") + c + "'");
    ++i_;
  }

  bool literal(const char* word) {
    std::size_t n = std::strlen(word);
    if (s_.compare(i_, n, word) == 0) {
      i_ += n;
      return true;
    }
    return false;
  }

  JsonValue value(std::size_t depth) {
    // `depth` counts enclosing containers: a doc nested max_depth deep
    // has its innermost value at depth max_depth - 1.
    if (depth >= lim_.max_depth) err("nesting too deep");
    switch (peek()) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return JsonValue::string(string_tok());
      case 't': if (literal("true")) return JsonValue::boolean(true); err("bad literal");
      case 'f': if (literal("false")) return JsonValue::boolean(false); err("bad literal");
      case 'n': if (literal("null")) return JsonValue::null(); err("bad literal");
      default:  return number();
    }
  }

  JsonValue object(std::size_t depth) {
    expect('{');
    JsonValue v = JsonValue::object();
    if (peek() == '}') { ++i_; return v; }
    for (;;) {
      if (v.members().size() >= lim_.max_members) err("object too large");
      std::string key = string_tok();
      // Duplicate keys are a classic parser-differential vector (one
      // layer sees the first value, another the last); reject outright.
      if (v.find(key)) err("duplicate object key \"" + key + "\"");
      expect(':');
      v.set(std::move(key), value(depth + 1));
      char c = peek();
      ++i_;
      if (c == '}') return v;
      if (c != ',') err("expected ',' or '}'");
    }
  }

  JsonValue array(std::size_t depth) {
    expect('[');
    JsonValue v = JsonValue::array();
    if (peek() == ']') { ++i_; return v; }
    for (;;) {
      if (v.items().size() >= lim_.max_members) err("array too large");
      v.push_back(value(depth + 1));
      char c = peek();
      ++i_;
      if (c == ']') return v;
      if (c != ',') err("expected ',' or ']'");
    }
  }

  std::string string_tok() {
    expect('"');
    std::string out;
    for (;;) {
      if (i_ >= s_.size()) err("unterminated string");
      if (out.size() > lim_.max_string) err("string too long");
      unsigned char c = static_cast<unsigned char>(s_[i_]);
      if (c == '"') { ++i_; return out; }
      if (c < 0x20) err("raw control character in string");
      if (c != '\\') { out.push_back(static_cast<char>(c)); ++i_; continue; }
      if (++i_ >= s_.size()) err("truncated escape");
      switch (s_[i_++]) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': unicode_escape(out); break;
        default: --i_; err("bad escape");
      }
    }
  }

  u32 hex4() {
    if (i_ + 4 > s_.size()) err("truncated \\u escape");
    u32 v = 0;
    for (int k = 0; k < 4; ++k) {
      char c = s_[i_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= u32(c - '0');
      else if (c >= 'a' && c <= 'f') v |= u32(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= u32(c - 'A' + 10);
      else { --i_; err("bad hex digit in \\u escape"); }
    }
    return v;
  }

  void unicode_escape(std::string& out) {
    u32 cp = hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need the pair
      if (i_ + 2 > s_.size() || s_[i_] != '\\' || s_[i_ + 1] != 'u')
        err("lone high surrogate");
      i_ += 2;
      u32 lo = hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) err("bad low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      err("lone low surrogate");
    }
    // UTF-8 encode.
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  JsonValue number() {
    skip_ws();
    std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    if (i_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[i_])))
      err("expected value");
    // JSON grammar: no leading zeros ("007" is two tokens, i.e. junk).
    if (s_[i_] == '0' && i_ + 1 < s_.size() &&
        std::isdigit(static_cast<unsigned char>(s_[i_ + 1])))
      err("leading zero in number");
    while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_]))) ++i_;
    bool integral = true;
    if (i_ < s_.size() && s_[i_] == '.') {
      integral = false;
      ++i_;
      if (i_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[i_])))
        err("truncated fraction");
      while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_]))) ++i_;
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      integral = false;
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      if (i_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[i_])))
        err("truncated exponent");
      while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_]))) ++i_;
    }
    if (integral) {
      i64 v = 0;
      auto [p, ec] = std::from_chars(s_.data() + start, s_.data() + i_, v);
      if (ec == std::errc() && p == s_.data() + i_) return JsonValue::integer(v);
      // Above INT64_MAX but within u64 (from_chars takes no '-' here):
      // kept exact for as_uint.
      u64 u = 0;
      auto [pu, ecu] = std::from_chars(s_.data() + start, s_.data() + i_, u);
      if (ecu == std::errc() && pu == s_.data() + i_) {
        JsonValue out = JsonValue::integer(static_cast<i64>(u));
        out.above_i64_ = true;
        return out;
      }
      // Out of u64 range: fall through to double (magnitude preserved
      // approximately — the protocol layer range-checks anyway).
    }
    double d = 0.0;
    auto [p, ec] = std::from_chars(s_.data() + start, s_.data() + i_, d);
    if (ec != std::errc() || p != s_.data() + i_ || !std::isfinite(d))
      err("bad number");
    return JsonValue::real(d);
  }

  const std::string& s_;
  const JsonLimits& lim_;
  std::size_t i_ = 0;
};

namespace {

void write_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

void write_value(std::string& out, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::Null: out += "null"; break;
    case JsonValue::Kind::Bool: out += v.as_bool() ? "true" : "false"; break;
    case JsonValue::Kind::Int:
      out += v.is_uint() ? std::to_string(v.as_uint()) : std::to_string(v.as_int());
      break;
    case JsonValue::Kind::Double: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v.as_double());
      out += buf;
      break;
    }
    case JsonValue::Kind::String: write_string(out, v.as_string()); break;
    case JsonValue::Kind::Array: {
      out.push_back('[');
      bool first = true;
      for (const JsonValue& e : v.items()) {
        if (!first) out.push_back(',');
        first = false;
        write_value(out, e);
      }
      out.push_back(']');
      break;
    }
    case JsonValue::Kind::Object: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, e] : v.members()) {
        if (!first) out.push_back(',');
        first = false;
        write_string(out, k);
        out.push_back(':');
        write_value(out, e);
      }
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

JsonValue json_parse(const std::string& text, const JsonLimits& limits) {
  return JsonParser(text, limits).run();
}

std::string json_write(const JsonValue& v) {
  std::string out;
  write_value(out, v);
  return out;
}

}  // namespace rapwam
