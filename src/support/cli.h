// Minimal command-line flag parser for the examples and bench binaries.
// Supports `--name value`, `--name=value` and `--flag` (boolean).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "support/common.h"

namespace rapwam {

/// Parses `text` as a whole decimal integer (optional leading '-', no
/// spaces or trailing characters); throws Error naming `what` otherwise.
i64 parse_int(const std::string& text, const std::string& what);
/// As parse_int, but the value must also fit a u32: negative values
/// are rejected instead of wrapping in an unsigned cast.
u32 parse_u32(const std::string& text, const std::string& what);

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& dflt) const;
  /// The flag's value as an integer (parse_int), or `dflt` when absent.
  i64 get_int(const std::string& name, i64 dflt) const;
  /// The flag's value as a u32 (parse_u32), or `dflt` when absent.
  u32 get_u32(const std::string& name, u32 dflt) const;

  /// Non-flag positional arguments in order.
  const std::vector<std::string>& positional() const { return pos_; }

 private:
  std::unordered_map<std::string, std::string> flags_;
  std::vector<std::string> pos_;
};

}  // namespace rapwam
