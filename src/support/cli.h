// Minimal command-line flag parser for the examples, bench binaries
// and rapwam_trace. Supports `--name value`, `--name=value` and
// `--flag` (boolean). Each binary names the flags it accepts and which
// of them are boolean; any other flag is an error: a misspelt flag
// silently running the default is worse than refusing it.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/common.h"

namespace rapwam {

/// Parses `text` as a whole decimal integer (optional leading '-', no
/// spaces or trailing characters); throws Error naming `what` otherwise.
i64 parse_int(const std::string& text, const std::string& what);
/// As parse_int, but the value must also fit a u32: negative values
/// are rejected instead of wrapping in an unsigned cast.
u32 parse_u32(const std::string& text, const std::string& what);

/// One flag a binary accepts. A boolean flag is present or absent and
/// never takes a value; any other flag takes the next argument.
struct Flag {
  Flag(std::string name, const char* value = "VALUE")
      : name(std::move(name)), value(value) {}
  Flag(const char* name) : Flag(std::string(name)) {}
  static Flag boolean(std::string name) { return Flag(std::move(name), nullptr); }

  bool takes_value() const { return value != nullptr; }

  std::string name;
  const char* value;  ///< the value's name in usage lines; null when boolean
};

/// " [--name VALUE] [--flag] ..." for a usage line.
std::string flag_usage(const std::vector<Flag>& flags);

class Cli {
 public:
  /// Parses argv against `flags`, the flags the binary accepts. A flag
  /// outside the list takes the next argument unless that starts with
  /// "--"; usage_error() reports it.
  Cli(int argc, const char* const* argv, const std::vector<Flag>& flags = {});

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& dflt) const;
  /// The flag's value as an integer (parse_int), or `dflt` when absent.
  i64 get_int(const std::string& name, i64 dflt) const;
  /// The flag's value as a u32 (parse_u32), or `dflt` when absent.
  u32 get_u32(const std::string& name, u32 dflt) const;

  /// Non-flag positional arguments in order.
  const std::vector<std::string>& positional() const { return pos_; }

  /// The first flag on the command line that is not in `known`, or ""
  /// when every flag given is known.
  std::string unknown_flag(const std::vector<Flag>& known) const;

  /// The first misuse of the flags given to the constructor, as an
  /// error message: "unknown flag --NAME", "--NAME needs a value" or
  /// "--NAME takes no value". "" when there is none.
  std::string usage_error() const;

 private:
  std::vector<Flag> known_;
  std::unordered_map<std::string, std::string> flags_;
  std::vector<std::string> names_;  ///< flag names in command-line order
  std::vector<std::string> pos_;
  std::string value_error_;  ///< the first value flag/boolean misuse
};

/// Runs a binary's main body over its command line parsed against
/// `known`. A usage_error() prints "error: <it>" and returns 2 before
/// `body` runs; an exception from `body` prints "error: <what>" and
/// returns 1. Otherwise returns what `body` returns.
int cli_main(int argc, const char* const* argv, const std::vector<Flag>& known,
             const std::function<int(const Cli&)>& body);

}  // namespace rapwam
