#include "support/cli.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>
#include <limits>

namespace rapwam {

i64 parse_int(const std::string& text, const std::string& what) {
  i64 v = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end)
    fail(what + ": expected a whole decimal integer, got '" + text + "'");
  return v;
}

u32 parse_u32(const std::string& text, const std::string& what) {
  i64 v = parse_int(text, what);
  if (v < 0 || v > std::numeric_limits<u32>::max())
    fail(what + ": " + text + " is out of range (0.." +
         std::to_string(std::numeric_limits<u32>::max()) + ")");
  return static_cast<u32>(v);
}

std::string flag_usage(const std::vector<Flag>& flags) {
  std::string out;
  for (const Flag& f : flags)
    out += " [--" + f.name + (f.takes_value() ? std::string(" ") + f.value : "") + "]";
  return out;
}

Cli::Cli(int argc, const char* const* argv, const std::vector<Flag>& flags)
    : known_(flags) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      pos_.push_back(a);
      continue;
    }
    a = a.substr(2);
    auto eq = a.find('=');
    std::string name = a.substr(0, eq);
    auto spec = std::find_if(flags.begin(), flags.end(),
                             [&](const Flag& f) { return f.name == name; });
    const bool known = spec != flags.end(), boolean = known && !spec->takes_value();
    std::string problem;
    if (eq != std::string::npos) {
      if (boolean) problem = "--" + name + " takes no value";
      flags_[name] = a.substr(eq + 1);
    } else if (!boolean && i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[name] = argv[++i];
    } else {
      if (known && !boolean) problem = "--" + name + " needs a value";
      flags_[name] = "";
    }
    if (value_error_.empty()) value_error_ = problem;
    names_.push_back(std::move(name));
  }
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string Cli::get(const std::string& name, const std::string& dflt) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? dflt : it->second;
}

i64 Cli::get_int(const std::string& name, i64 dflt) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? dflt : parse_int(it->second, "--" + name);
}

u32 Cli::get_u32(const std::string& name, u32 dflt) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? dflt : parse_u32(it->second, "--" + name);
}

std::string Cli::unknown_flag(const std::vector<Flag>& known) const {
  for (const std::string& name : names_)
    if (std::none_of(known.begin(), known.end(),
                     [&](const Flag& f) { return f.name == name; }))
      return name;
  return "";
}

std::string Cli::usage_error() const {
  std::string unknown = unknown_flag(known_);
  return unknown.empty() ? value_error_ : "unknown flag --" + unknown;
}

int cli_main(int argc, const char* const* argv, const std::vector<Flag>& known,
             const std::function<int(const Cli&)>& body) {
  Cli cli(argc, argv, known);
  std::string usage = cli.usage_error();
  if (!usage.empty()) {
    std::fprintf(stderr, "error: %s\n", usage.c_str());
    return 2;
  }
  try {
    return body(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace rapwam
