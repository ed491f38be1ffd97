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

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      pos_.push_back(a);
      continue;
    }
    a = a.substr(2);
    auto eq = a.find('=');
    std::string name = a.substr(0, eq);
    if (eq != std::string::npos) {
      flags_[name] = a.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[name] = argv[++i];
    } else {
      flags_[name] = "1";
    }
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

std::string Cli::unknown_flag(const std::vector<std::string_view>& known) const {
  for (const std::string& name : names_)
    if (std::find(known.begin(), known.end(), name) == known.end()) return name;
  return "";
}

int cli_main(int argc, const char* const* argv,
             const std::vector<std::string_view>& known,
             const std::function<int(const Cli&)>& body) {
  Cli cli(argc, argv);
  std::string unknown = cli.unknown_flag(known);
  if (!unknown.empty()) {
    std::fprintf(stderr, "error: unknown flag --%s\n", unknown.c_str());
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
