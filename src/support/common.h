// Basic shared definitions for the rapwam library.
//
// Everything in this project lives in namespace `rapwam`. This header
// provides the error type used across modules and a couple of small
// assertion helpers that stay active in release builds (the simulator's
// correctness depends on internal invariants, and benches run Release).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace rapwam {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Range of a Prolog integer: the 56-bit signed payload of an Int cell
/// (engine/cell.h). The lexer rejects literals above kIntMax, and
/// arithmetic rejects results outside [kIntMin, kIntMax].
inline constexpr i64 kIntMin = -(i64(1) << 55);
inline constexpr i64 kIntMax = (i64(1) << 55) - 1;

/// Error thrown for user-visible failures: syntax errors, compile
/// errors, engine resource exhaustion, bad CLI arguments.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

[[noreturn]] inline void fail(const std::string& msg) { throw Error(msg); }

/// Thrown when a query trips a configured resource budget (heap / local
/// stack / control stack / trail / instruction budget) or an engine
/// fault injection simulating one. `resource()` names the budget that
/// tripped (e.g. "heap", "steps") so callers can map it to a structured
/// wire error instead of string-matching what().
class ResourceExhaustedError : public Error {
 public:
  ResourceExhaustedError(std::string resource, const std::string& what)
      : Error(what), resource_(std::move(resource)) {}
  const std::string& resource() const { return resource_; }

 private:
  std::string resource_;
};

/// Release-mode-checked invariant. Used for internal consistency checks
/// whose violation would silently corrupt simulation results.
#define RW_CHECK(cond, msg)                                              \
  do {                                                                   \
    if (!(cond)) ::rapwam::fail(std::string("internal error: ") + (msg)); \
  } while (0)

/// Debug-only invariant for hot paths where the condition is already
/// structurally guaranteed by checks upstream (compiled out in
/// Release; Debug/sanitizer builds fail loudly if a future change
/// bypasses those checks).
#ifndef NDEBUG
#define RW_DCHECK(cond, msg) RW_CHECK(cond, msg)
#else
#define RW_DCHECK(cond, msg) \
  do {                       \
  } while (0)
#endif

}  // namespace rapwam
