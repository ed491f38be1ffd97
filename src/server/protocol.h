// Request/response protocol of the resident sweep service
// (docs/DESIGN.md §10).
//
// Wire format: one JSON object per line in both directions.
//
//   {"op":"replay","bench":"qsort","pes":4,"protocol":"broadcast",
//    "size":1024,"deadline_ms":2000,"id":7}
//   -> {"id":7,"ok":true,"result":{"refs":6612,"bus_words":...}}
//   -> {"id":7,"ok":false,
//       "error":{"code":"overloaded","message":"..."},"retry_after_ms":25}
//
// parse_request() validates EVERYTHING — JSON shape, op, member
// applicability, types, ranges — before any server state is touched;
// a hostile line can only ever produce a structured bad_request
// error. Experiment members are read through the field table of
// harness/experiment.h, as rapwam_trace reads its flags. The fuzz suite (tests/test_server_protocol.cpp) pins that
// the parser either yields a valid Request or throws Error, on any
// input.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "server/faults.h"
#include "server/json.h"

namespace rapwam {

/// Machine-readable failure taxonomy; the retrying client keys its
/// behaviour off these (retry overloaded, give up on bad_request).
enum class ErrCode {
  BadRequest,         ///< malformed/invalid request; never retried
  Failed,             ///< domain failure: corrupt trace, unknown bench
  ResourceExhausted,  ///< allocation failure executing the request
  DeadlineExceeded,   ///< per-request deadline fired
  Cancelled,          ///< request cancelled (drain of in-flight work)
  Overloaded,         ///< admission queue full; carries retry_after_ms
  ShuttingDown,       ///< server draining; no new work accepted
  Internal,           ///< unexpected exception (a bug — but not a crash)
};

std::string err_code_name(ErrCode c);

/// A fully validated request: an op, its envelope members and, for
/// replay/time/sweep/golden, the experiment it runs (harness/experiment.h).
struct Request : Experiment {
  ReqOp op = ReqOp::Ping;
  JsonValue id;  ///< echoed verbatim in the response; Null if absent
  u32 deadline_ms = 0;  ///< 0 = server default
  std::optional<FaultPlan> fault;
};

/// The longest per-request deadline a client may ask for.
inline constexpr i64 kMaxDeadlineMs = 3'600'000;

/// Parses and validates one request line. Throws Error (the message
/// becomes the bad_request response) on anything out of shape; never
/// mutates any state.
Request parse_request(const std::string& line);

// -- response building (always single-line, newline appended by the
//    connection writer, not here)

std::string ok_response(const JsonValue& id, JsonValue result);
std::string error_response(const JsonValue& id, ErrCode code,
                           const std::string& message, i64 retry_after_ms = -1);

/// Parsed response, as the client sees it.
struct Response {
  JsonValue id;
  bool ok = false;
  JsonValue result;     ///< when ok
  std::string code;     ///< when !ok
  std::string message;  ///< when !ok
  i64 retry_after_ms = -1;

  static Response parse(const std::string& line);
};

}  // namespace rapwam
