// Retrying client for the resident sweep service (docs/DESIGN.md §10)
// — the `rapwam_trace request` subcommand and the CI smoke test.
//
// Retry policy, keyed off the protocol's error taxonomy:
//   * connect failures / timeouts  -> retry (server may still be
//     starting, or briefly unreachable);
//   * `overloaded`                 -> retry, waiting at least the
//     server's retry_after_ms hint;
//   * any other error response     -> returned to the caller as-is
//     (a bad_request will not get better by asking again).
//
// Backoff between attempts is exponential with deterministic jitter
// (an LCG seeded by the caller, so tests replay identical schedules):
//   delay(k) = min(max_backoff, backoff * 2^k) + jitter,
//   jitter in [0, delay/2],
// where the doubling stops once it reaches max_backoff.
#pragma once

#include <string>

#include "server/net.h"
#include "server/protocol.h"

namespace rapwam {

struct ClientOptions {
  int timeout_ms = 5000;      ///< per attempt: connect + full response
  int attempts = 5;           ///< total tries (first + retries)
  int backoff_ms = 25;        ///< initial inter-attempt delay
  int max_backoff_ms = 2000;  ///< exponential growth cap
  u64 jitter_seed = 1;        ///< deterministic jitter stream
};

struct ClientOutcome {
  Response response;  ///< the last response received
  int attempts = 0;   ///< tries actually made
};

/// Sends one request line, retrying per the policy above. Returns the
/// final response (ok, or a non-retryable / still-failing error).
/// Throws Error only when every attempt failed at the *transport*
/// level (could not connect / no well-formed response line).
ClientOutcome request_with_retry(const Endpoint& ep, const std::string& line,
                                 const ClientOptions& opt = {});

/// Single attempt, no retry: connect, send, read one response line.
/// Throws Error on transport failure.
Response request_once(const Endpoint& ep, const std::string& line,
                      int timeout_ms);

}  // namespace rapwam
