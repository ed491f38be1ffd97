#include "server/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace rapwam {

Response request_once(const Endpoint& ep, const std::string& line,
                      int timeout_ms) {
  Socket s = Socket::connect(ep, timeout_ms);
  s.send_all(line + "\n");
  s.shutdown_write();  // one-shot: tell the server no more requests follow
  std::string resp_line;
  if (!s.recv_line(resp_line, JsonLimits{}.max_bytes, timeout_ms))
    fail("server closed the connection without a response");
  return Response::parse(resp_line);
}

ClientOutcome request_with_retry(const Endpoint& ep, const std::string& line,
                                 const ClientOptions& opt) {
  ClientOutcome out;
  u64 lcg = opt.jitter_seed ? opt.jitter_seed : 1;
  std::string last_transport_error;
  bool have_response = false;

  int attempts = std::max(1, opt.attempts);
  i64 backoff = std::max(opt.backoff_ms, 0);
  for (int k = 0; k < attempts; ++k) {
    if (k > 0) {
      i64 delay = std::max<i64>(std::min<i64>(backoff, opt.max_backoff_ms), 1);
      // Doubling stops at the cap, so no attempt count overflows it.
      if (backoff < opt.max_backoff_ms) backoff *= 2;
      // Overloaded servers size their hint to the backlog; treat it as
      // a floor so a polite client never hammers a shedding server.
      if (have_response && out.response.retry_after_ms > 0)
        delay = std::max<i64>(delay, out.response.retry_after_ms);
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      delay += static_cast<i64>(lcg >> 33) % (delay / 2 + 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    ++out.attempts;
    try {
      out.response = request_once(ep, line, opt.timeout_ms);
      have_response = true;
    } catch (const Error& e) {
      last_transport_error = e.what();
      have_response = false;
      continue;  // connect refused / timeout / torn response: retry
    }
    if (out.response.ok || out.response.code != "overloaded") return out;
    // overloaded: fall through into the next backoff round
  }

  if (!have_response)
    fail("request failed after " + std::to_string(out.attempts) +
         " attempts: " + last_transport_error);
  return out;  // still overloaded after every retry: caller's problem
}

}  // namespace rapwam
