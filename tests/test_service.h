// A Service for the suites whose every request is bounded in time.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>

#include "server/protocol.h"
#include "server/service.h"

namespace rapwam {

/// A bound no healthy request of the suites comes near, even under a
/// sanitizer; a sweep that waits for a task that never starts never
/// meets it (SweepFromWorker's kSweepBound is the same).
inline constexpr std::chrono::seconds kRequestBound{60};

/// Owns a Service and sends it each request through
/// Service::handle_line on a thread of its own. A request with no
/// answer within kRequestBound fails its test, naming the request,
/// instead of hanging the suite until ctest's timeout, and every later
/// request fails at once. The service is then leaked: destroying it
/// would join the worker that is stuck.
class BoundedService {
 public:
  explicit BoundedService(const ServiceConfig& cfg)
      : svc_(std::make_unique<Service>(cfg)) {}
  ~BoundedService() {
    if (stuck_) (void)svc_.release();
  }
  BoundedService(const BoundedService&) = delete;
  BoundedService& operator=(const BoundedService&) = delete;

  /// The response line, or "" after a test failure.
  std::string handle_line(const std::string& line) {
    if (stuck_) {
      ADD_FAILURE() << "not sent, an earlier request is stuck: " << line;
      return "";
    }
    auto call = std::make_shared<std::packaged_task<std::string()>>(
        [svc = svc_.get(), line] { return svc->handle_line(line); });
    std::future<std::string> answer = call->get_future();
    std::thread([call] { (*call)(); }).detach();
    if (answer.wait_for(kRequestBound) != std::future_status::ready) {
      stuck_ = true;
      ADD_FAILURE() << "no answer within " << kRequestBound.count() << " s to " << line;
      return "";
    }
    return answer.get();
  }
  Response ask(const std::string& line) { return Response::parse(handle_line(line)); }
  ServiceCounters counters() const { return svc_->counters(); }

 private:
  std::unique_ptr<Service> svc_;
  std::atomic<bool> stuck_{false};
};

}  // namespace rapwam
