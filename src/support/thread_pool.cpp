#include "support/thread_pool.h"

#include <string>

#include "support/common.h"

namespace rapwam {

ThreadPool::ThreadPool(unsigned n) {
  if (n > kMaxPoolThreads)
    fail("thread count " + std::to_string(n) + " is above the cap of " +
         std::to_string(kMaxPoolThreads));
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) workers_.emplace_back([this] { loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stop_ set and queue drained
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    job();
  }
}

}  // namespace rapwam
