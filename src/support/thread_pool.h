// Fixed-size thread pool used to parallelise independent cache
// simulations across host cores (the Fig. 4 sweep runs hundreds of
// trace replays). Tasks are plain std::function jobs; submit() returns
// a future. Follows CP.4 (think in tasks) and uses RAII joining.
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace rapwam {

/// Most workers one pool starts. A request for more is an Error before
/// any thread starts: `sweep --threads`, `serve --workers` and
/// `bench_fig4 --threads` pass their value straight through.
inline constexpr unsigned kMaxPoolThreads = 256;

class ThreadPool {
 public:
  /// Spawns `n` workers; n==0 means hardware_concurrency (min 1).
  /// Throws Error if n is above kMaxPoolThreads.
  explicit ThreadPool(unsigned n = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  template <typename F>
  auto submit(F&& f) -> std::future<decltype(f())> {
    using R = decltype(f());
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::scoped_lock lk(mu_);
      jobs_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace rapwam
