// In-memory span recorder for the benchmark's traced run.
//
// A Span is opened around one call into a layer's public functions. It
// records its name, start and end, the span that caused it (the
// innermost open span on the same thread, or an explicit parent handed
// across a thread boundary) and the request id current on its thread.
// Spans may carry numeric attributes (counts measured at the same
// boundary). Everything stays in memory until the run ends; nothing is
// recorded while tracing is off, which is how every end-to-end run
// executes.
#pragma once

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SpanRec {
  std::string name;
  double start_s = 0, end_s = 0;  ///< relative to the tracer's epoch
  long id = 0, parent = -1;
  long req = -1;
  unsigned tid = 0;
  std::vector<std::pair<std::string, double>> args;

  double dur() const { return end_s - start_s; }
  double arg(const std::string& key, double dflt = 0) const {
    for (const auto& [k, v] : args)
      if (k == key) return v;
    return dflt;
  }
  /// The layer is the name up to its first '.'.
  std::string layer() const { return name.substr(0, name.find('.')); }
};

class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }
  bool on() const { return on_; }
  void enable() { on_ = true; }
  void disable() { on_ = false; }

  double now() const { return std::chrono::duration<double>(Clock::now() - epoch_).count(); }
  long next_id() {
    std::scoped_lock lk(mu_);
    return next_++;
  }
  unsigned thread_index();
  void add(SpanRec r) {
    std::scoped_lock lk(mu_);
    spans_.push_back(std::move(r));
  }
  /// Spans recorded so far, in completion order.
  std::vector<SpanRec> spans() const {
    std::scoped_lock lk(mu_);
    return spans_;
  }
  /// Marks the current end of the record; spans_since() returns what
  /// was recorded afterwards (one workload's spans of a multi-part run).
  std::size_t mark() const {
    std::scoped_lock lk(mu_);
    return spans_.size();
  }
  std::vector<SpanRec> spans_since(std::size_t mark) const {
    std::scoped_lock lk(mu_);
    return {spans_.begin() + static_cast<long>(std::min(mark, spans_.size())),
            spans_.end()};
  }

 private:
  Tracer() : epoch_(Clock::now()) {}
  bool on_ = false;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  long next_ = 1;
  std::map<std::thread::id, unsigned> tids_;
  std::vector<SpanRec> spans_;
};

/// The innermost open span and the request id of the calling thread.
struct ThreadCtx {
  long current = -1;
  long req = -1;
};
inline thread_local ThreadCtx tl_ctx;

/// Sets the calling thread's request id for the spans opened inside it.
class ReqScope {
 public:
  explicit ReqScope(long req) : saved_(tl_ctx.req) { tl_ctx.req = req; }
  ~ReqScope() { tl_ctx.req = saved_; }
  ReqScope(const ReqScope&) = delete;
  ReqScope& operator=(const ReqScope&) = delete;

 private:
  long saved_;
};

class Span {
 public:
  /// `parent` >= 0 overrides the thread's innermost span (a task run
  /// on a pool thread on behalf of a span opened elsewhere).
  explicit Span(const char* name, long parent = -1) {
    Tracer& t = Tracer::get();
    if (!t.on()) return;
    active_ = true;
    rec_.name = name;
    rec_.id = t.next_id();
    rec_.parent = parent >= 0 ? parent : tl_ctx.current;
    rec_.req = tl_ctx.req;
    rec_.tid = t.thread_index();
    saved_current_ = tl_ctx.current;
    tl_ctx.current = rec_.id;
    rec_.start_s = t.now();
  }
  ~Span() {
    if (!active_) return;
    Tracer& t = Tracer::get();
    rec_.end_s = t.now();
    tl_ctx.current = saved_current_;
    t.add(std::move(rec_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const char* key, double v) {
    if (active_) rec_.args.emplace_back(key, v);
  }
  /// This span's id (-1 when tracing is off), for cross-thread parents.
  long id() const { return active_ ? rec_.id : -1; }

 private:
  bool active_ = false;
  long saved_current_ = -1;
  SpanRec rec_;
};

/// Self time per layer: each span's duration minus the part of its
/// interval that its child spans cover (union of the children's
/// intervals, clipped to the parent).
std::map<std::string, double> layer_self_time(const std::vector<SpanRec>& spans);

/// Writes the spans as Chrome trace-event JSON (viewable in Perfetto).
void write_chrome_trace(const std::vector<SpanRec>& spans, const std::string& path);

}  // namespace pb
