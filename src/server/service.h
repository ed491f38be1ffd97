// Request execution engine of the resident server (docs/DESIGN.md
// §10): bounded admission onto the shared ThreadPool, per-request
// deadlines, load shedding, graceful degradation and drain.
//
// The Service is transport-agnostic — connection handlers (server.cpp)
// and tests hand it raw request lines and get back raw response lines.
// Everything that can go wrong maps to a structured error response;
// no request, however malformed or unlucky, may throw out of
// handle_line() or leave shared state (the memoized TraceLibrary)
// poisoned.
//
// Admission control: at most `workers` requests execute at once and
// at most `queue_limit` more may be waiting for a worker. Beyond
// that the service sheds load — an immediate `overloaded` response
// carrying retry_after_ms sized to the current backlog — instead of
// letting latency (and memory) grow without bound.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "harness/trace_lib.h"
#include "server/protocol.h"
#include "support/thread_pool.h"

namespace rapwam {

struct ServiceConfig {
  unsigned workers = 4;
  std::size_t queue_limit = 16;    ///< admitted-but-not-running cap
  u32 default_deadline_ms = 0;     ///< 0 = no implicit deadline
  bool enable_faults = false;      ///< honor "fault" members (tests)
};

/// Monotonic counters, readable while the service runs (the `stats`
/// op and the drain log line).
struct ServiceCounters {
  u64 received = 0;       ///< request lines handed to the service
  u64 completed = 0;      ///< executed to an ok response
  u64 failed = 0;         ///< executed to an error response
  u64 shed = 0;           ///< bounced with `overloaded`
  u64 rejected = 0;       ///< bad_request before admission
  u64 cancelled = 0;      ///< deadline/cancel during execution
  u64 faults_injected = 0;
  // Checkpoint/resume (docs/DESIGN.md §12): a replay/time request
  // killed by its deadline checkpoints its progress, and the client's
  // retry resumes from it instead of starting over.
  u64 checkpoints_written = 0;          ///< cancelled requests snapshotted
  u64 resumes = 0;                      ///< requests resumed from a snapshot
  u64 resume_chunks_skipped = 0;        ///< chunks not re-replayed, total
  u64 corrupt_checkpoints_rejected = 0; ///< snapshots discarded as damaged
};

class Service {
 public:
  explicit Service(const ServiceConfig& cfg);
  ~Service();

  /// Full request lifecycle: parse, admit (or shed), execute on the
  /// pool, render. Never throws; always returns one response line
  /// (without trailing newline). Blocks the calling (connection)
  /// thread until the response is ready — concurrency comes from many
  /// connections, boundedness from admission control.
  ///
  /// `saw_shutdown` (optional) is set when the request was a
  /// `shutdown` op, so the transport can begin its drain.
  std::string handle_line(const std::string& line, bool* saw_shutdown = nullptr);

  /// Stops admitting new requests (they get `shutting_down`);
  /// in-flight requests run to completion.
  void begin_drain();
  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  /// Blocks until no admitted request remains in flight.
  void wait_idle();

  ServiceCounters counters() const;
  const ServiceConfig& config() const { return cfg_; }

 private:
  std::string execute(const Request& req);
  /// Executes a `replay` or a `time` request (one ReplayJob, timed
  /// for `time`). A snapshot stored by a cancelled earlier attempt of
  /// the same run is resumed; on cancellation, the job's own snapshot
  /// is stored under its config hash before rethrowing, so the
  /// client's retry resumes instead of starting over.
  JsonValue run_replay(const Request& req, const CancelToken& cancel,
                       FaultInjector* faults);
  JsonValue run_sweep_op(const Request& req, const CancelToken& cancel,
                         FaultInjector* faults);
  JsonValue run_golden(const Request& req, const CancelToken& cancel);
  JsonValue run_stats();

  /// Bounded in-memory store of checkpoints from cancelled requests,
  /// keyed by the run's config hash (same config + trace = same key,
  /// so the retry finds it). Guarded by mu_; oldest entry evicted at
  /// the cap.
  void store_checkpoint(u64 key, std::string frame);
  /// Removes and returns the stored frame for `key`, if any (one
  /// resume attempt per snapshot — a damaged frame must not be
  /// retried forever).
  std::optional<std::string> take_checkpoint(u64 key);

  ServiceConfig cfg_;
  ThreadPool pool_;
  std::atomic<bool> draining_{false};
  std::atomic<i64> in_flight_{0};  ///< admitted (queued or running)
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  ServiceCounters counters_;

  struct SavedCheckpoint {
    std::string frame;
    u64 seq = 0;  ///< insertion order, for oldest-first eviction
  };
  static constexpr std::size_t kMaxSavedCheckpoints = 32;
  std::map<u64, SavedCheckpoint> saved_;  ///< guarded by mu_
  u64 saved_seq_ = 0;                     ///< guarded by mu_
};

}  // namespace rapwam
