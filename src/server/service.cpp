#include "server/service.h"

#include <algorithm>

#include "cache/sweep.h"
#include "harness/golden.h"
#include "timing/replay_job.h"

namespace rapwam {

namespace {

JsonValue traffic_json(const TrafficStats& s) {
  JsonValue out = JsonValue::object();
  for (const auto& [name, value] : traffic_fields(s))
    out.set(name, JsonValue::unsigned_int(value));
  out.set("traffic_ratio", JsonValue::real(s.traffic_ratio()));
  out.set("miss_ratio", JsonValue::real(s.miss_ratio()));
  return out;
}

JsonValue timing_json(const TimingStats& t) {
  JsonValue out = JsonValue::object();
  for (const auto& [name, value] : timing_fields(t))
    out.set(name, JsonValue::unsigned_int(value));
  out.set("speedup", JsonValue::real(t.speedup()));
  out.set("efficiency", JsonValue::real(t.efficiency()));
  out.set("bus_utilization", JsonValue::real(t.bus_utilization()));
  return out;
}

}  // namespace

Service::Service(const ServiceConfig& cfg)
    : cfg_(cfg), pool_(std::max(1u, cfg.workers)) {}

Service::~Service() {
  begin_drain();
  wait_idle();
}

void Service::begin_drain() { draining_.store(true, std::memory_order_relaxed); }

void Service::wait_idle() {
  std::unique_lock lk(mu_);
  idle_cv_.wait(lk, [this] { return in_flight_.load() == 0; });
}

ServiceCounters Service::counters() const {
  std::scoped_lock lk(mu_);
  return counters_;
}

std::string Service::handle_line(const std::string& line, bool* saw_shutdown) {
  {
    std::scoped_lock lk(mu_);
    ++counters_.received;
  }
  Request req;
  try {
    req = parse_request(line);
    if (req.fault && !cfg_.enable_faults)
      fail("fault injection is disabled (start the server with "
           "--enable-faults)");
  } catch (const Error& e) {
    std::scoped_lock lk(mu_);
    ++counters_.rejected;
    return error_response(JsonValue(), ErrCode::BadRequest, e.what());
  } catch (const std::exception& e) {
    std::scoped_lock lk(mu_);
    ++counters_.rejected;
    return error_response(JsonValue(), ErrCode::Internal, e.what());
  }

  // Control-plane ops answer inline: they must work even when every
  // worker is busy (stats during overload) or the server is draining
  // (a second shutdown is a polite no-op).
  if (req.op == ReqOp::Ping) {
    JsonValue r = JsonValue::object();
    r.set("pong", JsonValue::boolean(true));
    return ok_response(req.id, std::move(r));
  }
  if (req.op == ReqOp::Stats) return ok_response(req.id, run_stats());
  if (req.op == ReqOp::Shutdown) {
    if (saw_shutdown) *saw_shutdown = true;
    begin_drain();
    JsonValue r = JsonValue::object();
    r.set("draining", JsonValue::boolean(true));
    return ok_response(req.id, std::move(r));
  }

  if (draining()) {
    std::scoped_lock lk(mu_);
    ++counters_.rejected;
    return error_response(req.id, ErrCode::ShuttingDown,
                          "server is draining; not accepting new work");
  }

  // Admission: shed rather than queue without bound. in_flight_ counts
  // admitted requests (queued + running); the cap is workers +
  // queue_limit.
  i64 limit = static_cast<i64>(cfg_.workers) + static_cast<i64>(cfg_.queue_limit);
  i64 backlog = in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (backlog > limit) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    // Sized to the backlog: the deeper the queue, the longer a retry
    // should wait. The backoff client treats this as a floor.
    i64 retry_ms = std::clamp<i64>(10 * (backlog - limit), 10, 1000);
    std::scoped_lock lk(mu_);
    ++counters_.shed;
    return error_response(req.id, ErrCode::Overloaded,
                          "admission queue full (" + std::to_string(backlog - 1) +
                              " in flight)",
                          retry_ms);
  }

  std::string response;
  try {
    response = pool_.submit([this, req] { return execute(req); }).get();
  } catch (const std::exception& e) {
    // execute() never throws; this is belt-and-braces for the future
    // machinery itself.
    response = error_response(req.id, ErrCode::Internal, e.what());
  }
  if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::scoped_lock lk(mu_);
    idle_cv_.notify_all();
  }
  return response;
}

std::string Service::execute(const Request& req) {
  // Deadline clock starts at admission; time spent queued behind other
  // requests counts against the budget (the client is waiting either
  // way). 0 = the server's default, which may itself be "none".
  u32 deadline = req.deadline_ms ? req.deadline_ms : cfg_.default_deadline_ms;
  CancelToken cancel = deadline
                           ? CancelToken::with_deadline(std::chrono::milliseconds(deadline))
                           : CancelToken();
  std::unique_ptr<FaultInjector> faults;
  if (req.fault) faults = std::make_unique<FaultInjector>(*req.fault);

  auto account = [&](bool ok, bool was_cancelled) {
    std::scoped_lock lk(mu_);
    if (ok) ++counters_.completed;
    else ++counters_.failed;
    if (was_cancelled) ++counters_.cancelled;
    if (faults) counters_.faults_injected += faults->fired();
  };

  try {
    cancel.checkpoint();  // expired while queued: bounce before any work
    JsonValue result;
    switch (req.op) {
      case ReqOp::Replay:
      case ReqOp::Time: result = run_replay(req, cancel, faults.get()); break;
      case ReqOp::Sweep: result = run_sweep_op(req, cancel, faults.get()); break;
      case ReqOp::Golden: result = run_golden(req, cancel); break;
      default: fail("op not executable on a worker");  // handled inline
    }
    account(true, false);
    return ok_response(req.id, std::move(result));
  } catch (const CancelledError& e) {
    account(false, true);
    return error_response(req.id,
                          e.deadline_exceeded() ? ErrCode::DeadlineExceeded
                                                : ErrCode::Cancelled,
                          e.what());
  } catch (const std::bad_alloc&) {
    account(false, false);
    return error_response(req.id, ErrCode::ResourceExhausted,
                          "allocation failure executing request");
  } catch (const ResourceExhaustedError& e) {
    // Engine budget trips (heap/stack/trail/step caps) map to the same
    // wire code as allocation failure: the request asked for more than
    // the server will spend, and retrying as-is won't help.
    account(false, false);
    return error_response(req.id, ErrCode::ResourceExhausted, e.what());
  } catch (const Error& e) {
    account(false, false);
    return error_response(req.id, ErrCode::Failed, e.what());
  } catch (const std::exception& e) {
    account(false, false);
    return error_response(req.id, ErrCode::Internal, e.what());
  } catch (...) {
    account(false, false);
    return error_response(req.id, ErrCode::Internal, "unknown exception");
  }
}

JsonValue Service::run_replay(const Request& req, const CancelToken& cancel,
                              FaultInjector* faults) {
  const bool timed = req.op == ReqOp::Time;
  if (faults) faults->on_alloc();  // alloc site 1: trace acquisition
  // The request's engine-side fault slice (gen_*) rides into a bench
  // trace's generation, so slow or failing generations are provokable.
  auto [trace, pes] = resolve_source(
      req, &cancel, req.fault ? req.fault->engine_faults() : EngineFaults{});
  if (faults) faults->on_alloc();  // alloc site 2: simulator arena
  ReplayJob job(*trace, req.cfg, pes, timed ? &req.timing : nullptr);
  job.run({.cancel = &cancel, .faults = faults});
  if (faults) faults->on_alloc();  // alloc site 3: result assembly
  JsonValue out;
  if (timed) {
    out = timing_json(job.timing());
    out.set("traffic", traffic_json(job.traffic()));
  } else {
    out = traffic_json(job.traffic());
  }
  out.set("pes", JsonValue::integer(pes));
  return out;
}

JsonValue Service::run_sweep_op(const Request& req, const CancelToken& cancel,
                                FaultInjector* faults) {
  if (faults) faults->on_alloc();
  auto [trace, pes] = resolve_source(
      req, &cancel, req.fault ? req.fault->engine_faults() : EngineFaults{});
  if (faults) faults->on_alloc();
  // The points fan out over the pool's idle workers; the request still
  // holds one admission slot. The fault hook fires once per point.
  std::vector<SweepResult> results =
      run_sweep(pool_, sweep_points(req, trace.get(), pes), &cancel, faults);

  JsonValue arr = JsonValue::array();
  for (const SweepResult& r : results) {
    JsonValue row = JsonValue::object();
    row.set("protocol", JsonValue::string(protocol_name(r.point.cfg.protocol)));
    row.set("size", JsonValue::integer(r.point.cfg.size_words));
    row.set("traffic_ratio", JsonValue::real(r.stats.traffic_ratio()));
    row.set("miss_ratio", JsonValue::real(r.stats.miss_ratio()));
    row.set("bus_words", JsonValue::unsigned_int(r.stats.bus_words));
    arr.push_back(std::move(row));
  }
  JsonValue out = JsonValue::object();
  out.set("pes", JsonValue::integer(pes));
  out.set("points", std::move(arr));
  return out;
}

JsonValue Service::run_golden(const Request& req, const CancelToken& cancel) {
  cancel.checkpoint();
  std::vector<GoldenEntry> live = golden_compute(req.bench);
  cancel.checkpoint();
  std::vector<GoldenEntry> golden =
      golden_from_json(read_text_file(golden_dir() + "/" + req.bench + ".json"));
  std::vector<std::string> diff = golden_diff(golden, live);
  JsonValue out = JsonValue::object();
  out.set("bench", JsonValue::string(req.bench));
  out.set("entries", JsonValue::integer(static_cast<i64>(live.size())));
  out.set("clean", JsonValue::boolean(diff.empty()));
  JsonValue lines = JsonValue::array();
  for (const std::string& d : diff) lines.push_back(JsonValue::string(d));
  out.set("mismatches", std::move(lines));
  return out;
}

JsonValue Service::run_stats() {
  ServiceCounters c = counters();
  JsonValue out = JsonValue::object();
  out.set("received", JsonValue::unsigned_int(c.received));
  out.set("completed", JsonValue::unsigned_int(c.completed));
  out.set("failed", JsonValue::unsigned_int(c.failed));
  out.set("shed", JsonValue::unsigned_int(c.shed));
  out.set("rejected", JsonValue::unsigned_int(c.rejected));
  out.set("cancelled", JsonValue::unsigned_int(c.cancelled));
  out.set("faults_injected", JsonValue::unsigned_int(c.faults_injected));
  // Always 0: the server no longer checkpoints, but pipebench's serve
  // workload still reads these three members.
  for (const char* gone : {"checkpoints_written", "resumes", "resume_chunks_skipped"})
    out.set(gone, JsonValue::unsigned_int(0));
  out.set("in_flight", JsonValue::integer(in_flight_.load()));
  out.set("workers", JsonValue::integer(cfg_.workers));
  out.set("queue_limit", JsonValue::integer(static_cast<i64>(cfg_.queue_limit)));
  out.set("draining", JsonValue::boolean(draining()));
  out.set("trace_library_entries",
          JsonValue::integer(static_cast<i64>(TraceLibrary::instance().size())));
  out.set("trace_chunk_pool_bytes",
          JsonValue::integer(static_cast<i64>(chunk_pool_bytes())));
  out.set("trace_library_failed_generations",
          JsonValue::unsigned_int(TraceLibrary::instance().failed_generations()));
  out.set("trace_library_cancelled_generations",
          JsonValue::unsigned_int(
              TraceLibrary::instance().cancelled_generations()));
  return out;
}

}  // namespace rapwam
