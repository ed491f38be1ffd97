// Fault-injection matrix for the resident sweep service
// (docs/DESIGN.md §10): every injected failure — allocation failure,
// mid-replay throw, stalled replay against a deadline, client
// disconnect, overload, drain mid-flight — must leave the server
// answering subsequent requests with stats bit-identical to a local
// computation. An in-process Server runs over a test-unique unix
// socket (ctest runs suites in parallel) and requests go through the
// real client, so the whole wire path is exercised.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "cache/sweep.h"
#include "harness/golden.h"
#include "harness/trace_lib.h"
#include "server/client.h"
#include "server/server.h"

namespace rapwam {
namespace {

std::string test_socket(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("rapwam_sf_" + std::to_string(::getpid()) + "_" + tag + ".sock"))
      .string();
}

/// In-process server with fault injection enabled, torn down (with a
/// full drain) by the destructor.
struct TestServer {
  explicit TestServer(const std::string& tag, unsigned workers = 2,
                      std::size_t queue = 8) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.queue_limit = queue;
    cfg.enable_faults = true;
    server = std::make_unique<Server>(Endpoint::parse("unix:" + test_socket(tag)),
                                      cfg);
    server->start();
  }
  ~TestServer() { server->stop(); }

  const Endpoint& ep() const { return server->endpoint(); }
  Response ask(const std::string& line, int timeout_ms = 30000) {
    return request_once(ep(), line, timeout_ms);
  }

  std::unique_ptr<Server> server;
};

/// The default replay point the requests below use: qsort, small
/// scale, 4 PEs, the paper's broadcast/1024 configuration.
const char* kReplay = R"({"op":"replay","bench":"qsort","pes":4,"id":"chk"})";

/// Asserts a replay response's counters are bit-identical to computing
/// the same point locally — the "server state survived intact" oracle
/// run after every injected fault.
void expect_replay_exact(const Response& r) {
  ASSERT_TRUE(r.ok) << r.code << ": " << r.message;
  std::shared_ptr<const GeneratedTrace> g =
      TraceLibrary::instance().get("qsort", BenchScale::Small, 4);
  TrafficStats want =
      replay_traffic(paper_cache_config(Protocol::WriteInBroadcast, 1024), 4,
                     *g->trace);
  for (const auto& [name, value] : traffic_fields(want)) {
    const JsonValue* got = r.result.find(name);
    ASSERT_NE(got, nullptr) << "missing field " << name;
    EXPECT_EQ(static_cast<u64>(got->as_int()), value) << "field " << name;
  }
}

TEST(ServerFaults, ReplayMatchesLocalComputation) {
  TestServer ts("baseline");
  expect_replay_exact(ts.ask(kReplay));
}

TEST(ServerFaults, AllocationFailuresAreStructuredAndTransient) {
  TestServer ts("alloc");
  // Every allocation checkpoint of the replay path, one at a time.
  for (int site = 1; site <= 3; ++site) {
    Response r = ts.ask(
        R"({"op":"replay","bench":"qsort","pes":4,"fault":{"fail_alloc":)" +
        std::to_string(site) + "}}");
    EXPECT_FALSE(r.ok) << "site " << site;
    EXPECT_EQ(r.code, "resource_exhausted") << "site " << site;
    // The very next request must succeed, bit-identically.
    expect_replay_exact(ts.ask(kReplay));
  }
}

TEST(ServerFaults, MidReplayThrowLeavesServerAnswering) {
  TestServer ts("chunk");
  Response r = ts.ask(
      R"({"op":"replay","bench":"qsort","pes":4,"fault":{"throw_chunk":1}})");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "failed");
  EXPECT_NE(r.message.find("injected chunk fault"), std::string::npos);
  expect_replay_exact(ts.ask(kReplay));

  // Same through the timed engine.
  Response t = ts.ask(
      R"({"op":"time","bench":"qsort","pes":4,"fault":{"throw_chunk":1}})");
  EXPECT_FALSE(t.ok);
  EXPECT_EQ(t.code, "failed");
  expect_replay_exact(ts.ask(kReplay));
}

TEST(ServerFaults, StalledReplayHitsItsDeadline) {
  TestServer ts("stall");
  expect_replay_exact(ts.ask(kReplay));  // prewarm: cached trace, fast path
  Response r = ts.ask(
      R"({"op":"replay","bench":"qsort","pes":4,"deadline_ms":40,"fault":{"stall_ms":400}})");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "deadline_exceeded");
  expect_replay_exact(ts.ask(kReplay));
}

TEST(ServerFaults, SweepWithInjectedFaultRecovers) {
  TestServer ts("sweepfault");
  Response bad = ts.ask(
      R"({"op":"sweep","bench":"qsort","pes":4,"sizes":[256,1024],"fault":{"throw_chunk":3}})");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.code, "failed");
  // The plan fails point index 2, whichever thread of the sweep runs it.
  EXPECT_NE(bad.message.find("injected chunk fault at chunk 2"), std::string::npos)
      << bad.message;
  Response good =
      ts.ask(R"({"op":"sweep","bench":"qsort","pes":4,"sizes":[256,1024]})");
  ASSERT_TRUE(good.ok) << good.message;
  EXPECT_EQ(good.result.find("points")->items().size(), 10u);  // 5 protocols x 2
  expect_replay_exact(ts.ask(kReplay));
}

TEST(ServerFaults, ClientDisconnectMidResponseServerSurvives) {
  TestServer ts("discon");
  {
    Socket s = Socket::connect(ts.ep(), 5000);
    s.send_all(std::string(kReplay) + "\n");
    // Vanish without reading the response; the connection thread's
    // send fails and only that connection dies.
  }
  {
    Socket s = Socket::connect(ts.ep(), 5000);
    s.send_all(std::string(kReplay) + "\n");
    s.close();  // also mid-request-lifecycle, before the result exists
  }
  expect_replay_exact(ts.ask(kReplay));
}

TEST(ServerFaults, MalformedLineKeepsConnectionAndServerAlive) {
  TestServer ts("malformed");
  Socket s = Socket::connect(ts.ep(), 5000);
  s.send_all("this is not json\n");
  std::string line;
  ASSERT_TRUE(s.recv_line(line, 1 << 20, 5000));
  Response bad = Response::parse(line);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.code, "bad_request");
  // Framing stayed intact: the same connection keeps working.
  s.send_all("{\"op\":\"ping\"}\n");
  ASSERT_TRUE(s.recv_line(line, 1 << 20, 5000));
  EXPECT_TRUE(Response::parse(line).ok);
}

TEST(ServerFaults, OversizedLineCannotWedgeTheServer) {
  TestServer ts("oversized");
  {
    Socket s = Socket::connect(ts.ep(), 5000);
    // 1.5 MB with no newline: the server aborts the read at its 1 MB
    // bound and drops the connection; our send may fail once the peer
    // resets — either way nothing hangs.
    std::string huge(std::size_t(3) << 19, 'x');
    try {
      s.send_all(huge);
      s.send_all("\n");
    } catch (const Error&) {
    }
  }
  expect_replay_exact(ts.ask(kReplay));  // unaffected
}

TEST(ServerFaults, OverloadShedsWithRetryAfterAndBackoffClientSucceeds) {
  // One worker, zero queue: a single stalled request saturates the
  // service and everything else must shed immediately.
  TestServer ts("overload", /*workers=*/1, /*queue=*/0);
  expect_replay_exact(ts.ask(kReplay));  // prewarm the trace cache

  Socket hog = Socket::connect(ts.ep(), 5000);
  hog.send_all(
      R"({"op":"replay","bench":"qsort","pes":4,"id":"hog","fault":{"stall_ms":800}})"
      "\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // let it admit

  Response shed = ts.ask(kReplay, 5000);
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.code, "overloaded");
  EXPECT_GT(shed.retry_after_ms, 0);

  // Control-plane ops still answer while the worker is saturated.
  Response stats = ts.ask(R"({"op":"stats"})");
  ASSERT_TRUE(stats.ok);
  EXPECT_GE(stats.result.find("shed")->as_int(), 1);

  // The retrying client outlives the hog and eventually gets through.
  ClientOptions opt;
  opt.attempts = 12;
  opt.backoff_ms = 50;
  opt.timeout_ms = 30000;
  opt.jitter_seed = 7;
  ClientOutcome out = request_with_retry(ts.ep(), kReplay, opt);
  EXPECT_GT(out.attempts, 1);  // it really was shed at least once
  expect_replay_exact(out.response);

  std::string line;
  ASSERT_TRUE(hog.recv_line(line, 1 << 20, 30000));
  EXPECT_TRUE(Response::parse(line).ok);  // the hog itself completed fine
}

TEST(RetryClient, BackoffStaysCappedPastSixtyFourAttempts) {
  // Past attempt 65 a backoff doubled once per attempt would need more
  // than 64 bits (UBSan catches the shift). Capped at 1 ms, 70 attempts
  // against a socket that does not exist take well under a second.
  ClientOptions opt;
  opt.attempts = 70;
  opt.backoff_ms = 1;
  opt.max_backoff_ms = 1;
  opt.timeout_ms = 1000;
  const Endpoint ep = Endpoint::parse("unix:" + test_socket("nobody"));
  try {
    request_with_retry(ep, R"({"op":"ping"})", opt);
    ADD_FAILURE() << "a request to a missing socket succeeded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("after 70 attempts"), std::string::npos)
        << e.what();
  }
}

TEST(ServerFaults, DrainCompletesInFlightAndRejectsNew) {
  TestServer ts("drain");
  expect_replay_exact(ts.ask(kReplay));  // prewarm

  // A: a slow request that will still be executing when the drain
  // begins. C: an idle connection opened before the listener stops.
  Socket a = Socket::connect(ts.ep(), 5000);
  a.send_all(
      R"({"op":"replay","bench":"qsort","pes":4,"id":"inflight","fault":{"stall_ms":800}})"
      "\n");
  Socket c = Socket::connect(ts.ep(), 5000);
  std::string line;
  c.send_all("{\"op\":\"ping\"}\n");  // ensure C is accepted and served
  ASSERT_TRUE(c.recv_line(line, 1 << 20, 5000));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // A admitted

  Response shut = ts.ask(R"({"op":"shutdown","id":"bye"})");
  ASSERT_TRUE(shut.ok);
  EXPECT_TRUE(shut.result.find("draining")->as_bool());

  // New work on a pre-existing connection: rejected, not executed.
  c.send_all(std::string(kReplay) + "\n");
  ASSERT_TRUE(c.recv_line(line, 1 << 20, 5000));
  Response rejected = Response::parse(line);
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.code, "shutting_down");

  // The in-flight request ran to completion with exact results.
  ASSERT_TRUE(a.recv_line(line, 1 << 20, 30000));
  expect_replay_exact(Response::parse(line));

  ts.server->stop();  // run() returns after the drain; join it
  ServiceCounters counters = ts.server->service().counters();
  // prewarm + in-flight (control-plane ops don't count as completed)
  EXPECT_GE(counters.completed, 2u);
  EXPECT_GE(counters.rejected, 1u);   // the shutting_down bounce
  EXPECT_EQ(counters.cancelled, 0u);  // drain never cancels in-flight work
}

TEST(ServerFaults, SignalStyleStopDrainsInFlightWork) {
  TestServer ts("sigstop");
  expect_replay_exact(ts.ask(kReplay));  // prewarm

  Socket a = Socket::connect(ts.ep(), 5000);
  a.send_all(
      R"({"op":"replay","bench":"qsort","pes":4,"id":"sig","fault":{"stall_ms":300}})"
      "\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // What the SIGINT/SIGTERM handler does — nothing more.
  ts.server->request_stop();

  std::string line;
  ASSERT_TRUE(a.recv_line(line, 1 << 20, 30000));
  expect_replay_exact(Response::parse(line));
  ts.server->stop();
}

TEST(ServerFaults, GoldenOpIsCleanAfterInjectedFaults) {
  TestServer ts("golden");
  // Poison attempts first: a failed generation and a mid-replay throw.
  Response f1 = ts.ask(
      R"({"op":"replay","bench":"qsort","pes":4,"fault":{"fail_alloc":1}})");
  EXPECT_FALSE(f1.ok);
  Response f2 = ts.ask(
      R"({"op":"replay","bench":"qsort","pes":4,"fault":{"throw_chunk":1}})");
  EXPECT_FALSE(f2.ok);
  // The full golden corpus comparison for the bench must still pass
  // through the server — nothing the faults touched was shared state.
  Response g = ts.ask(R"({"op":"golden","bench":"qsort"})", 120000);
  ASSERT_TRUE(g.ok) << g.code << ": " << g.message;
  EXPECT_TRUE(g.result.find("clean")->as_bool())
      << json_write(*g.result.find("mismatches"));
}

TEST(ServerFaults, FaultPlansRejectedWhenInjectionDisabled) {
  ServiceConfig cfg;  // enable_faults defaults to false: production mode
  cfg.workers = 1;
  Server server(Endpoint::parse("unix:" + test_socket("nofaults")), cfg);
  server.start();
  Response r = request_once(
      server.endpoint(),
      R"({"op":"replay","bench":"qsort","pes":4,"fault":{"stall_ms":1}})",
      10000);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "bad_request");
  server.stop();
}

// --- deadline-killed requests (docs/DESIGN.md §12) -------------------------
//
// A replay killed by its deadline keeps none of its work: the client's
// retry replays from scratch, so a retry without the deadline is exact
// and one with the same deadline fails again.

/// Paper-scale qsort: a 7-chunk trace, so a stalled replay is still
/// mid-trace when its deadline strikes.
const char* kPaperReplay =
    R"({"op":"replay","bench":"qsort","scale":"paper","pes":4,"id":"pck"})";

/// Exactness oracle at paper scale (the in-process server shares the
/// memoized TraceLibrary, so this recomputes nothing after prewarm).
void expect_paper_exact(const Response& r) {
  ASSERT_TRUE(r.ok) << r.code << ": " << r.message;
  std::shared_ptr<const GeneratedTrace> g =
      TraceLibrary::instance().get("qsort", BenchScale::Paper, 4);
  TrafficStats want =
      replay_traffic(paper_cache_config(Protocol::WriteInBroadcast, 1024), 4,
                     *g->trace);
  for (const auto& [name, value] : traffic_fields(want)) {
    const JsonValue* got = r.result.find(name);
    ASSERT_NE(got, nullptr) << "missing field " << name;
    EXPECT_EQ(static_cast<u64>(got->as_int()), value) << "field " << name;
  }
}

u64 stat_of(TestServer& ts, const std::string& name) {
  Response st = ts.ask(R"({"op":"stats"})");
  EXPECT_TRUE(st.ok) << st.message;
  const JsonValue* v = st.result.find(name);
  EXPECT_NE(v, nullptr) << name;
  return v ? static_cast<u64>(v->as_int()) : 0;
}

TEST(ServerFaults, DeadlineKilledReplayRetriesFromScratch) {
  TestServer ts("deadretry");
  expect_paper_exact(ts.ask(kPaperReplay, 120000));  // generate + memoize

  // Seven chunks stalled 35 ms each cannot finish inside 150 ms.
  Response dead = ts.ask(
      R"({"op":"replay","bench":"qsort","scale":"paper","pes":4,"deadline_ms":150,"fault":{"stall_ms":35}})");
  EXPECT_FALSE(dead.ok);
  EXPECT_EQ(dead.code, "deadline_exceeded");

  Response retry = ts.ask(kPaperReplay, 120000);
  expect_paper_exact(retry);
  EXPECT_EQ(retry.result.find("resumed_chunks"), nullptr);
  // pipebench's serve workload still reads these, so they stay, as 0.
  for (const char* name : {"checkpoints_written", "resumes", "resume_chunks_skipped"})
    EXPECT_EQ(stat_of(ts, name), 0u) << name;

  // The checkpoint fault sites are gone: naming one is a bad request.
  Response gone = ts.ask(
      R"({"op":"replay","bench":"qsort","scale":"paper","pes":4,"fault":{"flip_checkpoint":1}})");
  EXPECT_FALSE(gone.ok);
  EXPECT_EQ(gone.code, "bad_request");
}

// --- cancellable trace generation (docs/DESIGN.md §14) ---------------------
//
// A request whose trace is not yet memoized triggers a generation on
// the worker thread; the request's deadline must be able to kill the
// generation itself — not just the replay — with the worker freed and
// the half-built trace evicted so the next request regenerates.

TEST(ServerFaults, SlowGenerationHitsDeadlineAndFreesTheWorker) {
  TestServer ts("genstall");
  TraceLibrary::instance().clear();  // force a real generation
  u64 cancelled_before = stat_of(ts, "trace_library_cancelled_generations");

  // gen_stall_every/gen_stall_ms stall the engine's cycle loop, so a
  // 100ms deadline strikes at a mid-generation cancellation checkpoint
  // (~every 1024 cycles). The elapsed bound is deliberately loose for
  // sanitizer builds; unloaded, the response lands around 2x deadline.
  auto t0 = std::chrono::steady_clock::now();
  Response dead = ts.ask(
      R"({"op":"replay","bench":"tak","pes":2,"deadline_ms":100,"fault":{"gen_stall_every":256,"gen_stall_ms":20}})");
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_FALSE(dead.ok);
  EXPECT_EQ(dead.code, "deadline_exceeded");
  EXPECT_LT(elapsed.count(), 2000) << "generation was not cancelled promptly";

  // The worker is free again: control plane answers, the cancelled
  // generation was counted, and — because the half-built entry was
  // evicted — the same point regenerates cleanly without the fault.
  EXPECT_TRUE(ts.ask(R"({"op":"ping"})").ok);
  EXPECT_GE(stat_of(ts, "trace_library_cancelled_generations"),
            cancelled_before + 1);
  Response clean = ts.ask(R"({"op":"replay","bench":"tak","pes":2})", 120000);
  ASSERT_TRUE(clean.ok) << clean.code << ": " << clean.message;
}

TEST(ServerFaults, GenerationHeapFaultIsStructuredAndTransient) {
  TestServer ts("genheap");
  TraceLibrary::instance().clear();
  Response r = ts.ask(
      R"({"op":"replay","bench":"deriv","pes":2,"fault":{"gen_fail_heap":1}})");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, "resource_exhausted");
  EXPECT_NE(r.message.find("injected"), std::string::npos) << r.message;
  // Error-aware memoization: the failed generation was evicted, so the
  // retry without the fault plan succeeds.
  Response clean = ts.ask(R"({"op":"replay","bench":"deriv","pes":2})", 120000);
  ASSERT_TRUE(clean.ok) << clean.code << ": " << clean.message;
}

}  // namespace
}  // namespace rapwam
