// Server sweeps (docs/DESIGN.md §10): a sweep request's points fan out
// over the service's idle workers through run_sweep. Every answer must
// equal a local replay_traffic of the same point, whatever the worker
// count, after a helper outlived its sweep, and after a deadline killed
// a sweep mid-grid. The requests go straight to Service::handle_line,
// each bounded by kRequestBound, so a sweep that waits for a task that
// never starts fails here instead of hanging the suite.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "cache/sweep.h"
#include "harness/experiment.h"
#include "harness/golden.h"
#include "harness/trace_lib.h"
#include "server/protocol.h"
#include "test_rand.h"
#include "test_service.h"

namespace rapwam {
namespace {

ServiceConfig workers(unsigned n) {
  ServiceConfig cfg;
  cfg.workers = n;
  cfg.enable_faults = true;
  return cfg;
}

/// Ten points (five protocols x two sizes) of Small qsort at 2 PEs.
const char* kBenchSweep = R"({"op":"sweep","bench":"qsort","pes":2,"sizes":[256,1024]})";

std::shared_ptr<const ChunkedTrace> bench_trace(unsigned pes) {
  return TraceLibrary::instance().get("qsort", BenchScale::Small, pes)->trace;
}

/// Asserts that a sweep response answers, point by point, what
/// replay_traffic computes locally at `pes` PEs for the grid of the
/// request `line` on `trace`.
void expect_sweep_exact(const std::string& line, const Response& r,
                        const ChunkedTrace& trace, unsigned pes) {
  ASSERT_TRUE(r.ok) << r.code << ": " << r.message;
  EXPECT_EQ(r.result.find("pes")->as_int(), pes);
  std::vector<SweepPoint> points = sweep_points(parse_request(line), &trace, pes);
  const std::vector<JsonValue>& rows = r.result.find("points")->items();
  ASSERT_EQ(rows.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const JsonValue& row = rows[i];
    TrafficStats want = replay_traffic(points[i].cfg, pes, trace);
    EXPECT_EQ(row.find("protocol")->as_string(), protocol_name(points[i].cfg.protocol))
        << i;
    EXPECT_EQ(row.find("size")->as_int(), points[i].cfg.size_words) << i;
    EXPECT_EQ(row.find("bus_words")->as_uint(), want.bus_words) << i;
    EXPECT_EQ(row.find("traffic_ratio")->as_double(), want.traffic_ratio()) << i;
    EXPECT_EQ(row.find("miss_ratio")->as_double(), want.miss_ratio()) << i;
  }
}

TEST(ServerSweep, PointsMatchReplayTrafficOnEveryWorkerCount) {
  std::shared_ptr<const ChunkedTrace> bench = bench_trace(2);
  std::string path = (std::filesystem::temp_directory_path() /
                      ("rapwam_ss_" + std::to_string(::getpid()) + "_r4.trc"))
                         .string();
  std::vector<u64> refs = random_trace(0x5F11E, 4, 20000);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(refs.data(), sizeof(u64), refs.size(), f), refs.size());
  std::fclose(f);
  std::shared_ptr<const ChunkedTrace> file = load_chunked_trace(path, /*busy_only=*/false);
  const std::string file_sweep =
      R"({"op":"sweep","trace":")" + path + R"(","sizes":[256,1024]})";

  for (unsigned n : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(n) + " workers");
    BoundedService svc(workers(n));
    expect_sweep_exact(kBenchSweep, svc.ask(kBenchSweep), *bench, 2);
    expect_sweep_exact(file_sweep, svc.ask(file_sweep), *file, 4);
  }
  std::filesystem::remove(path);
}

TEST(ServerSweep, HelperStartingAfterItsSweepClosedIsHarmless) {
  std::shared_ptr<const ChunkedTrace> q2 = bench_trace(2);
  std::shared_ptr<const ChunkedTrace> q4 = bench_trace(4);
  BoundedService svc(workers(2));

  // A replay of the one-chunk Small qsort trace, stalled 600 ms, holds
  // one worker. The sweep's helper queues behind it while the other
  // worker finishes the sweep alone; the helper starts only after the
  // stall, on a sweep that has closed.
  std::string held;
  std::thread holder([&] {
    held = svc.handle_line(
        R"({"op":"replay","bench":"qsort","pes":4,"fault":{"stall_ms":600}})");
  });
  auto in_flight = [&] {
    return svc.ask(R"({"op":"stats"})").result.find("in_flight")->as_int();
  };
  for (int i = 0; i < 10000 && in_flight() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Response sweep = svc.ask(kBenchSweep);
  holder.join();
  expect_sweep_exact(kBenchSweep, sweep, *q2, 2);
  EXPECT_TRUE(Response::parse(held).ok) << held;

  Response replay = svc.ask(R"({"op":"replay","bench":"qsort","pes":4})");
  ASSERT_TRUE(replay.ok) << replay.message;
  TrafficStats want =
      replay_traffic(paper_cache_config(Protocol::WriteInBroadcast, 1024), 4, *q4);
  for (const auto& [name, value] : traffic_fields(want))
    EXPECT_EQ(replay.result.find(name)->as_uint(), value) << name;
  expect_sweep_exact(kBenchSweep, svc.ask(kBenchSweep), *q2, 2);
}

TEST(ServerSweep, DeadlineMidGridIsExceededAndTheNextSweepIsExact) {
  std::shared_ptr<const ChunkedTrace> q2 = bench_trace(2);
  // Each of the ten points stalls 60 ms before its replay. Four threads
  // need three rounds, so the third round's deadline check comes at
  // 180 ms at the earliest, past the 150 ms deadline, on every pool.
  const char* doomed =
      R"({"op":"sweep","bench":"qsort","pes":2,"sizes":[256,1024],)"
      R"("deadline_ms":150,"fault":{"stall_ms":60}})";
  for (unsigned n : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(n) + " workers");
    BoundedService svc(workers(n));
    Response dead = svc.ask(doomed);
    EXPECT_FALSE(dead.ok);
    EXPECT_EQ(dead.code, "deadline_exceeded") << dead.message;
    expect_sweep_exact(kBenchSweep, svc.ask(kBenchSweep), *q2, 2);
    ServiceCounters c = svc.counters();
    EXPECT_EQ(c.cancelled, 1u);
    EXPECT_EQ(c.completed, 1u);
  }
}

}  // namespace
}  // namespace rapwam
