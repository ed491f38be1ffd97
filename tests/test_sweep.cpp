// run_sweep determinism: a sweep executed on a pool of N threads must
// return exactly the same result vector — element-wise identical
// TrafficStats, in input order — as serial execution of the same
// points. Cache simulations share nothing, so any divergence means the
// sweep scrambled results or raced. run_sweep must also complete when
// it is called from a worker of its own pool, as the server calls it.
// These tests (and the ThreadPool suite in test_support.cpp) are what
// the CI ThreadSanitizer job runs.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <vector>

#include "cache/sweep.h"
#include "server/faults.h"
#include "test_rand.h"

namespace rapwam {
namespace {

/// A small but heterogeneous sweep: every protocol, two cache sizes,
/// two PE counts, two traces — 40 points with distinct labels.
std::vector<SweepPoint> make_points(const ChunkedTrace& t4,
                                    const ChunkedTrace& t8) {
  const Protocol protos[] = {Protocol::WriteThrough, Protocol::WriteInBroadcast,
                             Protocol::WriteThroughBroadcast, Protocol::Hybrid,
                             Protocol::Copyback};
  std::vector<SweepPoint> points;
  int label = 0;
  for (Protocol p : protos) {
    for (u32 sz : {256u, 1024u}) {
      for (unsigned pes : {4u, 8u}) {
        SweepPoint sp;
        sp.cfg.protocol = p;
        sp.cfg.size_words = sz;
        sp.cfg.line_words = 4;
        sp.cfg.write_allocate = true;
        sp.num_pes = pes;
        sp.chunks = (pes == 4) ? &t4 : &t8;
        sp.label = label++;
        points.push_back(sp);
      }
    }
  }
  return points;
}

TEST(SweepDeterminism, PoolResultsMatchSerialElementwise) {
  std::shared_ptr<const ChunkedTrace> t4 = chunked(random_trace(0xAB5EED, 4, 12000));
  std::shared_ptr<const ChunkedTrace> t8 = chunked(random_trace(0xAB5EEE, 8, 12000));
  std::vector<SweepPoint> points = make_points(*t4, *t8);

  ThreadPool pool(4);
  std::vector<SweepResult> pooled = run_sweep(pool, points);

  ASSERT_EQ(pooled.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    // Results come back in input order, carrying their point.
    EXPECT_EQ(pooled[i].point.label, points[i].label) << i;
    EXPECT_EQ(pooled[i].point.num_pes, points[i].num_pes) << i;
    // Element-wise identical to a serial simulation of the same point.
    TrafficStats serial =
        replay_traffic(points[i].cfg, points[i].num_pes, *points[i].chunks);
    EXPECT_EQ(pooled[i].stats, serial) << "point " << i;
  }
}

TEST(SweepDeterminism, PoolSizeDoesNotChangeResults) {
  std::shared_ptr<const ChunkedTrace> t4 = chunked(random_trace(0xD1CE, 4, 12000));
  std::shared_ptr<const ChunkedTrace> t8 = chunked(random_trace(0xD1CF, 8, 12000));
  std::vector<SweepPoint> points = make_points(*t4, *t8);

  ThreadPool p1(1), p8(8);
  std::vector<SweepResult> serial = run_sweep(p1, points);
  std::vector<SweepResult> parallel = run_sweep(p8, points);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].point.label, parallel[i].point.label) << i;
    EXPECT_EQ(serial[i].stats, parallel[i].stats) << "point " << i;
  }
}

TEST(SweepDeterminism, RepeatedRunsAreIdentical) {
  std::shared_ptr<const ChunkedTrace> t4 = chunked(random_trace(0x9E9E, 4, 8000));
  std::shared_ptr<const ChunkedTrace> t8 = chunked(random_trace(0x9E9F, 8, 8000));
  std::vector<SweepPoint> points = make_points(*t4, *t8);

  ThreadPool pool(8);
  std::vector<SweepResult> a = run_sweep(pool, points);
  std::vector<SweepResult> b = run_sweep(pool, points);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].stats, b[i].stats) << i;
}

TEST(SweepDeterminism, EmptySweepReturnsEmpty) {
  ThreadPool pool(2);
  EXPECT_TRUE(run_sweep(pool, {}).empty());
}

void expect_matches_replay_traffic(const std::vector<SweepResult>& got,
                                   const std::vector<SweepPoint>& points) {
  ASSERT_EQ(got.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(got[i].point.label, points[i].label) << i;
    EXPECT_EQ(got[i].stats,
              replay_traffic(points[i].cfg, points[i].num_pes, *points[i].chunks))
        << "point " << i;
  }
}

/// A bound no healthy sweep of the points below comes near, even under
/// a sanitizer; a run_sweep that waits on its own worker never meets it.
constexpr std::chrono::seconds kSweepBound{60};

TEST(SweepFromWorker, CompletesOnEveryPoolSize) {
  // Shared with the task, so a task left blocked by a regression still
  // reads live traces after the test has failed and returned.
  std::shared_ptr<const ChunkedTrace> t4 = chunked(random_trace(0x5EED4, 4, 12000));
  std::shared_ptr<const ChunkedTrace> t8 = chunked(random_trace(0x5EED8, 8, 12000));
  auto points = std::make_shared<const std::vector<SweepPoint>>(make_points(*t4, *t8));
  for (unsigned n : {1u, 2u, 4u}) {
    auto pool = std::make_unique<ThreadPool>(n);
    ThreadPool* p = pool.get();
    std::future<std::vector<SweepResult>> fut =
        pool->submit([p, points, t4, t8] { return run_sweep(*p, *points); });
    if (fut.wait_for(kSweepBound) != std::future_status::ready) {
      // A worker is stuck: joining it would hang the suite.
      (void)pool.release();
      FAIL() << "run_sweep on a worker of its own " << n << "-thread pool did not finish";
    }
    expect_matches_replay_traffic(fut.get(), *points);
  }
}

TEST(SweepFromWorker, HelperThatStartsAfterTheSweepClosedTouchesNothing) {
  ThreadPool pool(2);
  // One worker waits on `release`, so the sweep's one helper stays
  // queued while the other worker, the caller, runs every point.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::future<void> held = pool.submit([released] { released.wait(); });
  {
    std::shared_ptr<const ChunkedTrace> t4 = chunked(random_trace(0xC105E4, 4, 12000));
    std::shared_ptr<const ChunkedTrace> t8 = chunked(random_trace(0xC105E8, 8, 12000));
    const std::vector<SweepPoint> points = make_points(*t4, *t8);
    FaultInjector faults(FaultPlan{});
    std::future<std::vector<SweepResult>> fut =
        pool.submit([&] { return run_sweep(pool, points, nullptr, &faults); });
    if (fut.wait_for(kSweepBound) != std::future_status::ready) {
      release.set_value();
      fut.wait();  // the helper can run now; the sweep reads these locals
      FAIL() << "a sweep waited for a helper that had not started";
    }
    expect_matches_replay_traffic(fut.get(), points);
  }
  // The traces, the points and the injector are gone; the helper now
  // starts, finds the sweep closed and returns (a sanitizer build
  // would report any access).
  release.set_value();
  held.get();
  std::shared_ptr<const ChunkedTrace> t4 = chunked(random_trace(0xA5A5, 4, 8000));
  std::shared_ptr<const ChunkedTrace> t8 = chunked(random_trace(0xA5A6, 8, 8000));
  const std::vector<SweepPoint> points = make_points(*t4, *t8);
  expect_matches_replay_traffic(run_sweep(pool, points), points);
}

}  // namespace
}  // namespace rapwam
