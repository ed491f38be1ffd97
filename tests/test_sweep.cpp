// run_sweep determinism: a sweep executed on a pool of N threads must
// return exactly the same result vector — element-wise identical
// TrafficStats, in input order — as serial execution of the same
// points. Cache simulations share nothing, so any divergence means the
// sweep scrambled results or raced. These tests (and the ThreadPool
// suite in test_support.cpp) are what the CI ThreadSanitizer job runs.
#include <gtest/gtest.h>

#include <vector>

#include "cache/sweep.h"
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

}  // namespace
}  // namespace rapwam
