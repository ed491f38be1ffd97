#include <map>
#include <ostream>
// Property tests on real emulator traces: parameterized sweeps over
// protocols and cache sizes checking coherence invariants, LRU
// inclusion (miss ratio monotone in cache size), determinism, and the
// qualitative protocol ordering the paper reports (write-through worst,
// broadcast best, hybrid in between).
#include <gtest/gtest.h>

#include "cache/multisim.h"
#include "harness/runner.h"

namespace rapwam {
namespace {

/// One shared trace per PE count (expensive to produce, reused).
const std::vector<u64>& qsort_trace(unsigned pes) {
  static std::map<unsigned, std::vector<u64>> cache_;
  auto it = cache_.find(pes);
  if (it != cache_.end()) return it->second;
  BenchRun r = run_parallel(bench_program("qsort", BenchScale::Small), pes,
                            /*want_trace=*/true);
  return cache_.emplace(pes, r.trace->packed()).first->second;
}

double ratio(Protocol p, u32 size, unsigned pes, bool walloc) {
  CacheConfig cfg;
  cfg.protocol = p;
  cfg.size_words = size;
  cfg.line_words = 4;
  cfg.write_allocate = walloc;
  MultiCacheSim sim(cfg, pes);
  sim.replay(qsort_trace(pes));
  EXPECT_TRUE(sim.invariants_ok()) << protocol_name(p) << " " << size;
  return sim.stats().traffic_ratio();
}

double missr(Protocol p, u32 size, unsigned pes) {
  CacheConfig cfg;
  cfg.protocol = p;
  cfg.size_words = size;
  cfg.line_words = 4;
  cfg.write_allocate = true;
  MultiCacheSim sim(cfg, pes);
  sim.replay(qsort_trace(pes));
  return sim.stats().miss_ratio();
}

struct Param {
  Protocol proto;
  u32 size;
  unsigned pes;
};

/// Prints a case as e.g. "Hybrid_512w_2pe"; ctest names each case by
/// this value. gtest's fallback prints Param's raw bytes, padding
/// included, so the names would change from one build to the next.
void PrintTo(const Param& p, std::ostream* os) {
  static const char* const kProto[] = {"WriteThrough", "WriteInBroadcast",
                                       "WriteThroughBroadcast", "Hybrid",
                                       "Copyback"};
  *os << kProto[static_cast<int>(p.proto)] << '_' << p.size << "w_" << p.pes
      << "pe";
}

class ProtocolSweep : public ::testing::TestWithParam<Param> {};

TEST_P(ProtocolSweep, InvariantsHoldOnRealTraces) {
  const Param& p = GetParam();
  CacheConfig cfg;
  cfg.protocol = p.proto;
  cfg.size_words = p.size;
  cfg.line_words = 4;
  cfg.write_allocate = paper_write_allocate(p.proto, p.size);
  MultiCacheSim sim(cfg, p.pes);
  sim.replay(qsort_trace(p.pes));
  EXPECT_TRUE(sim.invariants_ok());
  EXPECT_GT(sim.stats().refs, 0u);
  EXPECT_GT(sim.stats().bus_words, 0u);
}

TEST_P(ProtocolSweep, ReplayIsDeterministic) {
  const Param& p = GetParam();
  CacheConfig cfg;
  cfg.protocol = p.proto;
  cfg.size_words = p.size;
  cfg.line_words = 4;
  cfg.write_allocate = true;
  MultiCacheSim a(cfg, p.pes), b(cfg, p.pes);
  a.replay(qsort_trace(p.pes));
  b.replay(qsort_trace(p.pes));
  EXPECT_EQ(a.stats().bus_words, b.stats().bus_words);
  EXPECT_EQ(a.stats().misses, b.stats().misses);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsSizesPes, ProtocolSweep,
    ::testing::Values(
        Param{Protocol::WriteThrough, 64, 1}, Param{Protocol::WriteThrough, 512, 4},
        Param{Protocol::WriteInBroadcast, 64, 1},
        Param{Protocol::WriteInBroadcast, 256, 2},
        Param{Protocol::WriteInBroadcast, 1024, 4},
        Param{Protocol::WriteThroughBroadcast, 256, 4},
        Param{Protocol::WriteThroughBroadcast, 1024, 2},
        Param{Protocol::Hybrid, 64, 1}, Param{Protocol::Hybrid, 512, 2},
        Param{Protocol::Hybrid, 1024, 4}, Param{Protocol::Copyback, 512, 1},
        Param{Protocol::Copyback, 1024, 1}));

class SizeMonotone : public ::testing::TestWithParam<Protocol> {};

TEST_P(SizeMonotone, MissRatioNonIncreasingWithCacheSize) {
  // Fully associative LRU with a fixed line size has the inclusion
  // property: a bigger cache never misses more.
  Protocol p = GetParam();
  double prev = 1e9;
  for (u32 sz : {64u, 128u, 256u, 512u, 1024u, 2048u}) {
    double m = missr(p, sz, 2);
    EXPECT_LE(m, prev + 1e-12) << protocol_name(p) << " at " << sz;
    prev = m;
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, SizeMonotone,
                         ::testing::Values(Protocol::WriteThrough,
                                           Protocol::WriteInBroadcast,
                                           Protocol::WriteThroughBroadcast,
                                           Protocol::Hybrid, Protocol::Copyback));

TEST(ProtocolOrdering, PaperFigure4Shape) {
  // At moderate-to-large sizes the paper's ordering must hold:
  // write-through generates the most traffic, write-in broadcast the
  // least, hybrid in between (close to broadcast).
  for (unsigned pes : {2u, 4u}) {
    for (u32 sz : {512u, 1024u, 2048u}) {
      double wt = ratio(Protocol::WriteThrough, sz, pes,
                        paper_write_allocate(Protocol::WriteThrough, sz));
      double hy = ratio(Protocol::Hybrid, sz, pes,
                        paper_write_allocate(Protocol::Hybrid, sz));
      double bc = ratio(Protocol::WriteInBroadcast, sz, pes,
                        paper_write_allocate(Protocol::WriteInBroadcast, sz));
      EXPECT_GT(wt, hy) << pes << "PE " << sz << "w";
      EXPECT_GE(hy, bc * 0.98) << pes << "PE " << sz << "w";
    }
  }
}

TEST(ProtocolOrdering, BroadcastVariantsNearlyIdentical) {
  // Paper: "write-through broadcast statistics are almost identical to
  // those of the write-in broadcast cache".
  for (u32 sz : {256u, 1024u}) {
    double wi = ratio(Protocol::WriteInBroadcast, sz, 4, true);
    double wu = ratio(Protocol::WriteThroughBroadcast, sz, 4, true);
    EXPECT_NEAR(wi, wu, 0.05) << sz;
  }
}

TEST(ProtocolOrdering, HybridHasNoViolationsOnRealTraces) {
  // Table 1's locality attributes must be respected by the engine:
  // hybrid treats local-tagged lines as incoherent, so any cross-PE
  // access to them would corrupt data. The engine must never emit one.
  for (unsigned pes : {1u, 2u, 4u, 8u}) {
    CacheConfig cfg;
    cfg.protocol = Protocol::Hybrid;
    cfg.size_words = 512;
    cfg.line_words = 4;
    cfg.write_allocate = false;
    MultiCacheSim sim(cfg, pes);
    sim.replay(qsort_trace(pes));
    EXPECT_EQ(sim.stats().coherence_violations, 0u) << pes << " PEs";
  }
}

TEST(WriteAllocatePolicy, PaperSelectionRule) {
  EXPECT_FALSE(paper_write_allocate(Protocol::WriteInBroadcast, 64));
  EXPECT_FALSE(paper_write_allocate(Protocol::WriteInBroadcast, 256));
  EXPECT_TRUE(paper_write_allocate(Protocol::WriteInBroadcast, 512));
  EXPECT_FALSE(paper_write_allocate(Protocol::Hybrid, 512));
  EXPECT_TRUE(paper_write_allocate(Protocol::Hybrid, 1024));
}

TEST(WriteAllocatePolicy, NoAllocateBetterForSmallCaches) {
  // The paper's observation: no-write-allocate produces lower traffic
  // for small caches (but a higher miss ratio).
  double with_alloc = ratio(Protocol::WriteInBroadcast, 64, 2, true);
  double no_alloc = ratio(Protocol::WriteInBroadcast, 64, 2, false);
  EXPECT_LT(no_alloc, with_alloc);
}

TEST(TraceFile, SaveLoadRoundTrip) {
  const std::vector<u64>& t = qsort_trace(2);
  std::string path = ::testing::TempDir() + "/rapwam_trace.bin";
  save_trace(t, path);
  std::vector<u64> back = load_trace(path);
  EXPECT_EQ(back, t);
}

}  // namespace
}  // namespace rapwam
