// Ablation studies for the design choices docs/DESIGN.md calls out:
//   A. cache line size (the paper fixes 4 words — how sensitive?)
//   B. write-allocate policy across cache sizes (the paper's
//      no-write-allocate-for-small-caches rule)
//   C. coherence cost: coherent broadcast vs the non-coherent copyback
//      lower bound on the same parallel trace
//   D. scheduling: goals stolen and speedup vs PE count (work balance)
//
//   --scale small|paper   workload size (default paper)
#include <cstdio>

#include "cache/sweep.h"
#include "harness/runner.h"
#include "support/cli.h"
#include "support/stats.h"
#include "support/table.h"

using namespace rapwam;

namespace {

TrafficStats simulate(const ChunkedTrace& trace, Protocol p, u32 size,
                      u32 line, bool walloc, unsigned pes, u32 ways = 0) {
  CacheConfig cfg;
  cfg.protocol = p;
  cfg.size_words = size;
  cfg.line_words = line;
  cfg.write_allocate = walloc;
  cfg.ways = ways;
  MultiCacheSim sim(cfg, pes);
  sim.replay(trace);
  return sim.stats();
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchScale scale = cli.get("scale", "paper") == "small" ? BenchScale::Small
                                                          : BenchScale::Paper;

  BenchProgram qs = bench_program("qsort", scale);
  ChunkingSink sink;
  run_into(qs, 8, /*strip=*/false, &sink);
  const std::shared_ptr<const ChunkedTrace> trace = sink.take();

  {
    TextTable t("Ablation A: line size (qsort, 8 PEs, write-in broadcast, 1024 words)");
    t.header({"line words", "traffic ratio", "miss ratio"});
    for (u32 line : {1u, 2u, 4u, 8u, 16u}) {
      TrafficStats s = simulate(*trace, Protocol::WriteInBroadcast, 1024, line,
                                /*walloc=*/true, 8);
      t.row({std::to_string(line), fmt(s.traffic_ratio(), 4), fmt(s.miss_ratio(), 4)});
    }
    std::fputs(t.str().c_str(), stdout);
    std::puts("");
  }

  {
    TextTable t("Ablation B: write-allocate policy (qsort, 8 PEs, write-in broadcast)");
    t.header({"cache words", "allocate", "no-allocate", "paper picks"});
    for (u32 sz : {64u, 128u, 256u, 512u, 1024u, 2048u}) {
      TrafficStats a = simulate(*trace, Protocol::WriteInBroadcast, sz, 4, true, 8);
      TrafficStats n = simulate(*trace, Protocol::WriteInBroadcast, sz, 4, false, 8);
      t.row({std::to_string(sz), fmt(a.traffic_ratio(), 4), fmt(n.traffic_ratio(), 4),
             paper_write_allocate(Protocol::WriteInBroadcast, sz) ? "allocate"
                                                                  : "no-allocate"});
    }
    std::fputs(t.str().c_str(), stdout);
    std::puts("");
  }

  {
    TextTable t("Ablation C: coherence cost (qsort, 8 PEs, 1024 words, 4-word lines)");
    t.header({"protocol", "traffic ratio", "bus words"});
    for (Protocol p : {Protocol::Copyback, Protocol::WriteInBroadcast,
                       Protocol::WriteThroughBroadcast, Protocol::Hybrid,
                       Protocol::WriteThrough}) {
      TrafficStats s = simulate(*trace, p, 1024, 4,
                                paper_write_allocate(p, 1024), 8);
      t.row({protocol_name(p), fmt(s.traffic_ratio(), 4), std::to_string(s.bus_words)});
    }
    std::fputs(t.str().c_str(), stdout);
    std::puts("  (copyback ignores coherence: it lower-bounds the traffic)\n");
  }

  {
    TextTable t("Ablation E: associativity (qsort, 8 PEs, write-in broadcast, 1024 words)");
    t.header({"ways", "traffic ratio", "miss ratio"});
    for (u32 ways : {1u, 2u, 4u, 8u, 0u}) {
      TrafficStats s = simulate(*trace, Protocol::WriteInBroadcast, 1024, 4,
                                /*walloc=*/true, 8, ways);
      t.row({ways == 0 ? "full (paper)" : std::to_string(ways),
             fmt(s.traffic_ratio(), 4), fmt(s.miss_ratio(), 4)});
    }
    std::fputs(t.str().c_str(), stdout);
    std::puts("  (the paper assumes full associativity with perfect LRU;\n"
              "   low associativity costs conflict misses)\n");
  }

  {
    TextTable t("Ablation D: scheduling balance (qsort)");
    t.header({"PEs", "cycles", "speedup", "goals stolen", "goals local", "kills"});
    double c1 = static_cast<double>(run_parallel(qs, 1).stats.cycles);
    for (unsigned pes : {1u, 2u, 4u, 8u, 16u}) {
      const RunStats s = run_parallel(qs, pes).stats;
      t.row({std::to_string(pes), std::to_string(s.cycles),
             fmt(c1 / static_cast<double>(s.cycles), 2),
             std::to_string(s.goals_stolen), std::to_string(s.goals_local),
             std::to_string(s.kills)});
    }
    std::fputs(t.str().c_str(), stdout);
  }
  return 0;
}
