// Trace a benchmark on N simulated PEs, then sweep cache protocols and
// sizes over the trace — an interactive slice of the paper's Figure 4.
//
//   $ ./cache_explorer [--bench qsort] [--pes 4] [--line 4] [--scale small]
#include <cstdio>

#include "cache/sweep.h"
#include "harness/trace_lib.h"
#include "support/cli.h"
#include "support/stats.h"
#include "support/table.h"

using namespace rapwam;

namespace {

int run(const Cli& cli) {
  std::string bench = cli.get("bench", "qsort");
  unsigned pes = cli.get_u32("pes", 4);
  if (pes < 1 || pes > 64) {
    std::fprintf(stderr, "error: --pes must be 1..64 (directory holder masks)\n");
    return 1;
  }
  u32 line = cli.get_u32("line", 4);
  BenchScale scale = scale_from_name(cli.get("scale", "small"));

  std::printf("tracing %s on %u PEs...\n", bench.c_str(), pes);
  std::shared_ptr<const GeneratedTrace> g =
      TraceLibrary::instance().get(bench, scale, pes);
  std::printf("  %zu busy references captured\n\n", g->trace->size());

  const Protocol protos[] = {Protocol::WriteInBroadcast,
                             Protocol::WriteThroughBroadcast, Protocol::Hybrid,
                             Protocol::WriteThrough, Protocol::Copyback};
  const u32 sizes[] = {64, 256, 1024, 4096};

  ThreadPool pool;
  std::vector<SweepPoint> pts;
  for (Protocol p : protos) {
    for (u32 sz : sizes) {
      SweepPoint sp;
      sp.cfg.protocol = p;
      sp.cfg.size_words = sz;
      sp.cfg.line_words = line;
      sp.cfg.write_allocate = paper_write_allocate(p, sz);
      sp.num_pes = pes;
      sp.chunks = g->trace.get();
      pts.push_back(sp);
    }
  }
  auto results = run_sweep(pool, pts);

  TextTable t("traffic ratio (bus words / demand words)");
  std::vector<std::string> hdr = {"protocol"};
  for (u32 sz : sizes) hdr.push_back(std::to_string(sz) + "w");
  t.header(hdr);
  std::size_t i = 0;
  for (Protocol p : protos) {
    std::vector<std::string> row = {protocol_name(p)};
    for (u32 sz : sizes) {
      (void)sz;
      row.push_back(fmt(results[i++].stats.traffic_ratio(), 4));
    }
    t.row(row);
  }
  std::fputs(t.str().c_str(), stdout);
  std::puts("\nLower is better; copyback ignores coherence (lower bound).");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cli_main(argc, argv, {"bench", "pes", "line", "scale"}, run);
}
