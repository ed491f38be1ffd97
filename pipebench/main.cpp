// pipebench: one seeded benchmark of the whole RAP-WAM pipeline
// (program text -> multi-PE trace generation -> coherent-cache replay,
// timing, checkpoints -> server responses).
//
//   pipebench --workload generate|sweep|serve --seed N --seconds S
//             --trace 0|1 --out-dir DIR [--digest-file F] [--commit C]
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// makes the traced run instead and prints the per-layer metrics, a
// per-layer self-time table, and writes the spans as Chrome trace-event
// JSON into DIR. The last line of standard output is always one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Outputs are
// checked throughout; every mismatch counts as a failed operation.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "cache/hierarchy.h"
#include "engine/machine.h"
#include "harness/golden.h"
#include "harness/programs.h"
#include "harness/runner.h"
#include "trace/chunks.h"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif

namespace pb {
namespace {

using namespace rapwam;

constexpr u32 kDefaultSeed = 1;
const char* const kWorkloads[] = {"generate", "sweep", "serve"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "pipebench: %s\nusage: pipebench --workload generate|sweep|serve --seed N "
               "--seconds S --trace 0|1 --out-dir DIR [--digest-file F] [--commit C]\n",
               why.c_str());
  std::exit(2);
}

/// Replays Small-scale traces through the benchmark's own path
/// (run_into + ChunkingSink, HierCacheSim / TimedReplay) and compares
/// them, read-only, with the committed golden corpus. Returns the
/// number of mismatching entries.
u64 golden_preflight(u64& checked) {
  const Protocol protocols[] = {Protocol::WriteThrough, Protocol::WriteInBroadcast,
                                Protocol::WriteThroughBroadcast, Protocol::Hybrid,
                                Protocol::Copyback};
  u64 bad = 0;
  for (const std::string& bench : small_bench_names()) {
    std::vector<GoldenEntry> golden =
        golden_from_json(read_text_file("tests/golden/" + bench + ".json"));
    auto find = [&](const std::string& key) -> const GoldenEntry* {
      for (const GoldenEntry& e : golden)
        if (e.key == key) return &e;
      return nullptr;
    };
    for (unsigned pes : {1u, 4u, 8u}) {
      ChunkingSink sink;
      run_into(bench_program(bench, BenchScale::Small), pes, /*strip=*/false, &sink);
      std::shared_ptr<const ChunkedTrace> t = sink.take();
      std::string prefix = "pes" + std::to_string(pes) + "/";
      for (Protocol p : protocols) {
        HierCacheSim sim(paper_cache_config(p, 1024), pes);
        sim.replay(*t);
        const GoldenEntry* g = find(prefix + protocol_name(p));
        ++checked;
        if (!g || g->fields != traffic_fields(sim.stats())) ++bad;
      }
      TimedReplay tr(paper_cache_config(Protocol::WriteInBroadcast, 1024), pes,
                     TimingParams{1, 1, 2, 4, 0});
      tr.replay(*t);
      const GoldenEntry* g = find(prefix + "timing");
      ++checked;
      if (!g || g->fields != timing_fields(tr.timing())) ++bad;
    }
  }
  return bad;
}

/// The expected digest of `workload` at the default seed, from the
/// digest file ({"generate": "0x...", ...}); empty if absent.
std::string expected_digest(const std::string& file, const std::string& workload) {
  std::ifstream f(file);
  std::stringstream ss;
  ss << f.rdbuf();
  std::string text = ss.str(), key = "\"" + workload + "\"";
  std::size_t k = text.find(key);
  if (k == std::string::npos) return "";
  std::size_t a = text.find('"', k + key.size() + 1);
  std::size_t b = a == std::string::npos ? a : text.find('"', a + 1);
  return b == std::string::npos ? "" : text.substr(a + 1, b - a - 1);
}

std::string hex(u64 v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Outcome run_untraced(const std::string& w, const Options& opt, const Budget& b) {
  if (w == "generate") return run_generate(opt, b);
  if (w == "sweep") return run_sweep(opt, b);
  return run_serve(opt, b);
}

void run_traced(const std::string& w, const Options& opt, const Budget& b, Outcome& o,
                LayerMetrics& m) {
  if (w == "generate") trace_generate(opt, b, o, m);
  else if (w == "sweep") trace_sweep(opt, b, o, m);
  else trace_serve(opt, b, o, m);
}

/// Work unit of each workload's throughput, as the report names it.
const char* work_name(const std::string& w) {
  if (w == "generate") return "sim_instr_per_s (simulated WAM instructions per host second)";
  if (w == "sweep") return "replay_refs_per_s (references replayed per host second)";
  return "capacity_rps (ok responses per second, closed loop)";
}

void print_result(bool correct, u64 attempted, u64 failed, const LayerMetrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), vu.first, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int run(int argc, char** argv) {
  Options opt;
  opt.seed = kDefaultSeed;
  std::string digest_file, commit = "unknown";
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    std::string v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = static_cast<u32>(std::stoul(v));
    else if (a == "--seconds") opt.seconds = std::stod(v);
    else if (a == "--trace") trace = std::stoi(v);
    else if (a == "--out-dir") opt.out_dir = v;
    else if (a == "--digest-file") digest_file = v;
    else if (a == "--commit") commit = v;
    else usage("unknown option " + a);
  }
  bool known = false;
  for (const char* w : kWorkloads) known |= opt.workload == w;
  if (!known) usage("unknown workload '" + opt.workload + "'");
  if (opt.seconds <= 0) usage("--seconds must be positive");
  if (opt.out_dir.empty()) usage("--out-dir is required");
  opt.trace = trace != 0;
  std::filesystem::create_directories(opt.out_dir);

  // Host and build fingerprint; timings from anything but an optimized
  // build are refused.
  std::printf("host: compiler=\"%s\" build=%s threaded_dispatch=%d nproc=%u commit=%s\n",
              __VERSION__, PB_BUILD_TYPE, threaded_dispatch_enabled() ? 1 : 0,
              std::thread::hardware_concurrency(), commit.c_str());
#ifndef NDEBUG
  std::fprintf(stderr, "pipebench: refusing to report from a build with assertions on\n");
  return 3;
#endif
  if (std::string(PB_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "pipebench: refusing to report from a %s build\n", PB_BUILD_TYPE);
    return 3;
  }

  u64 golden_checked = 0;
  u64 golden_bad = golden_preflight(golden_checked);
  std::printf("preflight: %llu golden entries checked, %llu mismatched\n",
              static_cast<unsigned long long>(golden_checked),
              static_cast<unsigned long long>(golden_bad));

  Outcome o;
  LayerMetrics metrics;
  if (!opt.trace) {
    o = run_untraced(opt.workload, opt, Budget{opt.seconds, 0});
    auto [tail_q, tail] = tail_latency(o.lat_ms);
    metrics["setup_s"] = {median(o.setup_s), "s"};
    metrics["work_per_s"] = {o.rate, "1/s"};
    metrics["lat_p50_ms"] = {median(o.lat_ms), "ms"};
    metrics["lat_tail_ms"] = {tail, "ms"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
    std::printf("workload %s seed %u: %d rounds in %.3f s\n", opt.workload.c_str(), opt.seed,
                o.rounds, o.timed_s);
    std::printf("  work_per_s = %s: %.6g (%.6g over the whole phase)\n",
                work_name(opt.workload), o.rate, o.work / o.timed_s);
    std::printf("  lat_p50_ms = %.4f, lat_tail_ms = p%.1f of %zu samples = %.4f\n",
                median(o.lat_ms), 100 * tail_q, o.lat_ms.size(), tail);
  } else {
    // Tracing overhead: the same work untraced, then traced, compared by
    // work_per_s.
    Outcome plain = run_untraced(opt.workload, opt, Budget{opt.seconds / 2, 0});
    Tracer::get().enable();
    std::size_t mark = Tracer::get().mark();
    run_traced(opt.workload, opt, Budget{0, std::max(1, plain.rounds)}, o, metrics);
    std::vector<SpanRec> own = Tracer::get().spans_since(mark);
    const double overhead = plain.rate / o.rate - 1;
    metrics["bench.trace_overhead_share"] = {overhead, "ratio"};
    o.attempted += plain.attempted;
    o.failed += plain.failed;
    // The other workloads, briefly, so every per-layer metric is present.
    for (const char* w : kWorkloads) {
      if (opt.workload == w) continue;
      Outcome other;
      run_traced(w, opt, Budget{2, 0}, other, metrics);
      o.attempted += other.attempted;
      o.failed += other.failed;
    }
    Tracer::get().disable();

    std::map<std::string, double> self = layer_self_time(own);
    double total = 0;
    for (const auto& [layer, s] : self) total += s;
    std::printf("self time by layer, traced %s phase:\n", opt.workload.c_str());
    for (const auto& [layer, s] : self)
      std::printf("  %-12s %10.4f s  %5.1f%%\n", layer.c_str(), s, 100 * s / total);
    std::printf("tracing overhead: %.1f%% (same work: traced %.3f s at %.6g/s, untraced "
                "%.3f s at %.6g/s)\n",
                100 * overhead, o.timed_s, o.rate, plain.timed_s, plain.rate);
    std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                       std::to_string(opt.seed) + ".json";
    write_chrome_trace(Tracer::get().spans(), path);
    std::printf("spans: %s\n", path.c_str());
  }

  o.attempted += golden_checked;
  o.failed += golden_bad;
  bool digest_ok = true;
  std::printf("digest %s seed %u: %s\n", opt.workload.c_str(), opt.seed, hex(o.digest).c_str());
  if (opt.seed == kDefaultSeed && !digest_file.empty()) {
    std::string want = expected_digest(digest_file, opt.workload);
    digest_ok = want == hex(o.digest);
    std::printf("digest expected %s: %s\n", want.empty() ? "(none)" : want.c_str(),
                digest_ok ? "match" : "MISMATCH");
  }
  std::printf("fail_ratio = %llu / %llu\n", static_cast<unsigned long long>(o.failed),
              static_cast<unsigned long long>(o.attempted));
  print_result(o.failed == 0 && digest_ok, o.attempted, o.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 1;
  }
}
