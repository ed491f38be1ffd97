// rapwam_trace — record, inspect, replay and time memory-reference
// traces.
//
//   rapwam_trace record --bench qsort --pes 4 --out qsort4.trc [--scale paper]
//                       [--max-heap-mb MB] [--max-steps N] [--timeout-ms MS]
//   rapwam_trace run    --bench qsort --pes 4 [--scale paper] [--wam]
//                       [--solutions N] [--max-heap-mb MB] [--max-steps N]
//                       [--timeout-ms MS]
//   rapwam_trace stats  qsort4.trc
//   rapwam_trace replay TRACE|--bench NAME [--scale small] [--pes 4]
//                       [--protocol broadcast] [--size 1024] [--line 4] [--ways 0]
//                       [--no-allocate] [--l2 4096] [--l2-ways 8]
//                       [--l2-noninclusive] [--l2-hit 2] [--max-solutions 1]
//   rapwam_trace time   TRACE|--bench NAME [the replay flags] [--service 1]
//                       [--interleave 1] [--wbuf 0] [--cpr 1] [--mem-extra 0]
//   rapwam_trace sweep  TRACE|--bench NAME [--scale small] [--pes 4] [--line 4]
//                       [--protocols write-thru,broadcast,update,hybrid,copyback]
//                       [--sizes 256,512,1024,2048] [--threads 4]
//   rapwam_trace dump   qsort4.trc [--head 20]
//   rapwam_trace golden [--update] [--dir PATH] [--bench NAME]
//   rapwam_trace serve  --socket unix:/tmp/rapwam.sock [--workers 4]
//                       [--queue 16] [--deadline MS] [--enable-faults]
//   rapwam_trace request '<json-request>' --socket unix:/tmp/rapwam.sock
//                       [--timeout MS] [--attempts N] [--seed S]
//
// `replay`, `time` and `sweep` read one experiment (harness/experiment.h,
// the same field table the server's requests go through): TRACE is a
// recorded trace file, loaded with every record it holds, or --bench
// names a program whose trace is generated at --pes PEs. The defaults
// are the same as the server's: bench qsort at 4 PEs and Small scale,
// or a trace file's own PE count; a 1024-word broadcast (write-in)
// cache with 4-word lines and the paper's write-allocate rule; a bus
// of 1 cycle per word, 1-way interleave, no write buffers, 1 cycle
// per reference and no extra memory latency; and a sweep over all
// five protocols × 256, 512, 1024 and 2048 words. Without TRACE or
// --bench they print their usage line and exit 2.
//
// `time` replays through the event-driven timed engine (per-PE clocks,
// shared bus, write buffers — docs/DESIGN.md §7) and prints measured
// speedup/stalls next to the analytic M/D/1 prediction. The --l2 flags
// put the shared second-level cache of docs/DESIGN.md §9 between the
// bus and memory. `golden` verifies the committed golden-stats corpus
// (tests/golden/) against a live recomputation, or regenerates it with
// --update after an intentional change.
//
// `record` and `run` execute the WAM engine, so they take the engine
// governance flags: --max-heap-mb / --max-steps bound the query's heap
// and instruction budget (a trip exits with structured text naming the
// budget), --timeout-ms deadline-kills the generation mid-run, and
// --enable-faults --fault '{"gen_...": N}' drives the engine-side
// fault sites. Traces are the 8-byte packed records of src/trace/memref.h.
//
// Each command accepts exactly the flags listed above; any other flag
// prints "error: unknown flag --NAME" and exits 2, as does a value flag
// with no value. A boolean flag never takes the next argument.
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/hierarchy.h"
#include "cache/queueing.h"
#include "cache/sweep.h"
#include "harness/experiment.h"
#include "harness/golden.h"
#include "harness/runner.h"
#include "server/client.h"
#include "server/faults.h"
#include "server/server.h"
#include "trace/chunks.h"
#include "support/cli.h"
#include "support/stats.h"
#include "support/table.h"
#include "timing/replay_job.h"

using namespace rapwam;

namespace {

void print_l2_stats(const CacheConfig& cfg, const TrafficStats& s) {
  if (!cfg.l2.enabled()) return;
  std::printf("  L2: %u words, %s, %s\n", cfg.l2.size_words,
              cfg.l2.ways ? (std::to_string(cfg.l2.ways) + "-way").c_str()
                          : "fully-associative",
              inclusion_name(cfg.l2.inclusion).c_str());
  std::printf("    L2 miss ratio  %.4f  (%llu hits / %llu misses)\n",
              s.l2_miss_ratio(), (unsigned long long)s.l2_hits,
              (unsigned long long)s.l2_misses);
  std::printf("    memory words   %llu  (fetch %llu, writeback %llu, word %llu)"
              "  ratio %.4f\n",
              (unsigned long long)s.mem_words(),
              (unsigned long long)s.mem_fetch_words,
              (unsigned long long)s.mem_writeback_words,
              (unsigned long long)s.mem_word_writes, s.mem_traffic_ratio());
  if (s.l2_back_invalidations)
    std::printf("    back-invalidations %llu  (%llu dirty-flush words)\n",
                (unsigned long long)s.l2_back_invalidations,
                (unsigned long long)s.l2_back_inval_flush_words);
}

/// Engine resource budgets from --max-heap-mb / --max-steps (0 = off).
ResourceLimits limits_from_cli(const Cli& cli) {
  ResourceLimits lim;
  i64 mb = cli.get_int("max-heap-mb", 0);
  if (mb < 0) fail("--max-heap-mb must be non-negative");
  lim.max_heap_words = static_cast<u64>(mb) * (1024 * 1024 / 8);
  i64 steps = cli.get_int("max-steps", 0);
  if (steps < 0) fail("--max-steps must be non-negative");
  lim.max_steps = static_cast<u64>(steps);
  return lim;
}

/// Deadline token from --timeout-ms; nullopt when the flag is absent.
std::optional<CancelToken> timeout_from_cli(const Cli& cli) {
  i64 ms = cli.get_int("timeout-ms", 0);
  if (ms <= 0) return std::nullopt;
  return CancelToken::with_deadline(std::chrono::milliseconds(ms));
}

/// The engine-side (gen_*) slice of --enable-faults --fault '<json>'.
EngineFaults engine_faults_from_cli(const Cli& cli) {
  if (!cli.has("fault")) return {};
  if (!cli.has("enable-faults"))
    fail("fault injection is disabled (pass --enable-faults)");
  return FaultPlan::from_json(json_parse(cli.get("fault", "{}"))).engine_faults();
}

int cmd_record(const Cli& cli) {
  std::string bench = cli.get("bench", "qsort");
  unsigned pes = check_machine_pes(cli.get_u32("pes", 4));
  std::string out = cli.get("out", bench + ".trc");
  BenchScale scale = scale_from_name(cli.get("scale", "small"));
  std::optional<CancelToken> deadline = timeout_from_cli(cli);
  // Chunks stream straight from the emulator to the file: recording a
  // multi-million-reference trace needs O(chunk) memory.
  FileTraceSink sink(out, /*busy_only=*/true);
  RunResult res = run_into(bench_program(bench, scale), pes, /*strip=*/false, &sink,
                           /*max_solutions=*/1, limits_from_cli(cli),
                           engine_faults_from_cli(cli), deadline ? &*deadline : nullptr);
  sink.close();
  std::printf("wrote %llu references to %s (recorded on %u PEs)\n",
              (unsigned long long)sink.written(), out.c_str(), res.stats.refs.pes());
  return 0;
}

/// Runs a benchmark without recording a trace: the governed-execution
/// front end (budgets, timeout, engine faults) plus a RunStats summary.
int cmd_run(const Cli& cli) {
  std::string bench = cli.get("bench", "qsort");
  unsigned pes = check_machine_pes(cli.get_u32("pes", 1));
  BenchScale scale = scale_from_name(cli.get("scale", "small"));
  unsigned sols = cli.get_u32("solutions", 1);
  std::optional<CancelToken> deadline = timeout_from_cli(cli);
  RunResult res = run_into(bench_program(bench, scale), pes,
                           /*strip=*/cli.has("wam"), /*sink=*/nullptr, sols,
                           limits_from_cli(cli), engine_faults_from_cli(cli),
                           deadline ? &*deadline : nullptr);
  const RunStats& s = res.stats;
  std::printf("%s (%s): %llu solution(s) on %u PEs%s\n", bench.c_str(),
              scale == BenchScale::Paper ? "paper" : "small",
              (unsigned long long)s.solutions, pes,
              cli.has("wam") ? " [sequential WAM]" : "");
  std::printf("  instructions  %llu\n", (unsigned long long)s.instructions);
  std::printf("  inferences    %llu\n", (unsigned long long)s.calls);
  std::printf("  cycles        %llu\n", (unsigned long long)s.cycles);
  std::printf("  references    %llu  (busy %llu)\n",
              (unsigned long long)s.refs.total, (unsigned long long)s.refs.busy);
  std::printf("  high water    heap %llu / local %llu / control %llu / "
              "trail %llu words\n",
              (unsigned long long)s.high_water[static_cast<std::size_t>(Area::Heap)],
              (unsigned long long)s.high_water[static_cast<std::size_t>(Area::Local)],
              (unsigned long long)s.high_water[static_cast<std::size_t>(Area::Control)],
              (unsigned long long)s.high_water[static_cast<std::size_t>(Area::Trail)]);
  return 0;
}

int cmd_stats(const Cli& cli) {
  // One validated load builds all the metadata (counts, PE span);
  // nothing below rescans the stream.
  std::shared_ptr<const ChunkedTrace> t =
      load_chunked_trace(cli.positional().at(1));
  const RefCounts& c = t->counts();
  std::printf("references: %llu  (reads %llu / writes %llu)\n",
              (unsigned long long)c.total, (unsigned long long)c.reads,
              (unsigned long long)c.writes);
  TextTable by_area("by area");
  by_area.header({"area", "refs", "share"});
  for (std::size_t a = 0; a < kAreaCount; ++a) {
    if (!c.by_area[a]) continue;
    by_area.row({std::string(area_name(static_cast<Area>(a))),
                 std::to_string(c.by_area[a]),
                 fmt_pct(double(c.by_area[a]) / double(c.total), 1)});
  }
  std::fputs(by_area.str().c_str(), stdout);
  TextTable by_class("by object class (Table 1)");
  by_class.header({"class", "refs", "locality"});
  for (std::size_t k = 0; k < kObjClassCount; ++k) {
    if (!c.by_class[k]) continue;
    ObjClass oc = static_cast<ObjClass>(k);
    by_class.row({std::string(obj_class_name(oc)), std::to_string(c.by_class[k]),
                  std::string(locality_name(traits_of(oc).locality))});
  }
  std::fputs(by_class.str().c_str(), stdout);
  std::printf("PEs present: %u\n", t->num_pes());
  return 0;
}

int cmd_replay(const Cli& cli) {
  Experiment e = experiment_from_cli(cli, ReqOp::Replay);
  const CacheConfig& cfg = e.cfg;
  auto [t, pes] = resolve_source(e);
  ReplayJob job(*t, cfg, pes);
  job.run();
  const TrafficStats& s = job.traffic();
  std::printf("%s, %u words, %u-word lines, %s, %u PEs\n",
              protocol_name(cfg.protocol).c_str(), cfg.size_words, cfg.line_words,
              cfg.write_allocate ? "write-allocate" : "no-write-allocate", pes);
  std::printf("  traffic ratio  %.4f\n", s.traffic_ratio());
  std::printf("  miss ratio     %.4f\n", s.miss_ratio());
  std::printf("  bus words      %llu  (fetch %llu, writeback %llu, through %llu,\n"
              "                  invalidations %llu, updates %llu, flush %llu)\n",
              (unsigned long long)s.bus_words, (unsigned long long)s.fetch_words,
              (unsigned long long)s.writeback_words,
              (unsigned long long)s.writethrough_words,
              (unsigned long long)s.invalidations, (unsigned long long)s.update_words,
              (unsigned long long)s.flush_words);
  print_l2_stats(cfg, s);
  if (s.coherence_violations)
    std::printf("  COHERENCE VIOLATIONS: %llu\n",
                (unsigned long long)s.coherence_violations);
  return 0;
}

int cmd_time(const Cli& cli) {
  Experiment e = experiment_from_cli(cli, ReqOp::Time);
  const CacheConfig& cfg = e.cfg;
  const TimingParams& tp = e.timing;
  auto [t, pes] = resolve_source(e);
  ReplayJob job(*t, cfg, pes, &tp);
  job.run();
  const TrafficStats& traffic = job.traffic();
  TimingStats ts = job.timing();

  std::printf("%s, %u words, %u-word lines, %u PEs; bus %u cycle(s)/word, "
              "%u-way interleave, %u-deep write buffers\n",
              protocol_name(cfg.protocol).c_str(), cfg.size_words, cfg.line_words,
              pes, tp.bus_service_cycles, tp.interleave, tp.write_buffer_depth);
  std::printf("  traffic ratio   %.4f   miss ratio %.4f\n",
              traffic.traffic_ratio(), traffic.miss_ratio());
  std::printf("  makespan        %llu cycles\n", (unsigned long long)ts.makespan);
  std::printf("  speedup         x%.2f  (efficiency %.3f)\n", ts.speedup(),
              ts.efficiency());
  std::printf("  bus utilization %.3f  (%llu busy cycles, %llu transactions%s)\n",
              ts.bus_utilization(), (unsigned long long)ts.bus_busy_cycles,
              (unsigned long long)ts.bus_transactions,
              ts.saturated() ? ", SATURATED" : "");
  std::printf("  demand fills    cache %llu / L2 %llu / memory %llu\n",
              (unsigned long long)ts.cache_fills,
              (unsigned long long)ts.l2_fills, (unsigned long long)ts.mem_fills);
  print_l2_stats(cfg, traffic);

  TextTable per_pe("per PE");
  per_pe.header({"PE", "refs", "busy cycles", "stall cycles", "stall %", "retired at"});
  for (unsigned pe = 0; pe < ts.pe.size(); ++pe) {
    const PeTiming& p = ts.pe[pe];
    double denom = static_cast<double>(p.busy_cycles + p.stall_cycles);
    per_pe.row({std::to_string(pe), std::to_string(p.refs),
                std::to_string(p.busy_cycles), std::to_string(p.stall_cycles),
                denom > 0 ? fmt_pct(static_cast<double>(p.stall_cycles) / denom, 1)
                          : "n/a",
                std::to_string(p.clock)});
  }
  std::fputs(per_pe.str().c_str(), stdout);

  BusEstimate est =
      bus_contention(pes, traffic.traffic_ratio(), BusParams{tp.effective_service()});
  std::printf("analytic M/D/1 at the same traffic ratio: speedup x%.2f, "
              "efficiency %.3f, utilization %.3f\n",
              est.aggregate_speedup, est.pe_efficiency, est.utilization);
  return 0;
}

int cmd_sweep(const Cli& cli) {
  // First, so a thread count above the pool's cap fails before any
  // trace is read.
  ThreadPool pool(cli.get_u32("threads", 4));
  Experiment e = experiment_from_cli(cli, ReqOp::Sweep);
  auto [t, pes] = resolve_source(e);
  std::vector<SweepResult> results = run_sweep(pool, sweep_points(e, t.get(), pes));

  TextTable table("sweep (" + std::to_string(pes) + " PEs)");
  table.header({"protocol", "size", "traffic ratio", "miss ratio", "bus words"});
  for (const SweepResult& r : results) {
    char tr[32], mr[32];
    std::snprintf(tr, sizeof tr, "%.4f", r.stats.traffic_ratio());
    std::snprintf(mr, sizeof mr, "%.4f", r.stats.miss_ratio());
    table.row({protocol_name(r.point.cfg.protocol),
               std::to_string(r.point.cfg.size_words), tr, mr,
               std::to_string(r.stats.bus_words)});
  }
  std::fputs(table.str().c_str(), stdout);
  return 0;
}

int cmd_golden(const Cli& cli) {
  std::string dir = cli.get("dir", golden_dir());
  std::vector<std::string> benches;
  if (cli.has("bench")) benches.push_back(cli.get("bench", "qsort"));
  else benches = small_bench_names();
  bool update = cli.has("update");
  if (update) std::filesystem::create_directories(dir);

  int mismatched = 0;
  for (const std::string& bench : benches) {
    std::string path = dir + "/" + bench + ".json";
    std::vector<GoldenEntry> live = golden_compute(bench);
    if (update) {
      write_text_file(path, golden_to_json(bench, live));
      std::printf("wrote %s (%zu entries)\n", path.c_str(), live.size());
      continue;
    }
    std::vector<GoldenEntry> golden = golden_from_json(read_text_file(path));
    std::vector<std::string> diff = golden_diff(golden, live);
    if (diff.empty()) {
      std::printf("%-8s OK (%zu entries)\n", bench.c_str(), golden.size());
    } else {
      ++mismatched;
      std::printf("%-8s DRIFTED (%zu mismatching lines):\n", bench.c_str(),
                  diff.size());
      for (const std::string& d : diff) std::printf("  %s\n", d.c_str());
    }
  }
  if (mismatched)
    std::printf("golden corpus drifted; regenerate with `rapwam_trace golden "
                "--update` if intentional\n");
  return mismatched ? 1 : 0;
}

// The signal handler may only touch async-signal-safe machinery;
// Server::request_stop() is exactly that (a self-pipe write), and the
// drain itself runs in cmd_serve's normal context once accept wakes.
Server* g_server = nullptr;

extern "C" void serve_signal_handler(int) {
  if (g_server) g_server->request_stop();
}

int cmd_serve(const Cli& cli) {
  Endpoint ep = Endpoint::parse(cli.get("socket", "unix:/tmp/rapwam.sock"));
  ServiceConfig cfg;
  cfg.workers = cli.get_u32("workers", 4);
  cfg.queue_limit = cli.get_u32("queue", 16);
  cfg.default_deadline_ms = cli.get_u32("deadline", 0);
  cfg.enable_faults = cli.has("enable-faults");

  Server server(ep, cfg);
  g_server = &server;
  struct sigaction sa{};
  sa.sa_handler = serve_signal_handler;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::printf("rapwam_trace serving on %s (%u workers, queue %zu%s)\n",
              server.endpoint().str().c_str(), cfg.workers, cfg.queue_limit,
              cfg.enable_faults ? ", FAULT INJECTION ENABLED" : "");
  std::fflush(stdout);
  server.run();  // returns after a signal or `shutdown` request + drain

  // Flush final stats: the drain's last act, and what the CI smoke
  // test greps for.
  ServiceCounters c = server.service().counters();
  std::printf("drained: received %llu, completed %llu, failed %llu, "
              "shed %llu, rejected %llu, cancelled %llu, faults %llu\n",
              (unsigned long long)c.received, (unsigned long long)c.completed,
              (unsigned long long)c.failed, (unsigned long long)c.shed,
              (unsigned long long)c.rejected, (unsigned long long)c.cancelled,
              (unsigned long long)c.faults_injected);
  g_server = nullptr;
  return 0;
}

int cmd_request(const Cli& cli) {
  if (cli.positional().size() < 2) {
    std::fprintf(stderr, "usage: rapwam_trace request '<json>' --socket SPEC\n");
    return 2;
  }
  Endpoint ep = Endpoint::parse(cli.get("socket", "unix:/tmp/rapwam.sock"));
  constexpr i64 kIntMax = std::numeric_limits<int>::max();
  ClientOptions opt;
  // A negative timeout waits forever (Socket::recv_line).
  opt.timeout_ms = static_cast<int>(check_range(
      cli.get_int("timeout", 10000), std::numeric_limits<int>::min(), kIntMax, "--timeout"));
  opt.attempts =
      static_cast<int>(check_range(cli.get_int("attempts", 5), 1, kIntMax, "--attempts"));
  opt.jitter_seed = static_cast<u64>(cli.get_int("seed", 1));
  ClientOutcome out = request_with_retry(ep, cli.positional().at(1), opt);
  if (out.response.ok) {
    std::printf("%s\n", json_write(out.response.result).c_str());
    return 0;
  }
  std::fprintf(stderr, "error (%s): %s\n", out.response.code.c_str(),
               out.response.message.c_str());
  return 1;
}

int cmd_dump(const Cli& cli) {
  // The loader validates every record: a corrupted file is an error.
  std::shared_ptr<const ChunkedTrace> t =
      load_chunked_trace(cli.positional().at(1));
  i64 head = cli.get_int("head", 20);
  for (i64 i = 0; i < head && i < static_cast<i64>(t->size()); ++i) {
    std::size_t k = static_cast<std::size_t>(i);  // chunks are kChunkRefs long
    MemRef r = MemRef::unpack(t->chunk(k / kChunkRefs)[k % kChunkRefs]);
    std::printf("%6lld  pe%-2u %c %-18s %#llx\n", (long long)i, unsigned(r.pe),
                r.write ? 'W' : 'R',
                std::string(obj_class_name(r.cls)).c_str(),
                (unsigned long long)r.addr);
  }
  return 0;
}

using Flags = std::vector<Flag>;

Flags operator+(Flags a, const Flags& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// What must follow a command name.
enum class Operand { None, Trace, TraceOrBench };

struct Command {
  const char* name;
  int (*run)(const Cli&);
  Operand operand;
  Flags flags;
};

/// Each command's flags: replay, time and sweep take their experiment
/// fields' flags (harness/experiment.h) plus their own.
std::vector<Command> commands() {
  const Flags engine = {"max-heap-mb", "max-steps", "timeout-ms", {"fault", "JSON"},
                        Flag::boolean("enable-faults")};
  return {
      {"record", cmd_record, Operand::None, Flags{"bench", "pes", "out", "scale"} + engine},
      {"run", cmd_run, Operand::None,
       Flags{"bench", "pes", "scale", "solutions", Flag::boolean("wam")} + engine},
      {"stats", cmd_stats, Operand::Trace, {}},
      {"replay", cmd_replay, Operand::TraceOrBench, experiment_flags(ReqOp::Replay)},
      {"time", cmd_time, Operand::TraceOrBench, experiment_flags(ReqOp::Time)},
      {"sweep", cmd_sweep, Operand::TraceOrBench,
       experiment_flags(ReqOp::Sweep) + Flags{{"threads", "N"}}},
      {"dump", cmd_dump, Operand::Trace, {{"head", "N"}}},
      {"golden", cmd_golden, Operand::None, {Flag::boolean("update"), "dir", "bench"}},
      {"serve", cmd_serve, Operand::None,
       {"socket", "workers", "queue", "deadline", Flag::boolean("enable-faults")}},
      {"request", cmd_request, Operand::None, {"socket", "timeout", "attempts", "seed"}},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Command> cmds = commands();
  const std::string name = argc > 1 ? argv[1] : "";
  const Command* cmd = nullptr;
  for (const Command& c : cmds)
    if (name == c.name) cmd = &c;
  if (!cmd) {
    if (!name.empty() && name.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unknown command: %s\n", name.c_str());
      return 2;
    }
    std::puts(
        "usage: rapwam_trace record|run|stats|replay|time|sweep|dump|golden|"
        "serve|request ... (see source header)");
    return 2;
  }
  Cli cli(argc, argv, cmd->flags);
  std::string usage = cli.usage_error();
  if (!usage.empty()) {
    std::fprintf(stderr, "error: %s\n", usage.c_str());
    return 2;
  }
  bool has_trace = cli.positional().size() > 1;
  if ((cmd->operand == Operand::Trace && !has_trace) ||
      (cmd->operand == Operand::TraceOrBench && !has_trace && !cli.has("bench"))) {
    Flags shown = cmd->flags;  // --bench is in the operand
    std::erase_if(shown, [](const Flag& f) { return f.name == "bench"; });
    std::fprintf(stderr, "usage: rapwam_trace %s %s%s\n", cmd->name,
                 cmd->operand == Operand::Trace ? "TRACE" : "TRACE|--bench NAME",
                 flag_usage(shown).c_str());
    return 2;
  }
  try {
    return cmd->run(cli);
  } catch (const ResourceExhaustedError& e) {
    // Structured budget trip: name the budget so scripts can branch on
    // it without parsing the prose.
    std::fprintf(stderr, "error: resource budget '%s' tripped: %s\n",
                 e.resource().c_str(), e.what());
    return 1;
  } catch (const CancelledError& e) {
    std::fprintf(stderr, "error: %s: %s\n",
                 e.deadline_exceeded() ? "deadline_exceeded" : "cancelled",
                 e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
