#include "harness/experiment.h"

#include <algorithm>

#include "harness/trace_lib.h"

namespace rapwam {

std::string op_name(ReqOp op) {
  switch (op) {
    case ReqOp::Ping: return "ping";
    case ReqOp::Stats: return "stats";
    case ReqOp::Replay: return "replay";
    case ReqOp::Time: return "time";
    case ReqOp::Sweep: return "sweep";
    case ReqOp::Golden: return "golden";
    case ReqOp::Shutdown: return "shutdown";
  }
  return "?";
}

namespace {

constexpr unsigned bit(ReqOp op) { return 1u << static_cast<unsigned>(op); }
constexpr unsigned kTime = bit(ReqOp::Time);
constexpr unsigned kReplayTime = bit(ReqOp::Replay) | kTime;
constexpr unsigned kSources = kReplayTime | bit(ReqOp::Sweep);
constexpr u32 kMaxWords = u32(1) << 22;

using FK = FieldKind;
using Text = const std::string&;

std::string check_bench(const std::string& name) {
  std::vector<std::string> known = small_bench_names();
  if (std::find(known.begin(), known.end(), name) == known.end()) {
    std::string list;
    for (const std::string& b : known) list += (list.empty() ? "" : ", ") + b;
    fail("unknown bench \"" + name + "\" (expected " + list + ")");
  }
  return name;
}

constexpr ExperimentField kFields[] = {
    {"bench", FK::Name, kSources | bit(ReqOp::Golden), 0, 0,
     [](Experiment& e, u32, Text s) { e.bench = check_bench(s); }},
    {"trace", FK::Name, kSources, 0, 0,
     [](Experiment& e, u32, Text s) {
       if (s.empty()) fail("the trace path must not be empty");
       e.trace_path = s;
     }},
    {"scale", FK::Name, kSources, 0, 0,
     [](Experiment& e, u32, Text s) { e.scale = scale_from_name(s); }},
    {"pes", FK::Uint, kSources, 1, kMaxPes,
     [](Experiment& e, u32 n, Text) {
       e.pes = n;
       e.explicit_pes = true;
     }},
    {"protocol", FK::Name, kReplayTime, 0, 0,
     [](Experiment& e, u32, Text s) { e.cfg.protocol = protocol_from_name(s); }},
    {"size", FK::Uint, kReplayTime, 16, kMaxWords,
     [](Experiment& e, u32 n, Text) { e.cfg.size_words = n; }},
    {"line", FK::Uint, kSources, 1, 64,
     [](Experiment& e, u32 n, Text) { e.cfg.line_words = n; }},
    {"ways", FK::Uint, kReplayTime, 0, 1024,
     [](Experiment& e, u32 n, Text) { e.cfg.ways = n; }},
    {"no_allocate", FK::Bool, kReplayTime, 0, 0,
     [](Experiment& e, u32, Text) { e.cfg.write_allocate = false; }},
    {"l2", FK::Uint, kReplayTime, 0, kMaxWords,
     [](Experiment& e, u32 n, Text) { e.cfg.l2.size_words = n; }},
    {"l2_ways", FK::Uint, kReplayTime, 0, 1024,
     [](Experiment& e, u32 n, Text) { e.cfg.l2.ways = n; }},
    {"l2_noninclusive", FK::Bool, kReplayTime, 0, 0,
     [](Experiment& e, u32, Text) { e.cfg.l2.inclusion = L2Config::Inclusion::NonInclusive; }},
    // Both fill latencies default to 0 (the paper model: everything
    // folded into the bus service time); a hierarchy with distinct
    // latencies sets both, with l2_hit the smaller.
    {"l2_hit", FK::Uint, kReplayTime, 0, 1 << 20,
     [](Experiment& e, u32 n, Text) { e.cfg.l2.hit_extra_cycles = n; }},
    {"service", FK::Uint, kTime, 0, 1 << 20,
     [](Experiment& e, u32 n, Text) { e.timing.bus_service_cycles = n; }},
    {"interleave", FK::Uint, kTime, 1, 1 << 10,
     [](Experiment& e, u32 n, Text) { e.timing.interleave = n; }},
    {"wbuf", FK::Uint, kTime, 0, 1 << 10,
     [](Experiment& e, u32 n, Text) { e.timing.write_buffer_depth = n; }},
    {"cpr", FK::Uint, kTime, 1, 1 << 20,
     [](Experiment& e, u32 n, Text) { e.timing.cycles_per_ref = n; }},
    {"mem_extra", FK::Uint, kTime, 0, 1 << 20,
     [](Experiment& e, u32 n, Text) { e.timing.mem_extra_cycles = n; }},
    {"max_solutions", FK::Uint, kReplayTime, 1, 64,
     [](Experiment& e, u32 n, Text) { e.max_solutions = n; }},
    {"protocols", FK::Names, bit(ReqOp::Sweep), 0, 0,
     [](Experiment& e, u32, Text s) { e.sweep_protocols.push_back(protocol_from_name(s)); }},
    {"sizes", FK::Uints, bit(ReqOp::Sweep), 16, kMaxWords,
     [](Experiment& e, u32 n, Text) { e.sweep_sizes.push_back(n); }},
};

bool is_trace(const ExperimentField& f) { return f.name == "trace"; }

std::string flag_name(const ExperimentField& f) {
  std::string flag(f.name);
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

}  // namespace

std::span<const ExperimentField> experiment_fields() { return kFields; }

const ExperimentField* find_experiment_field(std::string_view name) {
  for (const ExperimentField& f : kFields)
    if (f.name == name) return &f;
  return nullptr;
}

i64 check_range(i64 value, i64 lo, i64 hi, const std::string& what) {
  if (value < lo) fail(what + " must be at least " + std::to_string(lo));
  if (value > hi) fail(what + " must be at most " + std::to_string(hi));
  return value;
}

void finish_experiment(Experiment& e, ReqOp op) {
  if (!e.bench.empty() && !e.trace_path.empty())
    fail("a bench and a trace file are mutually exclusive");
  if (e.bench.empty() && e.trace_path.empty()) e.bench = "qsort";
  if (op == ReqOp::Replay || op == ReqOp::Time) {
    e.cfg.check_geometry();
    e.cfg.write_allocate =
        e.cfg.write_allocate && paper_write_allocate(e.cfg.protocol, e.cfg.size_words);
  }
  if (op == ReqOp::Sweep) {
    if (e.sweep_protocols.empty())
      e.sweep_protocols = {Protocol::WriteThrough, Protocol::WriteInBroadcast,
                           Protocol::WriteThroughBroadcast, Protocol::Hybrid,
                           Protocol::Copyback};
    if (e.sweep_sizes.empty()) e.sweep_sizes = {256, 512, 1024, 2048};
    std::size_t n = e.sweep_protocols.size() * e.sweep_sizes.size();
    if (n > kMaxSweepPoints)
      fail("oversized sweep: " + std::to_string(n) + " points > " +
           std::to_string(kMaxSweepPoints));
    for (const SweepPoint& pt : sweep_points(e, nullptr, 1)) pt.cfg.check_geometry();
  }
}

std::vector<Flag> experiment_flags(ReqOp op) {
  // The value's name in usage lines, by FieldKind; a Bool takes none.
  static constexpr const char* kValueNames[] = {nullptr, "N", "NAME", "NAME,...", "N,..."};
  std::vector<Flag> flags;
  for (const ExperimentField& f : kFields)
    if (f.applies_to(op) && !is_trace(f))
      flags.emplace_back(flag_name(f), kValueNames[static_cast<int>(f.kind)]);
  return flags;
}

Experiment experiment_from_cli(const Cli& cli, ReqOp op) {
  Experiment e;
  for (const ExperimentField& f : kFields) {
    if (!f.applies_to(op)) continue;
    if (is_trace(f)) {
      if (cli.positional().size() > 1) f.put(e, 0, cli.positional()[1]);
      continue;
    }
    const std::string flag = flag_name(f), what = "--" + flag;
    if (!cli.has(flag)) continue;
    // A list takes comma-separated items, empty ones skipped.
    const std::string text = cli.get(flag, "");
    const bool list = f.kind == FK::Names || f.kind == FK::Uints;
    for (std::size_t i = 0; i <= text.size();) {
      std::size_t j = list ? std::min(text.find(',', i), text.size()) : text.size();
      std::string item = text.substr(i, j - i);
      i = j + 1;
      if (list && item.empty()) continue;
      if (f.kind == FK::Uint || f.kind == FK::Uints)
        f.put(e, static_cast<u32>(check_range(parse_int(item, what), f.lo, f.hi, what)), {});
      else
        f.put(e, 0, item);
    }
  }
  finish_experiment(e, op);
  return e;
}

ExperimentSource resolve_source(const Experiment& e, const CancelToken* cancel,
                                const EngineFaults& faults) {
  ExperimentSource src;
  if (!e.trace_path.empty()) {
    // Validated load: a corrupt or truncated file throws Error before
    // any record reaches a simulator (trace/chunks.h).
    src.trace = load_chunked_trace(e.trace_path, /*busy_only=*/false);
    src.pes = e.explicit_pes ? e.pes : src.trace->num_pes();
  } else {
    // Shared memoized library: concurrent requests for one key wait on
    // one generation, and a failed or cancelled generation is evicted,
    // never cached (harness/trace_lib.h).
    src.trace = TraceLibrary::instance()
                    .get(e.bench, e.scale, e.pes, /*wam=*/false, e.max_solutions,
                         cancel, faults)
                    ->trace;
    src.pes = e.pes;
  }
  check_pes(src.pes, src.trace->num_pes());
  return src;
}

std::vector<SweepPoint> sweep_points(const Experiment& e, const ChunkedTrace* trace,
                                     unsigned pes) {
  std::vector<SweepPoint> points;
  points.reserve(e.sweep_protocols.size() * e.sweep_sizes.size());
  for (Protocol p : e.sweep_protocols) {
    for (u32 size : e.sweep_sizes) {
      SweepPoint pt;
      pt.cfg = paper_cache_config(p, size);
      pt.cfg.line_words = e.cfg.line_words;
      pt.num_pes = pes;
      pt.chunks = trace;
      pt.label = static_cast<int>(points.size());
      points.push_back(pt);
    }
  }
  return points;
}

}  // namespace rapwam
