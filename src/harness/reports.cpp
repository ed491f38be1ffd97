#include "harness/reports.h"

#include <map>

#include "cache/queueing.h"
#include "harness/trace_lib.h"
#include "support/stats.h"

namespace rapwam {

TextTable table1_report() {
  TextTable t("Table 1: Characteristics of RAP-WAM Storage Objects");
  t.header({"Frame type", "area", "WAM?", "lock", "locality"});
  for (const StorageTraits& s : storage_table()) {
    t.row({std::string(obj_class_name(s.cls)), std::string(area_name(s.area)),
           s.in_wam ? "yes" : "no", s.locked ? "yes" : "no",
           std::string(locality_name(s.locality))});
  }
  return t;
}

TextTable table2_report(const ReportOptions& opt) {
  TextTable t("Table 2: Statistics for the Benchmarks Used (" +
              std::to_string(opt.table2_pes) + " processors)");
  std::vector<std::string> names = small_bench_names();
  std::vector<std::string> hdr = {"Parameter"};
  hdr.insert(hdr.end(), names.begin(), names.end());
  t.header(hdr);

  std::vector<std::string> instr{"Instructions executed"};
  std::vector<std::string> refs_rap{"References (RAP-WAM)"};
  std::vector<std::string> refs_wam{"References (WAM)"};
  std::vector<std::string> par{"Goals actually in //"};
  for (const std::string& n : names) {
    BenchProgram bp = bench_program(n, opt.scale);
    BenchRun rap = run_parallel(bp, opt.table2_pes, /*want_trace=*/false);
    BenchRun wam = run_wam(bp, /*want_trace=*/false);
    instr.push_back(std::to_string(rap.result.stats.instructions));
    refs_rap.push_back(std::to_string(rap.result.stats.work_refs()));
    refs_wam.push_back(std::to_string(wam.result.stats.work_refs()));
    par.push_back(std::to_string(rap.result.stats.goals_stolen));
  }
  t.row(instr);
  t.row(refs_rap);
  t.row(refs_wam);
  t.row(par);
  return t;
}

TextTable fig2_report(const ReportOptions& opt) {
  TextTable t("Figure 2: RAP-WAM Overheads for \"deriv\" (work as % of WAM work)");
  t.header({"PEs", "work refs", "% of WAM work", "overhead %", "cycles", "speedup"});
  BenchProgram bp = bench_program("deriv", opt.scale);
  BenchRun wam = run_wam(bp, /*want_trace=*/false);
  double wam_work = static_cast<double>(wam.result.stats.work_refs());
  double wam_cycles = static_cast<double>(wam.result.stats.cycles);
  for (unsigned pes : opt.fig2_pes) {
    BenchRun rap = run_parallel(bp, pes, /*want_trace=*/false);
    double work = static_cast<double>(rap.result.stats.work_refs());
    double cycles = static_cast<double>(rap.result.stats.cycles);
    t.row({std::to_string(pes), std::to_string(rap.result.stats.work_refs()),
           fmt(100.0 * work / wam_work, 1), fmt(100.0 * (work - wam_work) / wam_work, 1),
           std::to_string(rap.result.stats.cycles), fmt(wam_cycles / cycles, 2)});
  }
  return t;
}

namespace {
/// Figure 4's three protocol panels, in output order.
constexpr Protocol kFig4Protos[] = {Protocol::WriteInBroadcast, Protocol::Hybrid,
                                    Protocol::WriteThrough};

/// The Figure 4 sweep grid for one (benchmark, PE count) trace: one
/// point per (protocol, size).
std::vector<SweepPoint> fig4_points(const ReportOptions& opt, unsigned pes,
                                    const ChunkedTrace* trace) {
  std::vector<SweepPoint> points;
  points.reserve(std::size(kFig4Protos) * opt.fig4_sizes.size());
  for (Protocol p : kFig4Protos) {
    for (u32 sz : opt.fig4_sizes) {
      SweepPoint sp;
      sp.cfg.protocol = p;
      sp.cfg.size_words = sz;
      sp.cfg.line_words = 4;
      sp.cfg.write_allocate = paper_write_allocate(p, sz);
      sp.num_pes = pes;
      sp.chunks = trace;
      points.push_back(sp);
    }
  }
  return points;
}
}  // namespace

std::vector<TextTable> fig4_report(const ReportOptions& opt) {
  std::vector<std::string> names = small_bench_names();
  // Generate-once fan-out: each (benchmark, PE count) trace is
  // generated exactly once — concurrently, on the pool — into shared
  // immutable chunk storage, then every (protocol, size) point replays
  // the shared chunks.
  ThreadPool pool(opt.pool_threads);
  TraceLibrary& lib = TraceLibrary::instance();
  lib.prefetch(pool, names, opt.fig4_pes, opt.scale);
  std::vector<std::shared_ptr<const GeneratedTrace>> keepalive;
  std::vector<SweepPoint> points;
  for (const std::string& n : names) {
    for (unsigned pes : opt.fig4_pes) {
      std::shared_ptr<const GeneratedTrace> t = lib.get(n, opt.scale, pes);
      keepalive.push_back(t);
      for (const SweepPoint& sp : fig4_points(opt, pes, t->trace.get()))
        points.push_back(sp);
    }
  }
  std::vector<SweepResult> results = run_sweep(pool, points);

  // Average traffic ratio over benchmarks for each (proto, size, pes).
  std::map<std::tuple<Protocol, u32, unsigned>, std::vector<double>> ratios;
  for (const SweepResult& r : results) {
    ratios[{r.point.cfg.protocol, r.point.cfg.size_words, r.point.num_pes}].push_back(
        r.stats.traffic_ratio());
  }

  std::vector<TextTable> out;
  for (Protocol p : kFig4Protos) {
    TextTable t("Figure 4: Traffic of Coherency Schemes — " + protocol_name(p) +
                " (mean traffic ratio over benchmarks; 4-word lines)");
    std::vector<std::string> hdr = {"cache size (words)"};
    for (unsigned pes : opt.fig4_pes) hdr.push_back(std::to_string(pes) + "PE");
    t.header(hdr);
    for (u32 sz : opt.fig4_sizes) {
      std::vector<std::string> row = {std::to_string(sz)};
      for (unsigned pes : opt.fig4_pes)
        row.push_back(fmt(mean(ratios.at({p, sz, pes})), 4));
      t.row(row);
    }
    out.push_back(std::move(t));
  }
  return out;
}

TextTable l2_report(const ReportOptions& opt) {
  std::vector<std::string> names = small_bench_names();
  ThreadPool pool(opt.pool_threads);
  TraceLibrary& lib = TraceLibrary::instance();
  lib.prefetch(pool, names, {opt.l2_pes}, opt.scale);

  // Config 0 is the flat baseline; then (size × inclusion) pairs.
  std::vector<CacheConfig> cfgs;
  CacheConfig base = paper_cache_config(Protocol::WriteInBroadcast, 1024);
  cfgs.push_back(base);
  for (u32 sz : opt.l2_sizes) {
    for (L2Config::Inclusion inc : {L2Config::Inclusion::Inclusive,
                                    L2Config::Inclusion::NonInclusive}) {
      CacheConfig c = base;
      c.l2.size_words = sz;
      c.l2.ways = opt.l2_ways;
      c.l2.inclusion = inc;
      cfgs.push_back(c);
    }
  }

  std::vector<std::shared_ptr<const GeneratedTrace>> keepalive;
  std::vector<SweepPoint> points;
  points.reserve(names.size() * cfgs.size());
  for (const std::string& n : names) {
    std::shared_ptr<const GeneratedTrace> t = lib.get(n, opt.scale, opt.l2_pes);
    keepalive.push_back(t);
    for (const CacheConfig& c : cfgs) {
      SweepPoint sp;
      sp.cfg = c;
      sp.num_pes = opt.l2_pes;
      sp.chunks = t->trace.get();
      points.push_back(sp);
    }
  }
  std::vector<SweepResult> results = run_sweep(pool, points);

  // Mean each quantity over the benchmarks, per config (results are in
  // input order: bench-major, config-minor).
  struct Agg {
    std::vector<double> bus, mem, l2_miss, backinv;
  };
  std::vector<Agg> agg(cfgs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TrafficStats& s = results[i].stats;
    Agg& a = agg[i % cfgs.size()];
    a.bus.push_back(s.traffic_ratio());
    if (results[i].point.cfg.l2.enabled()) {
      a.mem.push_back(s.mem_traffic_ratio());
      a.l2_miss.push_back(s.l2_miss_ratio());
      a.backinv.push_back(1000.0 * static_cast<double>(s.l2_back_invalidations) /
                          static_cast<double>(s.refs));
    } else {
      // The flat model's memory traffic is everything on the bus except
      // address-only invalidation broadcasts.
      a.mem.push_back(static_cast<double>(s.bus_words - s.invalidations) /
                      static_cast<double>(s.refs));
    }
  }

  TextTable t("L2 sweep: shared L2 under " + std::to_string(opt.l2_pes) +
              " PEs with 1024-word write-in-broadcast L1s (mean over "
              "benchmarks; " +
              std::to_string(opt.l2_ways) + "-way L2, 4-word lines)");
  t.header({"L2 (words)", "bus tr", "mem tr incl", "L2 miss incl",
            "back-inv/Kref", "mem tr non-incl", "L2 miss non-incl"});
  t.row({"none", fmt(mean(agg[0].bus), 4), fmt(mean(agg[0].mem), 4), "-", "-",
         fmt(mean(agg[0].mem), 4), "-"});
  for (std::size_t i = 0; i < opt.l2_sizes.size(); ++i) {
    const Agg& inc = agg[1 + 2 * i];
    const Agg& non = agg[2 + 2 * i];
    // Bus traffic only differs between policies via back-invalidation;
    // quote the inclusive number (the non-inclusive one equals the
    // flat baseline by construction).
    t.row({std::to_string(opt.l2_sizes[i]), fmt(mean(inc.bus), 4),
           fmt(mean(inc.mem), 4), fmt(mean(inc.l2_miss), 4),
           fmt(mean(inc.backinv), 2), fmt(mean(non.mem), 4),
           fmt(mean(non.l2_miss), 4)});
  }
  return t;
}

namespace {
double sequential_traffic_ratio(const ChunkedTrace& trace, u32 size_words) {
  CacheConfig cfg;
  cfg.protocol = Protocol::Copyback;
  cfg.size_words = size_words;
  cfg.line_words = 4;
  cfg.write_allocate = true;
  return replay_traffic(cfg, 1, trace).traffic_ratio();
}
}  // namespace

TextTable table3_report(const ReportOptions& opt) {
  TextTable t("Table 3: Fit of Small Benchmarks to Large Benchmarks "
              "(sequential copyback traffic ratios)");
  std::vector<std::string> hdr = {"cache size (words)", "Etr", "sigma_tr"};
  const std::vector<std::string> smalls = {"deriv", "tak", "qsort"};
  for (const std::string& s : smalls) hdr.push_back("(tr-Etr)/sigma " + s);
  t.header(hdr);

  // Large suite traces (sequential, exhaustive for queens) — streamed
  // into chunk storage, never flattened.
  std::vector<std::shared_ptr<const ChunkedTrace>> large_traces;
  for (const BenchProgram& bp : large_bench_suite(opt.scale)) {
    ChunkingSink sink(/*busy_only=*/true);
    run_into(bp, 1, /*strip=*/true, &sink, /*max_solutions=*/100000);
    large_traces.push_back(sink.take());
  }
  // Small benchmark traces (sequential), shared via the library.
  std::vector<std::shared_ptr<const GeneratedTrace>> small_traces;
  for (const std::string& n : smalls)
    small_traces.push_back(
        TraceLibrary::instance().get(n, opt.scale, 1, /*wam=*/true));

  for (u32 sz : opt.table3_sizes) {
    std::vector<double> large_tr;
    for (const auto& tr : large_traces)
      large_tr.push_back(sequential_traffic_ratio(*tr, sz));
    double e = mean(large_tr);
    double s = stddev(large_tr);
    std::vector<std::string> row = {std::to_string(sz), fmt(e, 4), fmt(s, 4)};
    for (const auto& tr : small_traces) {
      double r = sequential_traffic_ratio(*tr->trace, sz);
      row.push_back(s > 0 ? fmt((r - e) / s, 2) : "n/a");
    }
    t.row(row);
  }
  return t;
}

MlipsNumbers mlips_numbers(const ReportOptions& opt) {
  // Aggregate instruction/reference ratios over the four benchmarks;
  // every trace comes from the generate-once library (one emulator run
  // per benchmark in the whole process, shared with Figure 4 etc).
  TraceLibrary& lib = TraceLibrary::instance();
  double instr = 0, calls = 0, refs = 0;
  std::shared_ptr<const GeneratedTrace> trace8;
  for (const std::string& n : small_bench_names()) {
    std::shared_ptr<const GeneratedTrace> g = lib.get(n, opt.scale, 8);
    instr += static_cast<double>(g->stats.instructions);
    calls += static_cast<double>(g->stats.calls);
    refs += static_cast<double>(g->stats.work_refs());
    if (n == "qsort") trace8 = g;  // one trace for the capture rate
  }

  MlipsNumbers out;
  out.instr_per_inference = instr / calls;
  out.refs_per_instr = refs / instr;
  out.traffic_ratio =
      replay_traffic(paper_cache_config(Protocol::WriteInBroadcast), 8,
                     *trace8->trace)
          .traffic_ratio();

  const double mlips = 2e6;
  out.bytes_per_inference = out.instr_per_inference * out.refs_per_instr * 4.0;
  double demand = mlips * out.bytes_per_inference;  // bytes/sec at 2 MLIPS
  out.demand_mb_per_sec = demand / 1e6;
  out.bus_mb_per_sec = demand * out.traffic_ratio / 1e6;
  return out;
}

TextTable mlips_report(const ReportOptions& opt) {
  return mlips_report(mlips_numbers(opt));
}

TextTable mlips_report(const MlipsNumbers& m) {
  TextTable t("Section 3.3: 2-MLIPS back-of-the-envelope, from measured numbers");
  t.header({"quantity", "value"});
  t.row({"instructions / inference (paper: ~15)", fmt(m.instr_per_inference, 2)});
  t.row({"references / instruction (paper: ~3)", fmt(m.refs_per_instr, 2)});
  t.row({"bytes / inference (paper: ~180)", fmt(m.bytes_per_inference, 1)});
  t.row({"demand bandwidth @2 MLIPS (paper: 360 MB/s)",
         fmt(m.demand_mb_per_sec, 1) + " MB/s"});
  t.row({"traffic ratio, 8PE 1024w write-in bcast (paper: <0.3)",
         fmt(m.traffic_ratio, 3)});
  t.row({"traffic captured by caches (paper: >70%)",
         fmt_pct(1.0 - m.traffic_ratio, 1)});
  t.row({"required bus bandwidth (paper: ~108 MB/s)",
         fmt(m.bus_mb_per_sec, 1) + " MB/s"});
  return t;
}

std::vector<TextTable> timing_report(const ReportOptions& opt) {
  const double s = opt.timing.effective_service();
  std::vector<TextTable> out;
  for (const std::string& name : small_bench_names()) {
    TextTable t("Timed replay vs analytic M/D/1 — " + name +
                " (write-in broadcast, 1024w, s=" + fmt(s, 2) + " cycles/word, wbuf=" +
                std::to_string(opt.timing.write_buffer_depth) + ")");
    t.header({"PEs", "traffic", "speedup", "efficiency", "bus util",
              "M/D/1 speedup", "M/D/1 eff"});
    std::vector<std::pair<unsigned, TimingStats>> runs;
    for (unsigned pes : opt.timing_pes) {
      std::shared_ptr<const GeneratedTrace> g =
          TraceLibrary::instance().get(name, opt.scale, pes);
      TimedReplay tr(paper_cache_config(Protocol::WriteInBroadcast), pes, opt.timing);
      tr.replay(*g->trace);
      TimingStats ts = tr.timing();
      runs.emplace_back(pes, ts);
      BusEstimate e = bus_contention(pes, tr.traffic().traffic_ratio(), BusParams{s});
      t.row({std::to_string(pes), fmt(tr.traffic().traffic_ratio(), 3),
             fmt(ts.speedup(), 2), fmt(ts.efficiency(), 3),
             fmt(ts.bus_utilization(), 3), fmt(e.aggregate_speedup, 2),
             fmt(e.pe_efficiency, 3)});
    }
    unsigned sat = saturation_pe_count(runs);
    t.row({"sat", sat ? std::to_string(sat) + " PEs" : "none", "", "", "", "", ""});
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace rapwam
