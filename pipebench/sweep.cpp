// `sweep` workload: traces of the four seeded programs at 1/2/4/8 PEs,
// generated once at set-up, then the Figure 4 grid replayed through
// run_sweep on a pool of host threads: every protocol at cache sizes
// from 64 words (miss- and eviction-heavy) to 8192 words (hit-heavy),
// inclusive and non-inclusive L2 points at 8 PEs, timed replays at every
// PE count, and checkpointed replays that are resumed mid-trace. The
// cache, timing, checkpoint and harness layers do the work; the engine
// idles after set-up.
#include <algorithm>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <tuple>

#include "bench.h"
#include "cache/refsim.h"
#include "cache/sweep.h"
#include "checkpoint/checkpoint.h"
#include "harness/programs.h"
#include "harness/runner.h"
#include "trace/chunks.h"

namespace pb {

namespace {

using namespace rapwam;

constexpr Protocol kProtocols[] = {Protocol::WriteThrough, Protocol::WriteInBroadcast,
                                   Protocol::WriteThroughBroadcast, Protocol::Hybrid,
                                   Protocol::Copyback};
const char* const kProtocolNames[] = {"write-thru", "write-in", "write-update", "hybrid",
                                      "copyback"};
constexpr u32 kSizes[] = {64, 256, 1024, 4096, 8192};
constexpr unsigned kPes[] = {1, 2, 4, 8};
/// Chunks between two checkpoints of a checkpointed replay.
constexpr std::size_t kCheckpointEvery = 2;

TimingParams standard_timing() { return TimingParams{1, 1, 2, 4, 0}; }

struct Trace {
  std::string name;
  unsigned pes = 1;
  std::shared_ptr<const ChunkedTrace> chunks;
};

/// Seeded programs near the paper's scale.
std::vector<BenchProgram> programs(u32 seed) {
  const u32 s = seed * 8;
  long k = static_cast<long>(seed % 32);
  return {
      {"qsort", bench_program("qsort", BenchScale::Small).source,
       "qsort(" + gen_int_list(900, s + 5) + ",R)"},
      {"deriv", bench_program("deriv", BenchScale::Small).source,
       "d(" + gen_deriv_expr(950, s + 6) + ",x,D)"},
      {"tak", bench_program("tak", BenchScale::Small).source,
       "tak(" + std::to_string(12 + k) + "," + std::to_string(7 + k) + "," +
           std::to_string(3 + k) + ",A)"},
      {"matrix", bench_program("matrix", BenchScale::Small).source,
       "mmul(" + gen_matrix_text(16, 16, s + 7) + "," + gen_matrix_text(16, 16, s + 8) +
           ",R)"},
  };
}

/// Set-up, `reps` times: every seeded program traced at every PE count.
std::vector<Trace> setup(const Options& opt, Outcome& o, int reps) {
  std::vector<Trace> traces;
  for (int rep = 0; rep < reps; ++rep) {
    Span s("bench.setup");
    Clock::time_point t0 = Clock::now();
    traces.clear();
    for (const BenchProgram& bp : programs(opt.seed))
      for (unsigned pes : kPes) {
        ChunkingSink sink;
        {
          Span g("engine.solve");
          g.arg("pes", pes);
          run_into(bp, pes, /*strip=*/false, &sink);
        }
        traces.push_back({bp.name, pes, sink.take()});
      }
    o.setup_s.push_back(seconds_since(t0));
  }
  return traces;
}

/// One grid point's stats, kept from the first round for cross-checks.
struct Key {
  std::size_t trace;
  int protocol;
  u32 size;
  bool operator<(const Key& k) const {
    return std::tie(trace, protocol, size) < std::tie(k.trace, k.protocol, k.size);
  }
};

class SweepRun {
 public:
  SweepRun(const Options& opt, std::vector<Trace> traces)
      : opt_(opt), traces_(std::move(traces)),
        pool_(std::min(4u, std::max(1u, std::thread::hardware_concurrency()))) {}

  void timed(const Budget& b, Outcome& o, SetupSpreader* setups) {
    Digest dg;
    double op_s = 0;
    Clock::time_point t0 = Clock::now();
    int round = 0;
    for (; b.more(round, t0); ++round) {
      Digest* d = round == 0 ? &dg : nullptr;
      for (std::size_t t = 0; t < traces_.size(); ++t)
        op_s += op(o, [&] { grid(t, o, d); });
      op_s += op(o, [&] { l2(o, d); });
      op_s += op(o, [&] { timed_replays(o, d); });
      for (int c = 0; c < 2; ++c)
        op_s += op(o, [&] {
          checkpointed((opt_.seed + 5 * round + 7 * c) % traces_.size(), o);
        });
      if (setups) setups->between_rounds(seconds_since(t0));
    }
    o.timed_s = seconds_since(t0);
    o.rate = o.work / op_s;
    o.rounds = round;
    o.digest = dg.h;
    reference_check(o);
  }

  /// Traced-run probes: every grid point of the 1- and 8-PE traces
  /// replayed one at a time, then the largest grid through run_sweep,
  /// for per-point rates and the pool's speedup.
  void probes() {
    for (std::size_t t = 0; t < traces_.size(); ++t) {
      if (traces_[t].pes != 1 && traces_[t].pes != 8) continue;
      for (int p = 0; p < 5; ++p)
        for (u32 size : kSizes) {
          HierCacheSim sim(paper_cache_config(kProtocols[p], size), traces_[t].pes);
          Span s("cache.replay");
          sim.replay(*traces_[t].chunks);
          s.arg("protocol", p);
          s.arg("size", size);
          s.arg("pes", traces_[t].pes);
          s.arg("refs", static_cast<double>(traces_[t].chunks->size()));
        }
      if (traces_[t].pes == 8)
        for (L2Config::Inclusion inc :
             {L2Config::Inclusion::Inclusive, L2Config::Inclusion::NonInclusive}) {
          HierCacheSim sim(paper_hier_config(Protocol::WriteInBroadcast, inc), 8);
          Span s("cache.hier_replay");
          sim.replay(*traces_[t].chunks);
          s.arg("inclusive", inc == L2Config::Inclusion::Inclusive);
          s.arg("refs", static_cast<double>(traces_[t].chunks->size()));
        }
    }
    std::size_t big = 0;
    for (std::size_t t = 0; t < traces_.size(); ++t)
      if (traces_[t].chunks->size() > traces_[big].chunks->size()) big = t;
    double serial = 0;
    for (const SweepPoint& pt : grid_points(big)) {
      Clock::time_point t0 = Clock::now();
      HierCacheSim sim(pt.cfg, pt.num_pes);
      sim.replay(*pt.chunks);
      serial += seconds_since(t0);
    }
    Span s("harness.sweep_probe");
    run_sweep(pool_, grid_points(big));
    s.arg("serial_s", serial);
  }

  const std::vector<Trace>& traces() const { return traces_; }
  const std::map<Key, TrafficStats>& first_round() const { return first_; }
  /// Timing of 8-PE qsort at the standard point (exact simulated figures).
  const TimingStats& timing_qsort8() const { return timing8_; }

 private:
  /// Runs one timed operation, which adds its work to o.work. Returns
  /// its duration in seconds.
  template <typename Fn>
  double op(Outcome& o, Fn&& fn) {
    Clock::time_point t0 = Clock::now();
    ++o.attempted;
    try {
      Span s("bench.op");
      fn();
    } catch (const std::exception& e) {
      check(o, false, std::string("sweep operation: ") + e.what());
    }
    double secs = seconds_since(t0);
    o.lat_ms.push_back(1e3 * secs);
    return secs;
  }

  std::vector<SweepPoint> grid_points(std::size_t t) const {
    std::vector<SweepPoint> pts;
    for (int p = 0; p < 5; ++p)
      for (u32 size : kSizes) {
        SweepPoint pt;
        pt.cfg = paper_cache_config(kProtocols[p], size);
        pt.num_pes = traces_[t].pes;
        pt.chunks = traces_[t].chunks.get();
        pt.label = p;
        pts.push_back(pt);
      }
    return pts;
  }

  void grid(std::size_t t, Outcome& o, Digest* dg) {
    std::vector<SweepPoint> pts = grid_points(t);
    std::vector<SweepResult> res;
    {
      Span s("harness.sweep");
      res = run_sweep(pool_, pts);
      s.arg("points", static_cast<double>(pts.size()));
    }
    for (const SweepResult& r : res) {
      Key k{t, r.point.label, r.point.cfg.size_words};
      o.work += static_cast<double>(r.stats.refs);
      if (dg) {
        dg->add(r.stats);
        first_[k] = r.stats;
      } else {
        auto it = first_.find(k);
        check(o, it != first_.end() && it->second == r.stats,
              traces_[t].name + ": sweep point differs between rounds");
      }
    }
  }

  void l2(Outcome& o, Digest* dg) {
    std::vector<SweepPoint> pts;
    for (std::size_t t = 0; t < traces_.size(); ++t) {
      if (traces_[t].pes != 8) continue;
      for (L2Config::Inclusion inc :
           {L2Config::Inclusion::Inclusive, L2Config::Inclusion::NonInclusive}) {
        SweepPoint pt;
        pt.cfg = paper_hier_config(Protocol::WriteInBroadcast, inc);
        pt.num_pes = 8;
        pt.chunks = traces_[t].chunks.get();
        pt.label = static_cast<int>(t);
        pts.push_back(pt);
      }
    }
    std::vector<SweepResult> res;
    {
      Span s("harness.sweep");
      res = run_sweep(pool_, pts);
    }
    for (std::size_t i = 0; i < res.size(); i += 2) {
      const TrafficStats& inc = res[i].stats;
      const TrafficStats& non = res[i + 1].stats;
      o.work += static_cast<double>(inc.refs + non.refs);
      // A non-inclusive L2 leaves the bus side exactly as the flat model.
      const TrafficStats& flat =
          first_.at(Key{static_cast<std::size_t>(res[i].point.label), 1, 1024});
      check(o, non.bus_words == flat.bus_words && non.misses == flat.misses,
            "non-inclusive L2 changed bus-side traffic");
      if (dg) {
        dg->add(inc);
        dg->add(non);
      }
    }
  }

  void timed_replays(Outcome& o, Digest* dg) {
    long parent = Tracer::get().on() ? tl_ctx.current : -1;
    std::vector<std::future<std::pair<TrafficStats, TimingStats>>> fut;
    for (std::size_t t = 0; t < traces_.size(); ++t)
      fut.push_back(pool_.submit([this, t, parent] {
        const Trace& tr = traces_[t];
        TimedReplay rp(paper_cache_config(Protocol::WriteInBroadcast, 1024), tr.pes,
                       standard_timing());
        Span s("timing.replay", parent);
        rp.replay(*tr.chunks);
        s.arg("pes", tr.pes);
        s.arg("refs", static_cast<double>(tr.chunks->size()));
        return std::make_pair(rp.traffic(), rp.timing());
      }));
    for (std::size_t t = 0; t < traces_.size(); ++t) {
      auto [traffic, timing] = fut[t].get();
      o.work += static_cast<double>(traffic.refs);
      check(o, traffic == first_.at(Key{t, 1, 1024}),
            traces_[t].name + ": timed replay traffic differs from the untimed replay");
      if (dg) dg->add(timing);
      if (traces_[t].name == "qsort" && traces_[t].pes == 8) timing8_ = timing;
    }
  }

  /// Replays one trace at the standard point with a checkpoint every
  /// kCheckpointEvery chunks, stops half way, resumes from the published
  /// file and finishes; the result must equal the uninterrupted replay.
  void checkpointed(std::size_t t, Outcome& o) {
    const Trace& tr = traces_[t];
    CacheConfig cfg = paper_cache_config(Protocol::WriteInBroadcast, 1024);
    u64 fp;
    {
      Span s("checkpoint.fingerprint");
      fp = trace_fingerprint(*tr.chunks);
    }
    u64 hash = replay_config_hash(cfg, tr.pes, resolve_wide(DirRep::Auto, tr.pes), fp);
    std::string path = opt_.out_dir + "/sweep-" + std::to_string(t) + ".ckpt";
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".prev");
    CheckpointWriter writer(path);
    const std::size_t n = tr.chunks->num_chunks(), stop = n / 2;
    {
      HierCacheSim sim(cfg, tr.pes);
      for (std::size_t i = 0; i < stop; ++i) {
        const std::vector<u64>& c = tr.chunks->chunk(i);
        sim.replay(c.data(), c.size());
        if ((i + 1) % kCheckpointEvery == 0 || i + 1 == stop) {
          CheckpointMeta meta{hash, i + 1, sim.stats().refs, false};
          std::string frame;
          {
            Span s("checkpoint.serialize");
            frame = checkpoint_serialize(meta, sim);
            s.arg("bytes", static_cast<double>(frame.size()));
          }
          Span s("checkpoint.publish");
          writer.publish(frame);
        }
      }
    }
    std::unique_ptr<HierCacheSim> sim;
    std::size_t start = 0;
    if (stop > 0) {
      Span s("checkpoint.resume");
      std::optional<ResumeOutcome> r =
          checkpoint_resume(path, cfg, tr.pes, DirRep::Auto, nullptr, hash);
      check(o, r.has_value() && r->rejected == 0, tr.name + ": no checkpoint to resume");
      if (!r) return;
      sim = std::move(r->restored.sim);
      start = r->restored.meta.chunk_index;
    } else {
      sim = std::make_unique<HierCacheSim>(cfg, tr.pes);
    }
    for (std::size_t i = start; i < n; ++i) {
      const std::vector<u64>& c = tr.chunks->chunk(i);
      sim->replay(c.data(), c.size());
    }
    o.work += static_cast<double>(tr.chunks->size());
    check(o, start == stop && sim->stats() == first_.at(Key{t, 1, 1024}),
          tr.name + ": resumed replay differs from the uninterrupted one");
  }

  /// A seeded sample of flat grid points must be bit-identical to the
  /// naive broadcast-snoop reference simulator.
  void reference_check(Outcome& o) {
    u64 r = opt_.seed * 2654435761ull + 11;
    for (int i = 0; i < 3; ++i) {
      r = r * 6364136223846793005ull + 1442695040888963407ull;
      std::size_t t = (r >> 33) % traces_.size();
      int p = static_cast<int>((r >> 20) % 5);
      u32 size = kSizes[(r >> 40) % 5];
      ReferenceCacheSim ref(paper_cache_config(kProtocols[p], size), traces_[t].pes);
      ref.replay(traces_[t].chunks->to_packed());
      auto it = first_.find(Key{t, p, size});
      check(o, it != first_.end() && it->second == ref.stats(),
            traces_[t].name + ": sweep point differs from ReferenceCacheSim");
    }
  }

  const Options& opt_;
  std::vector<Trace> traces_;
  ThreadPool pool_;
  std::map<Key, TrafficStats> first_;
  TimingStats timing8_;
};

}  // namespace

Outcome run_sweep(const Options& opt, const Budget& b) {
  Outcome o;
  SweepRun run(opt, setup(opt, o, 1));
  SetupSpreader setups(b.seconds, [&] { setup(opt, o, 1); });
  run.timed(b, o, &setups);
  setups.finish();
  return o;
}

void trace_sweep(const Options& opt, const Budget& b, Outcome& o, LayerMetrics& m) {
  std::size_t mark = Tracer::get().mark();
  SweepRun run(opt, setup(opt, o, 1));
  run.timed(b, o, nullptr);
  run.probes();
  std::vector<SpanRec> spans = Tracer::get().spans_since(mark);

  for (int p = 0; p < 5; ++p)
    m[std::string("cache.refs_per_s.") + kProtocolNames[p]] = {
        rate(select(spans, "cache.replay", "protocol", p), "refs"), "1/s"};
  m["cache.refs_per_s.size64"] = {rate(select(spans, "cache.replay", "size", 64), "refs"),
                                  "1/s"};
  m["cache.refs_per_s.size8192"] = {
      rate(select(spans, "cache.replay", "size", 8192), "refs"), "1/s"};
  m["cache.refs_per_s.pes1"] = {rate(select(spans, "cache.replay", "pes", 1), "refs"), "1/s"};
  m["cache.refs_per_s.pes8"] = {rate(select(spans, "cache.replay", "pes", 8), "refs"), "1/s"};
  m["cache.hier_refs_per_s.inclusive"] = {
      rate(select(spans, "cache.hier_replay", "inclusive", 1), "refs"), "1/s"};
  m["cache.hier_refs_per_s.noninclusive"] = {
      rate(select(spans, "cache.hier_replay", "inclusive", 0), "refs"), "1/s"};
  m["timing.refs_per_s.pes1"] = {rate(select(spans, "timing.replay", "pes", 1), "refs"),
                                 "1/s"};
  m["timing.refs_per_s.pes8"] = {rate(select(spans, "timing.replay", "pes", 8), "refs"),
                                 "1/s"};
  m["timing.bus_utilization.pes8"] = {run.timing_qsort8().bus_utilization(), "ratio"};
  m["timing.speedup.pes8"] = {run.timing_qsort8().speedup(), "ratio"};

  // The exact simulated figures of the paper's standard point, 8-PE qsort.
  for (std::size_t t = 0; t < run.traces().size(); ++t)
    if (run.traces()[t].name == "qsort" && run.traces()[t].pes == 8) {
      const TrafficStats& s = run.first_round().at(Key{t, 1, 1024});
      m["cache.traffic_ratio"] = {s.traffic_ratio(), "ratio"};
      m["cache.miss_ratio"] = {s.miss_ratio(), "ratio"};
    }

  auto ser = select(spans, "checkpoint.serialize");
  double bytes = 0;
  for (const SpanRec* s : ser) bytes += s->arg("bytes");
  m["checkpoint.serialize_s"] = {median_dur(ser), "s"};
  m["checkpoint.frame_kb"] = {ser.empty() ? 0 : bytes / ser.size() / 1024, "KiB"};
  m["checkpoint.publish_s"] = {median_dur(select(spans, "checkpoint.publish")), "s"};
  m["checkpoint.resume_s"] = {median_dur(select(spans, "checkpoint.resume")), "s"};
  m["harness.sweep_s"] = {median_dur(select(spans, "harness.sweep")), "s"};
  auto probe = select(spans, "harness.sweep_probe");
  m["harness.pool_speedup"] = {
      probe.empty() ? 0 : probe[0]->arg("serial_s") / probe[0]->dur(), "ratio"};
}

}  // namespace pb
