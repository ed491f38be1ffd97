// `serve` workload: the resident server, started by the benchmark with 2
// workers on a unix socket, fed in an open loop at a fixed rate (each
// request timed from when it was due), then driven in a closed loop on
// 4 connections. The mix: replay and time on seeded trace files recorded
// at set-up with FileTraceSink (each request loads the file,
// fingerprints it and replays it), replay on memoized bench keys,
// small sweeps, ping, and replays whose deadline kills them mid-replay
// so the client's retry resumes from the server's checkpoint. The
// server, trace-loading and checkpoint layers do the work.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.h"
#include "cache/config.h"
#include "checkpoint/checkpoint.h"
#include "harness/golden.h"
#include "harness/programs.h"
#include "harness/runner.h"
#include "harness/trace_lib.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"
#include "trace/chunks.h"

namespace pb {

namespace {

using namespace rapwam;
using i64 = rapwam::i64;

constexpr unsigned kWorkers = 2;
constexpr unsigned kConnections = 4;
/// Offered rate of the open-loop phase, requests per second.
constexpr double kOpenRate = 60;
constexpr int kRecvTimeoutMs = 30000;
constexpr int kMaxAttempts = 5;

enum Kind { ReplayFile, TimeFile, ReplayBench, SweepBench, Ping, Killed, kKinds };
const char* kind_name(int k) {
  switch (k) {
    case ReplayFile: return "replay_file";
    case TimeFile: return "time";
    case ReplayBench: return "replay_bench";
    case SweepBench: return "sweep";
    case Ping: return "ping";
    default: return "killed";
  }
}
/// Share of each kind in the mix, in percent.
/// Sweeps are the rare, slow kind: about 25 per open-loop phase, so the
/// tail percentile (ten samples beyond it) falls inside their class
/// rather than on whichever other requests a host stall hit.
constexpr int kWeights[kKinds] = {30, 10, 32, 3, 20, 5};

/// A request line and the fields its response must carry.
struct Template {
  int kind = Ping;
  std::string line;
  std::string retry_line;  ///< Killed: the same request without a deadline
  std::vector<std::pair<std::string, i64>> expect;  ///< dotted path -> value
};

void expect_traffic(Template& t, const std::string& prefix, const TrafficStats& s) {
  for (const auto& [name, v] : traffic_fields(s))
    t.expect.emplace_back(prefix + name, static_cast<i64>(v));
}

const JsonValue* lookup(const JsonValue& v, const std::string& path) {
  const JsonValue* cur = &v;
  std::size_t pos = 0;
  while (cur && pos <= path.size()) {
    std::size_t dot = path.find('.', pos);
    std::string part = path.substr(pos, dot == std::string::npos ? std::string::npos : dot - pos);
    if (cur->is_array()) {
      std::size_t i = std::stoul(part);
      cur = i < cur->items().size() ? &cur->items()[i] : nullptr;
    } else if (cur->is_object()) {
      cur = cur->find(part);
    } else {
      return nullptr;
    }
    if (dot == std::string::npos) break;
    pos = dot + 1;
  }
  return cur;
}

bool matches(const Template& t, const Response& r) {
  if (!r.ok) return false;
  if (t.kind == Ping) {
    const JsonValue* p = lookup(r.result, "pong");
    return p && p->is_bool() && p->as_bool();
  }
  for (const auto& [path, want] : t.expect) {
    const JsonValue* v = lookup(r.result, path);
    if (!v || !v->is_int() || v->as_int() != want) return false;
  }
  return true;
}

/// Records `bp` at `pes` PEs to `path` through FileTraceSink.
void record_file(const BenchProgram& bp, unsigned pes, const std::string& path) {
  ChunkingSink sink;
  {
    Span s("engine.solve");
    s.arg("pes", pes);
    run_into(bp, pes, /*strip=*/false, &sink);
  }
  std::shared_ptr<const ChunkedTrace> t = sink.take();
  Span s("trace.write");
  FileTraceSink file(path);
  t->for_each_chunk([&](const u64* p, std::size_t n) { file.on_chunk(p, n); });
  file.close();
  s.arg("bytes", static_cast<double>(file.written() * sizeof(u64)));
}

/// The in-process recomputation every response is compared with.
std::shared_ptr<const ChunkedTrace> load(const std::string& path) {
  Span s("trace.load");
  std::shared_ptr<const ChunkedTrace> t = load_chunked_trace(path, /*busy_only=*/false);
  s.arg("refs", static_cast<double>(t->size()));
  return t;
}

class ServeRun {
 public:
  explicit ServeRun(const Options& opt) : opt_(opt) {}
  ~ServeRun() { stop(); }
  ServeRun(const ServeRun&) = delete;
  ServeRun& operator=(const ServeRun&) = delete;

  /// Set-up, `reps` times: server start, trace files recorded, bench
  /// keys memoized, expected responses computed in-process.
  void setup(Outcome& o, int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      stop();
      Span s("bench.setup");
      Clock::time_point t0 = Clock::now();
      TraceLibrary::instance().clear();
      templates_.clear();
      std::string sock = opt_.out_dir + "/serve.sock";
      std::filesystem::remove(sock);
      ep_ = Endpoint::parse("unix:" + sock);
      ServiceConfig cfg;
      cfg.workers = kWorkers;
      cfg.queue_limit = 16;
      server_ = std::make_unique<Server>(ep_, cfg);
      server_->start();
      make_templates();
      o.setup_s.push_back(seconds_since(t0));
    }
  }

  void stop() {
    if (server_) server_->stop();
    server_.reset();
  }

  /// Open loop for `open_s` at kOpenRate, then a closed loop on
  /// kConnections connections for `b`.
  void timed(double open_s, const Budget& b, Outcome& o) {
    JsonValue before = stats();
    open_loop(open_s, o);
    closed_loop(b, o);
    JsonValue after = stats();
    for (const char* c : {"completed", "failed", "cancelled", "checkpoints_written",
                          "resumes", "resume_chunks_skipped", "shed"})
      counters_[c] = static_cast<double>(lookup(after, c)->as_int() -
                                         lookup(before, c)->as_int());
    Digest dg;
    for (const Template& t : templates_)
      for (const auto& [path, v] : t.expect) dg.add(static_cast<u64>(v));
    o.digest = dg.h;
  }

  double counter(const std::string& name) const { return counters_.at(name); }
  const std::vector<double>& lag_ms() const { return lag_ms_; }
  u64 retries() const { return retries_; }

 private:
  void make_templates() {
    const u32 s = opt_.seed * 8;
    long k = static_cast<long>(opt_.seed % 32);
    struct FileSpec {
      BenchProgram bp;
      unsigned pes;
    };
    std::vector<FileSpec> files = {
        {{"qsort", bench_program("qsort", BenchScale::Small).source,
          "qsort(" + gen_int_list(600, s + 9) + ",R)"}, 4},
        {{"tak", bench_program("tak", BenchScale::Small).source,
          "tak(" + std::to_string(12 + k) + "," + std::to_string(7 + k) + "," +
              std::to_string(3 + k) + ",A)"}, 2},
        {{"deriv", bench_program("deriv", BenchScale::Small).source,
          "d(" + gen_deriv_expr(1500, s + 10) + ",x,D)"}, 8},
    };
    std::vector<std::string> paths;
    for (std::size_t i = 0; i < files.size(); ++i) {
      paths.push_back(opt_.out_dir + "/serve-" + std::to_string(i) + ".trc");
      record_file(files[i].bp, files[i].pes, paths.back());
    }

    // Bench keys the server replays from its memoized library: one miss
    // generates each, a second get() is a hit.
    const std::pair<const char*, unsigned> keys[] = {{"qsort", 4}, {"tak", 8}, {"deriv", 2}};
    for (const auto& [bench, pes] : keys) {
      {
        Span m("harness.trace_lib_miss");
        TraceLibrary::instance().get(bench, BenchScale::Paper, pes);
      }
      Span h("harness.trace_lib_hit");
      TraceLibrary::instance().get(bench, BenchScale::Paper, pes);
    }

    const char* protocols[] = {"broadcast", "hybrid", "wt"};
    for (std::size_t i = 0; i < paths.size(); ++i)
      add(ReplayFile, "{\"op\":\"replay\",\"trace\":\"" + paths[i] + "\",\"protocol\":\"" +
                          protocols[i] + "\",\"size\":1024}");
    add(TimeFile, "{\"op\":\"time\",\"trace\":\"" + paths[1] +
                      "\",\"service\":1,\"interleave\":2,\"wbuf\":4}");
    add(ReplayBench,
        "{\"op\":\"replay\",\"bench\":\"qsort\",\"scale\":\"paper\",\"pes\":4,"
        "\"protocol\":\"hybrid\",\"size\":2048}");
    add(ReplayBench,
        "{\"op\":\"replay\",\"bench\":\"tak\",\"scale\":\"paper\",\"pes\":8,"
        "\"protocol\":\"wt\",\"size\":512}");
    add(SweepBench,
        "{\"op\":\"sweep\",\"bench\":\"deriv\",\"scale\":\"paper\",\"pes\":2,"
        "\"protocols\":[\"wt\",\"broadcast\",\"update\",\"hybrid\",\"copyback\"],"
        "\"sizes\":[256,1024,4096,8192]}");
    add(Ping, "{\"op\":\"ping\"}");

    // A deadline past the file load and fingerprint but short of the
    // whole replay, so the request is killed part way through.
    Clock::time_point t0 = Clock::now();
    std::shared_ptr<const ChunkedTrace> t = load(paths[0]);
    trace_fingerprint(*t);
    double load_ms = 1e3 * seconds_since(t0);
    HierCacheSim sim(CacheConfig{}, t->num_pes());
    t0 = Clock::now();
    sim.replay(*t);
    double replay_ms = 1e3 * seconds_since(t0);
    int deadline = std::max(1, static_cast<int>(load_ms + replay_ms / 2));
    std::string retry = "{\"op\":\"replay\",\"trace\":\"" + paths[0] + "\"}";
    add(Killed, "{\"op\":\"replay\",\"trace\":\"" + paths[0] + "\",\"deadline_ms\":" +
                    std::to_string(deadline) + "}",
        retry);
  }

  void add(int kind, const std::string& line, const std::string& retry = "") {
    Template t;
    t.kind = kind;
    t.line = line;
    t.retry_line = retry;
    Request req = parse_request(retry.empty() ? line : retry);
    if (kind == ReplayFile || kind == TimeFile || kind == Killed) {
      std::shared_ptr<const ChunkedTrace> tr = load(req.trace_path);
      {
        Span s("checkpoint.fingerprint");
        trace_fingerprint(*tr);
      }
      unsigned pes = tr->num_pes();
      if (kind == TimeFile) {
        TimedReplay rp(req.cfg, pes, req.timing);
        rp.replay(*tr);
        for (const auto& [name, v] : timing_fields(rp.timing()))
          t.expect.emplace_back(name, static_cast<i64>(v));
        expect_traffic(t, "traffic.", rp.traffic());
      } else {
        HierCacheSim sim(req.cfg, pes);
        sim.replay(*tr);
        expect_traffic(t, "", sim.stats());
      }
    } else if (kind == ReplayBench || kind == SweepBench) {
      std::shared_ptr<const GeneratedTrace> g =
          TraceLibrary::instance().get(req.bench, req.scale, req.pes);
      if (kind == ReplayBench) {
        HierCacheSim sim(req.cfg, req.pes);
        sim.replay(*g->trace);
        expect_traffic(t, "", sim.stats());
      } else {
        int i = 0;
        for (Protocol p : req.sweep_protocols)
          for (u32 size : req.sweep_sizes) {
            CacheConfig cfg = paper_cache_config(p, size);
            cfg.line_words = req.cfg.line_words;
            HierCacheSim sim(cfg, req.pes);
            sim.replay(*g->trace);
            t.expect.emplace_back("points." + std::to_string(i++) + ".bus_words",
                                  static_cast<i64>(sim.stats().bus_words));
          }
      }
    }
    templates_.push_back(std::move(t));
  }

  /// Seeded kind choice by the mix weights, then a template of that kind.
  std::size_t pick(u64& lcg) const {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    int r = static_cast<int>((lcg >> 33) % 100), kind = 0;
    for (int acc = 0; kind < kKinds; ++kind)
      if (r < (acc += kWeights[kind])) break;
    std::vector<std::size_t> of;
    for (std::size_t i = 0; i < templates_.size(); ++i)
      if (templates_[i].kind == kind) of.push_back(i);
    return of[(lcg >> 17) % of.size()];
  }

  Response send(Socket& sock, const std::string& line, int kind) {
    Span s("client.request");
    s.arg("kind", kind);
    sock.send_all(line + "\n");
    std::string resp;
    if (!sock.recv_line(resp, JsonLimits{}.max_bytes, kRecvTimeoutMs))
      fail("server closed the connection");
    return Response::parse(resp);
  }

  /// One request with the client's retry policy: overloaded requests
  /// retry after the server's hint, a killed request retries without
  /// its deadline and resumes from the server's checkpoint. Returns
  /// whether the final response is correct.
  bool exchange(Socket& sock, const Template& t, long req_id) {
    ReqScope rs(req_id);
    std::string line = t.line;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      Response r = send(sock, line, t.kind);
      if (r.ok) return matches(t, r);
      if (r.code == "overloaded") {
        ++retries_;
        std::this_thread::sleep_for(std::chrono::milliseconds(std::max<i64>(1, r.retry_after_ms)));
        continue;
      }
      if (t.kind == Killed && r.code == "deadline_exceeded") {
        ++retries_;
        line = t.retry_line;
        continue;
      }
      return false;
    }
    return false;
  }

  void open_loop(double open_s, Outcome& o) {
    const std::size_t n = std::max<std::size_t>(1, static_cast<std::size_t>(open_s * kOpenRate));
    std::vector<std::size_t> which(n);
    u64 lcg = opt_.seed * 0x9E3779B97F4A7C15ull + 3;
    for (std::size_t& w : which) w = pick(lcg);
    std::vector<double> lat(n, 0), lag(n, 0);
    std::vector<char> ok(n, 0);
    std::atomic<std::size_t> next{0};
    Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
    auto due = [&](std::size_t i) {
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(i) / kOpenRate));
    };
    auto sender = [&] {
      Socket sock = Socket::connect(ep_, kRecvTimeoutMs);
      for (std::size_t i; (i = next.fetch_add(1)) < n;) {
        std::this_thread::sleep_until(due(i));
        lag[i] = 1e3 * std::chrono::duration<double>(Clock::now() - due(i)).count();
        try {
          ok[i] = exchange(sock, templates_[which[i]], static_cast<long>(i));
        } catch (const std::exception& e) {
          std::fprintf(stderr, "request %zu: %s\n", i, e.what());
          sock = Socket::connect(ep_, kRecvTimeoutMs);
        }
        lat[i] = 1e3 * std::chrono::duration<double>(Clock::now() - due(i)).count();
      }
    };
    run_threads(sender, o);
    for (std::size_t i = 0; i < n; ++i) {
      ++o.attempted;
      check(o, ok[i], std::string(kind_name(templates_[which[i]].kind)) +
                          " response differs from the in-process recomputation");
      // A failed request counts as missing any latency limit.
      o.lat_ms.push_back(ok[i] ? lat[i] : 1e9);
    }
    lag_ms_ = lag;
  }

  /// Closed loop. The throughput reported is ok responses per second of
  /// the loop. On a shared host a request's time often jumps between two
  /// levels, so a median round trip per kind flips between them from run
  /// to run; the plain count moves only with the share of slow ones.
  void closed_loop(const Budget& b, Outcome& o) {
    std::atomic<long> issued{0};
    std::atomic<u64> good{0}, bad{0};
    const long limit = b.rounds > 0 ? b.rounds : -1;
    std::atomic<u64> conn{0};
    Clock::time_point t0 = Clock::now();
    auto client = [&] {
      Socket sock = Socket::connect(ep_, kRecvTimeoutMs);
      u64 lcg = opt_.seed * 7919ull + 17 + conn.fetch_add(1);
      for (;;) {
        long i = issued.fetch_add(1);
        if (limit >= 0 ? i >= limit : seconds_since(t0) >= b.seconds) break;
        bool ok = false;
        const Template& t = templates_[pick(lcg)];
        try {
          ok = exchange(sock, t, 1000000 + i);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "closed-loop request: %s\n", e.what());
          sock = Socket::connect(ep_, kRecvTimeoutMs);
        }
        (ok ? good : bad).fetch_add(1);
      }
    };
    run_threads(client, o);
    o.timed_s = seconds_since(t0);
    o.work = static_cast<double>(good.load());
    o.rate = o.work / o.timed_s;
    o.rounds = static_cast<int>(good.load() + bad.load());
    o.attempted += good.load() + bad.load();
    for (u64 i = 0; i < bad.load(); ++i) check(o, false, "closed-loop response wrong or failed");
  }

  /// Runs `fn` on kConnections threads. A thread that throws (say, it
  /// cannot reconnect) stops early and counts as one failed operation.
  template <typename Fn>
  void run_threads(Fn& fn, Outcome& o) {
    std::atomic<u64> errors{0};
    std::vector<std::thread> ts;
    for (unsigned c = 0; c < kConnections; ++c)
      ts.emplace_back([&fn, &errors] {
        try {
          fn();
        } catch (const std::exception& e) {
          std::fprintf(stderr, "load thread: %s\n", e.what());
          errors.fetch_add(1);
        }
      });
    for (std::thread& t : ts) t.join();
    o.attempted += errors.load();
    for (u64 i = 0; i < errors.load(); ++i) check(o, false, "load thread failed");
  }

  JsonValue stats() {
    Socket sock = Socket::connect(ep_, kRecvTimeoutMs);
    Response r = send(sock, "{\"op\":\"stats\"}", -1);
    if (!r.ok) fail("stats request failed: " + r.message);
    return r.result;
  }

  const Options& opt_;
  Endpoint ep_;
  std::unique_ptr<Server> server_;
  std::vector<Template> templates_;
  std::map<std::string, double> counters_;
  std::vector<double> lag_ms_;
  std::atomic<u64> retries_{0};
};

}  // namespace

Outcome run_serve(const Options& opt, const Budget& b) {
  Outcome o;
  ServeRun run(opt);
  // Set-up restarts the server, so the set-ups cannot be spread over the
  // timed phase; half precede it and half follow, 30 s apart.
  run.setup(o, kSetupReps / 2);
  run.timed(0.5 * b.seconds, Budget{0.5 * b.seconds, b.rounds}, o);
  run.setup(o, kSetupReps - kSetupReps / 2);
  return o;
}

void trace_serve(const Options& opt, const Budget& b, Outcome& o, LayerMetrics& m) {
  std::size_t mark = Tracer::get().mark();
  ServeRun run(opt);
  run.setup(o, 1);
  run.timed(0.5 * b.seconds, Budget{0.5 * b.seconds, b.rounds}, o);
  run.stop();
  std::vector<SpanRec> spans = Tracer::get().spans_since(mark);

  for (int k = 0; k < kKinds; ++k) {
    if (k == Killed) continue;
    m[std::string("server.rtt_p50_ms.") + kind_name(k)] = {
        1e3 * median_dur(select(spans, "client.request", "kind", k)), "ms"};
  }
  for (const char* c : {"completed", "failed", "shed", "cancelled", "checkpoints_written",
                        "resumes", "resume_chunks_skipped"})
    m[std::string("server.") + c] = {run.counter(c), "count"};
  m["loadgen.lag_p99_ms"] = {quantile(run.lag_ms(), 0.99), "ms"};
  m["client.retries"] = {static_cast<double>(run.retries()), "count"};

  auto w = select(spans, "trace.write");
  double bytes = 0, secs = 0;
  for (const SpanRec* s : w) {
    bytes += s->arg("bytes");
    secs += s->dur();
  }
  m["trace.write_mb_per_s"] = {secs > 0 ? bytes / secs / (1 << 20) : 0, "MiB/s"};
  m["trace.load_refs_per_s"] = {rate(select(spans, "trace.load"), "refs"), "1/s"};
  m["checkpoint.fingerprint_s"] = {median_dur(select(spans, "checkpoint.fingerprint")), "s"};
  m["harness.trace_lib_miss_s"] = {median_dur(select(spans, "harness.trace_lib_miss")), "s"};
  m["harness.trace_lib_hit_s"] = {median_dur(select(spans, "harness.trace_lib_hit")), "s"};
}

}  // namespace pb
