#include "harness/golden.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

#include "cache/sweep.h"
#include "harness/trace_lib.h"
#include "server/json.h"

namespace rapwam {

std::vector<std::pair<std::string, u64>> traffic_fields(const TrafficStats& s) {
  return {
      {"refs", s.refs},
      {"reads", s.reads},
      {"writes", s.writes},
      {"misses", s.misses},
      {"bus_words", s.bus_words},
      {"fetch_words", s.fetch_words},
      {"writeback_words", s.writeback_words},
      {"writethrough_words", s.writethrough_words},
      {"invalidations", s.invalidations},
      {"update_words", s.update_words},
      {"flush_words", s.flush_words},
      {"coherence_violations", s.coherence_violations},
      {"l2_hits", s.l2_hits},
      {"l2_misses", s.l2_misses},
      {"mem_fetch_words", s.mem_fetch_words},
      {"mem_writeback_words", s.mem_writeback_words},
      {"mem_word_writes", s.mem_word_writes},
      {"l2_back_invalidations", s.l2_back_invalidations},
      {"l2_back_inval_flush_words", s.l2_back_inval_flush_words},
  };
}

std::vector<std::pair<std::string, u64>> timing_fields(const TimingStats& t) {
  return {
      {"makespan", t.makespan},
      {"bus_busy_cycles", t.bus_busy_cycles},
      {"bus_transactions", t.bus_transactions},
      {"cache_fills", t.cache_fills},
      {"l2_fills", t.l2_fills},
      {"mem_fills", t.mem_fills},
      {"total_busy", t.total_busy()},
      {"total_stall", t.total_stall()},
  };
}

std::vector<std::pair<std::string, u64>> run_stats_fields(const RunStats& s) {
  std::vector<std::pair<std::string, u64>> out = {
      {"instructions", s.instructions},
      {"calls", s.calls},
      {"cycles", s.cycles},
      {"wait_polls", s.wait_polls},
      {"goals_pushed", s.goals_pushed},
      {"goals_stolen", s.goals_stolen},
      {"goals_local", s.goals_local},
      {"parcalls", s.parcalls},
      {"kills", s.kills},
      {"solutions", s.solutions},
      {"num_pes", s.num_pes},
      {"refs", s.refs.total},
      {"reads", s.refs.reads},
      {"writes", s.refs.writes},
      {"busy", s.refs.busy},
  };
  for (std::size_t a = 0; a < kAreaCount; ++a) {
    std::string area(area_name(static_cast<Area>(a)));
    out.emplace_back("by_area." + area, s.refs.by_area[a]);
    out.emplace_back("high_water." + area, s.high_water[a]);
  }
  for (std::size_t c = 0; c < kObjClassCount; ++c)
    out.emplace_back("by_class." + std::string(obj_class_name(static_cast<ObjClass>(c))),
                     s.refs.by_class[c]);
  for (unsigned pe = 0; pe < s.num_pes; ++pe)
    out.emplace_back("by_pe." + std::to_string(pe), s.refs.by_pe[pe]);
  return out;
}

namespace {

const Protocol kGoldenProtocols[] = {
    Protocol::WriteThrough, Protocol::WriteInBroadcast,
    Protocol::WriteThroughBroadcast, Protocol::Hybrid, Protocol::Copyback};

/// The standard timed point of the reports (fast interleaved bus).
TimingParams golden_timing() { return TimingParams{1, 1, 2, 4, 0}; }

/// Timing for the hierarchy point: same bus, but memory fills cost 10
/// extra cycles against the L2's 2 (paper_hier_config) — the latency
/// gap the L2 exists to hide.
TimingParams golden_hier_timing() { return TimingParams{1, 1, 2, 4, 10}; }

}  // namespace

std::vector<GoldenEntry> golden_compute(const std::string& bench) {
  std::vector<GoldenEntry> out;
  // 128 PEs pins the wide (PeSet) directory's numbers alongside the
  // flat fast path's; the pre-existing <= 64-PE entries are unchanged
  // by construction (the flat path is byte-identical to pre-PR-7).
  for (unsigned pes : {1u, 4u, 8u, 128u}) {
    std::shared_ptr<const GeneratedTrace> g =
        TraceLibrary::instance().get(bench, BenchScale::Small, pes);
    std::string prefix = "pes" + std::to_string(pes) + "/";
    out.push_back({prefix + "engine", run_stats_fields(g->stats)});
    for (Protocol p : kGoldenProtocols) {
      out.push_back({prefix + protocol_name(p),
                     traffic_fields(replay_traffic(
                         paper_cache_config(p, 1024), pes, *g->trace))});
    }
    for (L2Config::Inclusion inc : {L2Config::Inclusion::Inclusive,
                                    L2Config::Inclusion::NonInclusive}) {
      out.push_back(
          {prefix + "hier-" + inclusion_name(inc),
           traffic_fields(replay_traffic(
               paper_hier_config(Protocol::WriteInBroadcast, inc), pes,
               *g->trace))});
    }
    {
      TimedReplay tr(paper_cache_config(Protocol::WriteInBroadcast, 1024), pes,
                     golden_timing());
      tr.replay(*g->trace);
      out.push_back({prefix + "timing", timing_fields(tr.timing())});
    }
    {
      TimedReplay tr(paper_hier_config(), pes, golden_hier_timing());
      tr.replay(*g->trace);
      out.push_back({prefix + "timing-hier", timing_fields(tr.timing())});
    }
  }
  return out;
}

// --- serialization ----------------------------------------------------------

std::string golden_to_json(const std::string& bench,
                           const std::vector<GoldenEntry>& entries) {
  std::string out;
  out += "{\n  \"bench\": \"" + bench + "\",\n  \"scale\": \"small\",\n";
  out += "  \"entries\": {\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out += "    \"" + entries[i].key + "\": {";
    for (std::size_t j = 0; j < entries[i].fields.size(); ++j) {
      if (j) out += ", ";
      out += "\"" + entries[i].fields[j].first +
             "\": " + std::to_string(entries[i].fields[j].second);
    }
    out += i + 1 < entries.size() ? "},\n" : "}\n";
  }
  out += "  }\n}\n";
  return out;
}

std::vector<GoldenEntry> golden_from_json(const std::string& text) {
  JsonValue doc = json_parse(text);
  if (!doc.is_object()) fail("golden corpus: expected a JSON object");
  std::vector<GoldenEntry> out;
  // "bench" and "scale" are informational; only the entries are read.
  const JsonValue* entries = doc.find("entries");
  if (!entries) return out;
  if (!entries->is_object()) fail("golden corpus: \"entries\" is not an object");
  for (const auto& [key, fields] : entries->members()) {
    if (!fields.is_object()) fail("golden corpus: entry " + key + " is not an object");
    GoldenEntry e{key, {}};
    for (const auto& [name, v] : fields.members()) {
      if (!v.is_uint())
        fail("golden corpus: " + key + " field " + name +
             " is not a non-negative integer");
      e.fields.emplace_back(name, v.as_uint());
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<std::string> golden_diff(const std::vector<GoldenEntry>& golden,
                                     const std::vector<GoldenEntry>& live) {
  std::vector<std::string> out;
  std::map<std::string, const GoldenEntry*> live_by_key;
  for (const GoldenEntry& e : live) live_by_key[e.key] = &e;
  std::map<std::string, const GoldenEntry*> golden_by_key;
  for (const GoldenEntry& e : golden) golden_by_key[e.key] = &e;

  for (const GoldenEntry& g : golden) {
    auto it = live_by_key.find(g.key);
    if (it == live_by_key.end()) {
      out.push_back(g.key + ": missing from live run");
      continue;
    }
    std::map<std::string, u64> lf(it->second->fields.begin(),
                                  it->second->fields.end());
    for (const auto& [name, want] : g.fields) {
      auto f = lf.find(name);
      if (f == lf.end()) {
        out.push_back(g.key + ": field " + name + ": missing from live run");
      } else if (f->second != want) {
        out.push_back(g.key + ": field " + name + ": golden " +
                      std::to_string(want) + ", live " +
                      std::to_string(f->second));
      }
    }
  }
  for (const GoldenEntry& e : live) {
    if (!golden_by_key.count(e.key))
      out.push_back(e.key + ": not in golden corpus (run `rapwam_trace golden "
                            "--update` to add it)");
  }
  return out;
}

std::string golden_dir() {
  if (const char* env = std::getenv("RAPWAM_GOLDEN_DIR")) return env;
#ifdef RAPWAM_SOURCE_DIR
  return std::string(RAPWAM_SOURCE_DIR) + "/tests/golden";
#else
  return "tests/golden";
#endif
}

std::string read_text_file(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!f) fail("cannot open file for reading: " + path);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f.get())) > 0) out.append(buf, n);
  if (std::ferror(f.get())) fail("read error: " + path);
  return out;
}

void write_text_file(const std::string& path, const std::string& text) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (!f) fail("cannot open file for writing: " + path);
  if (std::fwrite(text.data(), 1, text.size(), f.get()) != text.size())
    fail("short write: " + path);
}

}  // namespace rapwam
