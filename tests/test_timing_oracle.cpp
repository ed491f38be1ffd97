// Oracle for the timed replay (src/timing): a deliberately naive
// re-implementation of docs/DESIGN.md §7 that TimedReplay's whole
// TimingStats must match bit for bit — makespan, per-PE refs, busy,
// stall and clock, bus busy cycles and transactions, and fills by
// supplier. It shares no timing code with TimedReplay:
//   * coherence comes from ReferenceCacheSim (cache/refsim.h), and what
//     a reference did is learned by diffing its counters around the
//     access;
//   * the bus is a per-cycle occupancy array, and a transaction gets
//     the earliest run of free cycles at or after its ready time;
//   * write buffers are plain vectors of completion times.
// TimingDiff (test_timing_diff.cpp) compares only traffic and
// structural properties, and the golden `timing` entries pin old
// output; this suite checks the clocks and stalls themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cache/refsim.h"
#include "test_rand.h"
#include "timing/timed_replay.h"

namespace rapwam {
namespace {

class NaiveTimedReplay {
 public:
  NaiveTimedReplay(const CacheConfig& cfg, unsigned pes, const TimingParams& tp)
      : sim_(cfg, pes), tp_(tp), clock_(pes, 0), wbuf_(pes) {
    ts_.pe.resize(pes);
  }

  void step(const MemRef& r) {
    const TrafficStats before = sim_.stats();
    sim_.access(r);
    const TrafficStats& after = sim_.stats();
    u64 fetch = after.fetch_words - before.fetch_words;
    u64 flush = after.flush_words - before.flush_words;
    u64 bus = after.bus_words - before.bus_words;
    bool demand = fetch + flush > 0;

    PeTiming& t = ts_.pe[r.pe];
    std::vector<u64>& wb = wbuf_[r.pe];
    ++t.refs;
    t.busy_cycles += tp_.cycles_per_ref;
    u64 now = clock_[r.pe] + tp_.cycles_per_ref;
    // Posted writes whose bus transaction has completed leave the buffer.
    wb.erase(std::remove_if(wb.begin(), wb.end(), [&](u64 done) { return done <= now; }),
             wb.end());

    // A demand fill pays its supplier's extra latency, whatever the bus.
    u64 extra = 0;
    if (flush) {
      ++ts_.cache_fills;
    } else if (fetch) {
      ++ts_.mem_fills;
      extra = tp_.mem_extra_cycles;
    }

    u64 svc = (bus * tp_.bus_service_cycles + tp_.interleave - 1) / tp_.interleave;
    if (svc == 0) {
      t.stall_cycles += extra;
      clock_[r.pe] = now + extra;
      return;
    }
    if (!demand && tp_.write_buffer_depth > 0) {
      // Posted: the PE waits only for the oldest entry of a full buffer.
      u64 done = grant(now, svc);
      if (!wb.empty()) done = std::max(done, wb.back());
      wb.push_back(done);
      if (wb.size() > tp_.write_buffer_depth) {
        u64 oldest = wb.front();
        wb.erase(wb.begin());
        if (oldest > now) {
          t.stall_cycles += oldest - now;
          now = oldest;
        }
      }
      clock_[r.pe] = now;
      return;
    }
    // Demand or unbuffered write: drain this PE's posted writes, then
    // wait for the transaction and the supplier's extra cycles.
    if (!wb.empty()) {
      u64 last = wb.back();
      wb.clear();
      if (last > now) {
        t.stall_cycles += last - now;
        now = last;
      }
    }
    u64 done = grant(now, svc) + extra;
    t.stall_cycles += done - now;
    clock_[r.pe] = done;
  }

  void replay(const std::vector<u64>& trace) {
    for (u64 p : trace) step(MemRef::unpack(p));
  }

  TimingStats timing() const {
    TimingStats out = ts_;
    for (std::size_t i = 0; i < clock_.size(); ++i) {
      out.pe[i].clock = clock_[i];
      u64 end = clock_[i];
      for (u64 done : wbuf_[i]) end = std::max(end, done);
      out.makespan = std::max(out.makespan, end);
    }
    return out;
  }
  const TrafficStats& traffic() const { return sim_.stats(); }

 private:
  /// Books the earliest run of `svc` free bus cycles at or after
  /// `ready`, one cycle at a time; returns the cycle after the run.
  u64 grant(u64 ready, u64 svc) {
    u64 t = ready;
    for (;;) {
      u64 k = 0;
      while (k < svc && !busy(t + k)) ++k;
      if (k == svc) break;
      t += k + 1;
    }
    if (busy_.size() < t + svc) busy_.resize(t + svc, false);
    for (u64 k = 0; k < svc; ++k) busy_[t + k] = true;
    ts_.bus_busy_cycles += svc;
    ++ts_.bus_transactions;
    return t + svc;
  }
  bool busy(u64 cycle) const { return cycle < busy_.size() && busy_[cycle]; }

  ReferenceCacheSim sim_;
  TimingParams tp_;
  std::vector<u64> clock_;
  std::vector<std::vector<u64>> wbuf_;
  std::vector<bool> busy_;  ///< one entry per bus cycle
  TimingStats ts_;
};

void expect_same_timing(const TimingStats& got, const TimingStats& want,
                        const std::string& what) {
  EXPECT_EQ(got.makespan, want.makespan) << what;
  EXPECT_EQ(got.bus_busy_cycles, want.bus_busy_cycles) << what;
  EXPECT_EQ(got.bus_transactions, want.bus_transactions) << what;
  EXPECT_EQ(got.cache_fills, want.cache_fills) << what;
  EXPECT_EQ(got.l2_fills, want.l2_fills) << what;
  EXPECT_EQ(got.mem_fills, want.mem_fills) << what;
  ASSERT_EQ(got.pe.size(), want.pe.size()) << what;
  for (std::size_t i = 0; i < got.pe.size(); ++i) {
    EXPECT_EQ(got.pe[i].refs, want.pe[i].refs) << what << " pe=" << i;
    EXPECT_EQ(got.pe[i].busy_cycles, want.pe[i].busy_cycles) << what << " pe=" << i;
    EXPECT_EQ(got.pe[i].stall_cycles, want.pe[i].stall_cycles) << what << " pe=" << i;
    EXPECT_EQ(got.pe[i].clock, want.pe[i].clock) << what << " pe=" << i;
  }
}

/// Replays `trace` through TimedReplay and the oracle; both the timing
/// and the traffic must agree.
void expect_matches_oracle(const CacheConfig& cfg, unsigned pes,
                           const TimingParams& tp, const std::vector<u64>& trace) {
  TimedReplay timed(cfg, pes, tp);
  timed.replay(trace);
  NaiveTimedReplay naive(cfg, pes, tp);
  naive.replay(trace);
  std::string what = protocol_name(cfg.protocol) + " pes=" + std::to_string(pes) +
                     " walloc=" + std::to_string(cfg.write_allocate) +
                     " cpr=" + std::to_string(tp.cycles_per_ref) +
                     " svc=" + std::to_string(tp.bus_service_cycles) +
                     " il=" + std::to_string(tp.interleave) +
                     " wbuf=" + std::to_string(tp.write_buffer_depth) +
                     " mem_extra=" + std::to_string(tp.mem_extra_cycles);
  EXPECT_EQ(timed.traffic(), naive.traffic()) << what;
  expect_same_timing(timed.timing(), naive.timing(), what);
}

CacheConfig oracle_cfg(Protocol p, bool walloc) {
  CacheConfig cfg;
  cfg.protocol = p;
  cfg.size_words = 256;
  cfg.line_words = 4;
  cfg.write_allocate = walloc;
  return cfg;
}

struct OracleParam {
  Protocol protocol;
  unsigned pes;
  bool walloc;
};

class TimingOracle : public ::testing::TestWithParam<OracleParam> {};

TEST_P(TimingOracle, WholeTimingStatsMatchNaiveReplay) {
  const OracleParam& p = GetParam();
  std::vector<u64> trace = random_trace(
      0x0AC1E + static_cast<u64>(p.protocol) * 97 + p.pes * 7 + p.walloc, p.pes, 1200);
  CacheConfig cfg = oracle_cfg(p.protocol, p.walloc);
  for (u32 svc : {0u, 1u, 3u})
    for (u32 il : {1u, 2u, 4u})
      for (u32 wbuf : {0u, 1u, 4u})
        for (u32 cpr : {1u, 2u})
          for (u32 mem_extra : {0u, 5u})
            expect_matches_oracle(cfg, p.pes, TimingParams{cpr, svc, il, wbuf, mem_extra},
                                  trace);
}

std::vector<OracleParam> all_oracle_params() {
  std::vector<OracleParam> out;
  for (Protocol p : {Protocol::WriteThrough, Protocol::WriteInBroadcast,
                     Protocol::WriteThroughBroadcast, Protocol::Hybrid,
                     Protocol::Copyback})
    for (unsigned pes : {1u, 2u, 4u, 8u})
      for (bool walloc : {true, false}) out.push_back({p, pes, walloc});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsPes, TimingOracle, ::testing::ValuesIn(all_oracle_params()),
    [](const ::testing::TestParamInfo<OracleParam>& info) {
      std::string name = protocol_name(info.param.protocol);
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name + "_" + std::to_string(info.param.pes) + "pe" +
             (info.param.walloc ? "_walloc" : "_nowalloc");
    });

TEST(TimingOracleLong, TimelinePruningKeepsGrantsExact) {
  // TimedReplay compacts its bus timeline every 8192 reservations; a
  // trace long enough to cross that several times must still grant
  // every transaction exactly where the occupancy array does.
  std::vector<u64> trace = random_trace(0x9121E, 8, 40000);
  for (Protocol p : {Protocol::WriteThrough, Protocol::WriteInBroadcast}) {
    expect_matches_oracle(oracle_cfg(p, true), 8, TimingParams{1, 1, 2, 4, 5}, trace);
    expect_matches_oracle(oracle_cfg(p, false), 8, TimingParams{2, 3, 1, 0, 0}, trace);
  }
}

}  // namespace
}  // namespace rapwam
