#include "timing/timed_replay.h"

#include <algorithm>

namespace rapwam {

TimedReplay::TimedReplay(const CacheConfig& cfg, unsigned num_pes,
                         const TimingParams& tp, DirRep rep)
    : sim_(cfg, num_pes, rep), tp_(tp), l2_extra_(cfg.l2.hit_extra_cycles) {
  if (tp.interleave == 0) fail("timed replay: interleave must be at least 1");
  if (tp.cycles_per_ref == 0) fail("timed replay: cycles_per_ref must be at least 1");
  pes_.resize(num_pes);
  ts_.pe.resize(num_pes);
}

u64 TimedReplay::bus_reserve(u64 ready, u64 svc) {
  // Earliest gap of `svc` cycles at/after `ready`. A PE that lags in
  // virtual time may book a slot earlier than transactions already on
  // the timeline — in real time its request happens first; only true
  // same-cycle contention queues.
  u64 t = ready;
  auto it = busy_.upper_bound(t);
  if (it != busy_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > t) t = prev->second;
  }
  while (it != busy_.end() && it->first < t + svc) {
    t = it->second;
    ++it;
  }
  u64 end = t + svc;
  // Coalesce with the adjacent intervals so the timeline stays small.
  if (it != busy_.end() && it->first == end) {
    end = it->second;
    it = busy_.erase(it);
  }
  if (it != busy_.begin() && std::prev(it)->second == t) {
    std::prev(it)->second = end;
  } else {
    busy_.emplace_hint(it, t, end);
  }
  ts_.bus_busy_cycles += svc;
  ++ts_.bus_transactions;
  if ((++reservations_since_prune_ & 0x1FFF) == 0) prune_timeline();
  return t + svc;
}

void TimedReplay::prune_timeline() {
  // The next request of PE p is ready no earlier than its clock, so
  // intervals every PE's clock has passed can never be probed again.
  u64 min_clock = ~u64(0);
  for (const PeState& p : pes_) min_clock = std::min(min_clock, p.clock);
  auto it = busy_.begin();
  while (it != busy_.end() && it->second <= min_clock) it = busy_.erase(it);
}

void TimedReplay::advance_bus(PeState& p, PeTiming& t, u64 now, const StepOutcome& o) {
  u64 svc = service_of(o.bus_words());

  // Demand fills are counted and charged their supplier's latency
  // (L2Config::hit_extra_cycles / TimingParams::mem_extra_cycles)
  // whatever the bus speed — the extra cycles model the memory or L2
  // device, not the bus, so even a free (bus_service_cycles == 0) bus
  // does not waive them. The PE waits them out; the bus does not.
  u64 extra = 0;
  switch (o.supplier()) {
    case StepOutcome::Supplier::Cache: ++ts_.cache_fills; break;
    case StepOutcome::Supplier::L2:
      ++ts_.l2_fills;
      extra = l2_extra_;
      break;
    case StepOutcome::Supplier::Memory:
      ++ts_.mem_fills;
      extra = tp_.mem_extra_cycles;
      break;
    case StepOutcome::Supplier::None: break;
  }

  if (svc == 0) {  // a free bus
    if (extra) {
      t.stall_cycles += extra;
      now += extra;
    }
    p.clock = now;
    return;
  }

  if (o.demand_words() == 0 && tp_.write_buffer_depth > 0) {
    // Posted write: the bus slot is reserved now (trace order), but the
    // PE only stalls if the buffer overflows — then it waits for the
    // oldest entry to leave. The queue must stay monotone in completion
    // time (drain/retire/makespan all read only front/back): today every
    // posted-only transaction is a single word so earliest-gap grants
    // are already FIFO, but clamp anyway so a future multi-word posted
    // transaction cannot silently retire out of order.
    u64 done = bus_reserve(now, svc);
    if (!p.wbuf.empty()) done = std::max(done, p.wbuf.back());
    p.wbuf.push_back(done);
    if (p.wbuf.size() > tp_.write_buffer_depth) {
      u64 front = p.wbuf.front();
      p.wbuf.pop_front();
      if (front > now) {
        t.stall_cycles += front - now;
        now = front;
      }
    }
    p.clock = now;
    return;
  }

  // Demand transaction (miss fill / read-for-ownership) or unbuffered
  // write: drain this PE's posted writes first (they are older in
  // memory order), then wait for the transaction itself.
  if (!p.wbuf.empty()) {
    u64 last = p.wbuf.back();
    p.wbuf.clear();
    if (last > now) {
      t.stall_cycles += last - now;
      now = last;
    }
  }
  u64 done = bus_reserve(now, svc) + extra;
  t.stall_cycles += done - now;
  p.clock = done;
}

void TimedReplay::replay(const u64* packed, std::size_t n) {
  sim_.replay(packed, n, [this](const MemRef& r, const StepOutcome& o) { advance(r, o); });
}

TimingStats TimedReplay::timing() const {
  TimingStats out = ts_;
  for (unsigned i = 0; i < pes_.size(); ++i) {
    out.pe[i].clock = pes_[i].clock;
    u64 end = pes_[i].clock;
    if (!pes_[i].wbuf.empty()) end = std::max(end, pes_[i].wbuf.back());
    out.makespan = std::max(out.makespan, end);
  }
  return out;
}

void TimedReplay::save_state(ByteWriter& w) const {
  sim_.save_state(w);
  w.put_u64(pes_.size());
  for (const PeState& p : pes_) {
    w.put_u64(p.clock);
    w.put_u64(p.wbuf.size());
    for (u64 done : p.wbuf) w.put_u64(done);
  }
  for (const PeTiming& t : ts_.pe) {
    w.put_u64(t.refs);
    w.put_u64(t.busy_cycles);
    w.put_u64(t.stall_cycles);
    w.put_u64(t.clock);
  }
  w.put_u64(ts_.makespan);
  w.put_u64(ts_.bus_busy_cycles);
  w.put_u64(ts_.bus_transactions);
  w.put_u64(ts_.cache_fills);
  w.put_u64(ts_.l2_fills);
  w.put_u64(ts_.mem_fills);
  w.put_u64(busy_.size());
  for (const auto& [start, end] : busy_) {
    w.put_u64(start);
    w.put_u64(end);
  }
  w.put_u64(reservations_since_prune_);
}

void TimedReplay::restore_state(ByteReader& r) {
  sim_.restore_state(r);
  u64 npes = r.get_u64();
  if (npes != pes_.size())
    fail("checkpoint timing: snapshot has " + std::to_string(npes) +
         " PEs, replay has " + std::to_string(pes_.size()));
  for (PeState& p : pes_) {
    p.clock = r.get_u64();
    u64 nw = r.get_u64();
    if (tp_.write_buffer_depth == 0 ? nw != 0 : nw > tp_.write_buffer_depth)
      fail("checkpoint timing: posted-write count exceeds the buffer depth");
    p.wbuf.clear();
    for (u64 k = 0; k < nw; ++k) {
      u64 done = r.get_u64();
      if (!p.wbuf.empty() && done < p.wbuf.back())
        fail("checkpoint timing: posted-write completions out of order");
      p.wbuf.push_back(done);
    }
  }
  for (PeTiming& t : ts_.pe) {
    t.refs = r.get_u64();
    t.busy_cycles = r.get_u64();
    t.stall_cycles = r.get_u64();
    t.clock = r.get_u64();
  }
  ts_.makespan = r.get_u64();
  ts_.bus_busy_cycles = r.get_u64();
  ts_.bus_transactions = r.get_u64();
  ts_.cache_fills = r.get_u64();
  ts_.l2_fills = r.get_u64();
  ts_.mem_fills = r.get_u64();
  u64 nint = r.get_u64();
  busy_.clear();
  u64 prev_end = 0;
  for (u64 k = 0; k < nint; ++k) {
    u64 start = r.get_u64();
    u64 end = r.get_u64();
    // bus_reserve depends on the timeline being strictly ordered,
    // disjoint and coalesced; anything else would silently skew every
    // later grant, so it is rejected here.
    if (start >= end || (k > 0 && start <= prev_end))
      fail("checkpoint timing: bus timeline intervals not ordered/disjoint");
    busy_.emplace_hint(busy_.end(), start, end);
    prev_end = end;
  }
  reservations_since_prune_ = r.get_u64();
}

unsigned saturation_pe_count(
    const std::vector<std::pair<unsigned, TimingStats>>& runs, double threshold) {
  unsigned best = 0;
  for (const auto& [pes, ts] : runs) {
    if (ts.bus_utilization() >= threshold && (best == 0 || pes < best)) best = pes;
  }
  return best;
}

}  // namespace rapwam
