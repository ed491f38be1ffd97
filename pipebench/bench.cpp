#include "bench.h"

#include <algorithm>
#include <fstream>

#include "harness/golden.h"

namespace pb {

void Digest::add(const rapwam::RunStats& s) {
  for (u64 v : {s.instructions, s.calls, s.cycles, s.wait_polls, s.goals_pushed,
                s.goals_stolen, s.goals_local, s.parcalls, s.kills, s.solutions,
                static_cast<u64>(s.num_pes), s.refs.total, s.refs.reads, s.refs.writes,
                s.refs.busy})
    add(v);
  for (u64 v : s.refs.by_area) add(v);
  for (u64 v : s.refs.by_class) add(v);
  for (u64 v : s.high_water) add(v);
}

void Digest::add(const rapwam::TrafficStats& s) {
  for (const auto& [name, v] : rapwam::traffic_fields(s)) add(v);
}

void Digest::add(const rapwam::TimingStats& t) {
  for (const auto& [name, v] : rapwam::timing_fields(t)) add(v);
  for (const rapwam::PeTiming& p : t.pe)
    for (u64 v : {p.refs, p.busy_cycles, p.stall_cycles, p.clock}) add(v);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

std::pair<double, double> tail_latency(const std::vector<double>& xs) {
  if (xs.empty()) return {0, 0};
  std::vector<double> s = xs;
  std::sort(s.begin(), s.end());
  if (s.size() < 11) return {1, s.back()};
  std::size_t i = s.size() - 11;  // ten samples lie beyond this one
  return {static_cast<double>(i + 1) / static_cast<double>(s.size()), s[i]};
}

namespace {

/// The CPUs the process may run on, read once, before any rotation has
/// pinned the thread that asks.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) out.push_back(c);
    return out;
  }();
  return cpus;
}

}  // namespace

CpuRotation::CpuRotation() : cpus_(allowed_cpus()) {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) cpus_.clear();
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof saved_, &saved_);
}

void CpuRotation::pin(int round, int cls) {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[static_cast<std::size_t>(round + cls) % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

std::vector<const SpanRec*> select(const std::vector<SpanRec>& spans, const std::string& name,
                                   const char* key, double v) {
  std::vector<const SpanRec*> out;
  for (const SpanRec& s : spans)
    if (s.name == name && (!key || s.arg(key, -1) == v)) out.push_back(&s);
  return out;
}

double median_dur(const std::vector<const SpanRec*>& sel) {
  std::vector<double> d;
  for (const SpanRec* s : sel) d.push_back(s->dur());
  return median(d);
}

double rate(const std::vector<const SpanRec*>& sel, const char* key) {
  double n = 0, t = 0;
  for (const SpanRec* s : sel) {
    n += s->arg(key);
    t += s->dur();
  }
  return t > 0 ? n / t : 0;
}

}  // namespace pb
