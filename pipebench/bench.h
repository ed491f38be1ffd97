// Shared pieces of the pipeline benchmark: run options, the outcome a
// workload reports, output checks, the simulated-statistics digest and
// a few numeric helpers.
#pragma once

#include <sched.h>

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "engine/stats.h"
#include "spans.h"
#include "timing/timed_replay.h"

namespace pb {

using rapwam::u32;
using rapwam::u64;

/// Set-ups per run; setup_s reports their median.
constexpr int kSetupReps = 11;

struct Options {
  std::string workload;
  u32 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< scratch files (trace files, checkpoints, spans)
};

/// How long a timed phase runs: for `seconds`, stopping only at a round
/// boundary, or for exactly `rounds` rounds when that is non-zero (the
/// traced pass repeats the untraced pass's work to measure overhead).
struct Budget {
  double seconds = 0;
  int rounds = 0;
  bool more(int done, Clock::time_point t0) const {
    return rounds > 0 ? done < rounds : (done == 0 || seconds_since(t0) < seconds);
  }
};

/// Runs the kSetupReps - 1 set-ups that follow the first one, spread
/// over a round-based timed phase: one between two rounds whenever a
/// further 1/kSetupReps of the phase has passed. setup_s then samples
/// the host across the whole run, as the timed metrics do, rather than
/// in one burst. finish() runs any that are left.
class SetupSpreader {
 public:
  SetupSpreader(double seconds, std::function<void()> rep)
      : seconds_(seconds), rep_(std::move(rep)) {}
  void between_rounds(double elapsed) {
    if (done_ < kSetupReps - 1 && elapsed >= (done_ + 1) * seconds_ / kSetupReps) {
      rep_();
      ++done_;
    }
  }
  void finish() {
    for (; done_ < kSetupReps - 1; ++done_) rep_();
  }

 private:
  double seconds_;
  std::function<void()> rep_;
  int done_ = 0;
};

/// What one workload run reports.
struct Outcome {
  std::vector<double> setup_s;  ///< duration of each repeated set-up
  u64 attempted = 0;            ///< operations attempted in the timed phase
  u64 failed = 0;               ///< errored, shed or wrong outputs
  std::vector<double> lat_ms;   ///< per-operation latency
  double work = 0;              ///< workload's unit of work completed
  double timed_s = 0;           ///< timed-phase duration the work is over
  /// Work per second: work over the summed operation durations (so set-up
  /// spread between rounds is left out), or by Little's law for serve;
  /// work / timed_s is the plain rate over the phase.
  double rate = 0;
  int rounds = 0;               ///< whole rounds the timed phase ran
  u64 digest = 0;               ///< simulated-statistics digest
};

/// Counts a failed output check (printed for the first few).
inline void check(Outcome& o, bool ok, const std::string& what) {
  if (ok) return;
  ++o.failed;
  if (o.failed <= 5) std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

/// FNV-1a over the simulated statistics of every point of a round.
struct Digest {
  u64 h = 1469598103934665603ull;
  void add(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add(const rapwam::RunStats& s);
  void add(const rapwam::TrafficStats& s);
  void add(const rapwam::TimingStats& t);
};

/// Quantile by linear interpolation (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> xs, double q);
double median(const std::vector<double>& xs);

/// The highest percentile with at least ten samples beyond it, as
/// (fraction, value); the maximum, as (1, max), below eleven samples.
std::pair<double, double> tail_latency(const std::vector<double>& xs);

/// Moves the calling thread from CPU to CPU between operations, and
/// gives it back its own CPU set when destroyed. Left alone, the kernel
/// keeps a single-threaded workload on one CPU for a whole run; on a
/// shared host the CPUs differ in speed, and which is slow changes over
/// time, so each run would measure one CPU. Pinning operation `cls` of
/// round `round` to CPU (round + cls) mod n gives every operation class
/// samples from every CPU, blended alike in each run.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void pin(int round, int cls);

 private:
  std::vector<int> cpus_;  ///< CPUs the process may run on
  cpu_set_t saved_{};      ///< the thread's CPU set on entry
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Per-layer metrics with their units, filled by the traced run.
using LayerMetrics = std::map<std::string, std::pair<double, std::string>>;

// -- workloads (each in its own source file)

/// Runs the workload's set-up and timed phase with tracing off.
Outcome run_generate(const Options& opt, const Budget& b);
Outcome run_sweep(const Options& opt, const Budget& b);
Outcome run_serve(const Options& opt, const Budget& b);

/// The traced run: the workload's set-up and timed phase with spans on,
/// plus the probes that only the traced run makes (no-sink and unfused
/// solves, per-point replays). Adds that workload's per-layer metrics.
void trace_generate(const Options& opt, const Budget& b, Outcome& o, LayerMetrics& m);
void trace_sweep(const Options& opt, const Budget& b, Outcome& o, LayerMetrics& m);
void trace_serve(const Options& opt, const Budget& b, Outcome& o, LayerMetrics& m);

/// Spans of `name`, optionally only those whose attribute `key` == v.
std::vector<const SpanRec*> select(const std::vector<SpanRec>& spans,
                                   const std::string& name,
                                   const char* key = nullptr, double v = 0);
/// Median duration of the selected spans, in seconds.
double median_dur(const std::vector<const SpanRec*>& sel);
/// Sum of attribute `key` over the selected spans, divided by the sum
/// of their durations.
double rate(const std::vector<const SpanRec*>& sel, const char* key);

}  // namespace pb
