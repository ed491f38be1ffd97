// Golden-stats regression corpus (docs/DESIGN.md §9).
//
// The simulators' counters are exact integers and the emulator is
// deterministic, so the paper numbers can be pinned bit-for-bit: for
// each of the four paper benchmarks, tests/golden/<bench>.json holds
// the TrafficStats of all five protocols (plus two hierarchy
// configurations), the TimingStats of the standard timed point and the
// engine's RunStats, at 1/4/8/128 PEs, small scale. tests/test_golden.cpp replays the same
// configurations live and compares field-by-field, so a refactor that
// silently drifts any number fails with a readable diff; `rapwam_trace
// golden --update` regenerates the corpus when a change is intentional.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "cache/hierarchy.h"
#include "engine/stats.h"
#include "timing/timed_replay.h"

namespace rapwam {

/// One golden record: a stable key ("pes4/broadcast(write-in)") and the
/// flattened field name -> value pairs of the stats it pins.
struct GoldenEntry {
  std::string key;
  std::vector<std::pair<std::string, u64>> fields;
};

/// Field-by-field flattenings shared by the corpus and readable diffs.
std::vector<std::pair<std::string, u64>> traffic_fields(const TrafficStats& s);
std::vector<std::pair<std::string, u64>> timing_fields(const TimingStats& t);
/// Every RunStats field, with the reference counters by area, class
/// and PE (PEs 0..num_pes-1).
std::vector<std::pair<std::string, u64>> run_stats_fields(const RunStats& s);

/// Recomputes the corpus entries for one benchmark (1/4/8/128 PEs; all
/// five protocols at the paper's 1024-word point; inclusive and
/// non-inclusive hierarchy points; flat and hierarchy timed points;
/// the generation run's engine counters).
/// Traces come from the process-wide TraceLibrary, so repeated calls
/// generate each (bench, pes) stream once.
std::vector<GoldenEntry> golden_compute(const std::string& bench);

/// Serialization to/from the corpus JSON (a flat two-level object; the
/// parser accepts exactly what golden_to_json emits and throws Error on
/// anything malformed).
std::string golden_to_json(const std::string& bench,
                           const std::vector<GoldenEntry>& entries);
std::vector<GoldenEntry> golden_from_json(const std::string& text);

/// Human-readable mismatch lines between a golden corpus and a live
/// recomputation: missing/unexpected keys and per-field differences.
/// Empty means bit-identical.
std::vector<std::string> golden_diff(const std::vector<GoldenEntry>& golden,
                                     const std::vector<GoldenEntry>& live);

/// The corpus directory: $RAPWAM_GOLDEN_DIR if set, else
/// tests/golden/ under the source tree the build was configured from.
std::string golden_dir();

/// Whole-file helpers (throw Error on I/O failure).
std::string read_text_file(const std::string& path);
void write_text_file(const std::string& path, const std::string& text);

}  // namespace rapwam
