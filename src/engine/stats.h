// Aggregate statistics of one emulator run (the paper's
// "instrumentation data": instruction counts, reference counts by area
// and class, parallelism management counters, storage high-water
// marks).
#pragma once

#include <array>

#include "trace/memref.h"

namespace rapwam {

struct RunStats {
  u64 instructions = 0;   ///< instructions executed while Running
  u64 calls = 0;          ///< procedure calls (logical inferences)
  u64 cycles = 0;         ///< virtual cycles (makespan)
  u64 wait_polls = 0;     ///< PWait polls while waiting (not instructions)
  RefCounts refs;         ///< every data reference (busy flag separates work)
  u64 goals_pushed = 0;
  u64 goals_stolen = 0;   ///< goals executed by a PE other than the pusher
  u64 goals_local = 0;    ///< goals executed by their own pusher
  u64 parcalls = 0;
  u64 kills = 0;          ///< kill messages sent
  u64 solutions = 0;
  unsigned num_pes = 1;
  /// Max words ever in use per area (max over PEs).
  std::array<u64, kAreaCount> high_water{};

  /// Field-for-field equality: the sink differential suites
  /// (tests/test_pipeline_diff.cpp) compare whole runs with this.
  bool operator==(const RunStats&) const = default;

  /// References issued while doing useful work ("work" in Fig. 2).
  u64 work_refs() const { return refs.busy; }
};

}  // namespace rapwam
