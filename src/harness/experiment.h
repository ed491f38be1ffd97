// One description of the paper's experiment (docs/DESIGN.md §10): a
// trace source, a PE count, a Figure-4 cache point, the §3.3 bus model
// and a protocol × size sweep grid. `rapwam_trace replay|time|sweep`
// and the server's `parse_request` both read it through one field
// table, then share the finishing step, the source resolver and the
// sweep-grid builder below; each front end keeps its own way of
// executing.
//
// Defaults are the value-initialised struct: CacheConfig{} (broadcast,
// 1024 words, 4-word lines), TimingParams{} (cpr 1, service 1,
// interleave 1, write buffer 0, mem-extra 0), bench `qsort` at 4 PEs
// and Small scale (or a trace file's own PE count), and a sweep grid of
// all five protocols × {256, 512, 1024, 2048}.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cache/sweep.h"
#include "engine/machine.h"
#include "harness/programs.h"
#include "support/cancel.h"
#include "support/cli.h"
#include "timing/timed_replay.h"

namespace rapwam {

enum class ReqOp { Ping, Stats, Replay, Time, Sweep, Golden, Shutdown };

std::string op_name(ReqOp op);

/// A sweep larger than this is refused before any trace is touched.
inline constexpr std::size_t kMaxSweepPoints = 512;

struct Experiment {
  std::string bench;       ///< generated workload (TraceLibrary key)
  std::string trace_path;  ///< or a recorded trace file; mutually exclusive
  BenchScale scale = BenchScale::Small;
  unsigned pes = 4;
  bool explicit_pes = false;  ///< false + trace file => PEs from metadata
  unsigned max_solutions = 1;
  CacheConfig cfg;      ///< replay/time point; cfg.line_words also for sweeps
  TimingParams timing;  ///< time only

  // -- sweep grid: protocols × sizes
  std::vector<Protocol> sweep_protocols;
  std::vector<u32> sweep_sizes;

  friend bool operator==(const Experiment&, const Experiment&) = default;
};

/// How a field's value is written: a JSON boolean or a bare flag, a
/// whole number in [lo, hi], a name, or a list of names or numbers
/// (a JSON array, or comma-separated on the command line).
enum class FieldKind : u8 { Bool, Uint, Name, Names, Uints };

/// One experiment field. `name` is the JSON member; the CLI flag is
/// the same name with '_' spelt '-'. `put` stores one value (a list
/// field calls it once per item): `number` for Uint/Uints, `text` for
/// Name/Names, neither for Bool.
struct ExperimentField {
  std::string_view name;
  FieldKind kind;
  unsigned ops;  ///< bit (1 << ReqOp) for each op the field applies to
  u32 lo, hi;    ///< Uint/Uints range
  void (*put)(Experiment& e, u32 number, const std::string& text);

  bool applies_to(ReqOp op) const { return ops >> static_cast<unsigned>(op) & 1u; }
};

/// The field table: the only place a field's name, kind, range and ops
/// are written.
std::span<const ExperimentField> experiment_fields();
/// The field named `name` (its JSON spelling), or nullptr.
const ExperimentField* find_experiment_field(std::string_view name);

/// Returns `value` if it lies in [lo, hi], else throws Error with
/// "WHAT must be at least LO" or "WHAT must be at most HI"; `what`
/// names the field as its front end spells it ("--size", "member
/// \"size\"").
i64 check_range(i64 value, i64 lo, i64 hi, const std::string& what);

/// Checks and completes an experiment read for `op`: a bench and a
/// trace are exclusive and the bench defaults to qsort; a replay/time
/// cache point's geometry is checked and the paper's write-allocate
/// rule applies unless no_allocate cleared it; a sweep's grid is
/// filled in, capped at kMaxSweepPoints, and every point's geometry
/// checked. Throws Error before any trace is read.
void finish_experiment(Experiment& e, ReqOp op);

/// The flags of `op`'s fields (the trace is the TRACE positional
/// argument on the command line, not a flag).
std::vector<Flag> experiment_flags(ReqOp op);
/// Reads `op`'s experiment from a command line parsed with
/// experiment_flags(op) (plus the command's own flags): TRACE is the
/// second positional argument. Finished with finish_experiment.
Experiment experiment_from_cli(const Cli& cli, ReqOp op);

/// The trace an experiment replays and the PE count it replays on.
struct ExperimentSource {
  std::shared_ptr<const ChunkedTrace> trace;
  unsigned pes = 0;
};

/// Loads the trace file keep-all, or gets the bench's trace from the
/// shared TraceLibrary (`cancel` and `faults` ride into a generation),
/// and checks the PE count covers the trace.
ExperimentSource resolve_source(const Experiment& e, const CancelToken* cancel = nullptr,
                                const EngineFaults& faults = {});

/// The sweep grid: each protocol × size at the paper's Figure-4 point
/// with the experiment's line size, in order, labelled by index.
/// `trace` may be null when only the geometry matters.
std::vector<SweepPoint> sweep_points(const Experiment& e, const ChunkedTrace* trace,
                                     unsigned pes);

}  // namespace rapwam
