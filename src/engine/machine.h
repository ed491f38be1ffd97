// The RAP-WAM multi-PE emulator.
//
// A Machine executes compiled parallel-WAM code on N simulated PEs
// ("workers"), each owning a full Stack Set (heap, local and control
// stacks, trail, PDL, goal stack, message buffer) inside one flat
// simulated memory. Execution is deterministic: one instruction per
// running PE per virtual cycle, round-robin. Every data reference is
// tagged per Table 1 of the paper and streamed to the configured sink.
//
// Scheduling is RAP-WAM's on-demand scheme: pgoal pushes goal frames
// onto the parent's goal stack; the parent executes its own goals
// (LIFO) while waiting in pwait; idle PEs steal goals (FIFO) from
// other PEs' goal stacks and run them between Markers on their own
// stacks. Failure of a parallel goal kills its siblings via
// message-buffer kill messages; backtracking past a completed parcall
// cancels and unwinds all its stack sections ("kill-and-fail",
// first-solution parcall semantics — see docs/DESIGN.md §5). Cancellation
// transactions run synchronously inside the simulator but every memory
// touch is attributed to the PE that would perform it.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "compiler/compile.h"
#include "engine/bus.h"
#include "engine/stats.h"
#include "prolog/program.h"
#include "support/cancel.h"

namespace rapwam {

/// True when the interpreter core was compiled with computed-goto
/// threaded dispatch (GNU-compatible compilers; falls back to a plain
/// switch elsewhere — see the dispatch macros in machine.cpp). CI
/// asserts this returns true on the GCC/Clang Release builds.
bool threaded_dispatch_enabled();

/// Per-query resource budgets (0 = uncapped). Area caps lower the
/// per-PE area limits cached at reset time, so enforcement adds
/// nothing to the hot path; the step budget is checked once per
/// virtual cycle (overshoot bounded by num_pes instructions), and
/// against the pop count of a single unification every 1024 pops.
/// Tripping any budget throws ResourceExhaustedError naming the
/// budget that fired; the machine stays reusable — the next solve
/// resets all per-run state.
struct ResourceLimits {
  u64 max_heap_words = 0;     ///< per-PE heap cap, words
  u64 max_local_words = 0;    ///< per-PE local-stack cap, words
  u64 max_control_words = 0;  ///< per-PE control-stack cap, words
  u64 max_trail_words = 0;    ///< per-PE trail cap, words
  u64 max_steps = 0;          ///< total executed instructions
  bool any() const {
    return max_heap_words || max_local_words || max_control_words ||
           max_trail_words || max_steps;
  }
};

/// Deterministic engine-side fault injection (server fault plans,
/// robustness tests): make the Nth heap allocation fail as if the heap
/// were exhausted, or stall the cycle loop in wall-clock time to
/// simulate a pathologically slow generation (so deadline-cancellation
/// paths can be pinned without a genuinely huge query).
struct EngineFaults {
  u64 fail_heap_growth_n = 0;  ///< 1-based: fail the Nth heap_push
  u64 stall_every_cycles = 0;  ///< sleep stall_ms every K cycles
  u64 stall_ms = 0;
  bool any() const { return fail_heap_growth_n || stall_every_cycles; }
};

/// Validates an emulator PE count: 1..kMaxTracePes, the range of the
/// trace format's PE-id field. Returns `pes` so call sites can
/// validate inline.
unsigned check_machine_pes(unsigned pes);

struct MachineConfig {
  unsigned num_pes = 1;
  AreaSizes sizes{};
  /// Watchdog against runaway queries: caps the virtual cycles of a
  /// run, and the PDL pops of any one unification.
  u64 max_cycles = 2'000'000'000;
  unsigned max_solutions = 1;
  ResourceLimits limits{};         ///< resource budgets (0 = uncapped)
  EngineFaults faults{};           ///< engine-side fault injection
  bool strip_cge = false;          ///< compile the sequential-WAM baseline
  /// Inert: nothing reads it. It enabled superinstruction fusion for
  /// single-PE machines, which is gone (docs/DESIGN.md §13); pipebench
  /// still sets it, and the benchmark change that refreshes pipebench
  /// removes it.
  bool fuse = true;
};

struct Solution {
  /// query variable name -> term text, in first-occurrence order
  std::vector<std::pair<std::string, std::string>> bindings;

  bool operator==(const Solution&) const = default;
};

struct RunResult {
  bool success = false;
  std::vector<Solution> solutions;
  RunStats stats;
  std::string output;  ///< text produced by write/1 and nl/0
};

/// Frame layout constants (word offsets), shared with the tests.
namespace frames {
// Environment.
inline constexpr u64 kEnvCE = 0, kEnvCP = 1, kEnvNY = 2, kEnvY = 3;
inline constexpr u64 env_size(u64 ny) { return kEnvY + ny; }
// Choice point.
inline constexpr u64 kCpNArgs = 0, kCpCE = 1, kCpCP = 2, kCpB = 3, kCpBP = 4,
    kCpTR = 5, kCpH = 6, kCpLTop = 7, kCpPF = 8, kCpB0 = 9, kCpLgf = 10,
    kCpArgs = 11;
inline constexpr u64 cp_size(u64 nargs) { return kCpArgs + nargs; }
// Marker (delimits one parallel goal's stack section).
inline constexpr u64 kMkPF = 0, kMkSlot = 1, kMkSavedB = 2, kMkSavedTR = 3,
    kMkSavedH = 4, kMkSavedE = 5, kMkResumeP = 6, kMkSavedPF = 7, kMkPrev = 8,
    kMkDead = 9, kMkEndTR = 10, kMkEndPF = 11, kMkEndH = 12, kMkEndCtop = 13,
    kMkSavedB0 = 14, kMkSavedLtop = 15, kMkSavedLgf = 16;
inline constexpr u64 kMarkerSize = 17;
// Parcall frame.
// Parcall frame. The pending counter carries the fail flag in a high
// bit so pwait polls read a single word; slots pack state and executor
// PE into one word (the marker address of stolen goals gets a second).
inline constexpr u64 kPfPrev = 0, kPfNSlots = 1, kPfPending = 2, kPfLock = 3,
    kPfCreator = 4, kPfSavedB = 5, kPfSavedE = 6, kPfSavedLgf = 7, kPfWaitP = 8,
    kPfSlots = 9;
inline constexpr u64 kPfFailBit = u64(1) << 50;
inline constexpr u64 kPfRemoteBit = u64(1) << 51;  ///< some goal was stolen
inline constexpr u64 kPfPendingMask = kPfFailBit - 1;
inline constexpr u64 kPfSlotStride = 2;  // [state | pe<<8], marker addr
inline constexpr u64 kSlotInfo = 0, kSlotMarker = 1;
inline constexpr u64 slot_info(u64 state, u64 pe) { return state | (pe << 8); }
inline constexpr u64 slot_state(u64 info) { return info & 0xFF; }
inline constexpr u64 slot_pe(u64 info) { return (info >> 8) & 0xFF; }
inline constexpr u64 pf_size(u64 nslots) { return kPfSlots + kPfSlotStride * nslots; }
enum SlotState : u64 { kPending = 0, kTaken = 1, kDone = 2, kFailed = 3, kCancelled = 4 };
// Local goal frame (parent executing one of its own goals; control
// stack; two packed words).
inline constexpr u64 kLgfPfSlot = 0;   // pf | slot<<44
inline constexpr u64 kLgfResume = 1;   // prev | resumeP<<44
inline constexpr u64 kLgfSize = 2;
inline constexpr u64 lgf_pack(u64 lo, u64 hi) { return lo | (hi << 44); }
inline constexpr u64 lgf_lo(u64 v) { return v & ((u64(1) << 44) - 1); }
inline constexpr u64 lgf_hi(u64 v) { return (v >> 44) & 0xFFF; }
// Goal stack region: [lock][bot][top][frames...]. Frames pack the
// parcall frame address with the slot, and the code entry with the
// arity, so a frame is 2 + arity words.
inline constexpr u64 kGsLock = 0, kGsBot = 1, kGsTop = 2, kGsFrames = 3;
inline constexpr u64 kGoalStride = 14;  // pf|slot, entry|arity, args[12]
inline constexpr u64 kGfPfSlot = 0, kGfEntryArity = 1, kGfArgs = 2;
// Message buffer region: [lock][count][messages...].
inline constexpr u64 kMbLock = 0, kMbCount = 1, kMbMsgs = 2;
inline constexpr u64 kMsgStride = 4;  // type, pf, slot, from
inline constexpr u64 kMsgKill = 1;
}  // namespace frames

class Machine {
 public:
  /// Compiles `prog` (throws on compile errors). The program reference
  /// must outlive the machine.
  Machine(Program& prog, MachineConfig cfg);
  ~Machine();

  /// Runs `goal_text` (e.g. "qsort([3,1,2],R)") and returns solutions
  /// and statistics. An optional sink receives the reference stream.
  /// A non-null `cancel` token is checkpointed inside the cycle loop
  /// (every 1024 cycles, covering call/backtrack/parcall boundaries in
  /// both dispatch cores) and inside unification (every 1024 PDL
  /// pops), so a deadline or explicit cancel interrupts the run
  /// mid-generation with CancelledError; the machine stays reusable
  /// afterwards.
  RunResult solve(const std::string& goal_text, TraceSink* sink = nullptr,
                  const CancelToken* cancel = nullptr);
  RunResult solve_term(const Term* goal, TraceSink* sink = nullptr,
                       const CancelToken* cancel = nullptr);

  const CodeStore& code() const { return *code_; }
  const MachineConfig& config() const { return cfg_; }

 private:
  struct Worker {
    enum class St : u8 { Idle, Running, Waiting, Halted };
    St state = St::Idle;
    u8 pe = 0;
    std::array<u64, 256> x{};
    i32 p = 0;        // program counter (code address)
    i32 cp = 0;       // continuation code address
    u64 e = 0;        // current environment (0 = none)
    u64 b = 0;        // newest choice point (0 = none)
    u64 b0 = 0;       // cut barrier
    u64 h = 0;        // heap top (absolute address)
    u64 hb = 0;       // heap backtrack boundary
    u64 tr = 0;       // trail top
    u64 s = 0;        // structure pointer (read mode)
    bool write_mode = false;
    u64 pf = 0;       // newest parcall frame (0 = none)
    u64 marker = 0;   // innermost active marker (0 = none)
    u64 lgf = 0;      // innermost local goal frame (0 = none)
    u64 pdl = 0;      // PDL top
    u64 ctop = 0;     // control-stack top
    u64 ctop_floor = 0;  // lowest reclaimable point (retained sections below)
    u64 b_ltop = 0;   // local top saved in newest CP (shadow)
    unsigned steal_rr = 1;  // round-robin steal pointer
    u64 parked_at = 0;      // cycle it parked in (0 = in the cycle loop)
    // True high-water marks (words used), updated at allocation sites.
    u64 hw_heap = 0, hw_local = 0, hw_control = 0, hw_trail = 0;
    // Area bases/limits cached from the layout.
    u64 heap_base = 0, heap_limit = 0, local_base = 0, local_limit = 0,
        control_base = 0, control_limit = 0, trail_base = 0, trail_limit = 0,
        pdl_base = 0, pdl_limit = 0, goal_base = 0, goal_limit = 0,
        msg_base = 0, msg_limit = 0;
    bool busy() const { return state == St::Running; }
  };

  // -- setup / top level (machine.cpp)
  void reset(TraceSink* sink);
  RunResult run_query(const Term* goal, TraceSink* sink);
  u64 build_term(Worker& w, const Term* t,
                 std::unordered_map<const Term*, u64>& varmap);
  std::string stringify(u64 cell, int depth = 0) const;
  void step(Worker& w);
  void exec(Worker& w);           // one instruction
  /// pr.entry, or a structured Error naming predicate/arity if the
  /// predicate was declared (proc_index) but never compiled.
  i32 resolved_entry(const Proc& pr) const;
  void record_high_water(const Worker& w);

  // -- memory helpers (worker.cpp)
  u64 rd(Worker& w, u64 addr, ObjClass cls);
  void wr(Worker& w, u64 addr, u64 cell, ObjClass cls);
  u64 heap_push(Worker& w, u64 cell);
  u64 local_top(Worker& w);       // allocation point on the local stack
  void push_env(Worker& w, int ny);
  void pop_env(Worker& w);
  void push_choice(Worker& w, int nargs, i32 bp);
  void restore_choice(Worker& w); // load state from w.b (not popping)
  void pop_choice(Worker& w);
  u64 deref(Worker& w, u64 cell);
  void bind(Worker& w, u64 ref_cell, u64 value);
  void trail(Worker& w, u64 addr);
  void untrail_to(Worker& w, u64 target_tr);
  void untrail_range(Worker& w, u8 payer, u64 from, u64 to);
  bool unify(Worker& w, u64 c1, u64 c2);              // unify.cpp
  void walk_checkpoint(u64 steps);                    // every 1024 walk steps
  template <typename OnVar>
  bool each_var(Worker& w, u64 cell, OnVar on_var);   // builtin.cpp helpers
  bool ground_cell(Worker& w, u64 cell);
  bool indep_cells(Worker& w, u64 a, u64 b);
  bool struct_eq(Worker& w, u64 a, u64 b);
  int term_compare(Worker& w, u64 a, u64 b);          // standard order
  u64 copy_term_cell(Worker& w, u64 cell,
                     std::unordered_map<u64, u64>& varmap);
  std::optional<i64> eval_arith(Worker& w, u64 cell); // arith.cpp
  i64 math_apply(MathFn fn, i64 a, i64 b);            // arith.cpp

  // -- failure & cut (worker.cpp)
  void backtrack(Worker& w);
  void do_cut(Worker& w, u64 target_b);
  void reclaim_control(Worker& w, u64 candidate);

  // -- builtins (builtin.cpp)
  enum class BResult : u8 { True, False, Transfer };
  BResult exec_builtin(Worker& w, BuiltinId id, int arity);

  // -- parallel machinery (sched.cpp)
  void exec_pframe(Worker& w, int nslots, int pf_y, u64 wait_p);
  void exec_pgoal(Worker& w, int slot, i32 proc_idx, int arity);
  /// Reads its own operands from code_[w.p] (a pwait instruction).
  void exec_pwait(Worker& w);
  bool try_run_own_goal(Worker& w, u64 pf);  // parent pops own stack (same PF)
  bool try_steal(Worker& w);          // idle PE steals from a victim
  /// A waiting worker's poll whose outcome is fixed, counted in bulk;
  /// false (nothing done) when exec_pwait must run instead.
  bool quiet_wait_poll(Worker& w);
  /// Counts the idle references of `n` quiet wait polls.
  void count_quiet_polls(Worker& w, u64 n);
  /// Counts `n` idle lock/read bot/read top/unlock of a goal stack
  /// that found no goal.
  void count_empty_probes(Worker& w, u64 n);
  /// Parking (docs/DESIGN.md §5): a worker whose quiet poll or probe
  /// would repeat unchanged leaves the cycle loop until a wake site puts
  /// it back; the steps it skipped are counted then, or when the run ends.
  void park(Worker& w);
  void wake(unsigned pe);           ///< no-op unless `pe` is parked
  void wake_creator(u64 pf);        ///< the worker that polls pf's counter
  void wake_probers();              ///< every parked idle worker
  /// Counts the quiet steps a parked worker skipped up to the current
  /// step of PE cur_pe_.
  void settle(Worker& w);
  bool goal_stack_open(u64 gs) const;  ///< bot < top
  /// Keeps open_stacks_ in step with a goal stack that was open
  /// (`was_open`) and now holds [bot, top).
  void note_goal_stack(bool was_open, u64 bot, u64 top);
  void start_goal(Worker& w, u64 pf, u64 slot, i32 entry, int arity,
                  const u64* args, i32 resume_p);
  void start_local_goal(Worker& w, u64 pf, u64 slot, i32 entry, int arity,
                        const u64* args, i32 resume_p);
  void end_goal(Worker& w);           // EndGoal instruction
  void end_local_goal(Worker& w);     // EndLocalGoal instruction
  /// Resets the parcall creator to its pwait after a sibling failed.
  void abort_creator(u64 pf);
  void goal_failed(Worker& w);        // section exhausted its alternatives
  void cancel_parcall(Worker& w, u64 pf);
  void abort_taken_goal(unsigned pe, u64 pf, u64 slot);
  void unwind_done_section(unsigned pe, u64 marker_addr);
  void unwind_top_section(Worker& w, u64 marker_addr, bool reclaim_all);
  void send_kill(Worker& sender, unsigned dest_pe, u64 pf, u64 slot);
  void pf_lock(Worker& w, u64 pf);
  void pf_unlock(Worker& w, u64 pf);

  Program& prog_;
  MachineConfig cfg_;
  std::unique_ptr<CodeStore> code_;
  i32 halt_addr_ = -1;
  u32 nil_atom_ = 0;

  // Per-run state.
  const CancelToken* cancel_ = nullptr;  ///< borrowed for one solve
  u64 heap_pushes_ = 0;                  ///< counted only when faults armed
  std::unique_ptr<Layout> layout_;
  std::unique_ptr<MemBus> bus_;
  std::vector<Worker> workers_;
  RunStats stats_;
  std::ostringstream out_;
  bool done_ = false;
  bool query_failed_exhausted_ = false;
  // Parking (docs/DESIGN.md §5).
  unsigned parked_ = 0;      ///< workers out of the cycle loop
  unsigned cur_pe_ = 0;      ///< the PE the cycle loop is stepping
  unsigned open_stacks_ = 0; ///< goal stacks with bot < top
  std::vector<std::pair<std::string, u64>> query_vars_;  // name -> heap addr
  std::vector<Solution> solutions_;
};

}  // namespace rapwam
