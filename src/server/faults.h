// Deterministic fault injection for the resident server
// (docs/DESIGN.md §10).
//
// The fault matrix the robustness suite drives — allocation failure,
// a throw mid-replay, a stalled consumer — cannot be provoked
// reliably from outside the process, so the server path carries
// explicit, deterministic injection points. A FaultPlan rides in on
// the request itself (`"fault": {...}`), is counted down as the
// request executes, and fires exactly at the Nth site regardless of
// scheduling, so every entry in tests/test_server_faults.cpp replays
// the same failure every run.
//
// Plans are only honored when the server was started with
// --enable-faults (the test flag); a production server rejects any
// request carrying a "fault" member as bad_request before touching
// state.
#pragma once

#include <atomic>
#include <optional>

#include "engine/machine.h"  // EngineFaults
#include "server/json.h"

namespace rapwam {

/// What to inject and where. All sites are 1-based ("fail the Nth");
/// 0 disables that fault.
struct FaultPlan {
  /// Throw std::bad_alloc at the Nth allocation checkpoint
  /// (on_alloc()) of the request — simulator construction, result
  /// assembly, trace acquisition.
  u32 fail_alloc_n = 0;
  /// Throw Error("injected chunk fault") at the Nth replay chunk (in a
  /// sweep, before the Nth point).
  u32 throw_chunk_n = 0;
  /// Stall the replay loop `stall_ms` at every chunk checkpoint (in a
  /// sweep, before every point) — the "slow consumer" of the matrix;
  /// pairs with deadlines and overload tests.
  u32 stall_ms = 0;
  /// Engine-side faults: forwarded into MachineConfig::faults when
  /// this request triggers a trace *generation* (no effect on cache
  /// hits). gen_fail_heap fails the Nth heap allocation with
  /// resource_exhausted; gen_stall_every/gen_stall_ms stall the cycle
  /// loop — the "slow generation" that deadline-cancellation tests pin.
  u32 gen_fail_heap_n = 0;
  u32 gen_stall_every = 0;
  u32 gen_stall_ms = 0;

  bool any() const {
    return fail_alloc_n || throw_chunk_n || stall_ms || gen_fail_heap_n ||
           gen_stall_every || gen_stall_ms;
  }

  /// The engine-side slice of the plan, in MachineConfig terms.
  /// A default gen_stall_ms rides along with gen_stall_every so a test
  /// only has to name the cadence.
  EngineFaults engine_faults() const {
    EngineFaults f;
    f.fail_heap_growth_n = gen_fail_heap_n;
    f.stall_every_cycles = gen_stall_every;
    f.stall_ms = gen_stall_ms ? gen_stall_ms : (gen_stall_every ? 10 : 0);
    return f;
  }

  /// Parses the request's "fault" object; throws Error (→ bad_request)
  /// on unknown members or non-integer values.
  static FaultPlan from_json(const JsonValue& v);
};

/// Per-request countdown state. Each plan belongs to exactly one
/// request. The worker thread executing it calls the checkpoints, and
/// a sweep's helpers call on_chunk for the points they run; the
/// counters are relaxed atomics, so both stay race-free.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  /// Allocation checkpoint: throws std::bad_alloc on the Nth call.
  void on_alloc();
  /// Replay-loop checkpoint for chunk `index` (0-based): applies the
  /// stall, throws on the plan's chunk.
  void on_chunk(std::size_t index);

  u32 fired() const { return fired_.load(std::memory_order_relaxed); }

 private:
  FaultPlan plan_;
  std::atomic<u32> allocs_{0};
  std::atomic<u32> fired_{0};
};

}  // namespace rapwam
