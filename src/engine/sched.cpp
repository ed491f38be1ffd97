// RAP-WAM parallel machinery: parcall frames, goal stacks, on-demand
// scheduling (parents execute their own goals, idle PEs steal),
// markers/stack sections, goal completion and failure, and the
// kill/unwind cancellation protocol.
//
// Frame layouts are deliberately lean (packed words, single-reference
// test-and-set locks) because every word touched here shows up as
// parallelism-management overhead in the Figure-2 measurements.
//
// Cancellation runs as a synchronous simulator transaction: every
// memory touch is attributed to the PE that performs it in the real
// protocol (kill messages to the executor's message buffer, unwinding
// paid by the executor), but virtual time does not advance inside the
// transaction. See docs/DESIGN.md §5.
#include "engine/machine.h"

#include <algorithm>

namespace rapwam {

using namespace frames;

/// Locks are modelled as one test-and-set bus transaction to acquire
/// and one write to release (uncontended in deterministic virtual
/// time).
void Machine::pf_lock(Worker& w, u64 pf) {
  wr(w, pf + kPfLock, make_raw(1), ObjClass::ParcallCount);
}

void Machine::pf_unlock(Worker& w, u64 pf) {
  wr(w, pf + kPfLock, make_raw(0), ObjClass::ParcallCount);
}

void Machine::exec_pframe(Worker& w, int nslots, int pf_y, u64 wait_p) {
  u64 base = local_top(w);
  u64 sz = pf_size(static_cast<u64>(nslots));
  if (base + sz > w.local_limit)
    throw ResourceExhaustedError(
        "local", "resource_exhausted: local stack overflow (parcall frame) on PE " +
                     std::to_string(w.pe));
  wr(w, base + kPfPrev, make_raw(w.pf), ObjClass::ParcallLocal);
  wr(w, base + kPfNSlots, make_raw(static_cast<u64>(nslots)), ObjClass::ParcallLocal);
  wr(w, base + kPfPending, make_raw(static_cast<u64>(nslots)), ObjClass::ParcallCount);
  wr(w, base + kPfLock, make_raw(0), ObjClass::ParcallCount);
  wr(w, base + kPfCreator, make_raw(w.pe), ObjClass::ParcallLocal);
  wr(w, base + kPfSavedB, make_raw(w.b), ObjClass::ParcallLocal);
  wr(w, base + kPfSavedE, make_raw(w.e), ObjClass::ParcallLocal);
  wr(w, base + kPfSavedLgf, make_raw(w.lgf), ObjClass::ParcallLocal);
  wr(w, base + kPfWaitP, make_raw(wait_p), ObjClass::ParcallLocal);
  for (int i = 0; i < nslots; ++i) {
    u64 s = base + kPfSlots + kPfSlotStride * static_cast<u64>(i);
    wr(w, s + kSlotInfo, make_raw(slot_info(kPending, 0)), ObjClass::ParcallGlobal);
    // The marker word is written only when a thief claims the slot.
  }
  w.pf = base;
  w.hw_local = std::max(w.hw_local, base + sz - w.local_base);
  // The clause keeps the frame pointer in its environment: the inline
  // first goal may leave w.pf pointing at a nested, completed frame.
  wr(w, w.e + kEnvY + static_cast<u64>(pf_y), make_raw(base), ObjClass::EnvPermVar);
  ++stats_.parcalls;
}

void Machine::exec_pgoal(Worker& w, int slot, i32 proc_idx, int arity) {
  RW_CHECK(w.pf != 0, "pgoal without parcall frame");
  i32 entry = resolved_entry(code_->proc(proc_idx));
  u64 gs = w.goal_base;
  wr(w, gs + kGsLock, make_raw(1), ObjClass::GoalFrame);  // test-and-set
  u64 top = cell_val(rd(w, gs + kGsTop, ObjClass::GoalFrame));
  u64 fr = gs + kGsFrames + top * kGoalStride;
  if (fr + kGoalStride > w.goal_limit)
    throw ResourceExhaustedError(
        "goal_stack", "resource_exhausted: goal stack overflow on PE " +
                          std::to_string(w.pe));
  wr(w, fr + kGfPfSlot, make_raw(lgf_pack(w.pf, static_cast<u64>(slot))),
     ObjClass::GoalFrame);
  wr(w, fr + kGfEntryArity,
     make_raw(lgf_pack(static_cast<u64>(entry), static_cast<u64>(arity))),
     ObjClass::GoalFrame);
  for (int i = 0; i < arity; ++i)
    wr(w, fr + kGfArgs + static_cast<u64>(i), w.x[static_cast<std::size_t>(i) + 1],
       ObjClass::GoalFrame);
  wr(w, gs + kGsTop, make_raw(top + 1), ObjClass::GoalFrame);
  wr(w, gs + kGsLock, make_raw(0), ObjClass::GoalFrame);
  ++stats_.goals_pushed;
}

/// Executes the pwait instruction. On entry w.p points AT the pwait;
/// on success it advances past it, otherwise the worker stays waiting
/// (possibly after picking up one of its own goals).
void Machine::exec_pwait(Worker& w) {
  const Instr& ins = code_->at(w.p);
  u64 pf = cell_val(rd(w, w.e + kEnvY + static_cast<u64>(ins.a),
                       ObjClass::EnvPermVar));
  RW_CHECK(pf != 0, "pwait without parcall frame");
  u64 counter = cell_val(rd(w, pf + kPfPending, ObjClass::ParcallCount));
  if (counter & kPfFailBit) {
    // A parallel goal failed. The goals are independent, so retrying
    // the inline goal's alternatives cannot cure the failure: discard
    // every choice point younger than the parcall ("restricted
    // intelligent backtracking") and fail past it. The backtrack walk
    // cancels this frame and any nested completed frames.
    u64 saved_b = cell_val(rd(w, pf + kPfSavedB, ObjClass::ParcallLocal));
    do_cut(w, saved_b);
    backtrack(w);
    return;
  }
  if ((counter & kPfPendingMask) == 0) {
    // Every goal ran locally and succeeded: the frame carries nothing
    // a later backtrack needs (local bindings are on this worker's own
    // trail), so reclaim its local-stack space — but only when no
    // choice point created inside the parcall survives (such a choice
    // point recorded this frame as its PF). Frames with stolen goals
    // stay: they locate the remote stack sections to cancel.
    if (!(counter & kPfRemoteBit) && w.pf == pf) {
      u64 saved_b = cell_val(rd(w, pf + kPfSavedB, ObjClass::ParcallLocal));
      if (w.b <= saved_b)
        w.pf = cell_val(rd(w, pf + kPfPrev, ObjClass::ParcallLocal));
    }
    ++w.p;
    w.state = Worker::St::Running;
    return;
  }
  if (try_run_own_goal(w, pf)) return;
  w.state = Worker::St::Waiting;
}

/// Pops the newest goal of the *current* parcall from the worker's own
/// goal stack and starts executing it. Goals of outer parcalls are left
/// alone (they are resumed when execution returns to their pwait).
bool Machine::try_run_own_goal(Worker& w, u64 pf) {
  u64 gs = w.goal_base;
  wr(w, gs + kGsLock, make_raw(1), ObjClass::GoalFrame);
  u64 bot = cell_val(rd(w, gs + kGsBot, ObjClass::GoalFrame));
  u64 top = cell_val(rd(w, gs + kGsTop, ObjClass::GoalFrame));
  while (top > bot) {
    u64 fr = gs + kGsFrames + (top - 1) * kGoalStride;
    u64 pfslot = cell_val(rd(w, fr + kGfPfSlot, ObjClass::GoalFrame));
    u64 fpf = lgf_lo(pfslot);
    u64 fslot = lgf_hi(pfslot);
    u64 sinfo = cell_val(
        rd(w, fpf + kPfSlots + kPfSlotStride * fslot + kSlotInfo,
           ObjClass::ParcallGlobal));
    if (slot_state(sinfo) == kCancelled) {
      --top;  // discard and keep looking
      wr(w, gs + kGsTop, make_raw(top), ObjClass::GoalFrame);
      continue;
    }
    if (fpf != pf) break;  // belongs to an outer parcall
    --top;
    wr(w, gs + kGsTop, make_raw(top), ObjClass::GoalFrame);
    u64 ea = cell_val(rd(w, fr + kGfEntryArity, ObjClass::GoalFrame));
    i32 entry = static_cast<i32>(lgf_lo(ea));
    int arity = static_cast<int>(lgf_hi(ea));
    u64 args[kGoalStride];
    for (int i = 0; i < arity; ++i)
      args[i] = rd(w, fr + kGfArgs + static_cast<u64>(i), ObjClass::GoalFrame);
    wr(w, gs + kGsLock, make_raw(0), ObjClass::GoalFrame);
    ++stats_.goals_local;
    start_local_goal(w, fpf, fslot, entry, arity, args, /*resume_p=*/w.p);
    return true;
  }
  if (top == bot && top != 0) {  // empty: reset indices
    wr(w, gs + kGsBot, make_raw(0), ObjClass::GoalFrame);
    wr(w, gs + kGsTop, make_raw(0), ObjClass::GoalFrame);
  }
  wr(w, gs + kGsLock, make_raw(0), ObjClass::GoalFrame);
  return false;
}

/// Quiet idle steps (docs/DESIGN.md §5). Most idle steps at 4+ PEs are
/// a wait poll of a still-pending parcall with nothing on the worker's
/// own goal stack, or a steal probe of an empty goal stack. Their
/// outcome is fixed, so when no sink keeps idle references (whose
/// emission order would then matter) they are recognised with untraced
/// peeks and their references counted in bulk. RunStats, memory and
/// every busy reference stay exactly as on the full path.
bool Machine::quiet_wait_poll(Worker& w) {
  if (bus_->keeps_idle()) return false;
  const Instr& ins = code_->at(w.p);
  u64 pf = cell_val(bus_->peek(w.e + kEnvY + static_cast<u64>(ins.a)));
  if (pf == 0) return false;
  u64 counter = cell_val(bus_->peek(pf + kPfPending));
  if ((counter & kPfFailBit) || (counter & kPfPendingMask) == 0) return false;
  u64 gs = w.goal_base;
  if (cell_val(bus_->peek(gs + kGsBot)) != 0 || cell_val(bus_->peek(gs + kGsTop)) != 0)
    return false;
  // exec_pwait: the frame pointer and the counter; try_run_own_goal:
  // the lock/unlock of an empty goal stack.
  bus_->count_idle(w.pe, ObjClass::EnvPermVar, /*write=*/false, 1);
  bus_->count_idle(w.pe, ObjClass::ParcallCount, /*write=*/false, 1);
  count_empty_probe(w, gs);
  return true;
}

void Machine::count_empty_probe(Worker& w, u64 gs) {
  bus_->poke(gs + kGsLock, make_raw(0));
  bus_->count_idle(w.pe, ObjClass::GoalFrame, /*write=*/false, 2);
  bus_->count_idle(w.pe, ObjClass::GoalFrame, /*write=*/true, 2);
}

/// An idle worker probes one victim (round-robin) and steals its oldest
/// pending goal (FIFO end: the biggest subtree).
bool Machine::try_steal(Worker& w) {
  unsigned n = layout_->num_pes();
  if (n <= 1) return false;
  unsigned victim = (w.pe + w.steal_rr) % n;
  w.steal_rr = (w.steal_rr % (n - 1)) + 1;
  if (victim == w.pe) return false;
  Worker& v = workers_[victim];
  u64 gs = v.goal_base;
  if (!bus_->keeps_idle() &&
      cell_val(bus_->peek(gs + kGsBot)) >= cell_val(bus_->peek(gs + kGsTop))) {
    count_empty_probe(w, gs);  // nothing to steal
    return false;
  }
  wr(w, gs + kGsLock, make_raw(1), ObjClass::GoalFrame);
  u64 bot = cell_val(rd(w, gs + kGsBot, ObjClass::GoalFrame));
  u64 top = cell_val(rd(w, gs + kGsTop, ObjClass::GoalFrame));
  while (bot < top) {
    u64 fr = gs + kGsFrames + bot * kGoalStride;
    u64 pfslot = cell_val(rd(w, fr + kGfPfSlot, ObjClass::GoalFrame));
    u64 fpf = lgf_lo(pfslot);
    u64 fslot = lgf_hi(pfslot);
    u64 sinfo = cell_val(
        rd(w, fpf + kPfSlots + kPfSlotStride * fslot + kSlotInfo,
           ObjClass::ParcallGlobal));
    ++bot;
    wr(w, gs + kGsBot, make_raw(bot), ObjClass::GoalFrame);
    if (slot_state(sinfo) == kCancelled) continue;
    u64 ea = cell_val(rd(w, fr + kGfEntryArity, ObjClass::GoalFrame));
    i32 entry = static_cast<i32>(lgf_lo(ea));
    int arity = static_cast<int>(lgf_hi(ea));
    u64 args[kGoalStride];
    for (int i = 0; i < arity; ++i)
      args[i] = rd(w, fr + kGfArgs + static_cast<u64>(i), ObjClass::GoalFrame);
    wr(w, gs + kGsLock, make_raw(0), ObjClass::GoalFrame);
    ++stats_.goals_stolen;
    start_goal(w, fpf, fslot, entry, arity, args, /*resume_p=*/-1);
    return true;
  }
  wr(w, gs + kGsLock, make_raw(0), ObjClass::GoalFrame);
  return false;
}

/// Runs one of the worker's own goals as a near-normal call: no marker,
/// no stack section — just a two-word return frame so end_local_goal
/// knows which slot to complete. Failure inside the goal backtracks
/// through the parcall naturally.
void Machine::start_local_goal(Worker& w, u64 pf, u64 slot, i32 entry, int arity,
                               const u64* args, i32 resume_p) {
  u64 lg = w.ctop;
  if (lg + kLgfSize > w.control_limit)
    throw ResourceExhaustedError(
        "control", "resource_exhausted: control stack overflow (local goal frame) on PE " +
                       std::to_string(w.pe));
  wr(w, lg + kLgfPfSlot, make_raw(lgf_pack(pf, slot)), ObjClass::Marker);
  wr(w, lg + kLgfResume, make_raw(lgf_pack(w.lgf, static_cast<u64>(resume_p))),
     ObjClass::Marker);
  w.ctop = lg + kLgfSize;
  w.hw_control = std::max(w.hw_control, w.ctop - w.control_base);
  w.lgf = lg;

  u64 s = pf + kPfSlots + kPfSlotStride * slot;
  wr(w, s + kSlotInfo, make_raw(slot_info(kTaken, w.pe)), ObjClass::ParcallGlobal);

  for (int i = 0; i < arity; ++i) w.x[static_cast<std::size_t>(i) + 1] = args[i];
  w.cp = kEndLocalGoalAddr;
  w.p = entry;
  w.b0 = w.b;
  w.state = Worker::St::Running;
}

void Machine::end_local_goal(Worker& w) {
  u64 lg = w.lgf;
  RW_CHECK(lg != 0, "end_local_goal without frame");
  u64 pfslot = cell_val(rd(w, lg + kLgfPfSlot, ObjClass::Marker));
  u64 pf = lgf_lo(pfslot);
  u64 slot = lgf_hi(pfslot);
  u64 resume_word = cell_val(rd(w, lg + kLgfResume, ObjClass::Marker));
  w.lgf = lgf_lo(resume_word);
  if (w.ctop == lg + kLgfSize) w.ctop = lg;  // nothing allocated above

  u64 s = pf + kPfSlots + kPfSlotStride * slot;
  wr(w, s + kSlotInfo, make_raw(slot_info(kDone, w.pe)), ObjClass::ParcallGlobal);
  pf_lock(w, pf);
  u64 counter = cell_val(rd(w, pf + kPfPending, ObjClass::ParcallCount));
  wr(w, pf + kPfPending, make_raw(counter - 1), ObjClass::ParcallCount);
  pf_unlock(w, pf);

  w.p = static_cast<i32>(lgf_hi(resume_word));
  w.state = Worker::St::Running;
}

/// A sibling of parcall `pf` failed while its creator was busy between
/// pframe and the completion of pwait (running the inline goal or one
/// of its own pushed goals). Reset the creator to the pwait: its fail
/// path (cut to the pre-parcall choice point, then backtrack) performs
/// the actual unwinding and cancellation.
void Machine::abort_creator(u64 pf) {
  unsigned creator =
      static_cast<unsigned>(bus_->peek(pf + kPfCreator) & kPayloadMask);
  Worker& cw = workers_[creator];
  i32 wait_p = static_cast<i32>(cell_val(rd(cw, pf + kPfWaitP, ObjClass::ParcallLocal)));
  if (cw.p == wait_p) return;  // already at (or parked on) the pwait
  cw.e = cell_val(rd(cw, pf + kPfSavedE, ObjClass::ParcallLocal));
  cw.lgf = cell_val(rd(cw, pf + kPfSavedLgf, ObjClass::ParcallLocal));
  cw.p = wait_p;
  cw.state = Worker::St::Running;
}

void Machine::start_goal(Worker& w, u64 pf, u64 slot, i32 entry, int arity,
                         const u64* args, i32 resume_p) {
  u64 mk = w.ctop;
  if (mk + kMarkerSize > w.control_limit)
    throw ResourceExhaustedError(
        "control", "resource_exhausted: control stack overflow (marker) on PE " +
                       std::to_string(w.pe));
  wr(w, mk + kMkPF, make_raw(pf), ObjClass::Marker);
  wr(w, mk + kMkSlot, make_raw(slot), ObjClass::Marker);
  wr(w, mk + kMkSavedB, make_raw(w.b), ObjClass::Marker);
  wr(w, mk + kMkSavedTR, make_raw(w.tr), ObjClass::Marker);
  wr(w, mk + kMkSavedH, make_raw(w.h), ObjClass::Marker);
  wr(w, mk + kMkSavedE, make_raw(w.e), ObjClass::Marker);
  wr(w, mk + kMkResumeP, make_int(resume_p), ObjClass::Marker);
  wr(w, mk + kMkSavedPF, make_raw(w.pf), ObjClass::Marker);
  wr(w, mk + kMkPrev, make_raw(w.marker), ObjClass::Marker);
  wr(w, mk + kMkDead, make_raw(0), ObjClass::Marker);
  wr(w, mk + kMkSavedB0, make_raw(w.b0), ObjClass::Marker);
  wr(w, mk + kMkSavedLtop, make_raw(w.b_ltop), ObjClass::Marker);
  wr(w, mk + kMkSavedLgf, make_raw(w.lgf), ObjClass::Marker);
  w.ctop = mk + kMarkerSize;
  w.hw_control = std::max(w.hw_control, w.ctop - w.control_base);
  w.marker = mk;

  // Claim the slot.
  u64 s = pf + kPfSlots + kPfSlotStride * slot;
  wr(w, s + kSlotInfo, make_raw(slot_info(kTaken, w.pe)), ObjClass::ParcallGlobal);
  wr(w, s + kSlotMarker, make_raw(mk), ObjClass::ParcallGlobal);

  for (int i = 0; i < arity; ++i) w.x[static_cast<std::size_t>(i) + 1] = args[i];
  w.cp = kEndGoalAddr;
  w.p = entry;
  w.b0 = w.b;
  w.hb = w.h;
  w.state = Worker::St::Running;
}

void Machine::end_goal(Worker& w) {
  u64 mk = w.marker;
  RW_CHECK(mk != 0, "end_goal without marker");
  wr(w, mk + kMkEndTR, make_raw(w.tr), ObjClass::Marker);
  wr(w, mk + kMkEndPF, make_raw(w.pf), ObjClass::Marker);
  wr(w, mk + kMkEndH, make_raw(w.h), ObjClass::Marker);
  wr(w, mk + kMkEndCtop, make_raw(w.ctop), ObjClass::Marker);

  u64 pf = cell_val(rd(w, mk + kMkPF, ObjClass::Marker));
  u64 slot = cell_val(rd(w, mk + kMkSlot, ObjClass::Marker));
  u64 s = pf + kPfSlots + kPfSlotStride * slot;
  wr(w, s + kSlotInfo, make_raw(slot_info(kDone, w.pe)), ObjClass::ParcallGlobal);
  pf_lock(w, pf);
  u64 counter = cell_val(rd(w, pf + kPfPending, ObjClass::ParcallCount));
  wr(w, pf + kPfPending, make_raw((counter - 1) | kPfRemoteBit),
     ObjClass::ParcallCount);
  pf_unlock(w, pf);

  // The completed section is retained below this point: the control
  // stack must not be reclaimed into it.
  w.ctop_floor = w.ctop;

  // Restore the executor's context. The section's data (heap, control,
  // trail) stays; its choice points become invisible (first-solution
  // semantics for pushed goals).
  w.pf = cell_val(rd(w, mk + kMkSavedPF, ObjClass::Marker));
  w.e = cell_val(rd(w, mk + kMkSavedE, ObjClass::Marker));
  w.b = cell_val(rd(w, mk + kMkSavedB, ObjClass::Marker));
  w.b0 = cell_val(rd(w, mk + kMkSavedB0, ObjClass::Marker));
  w.b_ltop = cell_val(rd(w, mk + kMkSavedLtop, ObjClass::Marker));
  w.lgf = cell_val(rd(w, mk + kMkSavedLgf, ObjClass::Marker));
  w.hb = (w.b != 0) ? cell_val(rd(w, w.b + kCpH, ObjClass::ChoicePoint))
                    : cell_val(rd(w, mk + kMkSavedH, ObjClass::Marker));
  i64 resume = int_val(rd(w, mk + kMkResumeP, ObjClass::Marker));
  w.marker = cell_val(rd(w, mk + kMkPrev, ObjClass::Marker));
  if (resume >= 0) {
    w.p = static_cast<i32>(resume);
    w.state = Worker::St::Running;
  } else {
    w.state = Worker::St::Idle;
  }
}

/// Called by backtrack() when the current stack section has exhausted
/// its alternatives: the (stolen) parallel goal fails.
void Machine::goal_failed(Worker& w) {
  u64 mk = w.marker;
  u64 saved_pf = cell_val(rd(w, mk + kMkSavedPF, ObjClass::Marker));
  while (w.pf != saved_pf) cancel_parcall(w, w.pf);

  u64 pf = cell_val(rd(w, mk + kMkPF, ObjClass::Marker));
  u64 slot = cell_val(rd(w, mk + kMkSlot, ObjClass::Marker));
  i64 resume = int_val(rd(w, mk + kMkResumeP, ObjClass::Marker));

  unwind_top_section(w, mk, /*reclaim_all=*/true);

  u64 s = pf + kPfSlots + kPfSlotStride * slot;
  wr(w, s + kSlotInfo, make_raw(slot_info(kFailed, w.pe)), ObjClass::ParcallGlobal);
  pf_lock(w, pf);
  u64 counter = cell_val(rd(w, pf + kPfPending, ObjClass::ParcallCount));
  wr(w, pf + kPfPending, make_raw((counter - 1) | kPfFailBit | kPfRemoteBit),
     ObjClass::ParcallCount);
  pf_unlock(w, pf);

  // Kill the siblings that are still running ("inside" failure, paper
  // §1): since the goals are independent there is no point letting
  // them finish. Stolen goals are aborted on their executors; the
  // creator (running the inline goal or a local one) is reset to its
  // pwait, where it observes the fail flag and fails the parcall.
  u64 nslots = cell_val(rd(w, pf + kPfNSlots, ObjClass::ParcallLocal));
  unsigned creator = static_cast<unsigned>(
      cell_val(rd(w, pf + kPfCreator, ObjClass::ParcallLocal)));
  for (u64 i = 0; i < nslots; ++i) {
    if (i == slot) continue;
    u64 si = pf + kPfSlots + kPfSlotStride * i;
    u64 sinfo = cell_val(rd(w, si + kSlotInfo, ObjClass::ParcallGlobal));
    if (slot_state(sinfo) != kTaken) continue;
    unsigned pe = static_cast<unsigned>(slot_pe(sinfo));
    if (pe == creator) continue;  // handled by abort_creator below
    RW_CHECK(pe != w.pe, "failing goal's sibling taken by the failing PE");
    send_kill(w, pe, pf, i);
    abort_taken_goal(pe, pf, i);
  }
  if (creator != w.pe) {
    send_kill(w, creator, pf, slot);
    abort_creator(pf);
  }

  if (resume >= 0) {
    w.p = static_cast<i32>(resume);
    w.state = Worker::St::Running;
  } else {
    w.state = Worker::St::Idle;
  }
}

/// Fully unwinds the worker's innermost (top) stack section: bindings,
/// heap, control stack, registers. The marker must be w.marker.
void Machine::unwind_top_section(Worker& w, u64 mk, bool reclaim_all) {
  RW_CHECK(mk == w.marker, "unwind_top_section: not the innermost marker");
  untrail_to(w, cell_val(rd(w, mk + kMkSavedTR, ObjClass::Marker)));
  if (reclaim_all) {
    w.h = cell_val(rd(w, mk + kMkSavedH, ObjClass::Marker));
    w.ctop = mk;
    w.ctop_floor = std::min(w.ctop_floor, mk);
  }
  w.b = cell_val(rd(w, mk + kMkSavedB, ObjClass::Marker));
  w.e = cell_val(rd(w, mk + kMkSavedE, ObjClass::Marker));
  w.b0 = cell_val(rd(w, mk + kMkSavedB0, ObjClass::Marker));
  w.b_ltop = cell_val(rd(w, mk + kMkSavedLtop, ObjClass::Marker));
  w.lgf = cell_val(rd(w, mk + kMkSavedLgf, ObjClass::Marker));
  w.pf = cell_val(rd(w, mk + kMkSavedPF, ObjClass::Marker));
  w.hb = (w.b != 0) ? cell_val(rd(w, w.b + kCpH, ObjClass::ChoicePoint))
                    : cell_val(rd(w, mk + kMkSavedH, ObjClass::Marker));
  w.marker = cell_val(rd(w, mk + kMkPrev, ObjClass::Marker));
}

void Machine::send_kill(Worker& sender, unsigned dest_pe, u64 pf, u64 slot) {
  Worker& d = workers_[dest_pe];
  u64 mb = d.msg_base;
  // Sender: lock, append message, bump count, unlock.
  wr(sender, mb + kMbLock, make_raw(1), ObjClass::Message);
  u64 count = cell_val(rd(sender, mb + kMbCount, ObjClass::Message));
  u64 cap = (d.msg_limit - (mb + kMbMsgs)) / kMsgStride;
  u64 m = mb + kMbMsgs + (count % cap) * kMsgStride;
  wr(sender, m + 0, make_raw(kMsgKill), ObjClass::Message);
  wr(sender, m + 1, make_raw(pf), ObjClass::Message);
  wr(sender, m + 2, make_raw(slot), ObjClass::Message);
  wr(sender, m + 3, make_raw(sender.pe), ObjClass::Message);
  wr(sender, mb + kMbCount, make_raw(count + 1), ObjClass::Message);
  wr(sender, mb + kMbLock, make_raw(0), ObjClass::Message);
  // Receiver: consume (synchronously in the simulation).
  for (u64 i = 0; i < kMsgStride; ++i)
    (void)bus_->read(d.pe, m + i, ObjClass::Message, d.busy());
  bus_->write(d.pe, mb + kMbCount, make_raw(count), ObjClass::Message, d.busy());
  ++stats_.kills;
}

/// Cancels parcall frame `pf` (the newest on w's chain): every slot is
/// discarded, killed or unwound; then the frame is popped from the
/// chain. Runs as a synchronous transaction.
void Machine::cancel_parcall(Worker& w, u64 pf) {
  RW_CHECK(w.pf == pf, "cancel_parcall: frame is not the newest");
  u64 nslots = cell_val(rd(w, pf + kPfNSlots, ObjClass::ParcallLocal));
  for (u64 i = nslots; i-- > 0;) {
    u64 s = pf + kPfSlots + kPfSlotStride * i;
    u64 sinfo = cell_val(rd(w, s + kSlotInfo, ObjClass::ParcallGlobal));
    switch (slot_state(sinfo)) {
      case kPending:
        wr(w, s + kSlotInfo, make_raw(slot_info(kCancelled, 0)),
           ObjClass::ParcallGlobal);
        break;
      case kTaken: {
        unsigned pe = static_cast<unsigned>(slot_pe(sinfo));
        if (pe != w.pe) {
          // Stolen: abort on the thief. A local goal of the canceller
          // itself is undone by the canceller's own backtracking.
          send_kill(w, pe, pf, i);
          abort_taken_goal(pe, pf, i);
        }
        wr(w, s + kSlotInfo, make_raw(slot_info(kCancelled, 0)),
           ObjClass::ParcallGlobal);
        break;
      }
      case kDone: {
        unsigned pe = static_cast<unsigned>(slot_pe(sinfo));
        if (pe != w.pe) {
          // Stolen goal: its stack section lives on the executor.
          u64 mk = cell_val(rd(w, s + kSlotMarker, ObjClass::ParcallGlobal));
          send_kill(w, pe, pf, i);
          unwind_done_section(pe, mk);
        }
        // Locally executed goals are undone by the canceller's own
        // trail/heap restoration.
        wr(w, s + kSlotInfo, make_raw(slot_info(kCancelled, 0)),
           ObjClass::ParcallGlobal);
        break;
      }
      case kFailed:
      case kCancelled:
        break;
      default:
        RW_CHECK(false, "bad slot state");
    }
  }
  w.pf = cell_val(rd(w, pf + kPfPrev, ObjClass::ParcallLocal));
}

/// Aborts a goal currently being executed by `pe`: unwinds that
/// worker's activities innermost-first until the (pf,slot) section is
/// gone, cancelling nested parcalls on the way.
void Machine::abort_taken_goal(unsigned pe, u64 pf, u64 slot) {
  Worker& ex = workers_[pe];
  for (;;) {
    RW_CHECK(ex.marker != 0, "abort target has no active section");
    u64 mk = ex.marker;
    u64 mpf = cell_val(rd(ex, mk + kMkPF, ObjClass::Marker));
    u64 mslot = cell_val(rd(ex, mk + kMkSlot, ObjClass::Marker));
    bool target = (mpf == pf && mslot == slot);
    // Tombstone this slot first so nested cancellations skip it.
    u64 s = mpf + kPfSlots + kPfSlotStride * mslot;
    wr(ex, s + kSlotInfo, make_raw(slot_info(kCancelled, 0)), ObjClass::ParcallGlobal);
    // Cancel parcalls opened inside this activity.
    u64 saved_pf = cell_val(rd(ex, mk + kMkSavedPF, ObjClass::Marker));
    while (ex.pf != saved_pf) cancel_parcall(ex, ex.pf);
    i64 resume = int_val(rd(ex, mk + kMkResumeP, ObjClass::Marker));
    unwind_top_section(ex, mk, /*reclaim_all=*/true);
    if (target) {
      if (resume >= 0) {
        // Defensive: a stolen goal always resumes to Idle.
        ex.p = static_cast<i32>(resume);
        ex.state = Worker::St::Running;
      } else {
        ex.state = Worker::St::Idle;  // thief goes idle
      }
      return;
    }
  }
}

/// Unwinds a *completed* section that may no longer be on top of the
/// executor's stacks: resets its bindings via its trail range and
/// reclaims memory only when nothing was allocated above it since.
void Machine::unwind_done_section(unsigned pe, u64 mk) {
  Worker& ex = workers_[pe];
  if (cell_val(bus_->read(pe, mk + kMkDead, ObjClass::Marker, ex.busy())) != 0) return;

  // Cancel parcalls completed inside the section.
  u64 end_pf = cell_val(bus_->read(pe, mk + kMkEndPF, ObjClass::Marker, ex.busy()));
  u64 saved_pf = cell_val(bus_->read(pe, mk + kMkSavedPF, ObjClass::Marker, ex.busy()));
  u64 pfc = end_pf;
  while (pfc != saved_pf) {
    u64 prev = cell_val(bus_->read(pe, pfc + kPfPrev, ObjClass::ParcallLocal, ex.busy()));
    // Temporarily splice the frame onto ex's chain head for cancel.
    u64 save_chain = ex.pf;
    ex.pf = pfc;
    cancel_parcall(ex, pfc);
    ex.pf = save_chain;
    pfc = prev;
  }

  u64 saved_tr = cell_val(bus_->read(pe, mk + kMkSavedTR, ObjClass::Marker, ex.busy()));
  u64 end_tr = cell_val(bus_->read(pe, mk + kMkEndTR, ObjClass::Marker, ex.busy()));
  untrail_range(ex, static_cast<u8>(pe), saved_tr, end_tr);
  if (ex.tr == end_tr) ex.tr = saved_tr;

  u64 saved_h = cell_val(bus_->read(pe, mk + kMkSavedH, ObjClass::Marker, ex.busy()));
  u64 end_h = cell_val(bus_->read(pe, mk + kMkEndH, ObjClass::Marker, ex.busy()));
  if (ex.h == end_h) ex.h = saved_h;

  u64 end_ctop = cell_val(bus_->read(pe, mk + kMkEndCtop, ObjClass::Marker, ex.busy()));
  if (ex.ctop == end_ctop) ex.ctop = mk;

  bus_->write(pe, mk + kMkDead, make_raw(1), ObjClass::Marker, ex.busy());
}

}  // namespace rapwam
