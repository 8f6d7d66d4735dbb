#include "src/cpu/cycle_cpu.h"

#include <algorithm>

namespace majc::cpu {

u64 StallCounters::total() const {
  u64 sum = 0;
  for (u64 c : counts) sum += c;
  return sum;
}

CounterSet StallCounters::aggregate() const {
  static constexpr std::array<const char*, kNumStallCauses> kNames = {
      "ifetch", "operand", "fu_busy", "lsu", "branch_penalty"};
  CounterSet out;
  for (u32 i = 0; i < kNumStallCauses; ++i) {
    if (counts[i] != 0) out.add(kNames[i], counts[i]);
  }
  return out;
}

CycleCpu::CycleCpu(const sim::Program& prog, sim::MemoryBus& mem,
                   mem::MemorySystem& ms, u32 cpu_id)
    : prog_(prog),
      ms_(ms),
      lsu_(ms.lsu(cpu_id)),
      cfg_(ms.config()),
      cpu_id_(cpu_id),
      env_{mem},
      bpred_(ms.config()) {
  for (u32 p = 0; p <= kNoProducer; ++p) {
    for (u32 fu = 0; fu < isa::kNumFus; ++fu) {
      bypass_tbl_[p][fu] = static_cast<u8>(
          bypass_delay(static_cast<u8>(p), static_cast<u8>(fu), cfg_));
    }
  }
  env_.cpu_id = cpu_id;
  env_.trap_div_zero = cfg_.trap_div_zero;
  env_.console = &console_;
  env_.tick = &current_cycle_;
  threads_.resize(std::max(1u, cfg_.hw_threads));
  for (auto& th : threads_) th.state.pc = prog.image().entry;
}

bool CycleCpu::halted() const {
  if (trap_) return true;  // a trap stops the whole CPU
  for (const auto& th : threads_) {
    if (!th.state.halted) return false;
  }
  return true;
}

Cycle CycleCpu::now() const {
  Cycle best = ~Cycle{0};
  bool any = false;
  for (const auto& th : threads_) {
    if (th.state.halted) continue;
    best = std::min(best, th.ready);
    any = true;
  }
  if (!any) {
    // All halted: report the time the last thread stopped.
    best = 0;
    for (const auto& th : threads_) best = std::max(best, th.ready);
  }
  return best;
}

void CycleCpu::update_now_cache() { now_cache_ = now(); }

CycleCpu::IssueEstimate CycleCpu::issue_time(ThreadCtx& th,
                                             const sim::PacketMeta& m) {
  IssueEstimate est;
  // (1) Instruction supply.
  const Cycle t0 = th.ready;
  Cycle t = std::max(t0, ms_.ifetch(cpu_id_, m.pc, m.bytes, t0));
  est.ifetch = t - t0;

  // (2) Operand availability (scoreboard interlock + bypass matrix), over
  // the packet's predecoded flat source list. Branch-free: see
  // Scoreboard::entry() for why done + table[producer][fu] == ready().
  const Cycle t_ops = t;
  for (const auto& s : m.srcs) {
    const Scoreboard::Entry& e = th.sb.entry(s.reg);
    t = std::max(t, e.done + bypass_tbl_[e.producer][s.fu]);
  }
  est.operand = t - t_ops;

  // (3) Structural hazards: non-pipelined divide / rsqrt and the partially
  // pipelined FP64 pipe keep their sub-unit busy.
  const Cycle t_fu = t;
  if (m.any_resource) {
    for (u32 i = 0; i < m.width; ++i) {
      const int res = m.slot[i].resource;
      if (res >= 0) t = std::max(t, fu_busy_[i][static_cast<u32>(res)]);
    }
  }
  est.fu = t - t_fu;
  est.t = t;
  return est;
}

bool CycleCpu::handle_trap(const TrapException& e) {
  // The faulting packet committed no register writes, so the active
  // thread's pc still names it — except for LSU-raised machine checks,
  // which surface after commit (the LSU issues post-commit) and therefore
  // report the next packet's pc: an imprecise, asynchronous machine check,
  // still cleanly resumable via RETT.
  ThreadCtx& th = threads_[active_];
  Trap t = e.trap();
  t.cpu = cpu_id_;
  t.pc = th.state.pc;
  t.cycle = std::max(current_cycle_, th.ready);
  t.unit = TimeUnit::kCycles;
  if (th.state.can_deliver(t.deliverable)) {
    // Recover: vector this thread into its handler and keep the CPU
    // running. Entry costs trap_entry_penalty cycles of front-end refill.
    const u32 fidx = prog_.find_index(th.state.pc);
    const Addr npc = fidx == sim::kNoPacketIndex
                         ? th.state.pc
                         : prog_.meta(fidx).fall_through;
    th.state.deliver_trap(static_cast<u32>(t.code), t.pc, npc, t.value);
    th.idx = sim::kNoPacketIndex;
    th.idx_pc = th.state.pc;
    th.ready = t.cycle + cfg_.trap_entry_penalty;
    ++stats_.traps_delivered;
    last_trap_ = std::move(t);
    update_now_cache();
    return true;
  }
  trap_ = std::move(t);
  return false;
}

void CycleCpu::step() {
  if (halted()) return;
  try {
    step_impl();
  } catch (const TrapException& e) {
    handle_trap(e);
  }
}

template <bool kFast>
void CycleCpu::step_body() {
  if constexpr (!kFast) {
    // Schedule: stay on the active thread unless it halted.
    if (threads_[active_].state.halted) {
      for (u32 i = 0; i < threads_.size(); ++i) {
        if (!threads_[i].state.halted) {
          active_ = i;
          break;
        }
      }
    }
  }
  ThreadCtx* th = kFast ? &threads_[0] : &threads_[active_];
  const Addr pc = th->state.pc;
  if (th->idx == sim::kNoPacketIndex || th->idx_pc != pc) {
    th->idx = prog_.index_of(pc);  // traps on a non-packet address
    th->idx_pc = pc;
  }
  const isa::Packet& p = prog_.packet(th->idx);
  const sim::PacketMeta& m = prog_.meta(th->idx);
  const IssueEstimate est = issue_time(*th, m);
  Cycle t = est.t;

  // Vertical microthreading: if this thread is about to stall past the
  // threshold and another context could issue sooner (accounting for the
  // switch penalty), switch instead of stalling.
  if (!kFast && threads_.size() > 1 && t > th->ready + cfg_.mt_switch_threshold) {
    u32 best = active_;
    Cycle best_ready = t;
    for (u32 i = 0; i < threads_.size(); ++i) {
      if (i == active_ || threads_[i].state.halted) continue;
      const Cycle cand =
          std::max(threads_[i].ready, th->ready + cfg_.mt_switch_penalty);
      if (cand < best_ready) {
        best = i;
        best_ready = cand;
      }
    }
    if (best != active_) {
      th->ready = t;  // resume here once the operands arrive
      threads_[best].ready = best_ready;
      if (trace_) {
        TraceEvent ev;
        ev.cycle = threads_[best].ready;
        ev.pc = pc;
        ev.thread = active_;
        ev.context_switch = true;
        trace_(ev);
      }
      active_ = best;
      ++stats_.thread_switches;
      update_now_cache();
      return;  // the next step issues from the switched-in context
    }
  }

  if (est.ifetch > 0) stats_.stalls.add(StallCause::kIfetch, est.ifetch);
  if (est.operand > 0) stats_.stalls.add(StallCause::kOperand, est.operand);
  if (est.fu > 0) stats_.stalls.add(StallCause::kFuBusy, est.fu);
  env_.thread_id = active_;

  // Bypass-path attribution for the trace observer. Must run before this
  // packet's own writebacks reach the scoreboard, and only does under an
  // installed observer (the untraced hot path skips it entirely).
  std::array<u8, kNumBypassPaths> bypass_reads{};
  if (!kFast && trace_) {
    for (const auto& s : m.srcs) {
      ++bypass_reads[static_cast<u32>(th->sb.classify(s.reg, s.fu, t, cfg_))];
    }
  }

  // Execute architecturally at cycle t.
  current_cycle_ = t;
  const std::size_t console_before = console_.size();
  const sim::PacketOutcome out =
      sim::execute_packet(th->state, p, m, env_, scratch_);

  // Watchdog progress: an externally visible effect retired at cycle t.
  if (out.mem.kind == sim::MemAccess::Kind::kStore ||
      out.mem.kind == sim::MemAccess::Kind::kAtomic || out.halted ||
      console_.size() != console_before) {
    last_progress_ = std::max(last_progress_, t);
  }

  // (4) LSU acceptance and load-data timing.
  Cycle lsu_stall = 0;
  Cycle load_ready = 0;
  Cycle lsu_issue_at = 0;
  if (out.mem.kind != sim::MemAccess::Kind::kNone) {
    const mem::Lsu::IssueResult r = lsu_.issue(out.mem, t);
    lsu_issue_at = r.issue_at;
    if (r.issue_at > t) {
      lsu_stall = r.issue_at - t;
      stats_.stalls.add(StallCause::kLsu, lsu_stall);
      t = r.issue_at;
      // Keep the model's notion of "current cycle" in sync so trap cycles
      // and GETTICK on subsequent packets see the post-stall time.
      current_cycle_ = t;
    }
    load_ready = r.data_ready;
  }

  // Writeback scheduling, from the predecoded flat destination list (same
  // slot order as the old per-slot nested loop; scoreboard and fu_busy_ are
  // disjoint, so splitting the loops preserves every update).
  if (m.any_dests) {
    for (const sim::PacketMeta::DestWrite& d : m.dsts) {
      const Cycle done =
          d.load_data ? std::max(load_ready, t + 1) : t + d.latency;
      th->sb.set(d.reg, done, d.load_data ? kLsuProducer : d.slot);
    }
  }
  if (m.any_resource) {
    for (u32 i = 0; i < m.width; ++i) {
      const sim::PacketMeta::SlotMeta& sm = m.slot[i];
      if (sm.resource >= 0) {
        auto& busy = fu_busy_[i][static_cast<u32>(sm.resource)];
        busy = std::max(busy, t + sm.issue_interval);
      }
    }
  }

  // Control flow and the next issue slot.
  Cycle next = t + 1;
  if (out.is_cond_branch) {
    ++stats_.cond_branches;
    if (out.branch_taken) ++stats_.taken_branches;
    const bool predicted = bpred_.predict(pc);
    bpred_.update(pc, out.branch_taken);
    if (predicted != out.branch_taken) {
      ++stats_.mispredicts;
      next += cfg_.mispredict_penalty;
      stats_.stalls.add(StallCause::kBranchPenalty, cfg_.mispredict_penalty);
    }
  } else if (out.is_jump) {
    ++stats_.jumps;
    next += cfg_.jump_penalty;
    stats_.stalls.add(StallCause::kBranchPenalty, cfg_.jump_penalty);
  }
  th->ready = next;

  // Follow the predecoded successor indices: sequential flow and static
  // taken targets skip the pc -> index hash lookup on the next step.
  if (out.next_pc == m.fall_through) {
    th->idx = m.next_index;
  } else if (m.taken_index != sim::kNoPacketIndex &&
             out.next_pc == m.taken_target) {
    th->idx = m.taken_index;
  } else {
    th->idx = sim::kNoPacketIndex;
  }
  th->idx_pc = out.next_pc;

  ++stats_.packets;
  stats_.instrs += out.width;
  stats_.width_hist.add(out.width);

  if (!kFast && trace_) {
    TraceEvent ev;
    ev.cycle = t;
    ev.pc = pc;
    ev.thread = active_;
    ev.width = out.width;
    ev.stall_ifetch = static_cast<u32>(est.ifetch);
    ev.stall_operand = static_cast<u32>(est.operand);
    ev.stall_fu = static_cast<u32>(est.fu);
    ev.stall_lsu = static_cast<u32>(lsu_stall);
    ev.stall_branch = static_cast<u32>(next - (t + 1));
    ev.lsu_issue = lsu_issue_at;
    ev.lsu_ready = load_ready;
    ev.mem_kind = static_cast<u8>(out.mem.kind);
    ev.bypass = bypass_reads;
    ev.branch_taken = out.is_cond_branch && out.branch_taken;
    ev.mispredicted = next > t + 1 && out.is_cond_branch;
    trace_(ev);
  }
  if constexpr (kFast) {
    // One thread: now() is thread 0's ready cycle whether it halted or not.
    now_cache_ = th->ready;
  } else {
    update_now_cache();
  }
}

CycleCpu::RunEnd CycleCpu::run_steps(u64 max_packets, u64 wd,
                                     Cycle ext_progress, Cycle limit) {
  bool wd_fired = false;
  if (threads_.size() == 1 && !trace_) {
    // Hot loop: dispatch decided once, try/catch per batch entry instead of
    // per step, end-condition checks on the O(1) now cache.
    ThreadCtx& th = threads_[0];
    while (!trap_ && !th.state.halted && stats_.packets < max_packets) {
      try {
        step_body<true>();
      } catch (const TrapException& e) {
        if (!handle_trap(e)) break;
      }
      if (wd != 0 &&
          now_cache_ > std::max(last_progress_, ext_progress) + wd) {
        wd_fired = true;
        break;
      }
      if (now_cache_ > limit) break;
    }
  } else {
    while (!halted() && stats_.packets < max_packets) {
      step();
      if (wd != 0 &&
          now_cache_ > std::max(last_progress_, ext_progress) + wd) {
        wd_fired = true;
        break;
      }
      if (now_cache_ > limit) break;
    }
  }
  if (trap_) return RunEnd::kTrap;
  if (wd_fired) return RunEnd::kWatchdog;
  if (halted()) return RunEnd::kHalted;
  if (stats_.packets >= max_packets) return RunEnd::kBudget;
  return RunEnd::kLimit;
}

} // namespace majc::cpu
