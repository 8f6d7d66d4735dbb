// Cycle-accurate model of one MAJC-5200 CPU.
//
// In-order VLIW timing layered over the functional executor: a packet issues
// when (1) its instruction bytes have arrived from the I$, (2) every source
// operand is available to its consuming slot per the scoreboard + bypass
// matrix, (3) each slot's functional unit has recovered from non-pipelined /
// partially-pipelined predecessors, and (4) the LSU can accept the packet's
// memory operation. Conditional branches consult the gshare predictor;
// mispredictions and indirect jumps pay the front-end refill penalty.
//
// Vertical microthreading (MAJC §2; TimingConfig::hw_threads > 1): each CPU
// holds several architectural contexts. When the running thread's next
// packet would stall longer than mt_switch_threshold — typically on a
// long-latency memory fetch — and another context can issue sooner, the CPU
// switches contexts for mt_switch_penalty cycles ("rapid, low overhead
// context switching"). Functional units, the LSU, the branch predictor and
// the caches are shared; registers and the scoreboard are per-thread.
//
// The functional executor runs at issue time, so results are bit-identical
// to the instruction-accurate simulator by construction.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <string>

#include "src/cpu/branch_predictor.h"
#include "src/cpu/scoreboard.h"
#include "src/mem/memsys.h"
#include "src/sim/functional_sim.h"
#include "src/support/stats.h"

namespace majc::ckpt {
class Writer;
class Reader;
} // namespace majc::ckpt

namespace majc::cpu {

/// One issued packet (or context switch) as seen by a trace observer.
/// Fields beyond the stall breakdown are filled only while a trace observer
/// is installed; the untraced hot path never touches them.
struct TraceEvent {
  Cycle cycle = 0;     // issue cycle (or switch decision cycle)
  Addr pc = 0;
  u32 thread = 0;
  u32 width = 0;       // 0 for a context-switch event
  u32 stall_ifetch = 0;
  u32 stall_operand = 0;
  u32 stall_fu = 0;
  u32 stall_lsu = 0;   // LSU acceptance stall absorbed before issue
  u32 stall_branch = 0;  // refill penalty charged behind this packet's
                         // mispredicted branch or indirect jump
  Cycle lsu_issue = 0;   // mem op: cycle the LSU accepted it (0 = none)
  Cycle lsu_ready = 0;   // loads/atomics: cycle the data can be consumed
  u8 mem_kind = 0;       // sim::MemAccess::Kind of the packet's memory op
  // Operand reads of this packet by delivery path (BypassPath order): the
  // per-packet view of the asymmetric bypass network.
  std::array<u8, kNumBypassPaths> bypass{};
  bool branch_taken = false;
  bool mispredicted = false;
  bool context_switch = false;
};

/// Stall causes attributed by the cycle model, as a fixed enum so the
/// per-packet hot path indexes a flat array instead of a string-keyed map.
enum class StallCause : u8 {
  kIfetch,
  kOperand,
  kFuBusy,
  kLsu,
  kBranchPenalty,
};
inline constexpr u32 kNumStallCauses = 5;

/// Flat stall accumulators. aggregate() renders them into the string-keyed
/// CounterSet used at report time, so report output is unchanged.
struct StallCounters {
  std::array<u64, kNumStallCauses> counts{};

  void add(StallCause c, u64 delta = 1) {
    counts[static_cast<u32>(c)] += delta;
  }
  u64 get(StallCause c) const { return counts[static_cast<u32>(c)]; }
  u64 total() const;
  /// Report-time view: named counters (zero counters omitted, matching the
  /// sparse CounterSet the hot path used to populate).
  CounterSet aggregate() const;
};

struct CpuStats {
  u64 packets = 0;
  u64 instrs = 0;
  Histogram width_hist{5};  // buckets 1..4 used
  u64 cond_branches = 0;
  u64 taken_branches = 0;
  u64 mispredicts = 0;
  u64 jumps = 0;
  u64 thread_switches = 0;
  u64 traps_delivered = 0;  // traps recovered via the guest handler (SETTVEC)
  StallCounters stalls;  // ifetch / operand / fu_busy / lsu / branch_penalty
};

class CycleCpu {
public:
  CycleCpu(const sim::Program& prog, sim::MemoryBus& mem,
           mem::MemorySystem& ms, u32 cpu_id);

  /// Issue and execute the next packet of the scheduled thread (or perform
  /// a context switch). No-op once every thread has halted. An architected
  /// trap is delivered to the faulting thread's handler when one is
  /// installed (SETTVEC) and execution continues; otherwise it stops the
  /// whole CPU (every context) and is recorded in trap().
  void step();

  /// Why a run_steps() batch stopped.
  enum class RunEnd : u8 {
    kTrap,      // machine-level trap stopped the CPU (trap() is set)
    kWatchdog,  // no externally visible progress for `wd` cycles
    kHalted,    // every context halted
    kBudget,    // stats().packets reached max_packets
    kLimit,     // cached_now() advanced past `limit`
  };

  /// Step repeatedly until a bound is hit, with the per-step dispatch
  /// hoisted out of the loop. The watchdog compares cached_now() against
  /// max(last_progress(), ext_progress) + wd after every step (wd == 0
  /// disables it); `limit` stops the batch once cached_now() exceeds it —
  /// the chip scheduler uses it to run the earliest CPU exactly as long as
  /// the one-step-at-a-time scheduler would have kept picking it, and
  /// single-CPU harnesses pass ~Cycle{0}. End-condition precedence matches
  /// the historical single-step run loops: trap > watchdog > halted >
  /// budget. Single-threaded untraced CPUs run a specialized step body
  /// (no scheduling scan, no switch heuristic, no trace plumbing).
  RunEnd run_steps(u64 max_packets, u64 wd, Cycle ext_progress, Cycle limit);

  bool halted() const;
  /// The trap that stopped this CPU, if any (nullptr = no trap).
  const Trap* trap() const { return trap_ ? &*trap_ : nullptr; }
  /// Cycle at which the next packet would issue (== elapsed cycles so far).
  Cycle now() const;
  /// now(), maintained incrementally by step(). Exact during a run loop —
  /// nothing else mutates thread ready cycles between steps — and O(1), so
  /// per-step watchdog / scheduling checks avoid the O(hw_threads) scan.
  Cycle cached_now() const { return now_cache_; }
  /// Cycle of the last externally visible effect this CPU retired (store,
  /// atomic, console output, or halt) — the watchdog's progress signal.
  Cycle last_progress() const { return last_progress_; }

  u32 hw_threads() const { return static_cast<u32>(threads_.size()); }
  u32 active_thread() const { return active_; }
  sim::CpuState& state(u32 thread = 0) { return threads_[thread].state; }
  const sim::CpuState& state(u32 thread = 0) const {
    return threads_[thread].state;
  }
  /// Point a thread at an entry address (threads default to the image entry
  /// and can dispatch on GETTID instead).
  void set_thread_pc(u32 thread, Addr pc) { threads_[thread].state.pc = pc; }

  const CpuStats& stats() const { return stats_; }
  const std::string& console() const { return console_; }
  BranchPredictor& predictor() { return bpred_; }
  /// The most recent trap recovered via the guest handler (code == kNone if
  /// none was delivered).
  const Trap& last_delivered_trap() const { return last_trap_; }

  void save(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);

  /// Install a per-packet trace observer (empty function disables).
  void set_trace(std::function<void(const TraceEvent&)> fn) {
    trace_ = std::move(fn);
  }

private:
  struct ThreadCtx {
    sim::CpuState state;
    Scoreboard sb;
    Cycle ready = 0;  // earliest cycle this thread may issue next
    // Dense index of the packet at state.pc, or kNoPacketIndex if unknown.
    // idx_pc records which pc the cached index was computed for, so external
    // pc writes (set_thread_pc, tests) fall back to the map lookup.
    u32 idx = sim::kNoPacketIndex;
    Addr idx_pc = 0;
  };

  struct IssueEstimate {
    Cycle t = 0;
    Cycle ifetch = 0;
    Cycle operand = 0;
    Cycle fu = 0;
  };
  /// Issue time for the thread's next packet (ifetch + operands +
  /// structural) with the stall breakdown; the I$ access is performed
  /// (fetch-ahead happens whether or not the packet then issues), stall
  /// statistics are only recorded by the caller on actual issue.
  IssueEstimate issue_time(ThreadCtx& th, const sim::PacketMeta& m);
  /// One issue/execute step. kFast specializes for the single-threaded,
  /// untraced configuration: thread 0 is the only candidate (no scheduling
  /// scan or switch heuristic), trace attribution is compiled out, and the
  /// now() cache is thread 0's ready cycle directly.
  template <bool kFast>
  void step_body();
  void step_impl() { step_body<false>(); }
  /// Deliver a trap raised mid-step: vector into the guest handler when one
  /// is installed (returns true, CPU keeps running) or record it as the
  /// machine-level stop reason (returns false).
  bool handle_trap(const TrapException& e);
  void update_now_cache();

  const sim::Program& prog_;
  mem::MemorySystem& ms_;
  mem::Lsu& lsu_;  // this CPU's LSU (stable: restore() refills in place)
  const TimingConfig& cfg_;
  u32 cpu_id_;

  std::vector<ThreadCtx> threads_;
  u32 active_ = 0;
  sim::ExecEnv env_;
  sim::PacketScratch scratch_;  // reused per-packet executor storage
  BranchPredictor bpred_;
  // Structural busy clocks per FU, split by sub-unit: ops with issue
  // interval 1 never conflict; the iterative divide/rsqrt unit and the
  // partially pipelined FP64 pipe each track their own recovery. Shared by
  // all threads (the paper's threads share the functional units).
  static constexpr u32 kFuResources = 2;  // 0 = iterative, 1 = fp64 pipe
  std::array<std::array<Cycle, kFuResources>, isa::kNumFus> fu_busy_{};
  // bypass_delay() precomputed over every (producer, consumer) pair for
  // this config: the operand loop's delay lookup is one indexed load
  // instead of a branch chain. Filled once in the constructor.
  std::array<std::array<u8, isa::kNumFus>, kNoProducer + 1> bypass_tbl_{};
  Cycle current_cycle_ = 0;
  Cycle now_cache_ = 0;
  std::string console_;
  CpuStats stats_;
  std::function<void(const TraceEvent&)> trace_;
  std::optional<Trap> trap_;
  Trap last_trap_;
  Cycle last_progress_ = 0;
};

} // namespace majc::cpu
