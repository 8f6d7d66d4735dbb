// Register scoreboard and bypass-network timing.
//
// The paper (§3.2): instruction scheduling is the compiler's job; only
// non-deterministic loads and long-latency operations are interlocked
// through a score-boarding mechanism. Results bypass within a functional
// unit as soon as available; FU1 results forward to FU0 with no delay;
// FU0 results are visible to FU1/FU2/FU3 in the next cycle; everything else
// becomes visible at the Trap/WB stage.
//
// The model interlocks *all* operands (stalling instead of reading stale
// values), which reproduces the timing of a correctly scheduled program and
// keeps badly scheduled hand-written kernels correct rather than silently
// wrong. The per-(producer, consumer) bypass matrix below is the paper's.
#pragma once

#include <array>

#include "src/isa/registers.h"
#include "src/soc/config.h"
#include "src/support/types.h"

namespace majc::cpu {

/// Producer identifiers: 0..3 = FU0..FU3, kLsuProducer = load data from the
/// LSU (whose latency already covers delivery to any consumer).
inline constexpr u8 kLsuProducer = 4;
inline constexpr u8 kNoProducer = 5;

/// How an operand read is delivered — the observability layer's view of the
/// paper's asymmetric bypass network. kRegfile covers reads of values that
/// settled through Trap/WB before the consuming packet issued; the other
/// paths are live forwards of results still in flight.
enum class BypassPath : u8 {
  kRegfile,    // value already architecturally settled
  kSameFu,     // full bypass within the producing FU
  kLsu,        // load data straight from the LSU
  kFu1ToFu0,   // the zero-delay FU1 -> FU0 forward
  kFu0Forward, // FU0 -> FU1/2/3, next cycle
  kWriteback,  // cross-FU through the Trap/WB stage
};
inline constexpr u32 kNumBypassPaths = 6;

inline const char* bypass_path_name(BypassPath p) {
  static constexpr const char* kNames[kNumBypassPaths] = {
      "regfile", "same_fu", "lsu", "fu1_to_fu0", "fu0_forward", "writeback"};
  return kNames[static_cast<u32>(p)];
}

/// Extra forwarding delay from `producer` to `consumer` on top of the
/// producer's completion cycle. Inline: this sits inside the operand loop
/// of the cycle model's inner loop.
inline u32 bypass_delay(u8 producer, u8 consumer_fu, const TimingConfig& cfg) {
  if (producer == kNoProducer) return 0;
  if (producer == kLsuProducer) return 0;  // load-to-use covers delivery
  if (producer == consumer_fu) return 0;   // full bypass within an FU
  if (!cfg.full_bypass) return cfg.wb_delay;
  if (producer == 1 && consumer_fu == 0) return 0;  // FU1 -> FU0: no delay
  if (producer == 0) return 1;  // FU0 -> FU1/2/3: next cycle
  return cfg.wb_delay;          // all else waits for Trap/WB
}

class Scoreboard {
public:
  struct Entry {
    Cycle done = 0;       // cycle the result exists in the producing FU
    u8 producer = kNoProducer;
  };

  void set(isa::PhysReg reg, Cycle done, u8 producer) {
    if (reg == 0) return;  // g0 is constant
    entries_[reg] = {done, producer};
  }

  /// Cycle at which `reg` can be consumed by an instruction in slot
  /// `consumer_fu`.
  Cycle ready(isa::PhysReg reg, u8 consumer_fu, const TimingConfig& cfg) const {
    if (reg == 0) return 0;
    const Entry& e = entries_[reg];
    if (e.producer == kNoProducer) return 0;
    return e.done + bypass_delay(e.producer, consumer_fu, cfg);
  }

  /// Raw entry access for the cycle model's branch-free operand loop, which
  /// replaces ready()'s conditional chain with a precomputed
  /// (producer, consumer) delay table. The table lookup relies on two
  /// invariants: g0's entry is never written (set() skips reg 0) and stays
  /// {done = 0, producer = kNoProducer}; and done == 0 whenever producer ==
  /// kNoProducer (entries only ever get real producers), so `done +
  /// table[producer][fu]` equals ready() for every register.
  const Entry& entry(isa::PhysReg reg) const { return entries_[reg]; }

  /// Classify how a read of `reg` by slot `consumer_fu` issuing at `at`
  /// would be delivered. Trace-time only (never on the untraced hot path):
  /// a result that left the bypass window (done + wb_delay <= at) reads from
  /// the register file; everything newer names its forwarding path, with
  /// the bypass-matrix delay deciding between the asymmetric cross-FU
  /// routes (so the !full_bypass ablation classifies as writeback).
  BypassPath classify(isa::PhysReg reg, u8 consumer_fu, Cycle at,
                      const TimingConfig& cfg) const {
    if (reg == 0) return BypassPath::kRegfile;
    const Entry& e = entries_[reg];
    if (e.producer == kNoProducer) return BypassPath::kRegfile;
    if (e.done + cfg.wb_delay <= at) return BypassPath::kRegfile;
    if (e.producer == kLsuProducer) return BypassPath::kLsu;
    if (e.producer == consumer_fu) return BypassPath::kSameFu;
    const u32 d = bypass_delay(e.producer, consumer_fu, cfg);
    if (d == 0) return BypassPath::kFu1ToFu0;
    if (d == 1) return BypassPath::kFu0Forward;
    return BypassPath::kWriteback;
  }

  void clear() { entries_.fill({}); }

  template <class Ar> void io(Ar& a);  // checkpoint: support/checkpoint.cpp

private:
  std::array<Entry, isa::kNumRegs> entries_{};
};

} // namespace majc::cpu
