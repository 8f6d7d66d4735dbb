// Architected traps: the model's equivalent of the T pipeline stage.
//
// The paper dedicates a pipeline stage to traps (§2) right before write-back.
// In this model, guest-visible faults (misaligned or out-of-bounds accesses,
// illegal instructions/packets, divide-by-zero when enabled, ECC machine
// checks) raise a TrapException at the faulting operation; the run loops of
// FunctionalSim and Majc5200 catch it, fill in the architectural
// context (cpu / pc / cycle) and surface a structured TerminationReason
// instead of letting a host C++ exception escape. Host-side API misuse and
// model bugs continue to throw plain majc::Error.
//
// Traps are precise: register write-back commits after every slot of a
// packet has executed, so a trapping packet leaves the architectural
// registers and pc exactly as they were before the packet issued (only a
// store in FU0 preceding the fault within the same packet may have landed).
#pragma once

#include <string>

#include "src/support/error.h"
#include "src/support/types.h"

namespace majc {

/// Architected trap cause codes (docs/ISA.md "Traps and fault model").
enum class TrapCause : u8 {
  kNone = 0,
  kMisaligned = 1,          // access not naturally aligned
  kOutOfBounds = 2,         // access outside the physical address space
  kIllegalInstruction = 3,  // undecodable or unexecutable instruction
  kIllegalPacket = 4,       // control transfer into the middle of a packet
  kDivideByZero = 5,        // integer div/divu with zero divisor (when armed)
  kMachineCheck = 6,        // uncorrectable ECC error on a memory read
};

constexpr const char* trap_cause_name(TrapCause c) {
  switch (c) {
    case TrapCause::kNone: return "none";
    case TrapCause::kMisaligned: return "misaligned";
    case TrapCause::kOutOfBounds: return "out-of-bounds";
    case TrapCause::kIllegalInstruction: return "illegal-instruction";
    case TrapCause::kIllegalPacket: return "illegal-packet";
    case TrapCause::kDivideByZero: return "divide-by-zero";
    case TrapCause::kMachineCheck: return "machine-check";
  }
  return "?";
}

/// Unit of Trap::time. The functional simulator has no clock, so it stamps
/// traps with the retired-packet count; the cycle-accurate models stamp the
/// issue cycle. One field, one explicit tag — consumers (stats JSON, trap
/// reports) no longer have to know which simulator produced the trap.
enum class TimeUnit : u8 {
  kPackets = 0,  // instruction-accurate runs: retired packets
  kCycles = 1,   // cycle-accurate runs: core clock cycles
};

constexpr const char* time_unit_name(TimeUnit u) {
  switch (u) {
    case TimeUnit::kPackets: return "packets";
    case TimeUnit::kCycles: return "cycles";
  }
  return "?";
}

/// One trap. `code`, `detail` and `value` are filled at the raising site;
/// `cpu`, `pc`, `cycle` and `unit` are filled by the run loop that catches
/// it (the raising site is too deep to know which CPU/thread it executes
/// on, or what the time base is).
struct Trap {
  TrapCause code = TrapCause::kNone;
  u32 cpu = 0;
  Addr pc = 0;
  Cycle cycle = 0;             // in `unit` units (see TimeUnit)
  TimeUnit unit = TimeUnit::kCycles;
  std::string detail;          // human-readable diagnosis
  u32 value = 0;               // cause-specific detail word (faulting address
                               // / line); delivered to the guest via MFTR 3
  /// False only for machine checks under MachineCheckPolicy::kFatal: the run
  /// terminates even when the guest has installed a trap handler.
  bool deliverable = true;

  bool valid() const { return code != TrapCause::kNone; }
};

/// Carrier from the faulting operation to the run loop. Derives from Error
/// so host code that treats any model fault as fatal keeps working.
class TrapException : public Error {
public:
  explicit TrapException(Trap t)
      : Error(std::string(trap_cause_name(t.code)) + " trap: " + t.detail),
        trap_(std::move(t)) {}

  const Trap& trap() const { return trap_; }

private:
  Trap trap_;
};

[[noreturn]] inline void raise_trap(TrapCause code, std::string detail,
                                    u32 value = 0, bool deliverable = true) {
  Trap t;
  t.code = code;
  t.detail = std::move(detail);
  t.value = value;
  t.deliverable = deliverable;
  throw TrapException(std::move(t));
}

/// Why a run loop returned (ISSUE: structured instead of a bare bool).
enum class TerminationReason : u8 {
  kHalted = 0,       // every CPU/thread executed HALT
  kTrap = 1,         // an architected trap was delivered
  kWatchdog = 2,     // no externally visible progress for watchdog_cycles
  kPacketCap = 3,    // hit the max_packets safety cap without halting
  kHostDeadline = 4, // the host-side run harness killed the run at its
                     // wall-clock deadline (farm JobPolicy; never raised by
                     // the simulators themselves)
};

constexpr const char* termination_reason_name(TerminationReason r) {
  switch (r) {
    case TerminationReason::kHalted: return "halted";
    case TerminationReason::kTrap: return "trap";
    case TerminationReason::kWatchdog: return "watchdog";
    case TerminationReason::kPacketCap: return "packet-cap";
    case TerminationReason::kHostDeadline: return "host-deadline";
  }
  return "?";
}

} // namespace majc
