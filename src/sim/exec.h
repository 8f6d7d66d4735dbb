// Packet execution: the instruction-accurate semantics of every opcode.
//
// A packet executes with parallel read semantics: all slots read their
// operands from the pre-packet register state, then all register writes
// commit together (the VLIW contract; only one slot, FU0, touches memory,
// so memory effects need no ordering within a packet).
//
// The same executor backs both the functional simulator and the
// cycle-accurate model, which layers timing on top of the returned
// PacketOutcome, so timed runs compute bit-identical results.
#pragma once

#include <string>

#include "src/isa/encoding.h"
#include "src/sim/memory.h"
#include "src/sim/state.h"
#include "src/support/inline_vec.h"

namespace majc::sim {

struct WriteBack {
  isa::PhysReg reg = 0;
  u32 value = 0;
};

/// The single memory operation a packet may perform (FU0 slot), described
/// for the benefit of the LSU / cache timing model.
struct MemAccess {
  enum class Kind : u8 { kNone, kLoad, kStore, kAtomic, kPrefetch, kMembar };
  Kind kind = Kind::kNone;
  Addr addr = 0;
  u32 bytes = 0;
  u8 attr = 0;  // cache attribute: 0 cached, 1 non-cached, 2 non-allocating
};

/// Console trap codes (the model's printf substitute for tests/examples).
/// Distinct from majc::TrapCause — these are the architected TRAP
/// instruction's service codes, not fault conditions.
enum class ConsoleTrap : u32 {
  kPrintInt = 0,
  kPrintChar = 1,
  kPrintHex = 2,
  kPrintFloat = 3,
};

/// Environment a packet executes in.
struct ExecEnv {
  explicit ExecEnv(MemoryBus& m) : mem(m) {}

  MemoryBus& mem;
  u32 cpu_id = 0;
  u32 thread_id = 0;  // vertical-microthreading context id (GETTID)
  /// Raise a kDivideByZero trap on integer div/divu by zero instead of the
  /// default total semantics (result 0).
  bool trap_div_zero = false;
  /// TRAP instruction output sink: formatted console text is appended here.
  /// May be null (TRAP is then a no-op). Direct member, not a std::function
  /// — this is read on the per-instruction hot path.
  std::string* console = nullptr;
  /// GETTICK source: the driver's live counter — packet count in the
  /// functional sim, cycle count in the cycle-accurate model. May be null
  /// (GETTICK then reads 0).
  const u64* tick = nullptr;

  // Set by the driver before each packet.
  Addr packet_pc = 0;
  Addr fall_through = 0;
};

/// Per-slot side effects gathered before commit.
struct SlotEffects {
  InlineVec<WriteBack, 8> writes;  // up to 8 for group loads
  MemAccess mem;
  bool is_cond_branch = false;
  bool branch_taken = false;
  bool is_call = false;
  bool is_jump = false;
  bool halt = false;
  // Trap-unit side effects (FU0 only), committed with the packet so a
  // trapping slot elsewhere in the packet leaves the trap state untouched.
  bool set_tvec = false;  // SETTVEC: latch `tvec` below into CpuState::tvec
  bool is_rett = false;   // RETT: clears CpuState::in_trap (jump via target)
  Addr tvec = 0;
  Addr target = 0;
};

/// What the driver reports about one executed packet.
struct PacketOutcome {
  u32 width = 0;
  Addr next_pc = 0;
  bool is_cond_branch = false;
  bool branch_taken = false;
  bool is_call = false;
  bool is_jump = false;
  bool halted = false;
  MemAccess mem;
};

// Per-class slot executors (internal; dispatched by execute_packet).
void exec_alu(const isa::Instr& in, u32 fu, const CpuState& st, SlotEffects& fx);
void exec_muldiv(const isa::Instr& in, u32 fu, const CpuState& st,
                 const ExecEnv& env, SlotEffects& fx);
void exec_simd(const isa::Instr& in, u32 fu, const CpuState& st, SlotEffects& fx);
void exec_fp32(const isa::Instr& in, u32 fu, const CpuState& st, SlotEffects& fx);
void exec_fp64(const isa::Instr& in, u32 fu, const CpuState& st, SlotEffects& fx);
void exec_mem_op(const isa::Instr& in, u32 fu, const CpuState& st, ExecEnv& env,
                 SlotEffects& fx);
void exec_control(const isa::Instr& in, u32 fu, const CpuState& st,
                  ExecEnv& env, SlotEffects& fx);

/// Format one console TRAP according to ConsoleTrap; shared by both
/// simulators so functional and timed runs produce identical console text.
void format_console_trap(std::string& out, u32 code, u32 value);

/// Reusable slot-effect storage for execute_packet. Only FU0's effects
/// drive the packet outcome (branch/memory/trap/halt); slots 1..3 are
/// restricted by their FU masks to pure register-writing classes, so they
/// share one accumulator and only its `writes` list is ever consumed.
/// Reusing one scratch across packets avoids re-zero-initializing ~400
/// bytes of SlotEffects on every packet (the old per-call std::array).
struct PacketScratch {
  SlotEffects fx0;  // FU0: fully reset per packet
  SlotEffects fxn;  // slots 1..3 shared: only `writes` reset/consumed
};

struct PacketMeta;

/// Execute the packet at st.pc (which must equal the packet's address);
/// commits register writes, performs memory effects and advances st.pc.
/// Each slot dispatches on its predecoded op class (PacketMeta::SlotMeta::
/// cls) and the fall-through address comes from the meta. The caller owns
/// the scratch and reuses it across packets, so per-packet setup is a few
/// field resets instead of full SlotEffects construction.
PacketOutcome execute_packet(CpuState& st, const isa::Packet& p,
                             const PacketMeta& m, ExecEnv& env,
                             PacketScratch& scratch);

} // namespace majc::sim
