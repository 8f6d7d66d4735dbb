// Memory operation and control-flow semantics (both FU0-only classes).
#include <bit>
#include <cstdio>

#include "src/sim/exec.h"
#include "src/sim/predecode.h"
#include "src/support/trap.h"

namespace majc::sim {

void format_console_trap(std::string& out, u32 code, u32 value) {
  char buf[64];
  switch (static_cast<ConsoleTrap>(code)) {
    case ConsoleTrap::kPrintInt:
      std::snprintf(buf, sizeof buf, "%d\n", static_cast<i32>(value));
      break;
    case ConsoleTrap::kPrintChar:
      buf[0] = static_cast<char>(value);
      buf[1] = '\0';
      break;
    case ConsoleTrap::kPrintHex:
      std::snprintf(buf, sizeof buf, "0x%08x\n", value);
      break;
    case ConsoleTrap::kPrintFloat:
      std::snprintf(buf, sizeof buf, "%g\n", std::bit_cast<float>(value));
      break;
    default:
      std::snprintf(buf, sizeof buf, "trap(%u,%u)\n", code, value);
      break;
  }
  out += buf;
}

namespace {

using isa::Instr;
using isa::Op;

Addr effective_address(const Instr& in, u32 fu, const CpuState& st) {
  const u32 base = st.reads(in.rs1, fu);
  if (in.info().form == isa::Form::kI) {
    return static_cast<Addr>(base + static_cast<u32>(in.imm));
  }
  return static_cast<Addr>(base + st.reads(in.rs2, fu));
}

void note_access(SlotEffects& fx, MemAccess::Kind kind, Addr addr, u32 bytes,
                 u8 attr) {
  fx.mem.kind = kind;
  fx.mem.addr = addr;
  fx.mem.bytes = bytes;
  fx.mem.attr = attr;
}

} // namespace

void exec_mem_op(const Instr& in, u32 fu, const CpuState& st, ExecEnv& env,
                 SlotEffects& fx) {
  const isa::PhysReg rd = isa::to_phys(in.rd, fu);
  switch (in.op) {
    case Op::kLdb:
    case Op::kLdbi: {
      const Addr a = effective_address(in, fu, st);
      fx.writes.push_back({rd, static_cast<u32>(static_cast<i32>(
                                   static_cast<i8>(env.mem.read_u8(a))))});
      note_access(fx, MemAccess::Kind::kLoad, a, 1, in.sub);
      break;
    }
    case Op::kLdbu:
    case Op::kLdbui: {
      const Addr a = effective_address(in, fu, st);
      fx.writes.push_back({rd, env.mem.read_u8(a)});
      note_access(fx, MemAccess::Kind::kLoad, a, 1, in.sub);
      break;
    }
    case Op::kLdh:
    case Op::kLdhi: {
      const Addr a = effective_address(in, fu, st);
      fx.writes.push_back({rd, static_cast<u32>(static_cast<i32>(
                                   static_cast<i16>(env.mem.read_u16(a))))});
      note_access(fx, MemAccess::Kind::kLoad, a, 2, in.sub);
      break;
    }
    case Op::kLdhu:
    case Op::kLdhui: {
      const Addr a = effective_address(in, fu, st);
      fx.writes.push_back({rd, env.mem.read_u16(a)});
      note_access(fx, MemAccess::Kind::kLoad, a, 2, in.sub);
      break;
    }
    case Op::kLdw:
    case Op::kLdwi: {
      const Addr a = effective_address(in, fu, st);
      fx.writes.push_back({rd, env.mem.read_u32(a)});
      note_access(fx, MemAccess::Kind::kLoad, a, 4, in.sub);
      break;
    }
    case Op::kLdl:
    case Op::kLdli: {
      const Addr a = effective_address(in, fu, st);
      const u64 v = env.mem.read_u64(a);
      fx.writes.push_back({rd, static_cast<u32>(v >> 32)});
      fx.writes.push_back(
          {static_cast<isa::PhysReg>(rd + 1), static_cast<u32>(v)});
      note_access(fx, MemAccess::Kind::kLoad, a, 8, in.sub);
      break;
    }
    case Op::kLdg:
    case Op::kLdgi: {
      const Addr a = effective_address(in, fu, st);
      for (u32 i = 0; i < 8; ++i) {
        fx.writes.push_back({static_cast<isa::PhysReg>(rd + i),
                             env.mem.read_u32(a + 4 * i)});
      }
      note_access(fx, MemAccess::Kind::kLoad, a, 32, in.sub);
      break;
    }
    case Op::kStb:
    case Op::kStbi: {
      const Addr a = effective_address(in, fu, st);
      env.mem.write_u8(a, static_cast<u8>(st.read(rd)));
      note_access(fx, MemAccess::Kind::kStore, a, 1, in.sub);
      break;
    }
    case Op::kSth:
    case Op::kSthi: {
      const Addr a = effective_address(in, fu, st);
      env.mem.write_u16(a, static_cast<u16>(st.read(rd)));
      note_access(fx, MemAccess::Kind::kStore, a, 2, in.sub);
      break;
    }
    case Op::kStw:
    case Op::kStwi: {
      const Addr a = effective_address(in, fu, st);
      env.mem.write_u32(a, st.read(rd));
      note_access(fx, MemAccess::Kind::kStore, a, 4, in.sub);
      break;
    }
    case Op::kStl:
    case Op::kStli: {
      const Addr a = effective_address(in, fu, st);
      env.mem.write_u64(a, st.read_pair(in.rd, fu));
      note_access(fx, MemAccess::Kind::kStore, a, 8, in.sub);
      break;
    }
    case Op::kStg:
    case Op::kStgi: {
      const Addr a = effective_address(in, fu, st);
      for (u32 i = 0; i < 8; ++i) {
        env.mem.write_u32(a + 4 * i,
                          st.read(static_cast<isa::PhysReg>(rd + i)));
      }
      note_access(fx, MemAccess::Kind::kStore, a, 32, in.sub);
      break;
    }
    case Op::kStcw: {
      // Conditional (predicated) store: store rd at [rs1] if rs2 != 0.
      const Addr a = static_cast<Addr>(st.reads(in.rs1, fu));
      if (st.reads(in.rs2, fu) != 0) {
        env.mem.write_u32(a, st.read(rd));
        note_access(fx, MemAccess::Kind::kStore, a, 4, 0);
      }
      break;
    }
    case Op::kPref:
    case Op::kPrefi: {
      // Non-faulting block prefetch: 32-byte aligned granule (paper §3.2).
      const Addr a = effective_address(in, fu, st) & ~Addr{kLineBytes - 1};
      note_access(fx, MemAccess::Kind::kPrefetch, a, kLineBytes, in.sub);
      break;
    }
    case Op::kCas: {
      // Compare [rs1] with rs2; if equal store rd; rd receives the old value.
      const Addr a = static_cast<Addr>(st.reads(in.rs1, fu));
      const u32 old = env.mem.read_u32(a);
      if (old == st.reads(in.rs2, fu)) {
        env.mem.write_u32(a, st.read(rd));
      }
      fx.writes.push_back({rd, old});
      note_access(fx, MemAccess::Kind::kAtomic, a, 4, 0);
      break;
    }
    case Op::kSwap: {
      const Addr a = static_cast<Addr>(st.reads(in.rs1, fu));
      const u32 old = env.mem.read_u32(a);
      env.mem.write_u32(a, st.read(rd));
      fx.writes.push_back({rd, old});
      note_access(fx, MemAccess::Kind::kAtomic, a, 4, 0);
      break;
    }
    case Op::kMembar:
      note_access(fx, MemAccess::Kind::kMembar, 0, 0, 0);
      break;
    default:
      raise_trap(TrapCause::kIllegalInstruction,
                 "exec_mem_op: unexpected opcode");
  }
}

void exec_control(const Instr& in, u32 fu, const CpuState& st, ExecEnv& env,
                  SlotEffects& fx) {
  switch (in.op) {
    case Op::kBnz:
    case Op::kBz: {
      const u32 cond = st.reads(in.rd, fu);
      fx.is_cond_branch = true;
      fx.branch_taken = (in.op == Op::kBnz) ? (cond != 0) : (cond == 0);
      fx.target = env.packet_pc + static_cast<Addr>(static_cast<i64>(in.imm) * 4);
      break;
    }
    case Op::kCall:
      fx.is_call = true;
      fx.target = env.packet_pc + static_cast<Addr>(static_cast<i64>(in.imm) * 4);
      fx.writes.push_back({isa::to_phys(isa::kLinkReg, fu),
                           static_cast<u32>(env.fall_through)});
      break;
    case Op::kJmpl:
      fx.is_jump = true;
      fx.target = static_cast<Addr>(st.reads(in.rs1, fu));
      fx.writes.push_back(
          {isa::to_phys(in.rd, fu), static_cast<u32>(env.fall_through)});
      break;
    case Op::kHalt:
      fx.halt = true;
      break;
    case Op::kNop:
      break;
    case Op::kTrap:
      if (env.console != nullptr) {
        format_console_trap(*env.console, static_cast<u32>(in.imm),
                            st.reads(in.rs1, fu));
      }
      break;
    case Op::kGetcpu:
      fx.writes.push_back({isa::to_phys(in.rd, fu), env.cpu_id});
      break;
    case Op::kGettid:
      fx.writes.push_back({isa::to_phys(in.rd, fu), env.thread_id});
      break;
    case Op::kGettick:
      fx.writes.push_back({isa::to_phys(in.rd, fu),
                           static_cast<u32>(env.tick ? *env.tick : 0)});
      break;
    case Op::kSettvec:
      fx.set_tvec = true;
      fx.tvec = static_cast<Addr>(st.reads(in.rd, fu));
      break;
    case Op::kMftr: {
      // Read a saved trap register; imm selects which (docs/ISA.md).
      u32 v = 0;
      switch (in.imm) {
        case 0: v = st.tcause; break;
        case 1: v = static_cast<u32>(st.tpc); break;
        case 2: v = static_cast<u32>(st.tnpc); break;
        case 3: v = st.tdetail; break;
        case 4: v = static_cast<u32>(st.tvec); break;
        default:
          raise_trap(TrapCause::kIllegalInstruction,
                     "mftr: selector " + std::to_string(in.imm) +
                         " is not a trap register");
      }
      fx.writes.push_back({isa::to_phys(in.rd, fu), v});
      break;
    }
    case Op::kRett:
      // Return from trap: jump to rd (handlers pass tpc to retry the
      // faulting packet or tnpc to skip it) and re-arm trap delivery.
      fx.is_jump = true;
      fx.is_rett = true;
      fx.target = static_cast<Addr>(st.reads(in.rd, fu));
      break;
    default:
      raise_trap(TrapCause::kIllegalInstruction,
                 "exec_control: unexpected opcode");
  }
}

namespace {

inline void dispatch_slot(const isa::Instr& in, u8 cls, u32 fu, CpuState& st,
                          ExecEnv& env, SlotEffects& fx) {
  // kSlotClsNop (never produced by the OpInfo table) matches no case and
  // falls through: a nop slot dispatches nothing, same as exec_control's
  // kNop case.
  switch (static_cast<isa::OpClass>(cls)) {
    case isa::OpClass::kAlu: exec_alu(in, fu, st, fx); break;
    case isa::OpClass::kMulDiv: exec_muldiv(in, fu, st, env, fx); break;
    case isa::OpClass::kSimd: exec_simd(in, fu, st, fx); break;
    case isa::OpClass::kFp32: exec_fp32(in, fu, st, fx); break;
    case isa::OpClass::kFp64: exec_fp64(in, fu, st, fx); break;
    case isa::OpClass::kMem: exec_mem_op(in, fu, st, env, fx); break;
    case isa::OpClass::kControl: exec_control(in, fu, st, env, fx); break;
  }
}

} // namespace

PacketOutcome execute_packet(CpuState& st, const isa::Packet& p,
                             const PacketMeta& m, ExecEnv& env,
                             PacketScratch& scratch) {
  env.packet_pc = st.pc;
  env.fall_through = m.fall_through;

  // FU0 drives the packet outcome: reset all its consumed fields. The
  // shared slot-1..3 accumulator only contributes register writes (the FU
  // masks keep memory/control ops out of those slots), so its flag fields
  // may hold stale values from earlier packets — they are never read.
  SlotEffects& f0 = scratch.fx0;
  f0.writes.clear();
  f0.mem = MemAccess{};
  f0.is_cond_branch = false;
  f0.branch_taken = false;
  f0.is_call = false;
  f0.is_jump = false;
  f0.halt = false;
  f0.set_tvec = false;
  f0.is_rett = false;
  SlotEffects& fn = scratch.fxn;
  fn.writes.clear();

  if (p.width != 0) dispatch_slot(p.slot[0], m.slot[0].cls, 0, st, env, f0);
  for (u32 i = 1; i < p.width; ++i) {
    dispatch_slot(p.slot[i], m.slot[i].cls, i, st, env, fn);
  }

  // Commit register writes after all slots have read their operands; fn
  // accumulated slots 1..3 in slot order, so the commit sequence matches
  // the old per-slot arrays exactly.
  for (const WriteBack& wb : f0.writes) st.write(wb.reg, wb.value);
  for (const WriteBack& wb : fn.writes) st.write(wb.reg, wb.value);

  PacketOutcome out;
  out.width = p.width;
  out.next_pc = env.fall_through;
  // Only FU0 can branch or touch memory.
  if (f0.set_tvec) st.tvec = f0.tvec;
  if (f0.is_rett) st.in_trap = false;
  out.mem = f0.mem;
  out.is_cond_branch = f0.is_cond_branch;
  out.branch_taken = f0.branch_taken;
  out.is_call = f0.is_call;
  out.is_jump = f0.is_jump;
  if (f0.halt) {
    st.halted = true;
    out.halted = true;
  } else if (f0.is_call || f0.is_jump || (f0.is_cond_branch && f0.branch_taken)) {
    out.next_pc = f0.target;
  }
  st.pc = out.next_pc;
  return out;
}

} // namespace majc::sim
