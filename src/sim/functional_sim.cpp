#include "src/sim/functional_sim.h"

#include <algorithm>
#include <cstdio>

#include "src/isa/disasm.h"
#include "src/sim/threaded.h"  // completes ThreadedCode for Program's members
#include "src/support/error.h"

namespace majc::sim {

Program::Program(masm::Image image) : image_(std::move(image)) {
  std::size_t w = 0;
  while (w < image_.code.size()) {
    const isa::Packet p = isa::decode_packet(
        std::span<const u32>(image_.code).subspan(w));
    const Addr pc = image_.code_base + w * 4;
    index_.emplace(pc, static_cast<u32>(packets_.size()));
    meta_.push_back(compute_packet_meta(p, pc));
    packets_.push_back(p);
    w += p.width;
  }
  // Second pass: resolve fall-through and static-target indices now that
  // every packet address is known. Packets are contiguous, so packet i
  // falls through to i + 1 (the last packet falls off the image).
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    if (i + 1 < meta_.size()) meta_[i].next_index = static_cast<u32>(i + 1);
    if (meta_[i].has_static_target) {
      if (auto it = index_.find(meta_[i].taken_target); it != index_.end()) {
        meta_[i].taken_index = it->second;
      }
    }
  }
}

const isa::Packet& Program::packet_at(Addr pc) const {
  return packets_[index_of(pc)];
}

u32 Program::index_of(Addr pc) const {
  auto it = index_.find(pc);
  if (it == index_.end()) {
    raise_trap(TrapCause::kIllegalPacket,
               "control transfer to address " + std::to_string(pc) +
                   " which is not a packet boundary");
  }
  return it->second;
}

std::string trap_report(const Trap& trap, const Program& prog,
                        const CpuState& st) {
  char buf[128];
  std::string out = "== architected trap: ";
  out += trap_cause_name(trap.code);
  std::snprintf(buf, sizeof buf, " (code %u) ==\n",
                static_cast<u32>(trap.code));
  out += buf;
  std::snprintf(buf, sizeof buf, "  cpu %u  pc 0x%05llx  %s %llu\n", trap.cpu,
                static_cast<unsigned long long>(trap.pc),
                time_unit_name(trap.unit),
                static_cast<unsigned long long>(trap.cycle));
  out += buf;
  out += "  detail: " + trap.detail + "\n";
  if (prog.has_packet(trap.pc)) {
    out += "  packet: " + isa::disasm_packet(prog.packet_at(trap.pc)) + "\n";
  }
  out += "  regs:";
  u32 printed = 0;
  for (u32 r = 0; r < isa::kNumRegs; ++r) {
    const u32 v = st.read(static_cast<isa::PhysReg>(r));
    if (v == 0) continue;
    std::snprintf(buf, sizeof buf, "%s r%u=0x%x",
                  printed % 6 == 0 && printed != 0 ? "\n       " : "", r, v);
    out += buf;
    ++printed;
  }
  if (printed == 0) out += " (all zero)";
  out += "\n";
  return out;
}

void load_image(const masm::Image& img, MemoryBus& mem) {
  for (std::size_t i = 0; i < img.code.size(); ++i) {
    mem.write_u32(img.code_base + i * 4, img.code[i]);
  }
  if (!img.data.empty()) {
    mem.write(img.data_base, img.data);
  }
}

void FunctionalSim::format_trap(std::string& out, u32 code, u32 value) {
  format_console_trap(out, code, value);
}

FunctionalSim::FunctionalSim(masm::Image image, std::size_t mem_bytes)
    : FunctionalSim(make_program(std::move(image)), mem_bytes) {}

FunctionalSim::FunctionalSim(ProgramRef program, std::size_t mem_bytes)
    : program_(std::move(program)), mem_(mem_bytes) {
  load_image(program_->image(), mem_);
  state_.pc = program_->image().entry;
  // Conventional stack pointer: top of memory, 64-byte aligned headroom.
  state_.regs[2] = static_cast<u32>(mem_.size() - 64);
}

void FunctionalSim::reset(ProgramRef program) {
  if (program) program_ = std::move(program);
  // Reuse the arena: re-zero it instead of reallocating (the construction
  // cost the farm's per-worker machine reuse avoids), then reload the image
  // and restore the constructed-state invariants exactly.
  auto raw = mem_.raw();
  std::fill(raw.begin(), raw.end(), u8{0});
  load_image(program_->image(), mem_);
  state_ = CpuState{};
  state_.pc = program_->image().entry;
  state_.regs[2] = static_cast<u32>(mem_.size() - 64);
  console_.clear();
  packets_run_ = 0;
  instrs_run_ = 0;
  traps_delivered_ = 0;
  last_trap_ = Trap{};
  trap_div_zero_ = false;
  backend_ = ExecBackend::kThreaded;
}

RunResult FunctionalSim::run(u64 max_packets) {
  return backend_ == ExecBackend::kThreaded ? run_threaded(max_packets)
                                            : run_interp(max_packets);
}

RunResult FunctionalSim::run_interp(u64 max_packets) {
  RunResult res;
  ExecEnv env{mem_};
  env.trap_div_zero = trap_div_zero_;
  env.console = &console_;
  env.tick = &packets_run_;
  PacketScratch scratch;  // reused by every packet of this run
  // Index-based fast path: sequential flow and statically-targeted control
  // transfers follow the predecoded indices; only dynamic transfers (jmpl,
  // or a resumed run) consult the pc -> index map.
  u32 idx = kNoPacketIndex;
  while (!state_.halted && res.packets < max_packets) {
    try {
      if (idx == kNoPacketIndex) idx = program_->index_of(state_.pc);
      const isa::Packet& p = program_->packet(idx);
      const PacketMeta& m = program_->meta(idx);
      const PacketOutcome out = execute_packet(state_, p, m, env, scratch);
      ++res.packets;
      ++packets_run_;
      res.instrs += out.width;
      instrs_run_ += out.width;
      if (out.next_pc == m.fall_through) {
        idx = m.next_index;
      } else if (m.taken_index != kNoPacketIndex &&
                 out.next_pc == m.taken_target) {
        idx = m.taken_index;
      } else {
        idx = kNoPacketIndex;
      }
    } catch (const TrapException& e) {
      // Precise context: the faulting packet committed no register writes,
      // so state_.pc still names it.
      Trap t = e.trap();
      t.cpu = 0;
      t.pc = state_.pc;
      t.cycle = packets_run_;
      t.unit = TimeUnit::kPackets;
      if (state_.can_deliver(t.deliverable)) {
        // Deliver to the guest handler and keep running. tnpc is the
        // faulting packet's fall-through so a handler can skip it; when the
        // pc is not a packet boundary (kIllegalPacket) there is no
        // fall-through and tnpc degenerates to tpc.
        const u32 fidx = program_->find_index(state_.pc);
        const Addr npc = fidx == kNoPacketIndex
                             ? state_.pc
                             : program_->meta(fidx).fall_through;
        state_.deliver_trap(static_cast<u32>(t.code), t.pc, npc, t.value);
        ++traps_delivered_;
        last_trap_ = std::move(t);
        idx = kNoPacketIndex;
        continue;
      }
      res.trap = std::move(t);
      res.reason = TerminationReason::kTrap;
      return res;
    }
  }
  res.halted = state_.halted;
  res.reason = res.halted ? TerminationReason::kHalted
                          : TerminationReason::kPacketCap;
  return res;
}

} // namespace majc::sim
