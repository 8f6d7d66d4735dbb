// Differential check of the predecode layer: for every packet of every
// Table 1 / Table 2 kernel image, the cached PacketMeta must agree with a
// fresh isa::decode_packet + collect_sources / collect_dests recomputation.
// This is what licenses the cycle model to never re-derive operand lists,
// latencies or successor pcs on its hot path.
#include <gtest/gtest.h>

#include <span>

#include "src/kernels/kernel.h"
#include "src/kernels/table12.h"
#include "src/masm/assembler.h"
#include "src/sim/functional_sim.h"

namespace majc {
namespace {

using kernels::KernelSpec;

// Reference recomputation of one packet's metadata straight from the
// decoder, mirroring what the pre-predecode cycle model derived per issue.
void check_packet(const sim::Program& prog, u32 idx, Addr pc) {
  const isa::Packet fresh = isa::decode_packet(
      std::span<const u32>(prog.image().code)
          .subspan((pc - prog.image().code_base) / 4));
  const sim::PacketMeta& m = prog.meta(idx);

  ASSERT_EQ(m.pc, pc);
  EXPECT_EQ(m.width, fresh.width);
  EXPECT_EQ(m.bytes, fresh.bytes());
  EXPECT_EQ(m.fall_through, pc + fresh.bytes());

  // Flattened source list: same registers, same consuming slots, in slot
  // order — exactly what the old issue loop fed to the scoreboard.
  InlineVec<sim::PacketMeta::SrcRead, 48> want_srcs;
  for (u32 i = 0; i < fresh.width; ++i) {
    InlineVec<isa::PhysReg, 12> srcs;
    sim::collect_sources(fresh.slot[i], i, srcs);
    for (isa::PhysReg r : srcs) {
      want_srcs.push_back({r, static_cast<u8>(i)});
    }
  }
  ASSERT_EQ(m.srcs.size(), want_srcs.size()) << "pc=" << pc;
  for (u32 i = 0; i < want_srcs.size(); ++i) {
    EXPECT_EQ(m.srcs[i].reg, want_srcs[i].reg) << "pc=" << pc << " src " << i;
    EXPECT_EQ(m.srcs[i].fu, want_srcs[i].fu) << "pc=" << pc << " src " << i;
  }

  bool want_any_dests = false;
  bool want_any_resource = false;
  InlineVec<sim::PacketMeta::DestWrite, 32> want_dsts;
  for (u32 i = 0; i < fresh.width; ++i) {
    const isa::OpInfo& info = fresh.slot[i].info();
    const sim::PacketMeta::SlotMeta& sm = m.slot[i];
    const bool load = info.is_load() || info.has(isa::kAtomic);

    InlineVec<isa::PhysReg, 8> dests;
    sim::collect_dests(fresh.slot[i], i, dests);
    ASSERT_EQ(sm.dests.size(), dests.size()) << "pc=" << pc << " slot " << i;
    for (u32 d = 0; d < dests.size(); ++d) {
      EXPECT_EQ(sm.dests[d], dests[d]) << "pc=" << pc << " slot " << i;
      want_dsts.push_back({dests[d], static_cast<u8>(i), info.latency, load});
    }

    EXPECT_EQ(sm.latency, info.latency) << "pc=" << pc << " slot " << i;
    EXPECT_EQ(sm.issue_interval, info.issue_interval)
        << "pc=" << pc << " slot " << i;
    EXPECT_EQ(sm.resource, sim::fu_resource_of(info))
        << "pc=" << pc << " slot " << i;
    EXPECT_EQ(sm.load_data, load) << "pc=" << pc << " slot " << i;
    // Executor dispatch class: nop slots carry the skip sentinel (the
    // meta-driven executor elides their dispatch); everything else its
    // OpInfo class.
    const u8 want_cls = fresh.slot[i].op == isa::Op::kNop
                            ? sim::kSlotClsNop
                            : static_cast<u8>(info.cls);
    EXPECT_EQ(sm.cls, want_cls) << "pc=" << pc << " slot " << i;
    want_any_dests = want_any_dests || dests.size() > 0;
    want_any_resource = want_any_resource || sim::fu_resource_of(info) >= 0;
  }
  EXPECT_EQ(m.any_dests, want_any_dests) << "pc=" << pc;
  EXPECT_EQ(m.any_resource, want_any_resource) << "pc=" << pc;

  // Flattened writeback list: every slot's destinations in slot order, each
  // tagged with its producing slot, latency and LSU-delivery flag — what
  // the cycle model's scoreboard update walks.
  ASSERT_EQ(m.dsts.size(), want_dsts.size()) << "pc=" << pc;
  for (u32 i = 0; i < want_dsts.size(); ++i) {
    EXPECT_EQ(m.dsts[i].reg, want_dsts[i].reg) << "pc=" << pc << " dst " << i;
    EXPECT_EQ(m.dsts[i].slot, want_dsts[i].slot) << "pc=" << pc << " dst " << i;
    EXPECT_EQ(m.dsts[i].latency, want_dsts[i].latency)
        << "pc=" << pc << " dst " << i;
    EXPECT_EQ(m.dsts[i].load_data, want_dsts[i].load_data)
        << "pc=" << pc << " dst " << i;
  }

  // Successor indices: the fall-through index must name the packet at
  // fall_through (or be kNoPacketIndex past the image end); a static branch
  // or call target, when it lands on a packet boundary, must be cached.
  if (prog.has_packet(m.fall_through)) {
    ASSERT_NE(m.next_index, sim::kNoPacketIndex) << "pc=" << pc;
    EXPECT_EQ(m.next_index, prog.index_of(m.fall_through)) << "pc=" << pc;
  } else {
    EXPECT_EQ(m.next_index, sim::kNoPacketIndex) << "pc=" << pc;
  }
  const isa::OpInfo& info0 = fresh.slot[0].info();
  if (info0.has(isa::kBranch) || info0.has(isa::kCall)) {
    ASSERT_TRUE(m.has_static_target) << "pc=" << pc;
    const Addr target =
        pc + static_cast<Addr>(static_cast<i64>(fresh.slot[0].imm) * 4);
    EXPECT_EQ(m.taken_target, target) << "pc=" << pc;
    if (prog.has_packet(target)) {
      EXPECT_EQ(m.taken_index, prog.index_of(target)) << "pc=" << pc;
    } else {
      EXPECT_EQ(m.taken_index, sim::kNoPacketIndex) << "pc=" << pc;
    }
  } else {
    EXPECT_FALSE(m.has_static_target) << "pc=" << pc;
    EXPECT_EQ(m.taken_index, sim::kNoPacketIndex) << "pc=" << pc;
  }
}

void check_spec(const KernelSpec& spec) {
  SCOPED_TRACE(spec.name);
  const sim::Program prog(masm::assemble_or_throw(spec.source));
  ASSERT_GT(prog.num_packets(), 0u);
  Addr pc = prog.image().code_base;
  for (u32 idx = 0; idx < prog.num_packets(); ++idx) {
    ASSERT_TRUE(prog.has_packet(pc));
    ASSERT_EQ(prog.index_of(pc), idx);
    check_packet(prog, idx, pc);
    pc += prog.meta(idx).bytes;
  }
}

TEST(Predecode, MatchesFreshDecodeOnAllKernels) {
  for (const kernels::NamedKernel& nk : kernels::table12_kernels()) {
    check_spec(kernels::table12_spec(nk));
  }
}

// A dynamic control transfer (JMPL to a runtime address) has no static
// target: the simulators must fall back to the pc -> index map and still
// agree with packet_at.
TEST(Predecode, DynamicTransferFallsBackToIndexMap) {
  const char* src = R"(
    sethi g10, %hi(target)
    orlo g10, %lo(target)
    jmpl g4, g10
    halt
  target:
    addi g11, g0, 7
    halt
  )";
  const sim::Program prog(masm::assemble_or_throw(src));
  const u32 jmpl_idx = prog.index_of(prog.image().code_base + 8);
  const sim::PacketMeta& m = prog.meta(jmpl_idx);
  EXPECT_FALSE(m.has_static_target);
  EXPECT_EQ(m.taken_index, sim::kNoPacketIndex);

  sim::FunctionalSim sim(masm::assemble_or_throw(src));
  const sim::RunResult res = sim.run();
  EXPECT_TRUE(res.halted);
  EXPECT_EQ(sim.state().read(11), 7u);
}

} // namespace
} // namespace majc
