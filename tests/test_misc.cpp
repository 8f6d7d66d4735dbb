// Odds-and-ends coverage: trap console formats, InlineVec bounds, image
// symbol errors, disassembly listings, program packet-boundary queries,
// running stats, peak-kernel structure.
#include <gtest/gtest.h>

#include "src/isa/disasm.h"
#include "src/kernels/peak.h"
#include "src/masm/assembler.h"
#include "src/sim/functional_sim.h"
#include "src/soc/chip.h"
#include "src/support/inline_vec.h"
#include "src/support/stats.h"

namespace majc {
namespace {

TEST(Trap, AllConsoleFormats) {
  const char* src = R"(
    setlo g3, -7
    trap g0, g3, 0        # int
    setlo g4, 65
    trap g0, g4, 1        # char 'A'
    sethi g5, 0xDEAD
    orlo g5, 0xBEEF
    trap g0, g5, 2        # hex
    sethi g6, 0x3FC0
    orlo g6, 0
    trap g0, g6, 3        # float 1.5
    halt
  )";
  sim::FunctionalSim s(masm::assemble_or_throw(src));
  s.run();
  EXPECT_EQ(s.console(), "-7\nA0xdeadbeef\n1.5\n");
}

TEST(InlineVec, OverflowFaults) {
  InlineVec<int, 2> v;
  v.push_back(1);
  v.push_back(2);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_THROW(v.push_back(3), Error);
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(Image, UnknownSymbolFaults) {
  const auto img = masm::assemble_or_throw("halt\n");
  EXPECT_THROW(img.symbol("nope"), Error);
  EXPECT_EQ(img.symbols.count("nope"), 0u);
}

TEST(Disasm, CodeListingCoversWholeImage) {
  const auto img = masm::assemble_or_throw(R"(
    setlo g3, 1 | add g4, g3, g3
    halt
  )");
  const std::string listing = isa::disasm_code(img.code);
  EXPECT_NE(listing.find("setlo g3, 1 | add g4, g3, g3 ;;"),
            std::string::npos);
  EXPECT_NE(listing.find("halt"), std::string::npos);
}

TEST(Program, PacketBoundaryQueries) {
  const auto img = masm::assemble_or_throw(R"(
    setlo g3, 1 | add g4, g3, g3
    halt
  )");
  sim::Program prog(img);
  EXPECT_EQ(prog.num_packets(), 2u);
  EXPECT_TRUE(prog.has_packet(img.code_base));
  EXPECT_FALSE(prog.has_packet(img.code_base + 4));  // mid-packet
  EXPECT_TRUE(prog.has_packet(img.code_base + 8));
  EXPECT_THROW(prog.packet_at(img.code_base + 4), Error);
}

TEST(Stats, RunningStat) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  s.add(2.0);
  s.add(6.0);
  s.add(-2.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
}

TEST(Peak, BurstKernelsValidateAndSustainRate) {
  for (bool fp : {true, false}) {
    const auto spec = fp ? kernels::make_fp_peak_spec(500)
                         : kernels::make_simd_peak_spec(500);
    const auto run = kernels::run_kernel(spec.kernel);
    ASSERT_TRUE(run.valid) << spec.kernel.name;
    // 24-packet body + loop control; near one packet per cycle when warm.
    const double per_iter =
        static_cast<double>(run.kernel_cycles) / spec.iterations;
    EXPECT_LT(per_iter, 27.0) << spec.kernel.name;
    EXPECT_GE(per_iter, 24.0) << spec.kernel.name;
  }
}

TEST(Assembler, GroupLoadRegisterAliasesWork) {
  // 'lr' and 'sp' parse; 'zero' reads as g0.
  const auto img = masm::assemble_or_throw(R"(
    mov g3, zero
    add g4, sp, zero
    jmpl g5, lr
    halt
  )");
  EXPECT_GE(img.code.size(), 4u);
}


TEST(Trace, ObserverSeesEveryPacketInOrder) {
  const char* src = R"(
    setlo g3, 5
  lp:
    addi g3, g3, -1
    bnz g3, lp
    halt
  )";
  soc::Majc5200 sim(masm::assemble_or_throw(src), 1);
  std::vector<cpu::TraceEvent> events;
  sim.cpu().set_trace([&](const cpu::TraceEvent& ev) { events.push_back(ev); });
  const auto res = sim.run();
  ASSERT_TRUE(res.halted);
  ASSERT_EQ(events.size(), res.packets);
  u64 width_sum = 0;
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].cycle, events[i - 1].cycle);  // strictly increasing
  }
  for (const auto& ev : events) width_sum += ev.width;
  EXPECT_EQ(width_sum, res.instrs);
}

} // namespace
} // namespace majc
