// Vertical microthreading (MAJC §2): multiple architectural contexts per
// CPU with rapid switch on long-latency stalls. Correctness (both contexts
// complete, per-thread registers isolated) and the latency-hiding effect.
#include <gtest/gtest.h>

#include <set>

#include "src/masm/assembler.h"
#include "src/soc/chip.h"

namespace majc {
namespace {

std::string walker(u32 iterations) {
  // Each context sums a strided walk over its own 256 KB region.
  return R"(
    .data
  results: .space 16
    .code
    gettid g20
    sethi g3, 0x40
    orlo g3, 0
    slli g21, g20, 18
    slli g22, g20, 11
    add g3, g3, g21
    add g3, g3, g22
    setlo g6, 0
    sethi g7, )" +
         std::to_string(iterations >> 16) + "\norlo g7, " +
         std::to_string(iterations & 0xFFFF) + R"(
  lp:
    ldwi g4, g3, 0
    add g6, g6, g4
    addi g3, g3, 32
    addi g7, g7, -1
    bnz g7, lp
    sethi g8, %hi(results)
    orlo g8, %lo(results)
    slli g9, g20, 2
    add g8, g8, g9
    addi g6, g6, 1       # nonzero marker even for all-zero memory
    stw g6, g8, g0
    halt
  )";
}

TEST(MicroThreading, BothContextsRunAndHalt) {
  TimingConfig cfg;
  cfg.hw_threads = 2;
  soc::Majc5200 sim(masm::assemble_or_throw(walker(64)), 1, cfg);
  const auto res = sim.run();
  EXPECT_TRUE(res.halted);
  const Addr r = sim.program().image().symbol("results");
  EXPECT_NE(sim.memory().read_u32(r), 0u);
  EXPECT_NE(sim.memory().read_u32(r + 4), 0u);
  EXPECT_GT(sim.cpu().stats().thread_switches, 0u);
}

TEST(MicroThreading, RegistersArePerContext) {
  TimingConfig cfg;
  cfg.hw_threads = 2;
  const char* src = R"(
    .data
  out: .space 8
    .code
    gettid g20
    setlo g5, 100
    add g5, g5, g20      # thread-private value
    sethi g8, %hi(out)
    orlo g8, %lo(out)
    slli g9, g20, 2
    stw g5, g8, g9
    halt
  )";
  soc::Majc5200 sim(masm::assemble_or_throw(src), 1, cfg);
  sim.run();
  const Addr out = sim.program().image().symbol("out");
  EXPECT_EQ(sim.memory().read_u32(out), 100u);
  EXPECT_EQ(sim.memory().read_u32(out + 4), 101u);
}

TEST(MicroThreading, HidesMemoryLatency) {
  // Equal total work: one context walking 4096 lines vs two contexts
  // walking 2048 each (disjoint regions / banks). The switched version
  // overlaps miss latency with the other context's compute.
  TimingConfig one;
  one.hw_threads = 1;
  soc::Majc5200 s1(masm::assemble_or_throw(walker(4096)), 1, one);
  const auto r1 = s1.run();

  TimingConfig two;
  two.hw_threads = 2;
  soc::Majc5200 s2(masm::assemble_or_throw(walker(2048)), 1, two);
  const auto r2 = s2.run();

  EXPECT_TRUE(r1.halted);
  EXPECT_TRUE(r2.halted);
  EXPECT_LT(r2.cycles, r1.cycles);
  EXPECT_GT(static_cast<double>(r1.cycles) / static_cast<double>(r2.cycles),
            1.15);
}

TEST(MicroThreading, SingleThreadNeverSwitches) {
  soc::Majc5200 sim(masm::assemble_or_throw(walker(128)), 1, TimingConfig{});
  sim.run();
  EXPECT_EQ(sim.cpu().stats().thread_switches, 0u);
  EXPECT_EQ(sim.cpu().hw_threads(), 1u);
}

TEST(MicroThreading, ResultsMatchFunctionalPerThread) {
  // The 2-context cycle run computes the same values a functional run of
  // each context computes (gettid-dispatched).
  TimingConfig cfg;
  cfg.hw_threads = 2;
  soc::Majc5200 sim(masm::assemble_or_throw(walker(32)), 1, cfg);
  sim.run();
  // The walked memory is zero-filled, so each context's sum is the marker.
  const Addr r = sim.program().image().symbol("results");
  EXPECT_EQ(sim.memory().read_u32(r), 1u);
  EXPECT_EQ(sim.memory().read_u32(r + 4), 1u);
}

TEST(MicroThreading, ChipGivesEveryThreadItsOwnStack) {
  // Two CPUs x two contexts: each of the four contexts starts with its own
  // stack pointer (CPU-major, 64 KB apart below the top of memory).
  TimingConfig cfg;
  cfg.hw_threads = 2;
  soc::Majc5200 chip(masm::assemble_or_throw("halt\n"), 2, cfg);
  std::set<u32> stacks;
  for (u32 c = 0; c < chip.num_cpus(); ++c) {
    for (u32 t = 0; t < chip.cpu(c).hw_threads(); ++t) {
      const u32 sp = chip.cpu(c).state(t).regs[2];
      EXPECT_NE(sp, 0u) << "cpu" << c << " thread " << t;
      stacks.insert(sp);
    }
  }
  EXPECT_EQ(stacks.size(), 4u);
}

} // namespace
} // namespace majc
