// Thread-level parallelism across the two CPUs (paper §5: "in several of
// the applications it is possible to obtain thread level parallelism to
// effectively use both the CPUs"): a data-parallel workload split by
// GETCPU runs close to twice as fast as the single-CPU version, and the
// shared D$ + atomics combine the results correctly.
#include <gtest/gtest.h>

#include "src/masm/assembler.h"
#include "src/soc/chip.h"
#include "src/support/rng.h"

namespace majc {
namespace {

/// Sum-of-products over `total` elements; each participating CPU takes an
/// interleaved-block half when `split`, and CPU1 exits early when not.
std::string sop_program(u32 total, bool split) {
  std::string src = R"(
    .data
  partial: .space 8
  done:    .space 4
  result:  .space 4
    .code
    getcpu g20
  )";
  if (!split) {
    src += "    bnz g20, finish_other\n";
  }
  // Region: CPU c starts at base + c*half*4 (contiguous halves in
  // different DRDRAM banks once the stride passes 2 KB).
  const u32 per_cpu = split ? total / 2 : total;
  src += R"(
    sethi g3, 0x20
    orlo g3, 0
  )";
  if (split) {
    src += "    slli g21, g20, " +
           std::to_string(31 - __builtin_clz(per_cpu * 4)) + "\n";
    src += "    add g3, g3, g21\n";
  }
  src += "    sethi g7, " + std::to_string(per_cpu >> 16) + "\n";
  src += "    orlo g7, " + std::to_string(per_cpu & 0xFFFF) + "\n";
  src += R"(
    setlo g6, 0
  lp:
    ldwi g4, g3, 0
    nop | madd g6, g4, g4
    addi g3, g3, 4
    addi g7, g7, -1
    bnz g7, lp
    # publish this CPU's partial sum
    sethi g8, %hi(partial)
    orlo g8, %lo(partial)
    slli g9, g20, 2
    stw g6, g8, g9
    membar
    halt
  finish_other:
    halt
  )";
  return src;
}

u32 reference_sum(sim::MemoryBus& mem, Addr base, u32 total) {
  u32 acc = 0;
  for (u32 i = 0; i < total; ++i) {
    const u32 v = mem.read_u32(base + 4 * i);
    acc += v * v;
  }
  return acc;
}

void fill(soc::Majc5200& chip, u32 total) {
  SplitMix64 rng(404);
  for (u32 i = 0; i < total; ++i) {
    chip.memory().write_u32(0x200000 + 4 * i, rng.next_below(1000));
  }
}

TEST(DualCpu, SplitWorkloadComputesCorrectPartials) {
  constexpr u32 kTotal = 8192;
  soc::Majc5200 chip(masm::assemble_or_throw(sop_program(kTotal, true)), 2);
  fill(chip, kTotal);
  const auto res = chip.run();
  ASSERT_TRUE(res.halted);
  const Addr part = chip.program().image().symbol("partial");
  const u32 p0 = chip.memory().read_u32(part);
  const u32 p1 = chip.memory().read_u32(part + 4);
  EXPECT_EQ(p0 + p1, reference_sum(chip.memory(), 0x200000, kTotal));
  EXPECT_EQ(p0, reference_sum(chip.memory(), 0x200000, kTotal / 2));
}

TEST(DualCpu, ThreadLevelParallelismSpeedsUp) {
  constexpr u32 kTotal = 8192;
  soc::Majc5200 single(masm::assemble_or_throw(sop_program(kTotal, false)), 2);
  fill(single, kTotal);
  const auto r1 = single.run();
  ASSERT_TRUE(r1.halted);

  soc::Majc5200 dual(masm::assemble_or_throw(sop_program(kTotal, true)), 2);
  fill(dual, kTotal);
  const auto r2 = dual.run();
  ASSERT_TRUE(r2.halted);

  const double speedup =
      static_cast<double>(r1.cycles) / static_cast<double>(r2.cycles);
  EXPECT_GT(speedup, 1.5);
  EXPECT_LE(speedup, 2.1);
}

TEST(DualCpu, BothCpusShareOneDataCacheCoherently) {
  // CPU0 writes a line, CPU1 reads it back through the shared D$ with no
  // explicit flushing — the zero-overhead communication of paper §3.2.
  const char* src = R"(
    .data
  box:  .space 4
  flag: .space 4
  out:  .space 4
    .code
    sethi g3, %hi(box)
    orlo g3, %lo(box)
    sethi g4, %hi(flag)
    orlo g4, %lo(flag)
    getcpu g20
    bnz g20, reader
    setlo g5, 31415
    stwi g5, g3, 0
    membar
    setlo g6, 1
    stwi g6, g4, 0
    halt
  reader:
  wait:
    ldwi g7, g4, 0
    bz g7, wait
    ldwi g8, g3, 0
    sethi g9, %hi(out)
    orlo g9, %lo(out)
    stwi g8, g9, 0
    halt
  )";
  soc::Majc5200 chip(masm::assemble_or_throw(src), 2);
  const auto res = chip.run(500000);
  ASSERT_TRUE(res.halted);
  EXPECT_EQ(chip.memory().read_u32(chip.program().image().symbol("out")),
            31415u);
}

} // namespace
} // namespace majc
