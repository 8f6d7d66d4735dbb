// System-on-chip tests: dual-CPU execution, shared-D$ communication,
// atomics/membar litmus tests, the DTE DMA engine and the external ports.
#include <gtest/gtest.h>

#include "src/masm/assembler.h"
#include "src/soc/chip.h"

namespace majc {
namespace {

using masm::assemble_or_throw;
using soc::Majc5200;

TEST(Chip, BothCpusRunAndHaltViaGetcpuDispatch) {
  const char* src = R"(
    .data
  out0: .space 4
  out1: .space 4
    .code
    getcpu g20
    bnz g20, cpu1
    # ---- CPU0 ----
    setlo g3, 111
    sethi g4, %hi(out0)
    orlo g4, %lo(out0)
    stwi g3, g4, 0
    halt
  cpu1:
    setlo g3, 222
    sethi g4, %hi(out1)
    orlo g4, %lo(out1)
    stwi g3, g4, 0
    halt
  )";
  Majc5200 chip(assemble_or_throw(src), 2);
  const auto res = chip.run();
  EXPECT_TRUE(res.halted);
  const auto& img = chip.program().image();
  EXPECT_EQ(chip.memory().read_u32(img.symbol("out0")), 111u);
  EXPECT_EQ(chip.memory().read_u32(img.symbol("out1")), 222u);
  EXPECT_GT(chip.cpu(0).stats().packets, 0u);
  EXPECT_GT(chip.cpu(1).stats().packets, 0u);
}

TEST(Chip, ProducerConsumerThroughSharedDcache) {
  // CPU0 publishes a value then sets a flag (with a membar between); CPU1
  // spins on the flag and then reads the value. The shared D$ provides the
  // "very low overhead communication" path the paper describes.
  const char* src = R"(
    .data
  value: .space 4
  flag:  .space 4
  seen:  .space 4
    .code
    sethi g10, %hi(value)
    orlo g10, %lo(value)
    sethi g11, %hi(flag)
    orlo g11, %lo(flag)
    getcpu g20
    bnz g20, consumer
    # ---- producer (CPU0) ----
    setlo g3, 4242
    stwi g3, g10, 0
    membar
    setlo g4, 1
    stwi g4, g11, 0
    halt
  consumer:
  spin:
    ldwi g5, g11, 0
    bz g5, spin
    ldwi g6, g10, 0
    sethi g12, %hi(seen)
    orlo g12, %lo(seen)
    stwi g6, g12, 0
    halt
  )";
  Majc5200 chip(assemble_or_throw(src), 2);
  const auto res = chip.run(/*max_packets_per_cpu=*/200000);
  EXPECT_TRUE(res.halted);
  EXPECT_EQ(chip.memory().read_u32(chip.program().image().symbol("seen")),
            4242u);
}

TEST(Chip, SwapSpinlockSerializesBothCpus) {
  // Each CPU does 50 lock/increment/unlock rounds on a shared counter.
  const char* src = R"(
    .data
  lock:    .space 4
  counter: .space 4
    .code
    sethi g10, %hi(lock)
    orlo g10, %lo(lock)
    sethi g13, %hi(counter)
    orlo g13, %lo(counter)
    setlo g14, 50          # rounds
  round:
  acquire:
    setlo g11, 1
    swap g11, g10
    bnz g11, acquire
    ldwi g12, g13, 0
    addi g12, g12, 1
    stwi g12, g13, 0
    membar
    stwi g0, g10, 0        # release
    addi g14, g14, -1
    bnz g14, round
    halt
  )";
  Majc5200 chip(assemble_or_throw(src), 2);
  const auto res = chip.run(/*max_packets_per_cpu=*/2000000);
  EXPECT_TRUE(res.halted);
  EXPECT_EQ(chip.memory().read_u32(chip.program().image().symbol("counter")),
            100u);
}

TEST(Chip, CasLoopAccumulatesWithoutLostUpdates) {
  const char* src = R"(
    .data
  counter: .space 4
    .code
    sethi g10, %hi(counter)
    orlo g10, %lo(counter)
    setlo g14, 40
  round:
  retry:
    ldwi g11, g10, 0       # expected
    add g12, g11, g0
    addi g12, g12, 1       # desired
    add g13, g12, g0
    cas g13, g10, g11      # g13 = old; succeeded iff old == expected
    sub g15, g13, g11
    bnz g15, retry
    addi g14, g14, -1
    bnz g14, round
    halt
  )";
  Majc5200 chip(assemble_or_throw(src), 2);
  const auto res = chip.run(/*max_packets_per_cpu=*/2000000);
  EXPECT_TRUE(res.halted);
  EXPECT_EQ(chip.memory().read_u32(chip.program().image().symbol("counter")),
            80u);
}

TEST(Chip, SeparateEntriesPerCpu) {
  const char* src = R"(
    .data
  out: .space 8
    .code
  main0:
    sethi g4, %hi(out)
    orlo g4, %lo(out)
    setlo g3, 7
    stwi g3, g4, 0
    halt
  main1:
    sethi g4, %hi(out)
    orlo g4, %lo(out)
    setlo g3, 9
    stwi g3, g4, 4
    halt
  )";
  Majc5200 chip(assemble_or_throw(src), 2);
  chip.set_entry(0, "main0");
  chip.set_entry(1, "main1");
  chip.run();
  const Addr out = chip.program().image().symbol("out");
  EXPECT_EQ(chip.memory().read_u32(out), 7u);
  EXPECT_EQ(chip.memory().read_u32(out + 4), 9u);
}

TEST(Chip, DteCopiesDataAndTakesTime) {
  Majc5200 chip(assemble_or_throw("halt\n"), 2);
  auto& mem = chip.memory();
  const Addr src = 0x20000, dst = 0x30000;
  for (u32 i = 0; i < 1024; i += 4) mem.write_u32(src + i, i * 3 + 1);
  const Cycle done = chip.dte().submit({src, dst, 1024}, /*now=*/10);
  EXPECT_GT(done, 10u);
  for (u32 i = 0; i < 1024; i += 4) {
    ASSERT_EQ(mem.read_u32(dst + i), i * 3 + 1);
  }
  EXPECT_EQ(chip.dte().bytes_moved(), 1024u);
}

TEST(Chip, DteInvalidatesStaleCachedLines) {
  // Warm a line into the D$ via a CPU-less access path: touch through the
  // LSU, then DMA over it; the cache copy must be invalidated.
  Majc5200 chip(assemble_or_throw("halt\n"), 2);
  auto& dcache = chip.memsys().dcache();
  const Addr dst = 0x40000;
  dcache.access(dst, /*is_store=*/false);  // simulate a cached copy
  EXPECT_TRUE(dcache.probe(dst));
  chip.memory().write_u32(0x50000, 99);
  chip.dte().submit({0x50000, dst, 32}, 0);
  EXPECT_FALSE(dcache.probe(dst));
  EXPECT_EQ(chip.memory().read_u32(dst), 99u);
}

TEST(Chip, NupaFifoPushPop) {
  Majc5200 chip(assemble_or_throw("halt\n"), 2);
  auto& nupa = chip.nupa();
  std::vector<u8> data(256);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i);
  nupa.push_fifo(data, 0);
  EXPECT_EQ(nupa.fifo().occupancy(), 256u);
  std::vector<u8> out(256);
  EXPECT_EQ(nupa.fifo().pop(out), 256u);
  EXPECT_EQ(out, data);
  EXPECT_EQ(nupa.fifo().occupancy(), 0u);
}

TEST(Chip, NupaFifoOverflowIsAFault) {
  Majc5200 chip(assemble_or_throw("halt\n"), 2);
  std::vector<u8> data(4096);
  chip.nupa().push_fifo(data, 0);
  std::vector<u8> more(1);
  EXPECT_THROW(chip.nupa().push_fifo(more, 0), Error);
}

TEST(Chip, PciBandwidthIsBoundedAt264MBps) {
  Majc5200 chip(assemble_or_throw("halt\n"), 2);
  const u32 bytes = 1 << 20;
  const Cycle done = chip.pci().stream(bytes, /*inbound=*/true, 0);
  // 264 MB/s at 500 MHz = 0.528 B/cycle; 1 MiB needs >= ~1.98M cycles.
  const double gbps = static_cast<double>(bytes) / static_cast<double>(done) *
                      kClockHz / 1e9;
  EXPECT_LT(gbps, 0.27);
  EXPECT_GT(gbps, 0.20);
}

TEST(Chip, UpaBandwidthApproaches2GBps) {
  Majc5200 chip(assemble_or_throw("halt\n"), 2);
  const u32 bytes = 1 << 20;
  const Cycle done = chip.supa().stream(bytes, /*inbound=*/false, 0);
  const double gbps = static_cast<double>(bytes) / static_cast<double>(done) *
                      kClockHz / 1e9;
  // Bounded by the DRDRAM channel (1.6 GB/s) on the memory side.
  EXPECT_GT(gbps, 1.2);
  EXPECT_LE(gbps, 2.05);
}

TEST(Chip, DmaInLandsDataInMemory) {
  Majc5200 chip(assemble_or_throw("halt\n"), 2);
  std::vector<u8> frame(512);
  for (std::size_t i = 0; i < frame.size(); ++i) frame[i] = static_cast<u8>(i ^ 0x5A);
  const Cycle done = chip.nupa().dma_in(0x60000, frame, 100);
  EXPECT_GT(done, 100u);
  for (u32 i = 0; i < 512; ++i) {
    ASSERT_EQ(chip.memory().read_u8(0x60000 + i), static_cast<u8>(i ^ 0x5A));
  }
}

} // namespace
} // namespace majc
