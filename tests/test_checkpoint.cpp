// Checkpoint / restore tests: Writer/Reader primitives, header validation,
// and the contract that matters — a run saved mid-flight and restored into
// a fresh simulator finishes cycle-for-cycle identical to an unbroken run,
// in all three modes, including under fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <exception>

#include "src/masm/assembler.h"
#include "src/sim/functional_sim.h"
#include "src/soc/chip.h"
#include "src/support/checkpoint.h"
#include "src/support/rng.h"

namespace majc {
namespace {

using masm::assemble_or_throw;

// ------------------------------------------------------- Writer / Reader

TEST(CkptIo, PrimitivesRoundTrip) {
  ckpt::Writer w;
  w.put_u8(0xab);
  w.put_u16(0xbeef);
  w.put_u32(0xdeadbeefu);
  w.put_u64(0x0123456789abcdefull);
  w.put_bool(true);
  w.put_bool(false);
  w.put_f64(-0.1);
  w.put_string("majc");
  w.put_tag("TEST");
  const std::vector<u8> raw{1, 2, 3};
  w.put_bytes(raw);

  ckpt::Reader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u16(), 0xbeef);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefull);
  EXPECT_TRUE(r.get_bool());
  EXPECT_FALSE(r.get_bool());
  EXPECT_EQ(r.get_f64(), -0.1);  // bit-exact, == is correct
  EXPECT_EQ(r.get_string(), "majc");
  r.expect_tag("TEST");
  std::vector<u8> back(3);
  r.get_bytes(back);
  EXPECT_EQ(back, raw);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(CkptIo, ShortReadThrows) {
  ckpt::Writer w;
  w.put_u16(7);
  ckpt::Reader r(w.bytes());
  EXPECT_THROW(r.get_u32(), Error);
}

TEST(CkptIo, TagMismatchThrows) {
  ckpt::Writer w;
  w.put_tag("AAAA");
  ckpt::Reader r(w.bytes());
  EXPECT_THROW(r.expect_tag("BBBB"), Error);
}

// ----------------------------------------------------------------- header

// Long enough that a mid-run split exercises caches, MSHRs and the branch
// predictor, short enough to keep the test fast.
constexpr const char* kLoopProg = R"(
    .data
  buf: .space 2048
    .code
    sethi g3, %hi(buf)
    orlo g3, %lo(buf)
    setlo g5, 512
    setlo g6, 1
  fill:
    stwi g6, g3, 0
    addi g6, g6, 7
    addi g3, g3, 4
    addi g5, g5, -1
    bnz g5, fill
    sethi g3, %hi(buf)
    orlo g3, %lo(buf)
    setlo g5, 512
    setlo g10, 0
  sum:
    ldwi g7, g3, 0
    add g10, g10, g7
    addi g3, g3, 4
    addi g5, g5, -1
    bnz g5, sum
    halt
)";

TEST(Ckpt, HeaderRejectsWrongMode) {
  sim::FunctionalSim fsim(assemble_or_throw(kLoopProg));
  const auto bytes = ckpt::save_checkpoint(fsim);
  EXPECT_EQ(ckpt::peek_mode(bytes), ckpt::Mode::kFunctional);

  soc::Majc5200 csim(assemble_or_throw(kLoopProg), 1);
  EXPECT_THROW(ckpt::restore_checkpoint(csim, bytes), Error);
}

TEST(Ckpt, HeaderRejectsCorruptMagicAndVersion) {
  sim::FunctionalSim fsim(assemble_or_throw(kLoopProg));
  auto bytes = ckpt::save_checkpoint(fsim);
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(ckpt::peek_mode(bad_magic), Error);
  sim::FunctionalSim other(assemble_or_throw(kLoopProg));
  EXPECT_THROW(ckpt::restore_checkpoint(other, bad_magic), Error);

  auto bad_version = bytes;
  bad_version[8] ^= 0xff;  // version u32 follows the 8-byte magic
  EXPECT_THROW(ckpt::restore_checkpoint(other, bad_version), Error);
}

TEST(Ckpt, HeaderRejectsDifferentImage) {
  sim::FunctionalSim a(assemble_or_throw(kLoopProg));
  const auto bytes = ckpt::save_checkpoint(a);
  sim::FunctionalSim b(assemble_or_throw("halt\n"));
  EXPECT_THROW(ckpt::restore_checkpoint(b, bytes), Error);
}

TEST(Ckpt, HeaderRejectsDifferentTimingConfig) {
  soc::Majc5200 a(assemble_or_throw(kLoopProg), 1);
  const auto bytes = ckpt::save_checkpoint(a);

  TimingConfig other;
  other.faults.fill_parity_rate = 0.25;  // any field counts
  soc::Majc5200 b(assemble_or_throw(kLoopProg), 1, other);
  EXPECT_THROW(ckpt::restore_checkpoint(b, bytes), Error);
}

TEST(Ckpt, SavingTwiceIsByteIdentical) {
  soc::Majc5200 sim(assemble_or_throw(kLoopProg), 1);
  sim.run(200);
  EXPECT_EQ(ckpt::save_checkpoint(sim), ckpt::save_checkpoint(sim));
}

// --------------------------------------------- split-run = unbroken run

TEST(Ckpt, FunctionalSplitRunMatchesUnbrokenRun) {
  sim::FunctionalSim golden(assemble_or_throw(kLoopProg));
  const auto gres = golden.run();
  ASSERT_EQ(gres.reason, TerminationReason::kHalted);

  sim::FunctionalSim first(assemble_or_throw(kLoopProg));
  first.run(300);  // per-call budget: stops mid-loop
  ASSERT_FALSE(first.state().halted);
  const auto bytes = ckpt::save_checkpoint(first);

  sim::FunctionalSim second(assemble_or_throw(kLoopProg));
  ckpt::restore_checkpoint(second, bytes);
  const auto res = second.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);
  EXPECT_EQ(second.packets_run(), golden.packets_run());
  EXPECT_EQ(second.instrs_run(), golden.instrs_run());
  EXPECT_EQ(ckpt::arch_digest(second), ckpt::arch_digest(golden));
}

TEST(Ckpt, CycleSplitRunMatchesUnbrokenRun) {
  soc::Majc5200 golden(assemble_or_throw(kLoopProg), 1);
  const auto gres = golden.run();
  ASSERT_EQ(gres.reason, TerminationReason::kHalted);

  soc::Majc5200 first(assemble_or_throw(kLoopProg), 1);
  const auto part = first.run(400);  // absolute packet cap: mid-run
  ASSERT_EQ(part.reason, TerminationReason::kPacketCap);
  const auto bytes = ckpt::save_checkpoint(first);

  soc::Majc5200 second(assemble_or_throw(kLoopProg), 1);
  ckpt::restore_checkpoint(second, bytes);
  const auto res = second.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);
  EXPECT_EQ(res.cycles, gres.cycles);  // cycle-for-cycle identical
  EXPECT_EQ(res.packets, gres.packets);
  EXPECT_EQ(res.instrs, gres.instrs);
  EXPECT_EQ(ckpt::arch_digest(second), ckpt::arch_digest(golden));
}

TEST(Ckpt, CycleSplitRunUnderFaultInjectionStaysIdentical) {
  // Fault injection is part of the state (event indices live in the LSU /
  // crossbar / ECC counters), so a restored faulty run must replay the
  // exact same fault stream.
  TimingConfig cfg;
  cfg.faults.dram_correctable_rate = 0.2;
  cfg.faults.dram_uncorrectable_rate = 0.05;
  cfg.faults.mc_policy = MachineCheckPolicy::kPoison;
  cfg.faults.fill_parity_rate = 0.05;
  cfg.faults.xbar_delay_rate = 0.1;
  cfg.faults.xbar_drop_rate = 0.02;

  soc::Majc5200 golden(assemble_or_throw(kLoopProg), 1, cfg);
  const auto gres = golden.run();
  ASSERT_EQ(gres.reason, TerminationReason::kHalted);

  soc::Majc5200 first(assemble_or_throw(kLoopProg), 1, cfg);
  first.run(400);
  const auto bytes = ckpt::save_checkpoint(first);

  soc::Majc5200 second(assemble_or_throw(kLoopProg), 1, cfg);
  ckpt::restore_checkpoint(second, bytes);
  const auto res = second.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);
  EXPECT_EQ(res.cycles, gres.cycles);
  EXPECT_EQ(second.ecc().corrected(), golden.ecc().corrected());
  EXPECT_EQ(second.ecc().poisoned_lines(), golden.ecc().poisoned_lines());
  EXPECT_EQ(second.memsys().xbar().delayed_grants(),
            golden.memsys().xbar().delayed_grants());
  EXPECT_EQ(ckpt::arch_digest(second), ckpt::arch_digest(golden));
}

TEST(Ckpt, ChipSplitRunMatchesUnbrokenRun) {
  // Dual-CPU program: CPU0 fills, CPU1 sums its own buffer; the checkpoint
  // must capture both cores plus the shared memory system mid-flight.
  constexpr const char* kDual = R"(
      .data
    buf0: .space 1024
    buf1: .space 1024
      .code
      getcpu g20
      bnz g20, cpu1
      sethi g3, %hi(buf0)
      orlo g3, %lo(buf0)
      bz g0, work
    cpu1:
      sethi g3, %hi(buf1)
      orlo g3, %lo(buf1)
    work:
      setlo g5, 256
      setlo g6, 1
    fill:
      stwi g6, g3, 0
      addi g6, g6, 5
      addi g3, g3, 4
      addi g5, g5, -1
      bnz g5, fill
      halt
  )";
  soc::Majc5200 golden(assemble_or_throw(kDual), 2);
  const auto gres = golden.run();
  ASSERT_TRUE(gres.halted);

  soc::Majc5200 first(assemble_or_throw(kDual), 2);
  first.run(300);
  const auto bytes = ckpt::save_checkpoint(first);

  soc::Majc5200 second(assemble_or_throw(kDual), 2);
  ckpt::restore_checkpoint(second, bytes);
  const auto res = second.run();
  EXPECT_TRUE(res.halted);
  EXPECT_EQ(res.cycles, gres.cycles);
  EXPECT_EQ(second.cpu(0).stats().packets, golden.cpu(0).stats().packets);
  EXPECT_EQ(second.cpu(1).stats().packets, golden.cpu(1).stats().packets);
  EXPECT_EQ(ckpt::arch_digest(second), ckpt::arch_digest(golden));
}

TEST(Ckpt, RestoredTrapStateSurvives) {
  // Save while a guest handler is pending (in_trap set), restore, finish:
  // the trap unit state (tvec/tcause/in_trap) must travel with the
  // checkpoint.
  constexpr const char* kTrapProg = R"(
      sethi g20, %hi(handler)
      orlo g20, %lo(handler)
      settvec g20
      setlo g3, 4097
      ldwi g4, g3, 0
      setlo g9, 77
      halt
    handler:
      mftr g5, 0
      mftr g7, 2
      rett g7
  )";
  soc::Majc5200 golden(assemble_or_throw(kTrapProg), 1);
  const auto gres = golden.run();
  ASSERT_EQ(gres.reason, TerminationReason::kHalted);

  soc::Majc5200 first(assemble_or_throw(kTrapProg), 1);
  first.run(5);  // inside or just past trap delivery
  const auto bytes = ckpt::save_checkpoint(first);

  soc::Majc5200 second(assemble_or_throw(kTrapProg), 1);
  ckpt::restore_checkpoint(second, bytes);
  const auto res = second.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);
  EXPECT_EQ(res.cycles, gres.cycles);
  EXPECT_EQ(second.cpu().state().read(5), golden.cpu().state().read(5));
  EXPECT_EQ(second.cpu().state().read(9), 77u);
  EXPECT_EQ(ckpt::arch_digest(second), ckpt::arch_digest(golden));
}

// ------------------------------------------------- hostile checkpoint bytes

// A small arena keeps the many restores below cheap; the programs' code
// and data sit well inside it.
constexpr std::size_t kSmallArena = 2u << 20;

/// A mid-run checkpoint of kLoopProg on a `cpus`-CPU machine.
std::vector<u8> mid_run_checkpoint(u32 cpus) {
  soc::Majc5200 m(assemble_or_throw(kLoopProg), cpus, TimingConfig{},
                  kSmallArena);
  m.run(400);
  return ckpt::save_checkpoint(m);
}

/// Offset of the first byte after section tag `tag` (the tag must occur).
std::size_t after_tag(const std::vector<u8>& bytes, const char (&tag)[5]) {
  const auto it = std::search(bytes.begin(), bytes.end(), tag, tag + 4);
  EXPECT_NE(it, bytes.end()) << tag;
  return static_cast<std::size_t>(it - bytes.begin()) + 4;
}

TEST(Ckpt, OversizedCountsAreErrors) {
  // A count that exceeds its container's capacity is a format error, never
  // an allocation: the LSU load count (after the fill counter), the ECC
  // healed-line count and the NUPA FIFO byte count (after its capacity).
  for (u32 cpus : {1u, 2u}) {
    SCOPED_TRACE(cpus);
    const std::vector<u8> good = mid_run_checkpoint(cpus);
    soc::Majc5200 m(assemble_or_throw(kLoopProg), cpus, TimingConfig{},
                    kSmallArena);
    const std::pair<const char*, std::size_t> fields[] = {
        {"LSU ", after_tag(good, "LSU ") + 8},
        {"ECC ", after_tag(good, "ECC ")},
        {"FIFO", after_tag(good, "FIFO") + 4},
    };
    for (const auto& [name, off] : fields) {
      SCOPED_TRACE(name);
      std::vector<u8> bad = good;
      std::memset(bad.data() + off, 0xff, 8);
      m.reset(nullptr, TimingConfig{});
      EXPECT_THROW(ckpt::restore_checkpoint(m, bad), Error);
    }
    m.reset(nullptr, TimingConfig{});
    EXPECT_NO_THROW(ckpt::restore_checkpoint(m, good));
  }
}

TEST(Ckpt, MutatedCheckpointsRestoreOrThrowError) {
  // Seeded truncations and byte mutations of a cycle and a chip
  // checkpoint: every restore must either succeed or throw majc::Error —
  // no other exception (bad_alloc, length_error, ...) may escape.
  for (u32 cpus : {1u, 2u}) {
    SCOPED_TRACE(cpus);
    const std::vector<u8> good = mid_run_checkpoint(cpus);
    soc::Majc5200 m(assemble_or_throw(kLoopProg), cpus, TimingConfig{},
                    kSmallArena);
    SplitMix64 rng(0xc0ffee + cpus);
    u32 errors = 0;
    for (u32 trial = 0; trial < 600; ++trial) {
      std::vector<u8> bad = good;
      if (trial % 3 == 0) {
        bad.resize(rng.next_below(static_cast<u32>(good.size())));
      } else {
        // 1-4 mutations past the header: a flipped byte, or a stomped u64
        // that turns whatever field it covers into a huge value.
        const u32 n = 1 + rng.next_below(4);
        for (u32 k = 0; k < n; ++k) {
          const std::size_t off =
              29 + rng.next_below(static_cast<u32>(good.size() - 37));
          if (rng.next_below(2) == 0) {
            bad[off] ^= static_cast<u8>(1 + rng.next_below(255));
          } else {
            std::memset(bad.data() + off, 0xff, 8);
          }
        }
      }
      m.reset(nullptr, TimingConfig{});
      try {
        ckpt::restore_checkpoint(m, bad);
      } catch (const Error&) {
        ++errors;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "trial " << trial << ": non-majc exception "
                      << e.what();
      }
    }
    EXPECT_GT(errors, 200u);  // truncations alone fail 200 times
  }
}

} // namespace
} // namespace majc
