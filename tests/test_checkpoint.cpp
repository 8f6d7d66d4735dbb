// Checkpoint / restore tests: Writer/Reader primitives, header validation,
// and the contract that matters — a run saved mid-flight and restored into
// a fresh simulator finishes cycle-for-cycle identical to an unbroken run,
// in all three modes, including under fault injection.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <type_traits>
#include <utility>

#include "src/kernels/table12.h"
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

/// Every fault class on at once: ECC (poisoning machine checks), fill
/// parity and crossbar delays and drops.
TimingConfig fault_injection_config() {
  TimingConfig cfg;
  cfg.faults.dram_correctable_rate = 0.2;
  cfg.faults.dram_uncorrectable_rate = 0.05;
  cfg.faults.mc_policy = MachineCheckPolicy::kPoison;
  cfg.faults.fill_parity_rate = 0.05;
  cfg.faults.xbar_delay_rate = 0.1;
  cfg.faults.xbar_drop_rate = 0.02;
  return cfg;
}

TEST(Ckpt, CycleSplitRunUnderFaultInjectionStaysIdentical) {
  // Fault injection is part of the state (event indices live in the LSU /
  // crossbar / ECC counters), so a restored faulty run must replay the
  // exact same fault stream.
  const TimingConfig cfg = fault_injection_config();

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

// ------------------------------------------------------ format v2 pin

constexpr u64 kFnvOffset = 1469598103934665603ull;
constexpr u64 kFnvPrime = 1099511628211ull;

u64 fnv1a(std::span<const u8> bytes) {
  u64 h = kFnvOffset;
  for (u8 b : bytes) h = (h ^ b) * kFnvPrime;
  return h;
}

TEST(Ckpt, FormatV2BytesArePinned) {
  // Every Table 1/2 kernel (registry order, seed 1) stopped at three packet
  // caps on five machines -- functional, then one and two CPUs with faults
  // off and on -- gives 240 mid-run and finished states. Each checkpoint
  // must come back byte for byte through restore -> save, and the hash over
  // all of them pins format v2: a serializer change that moves any byte of
  // any section fails here.
  const auto& table = kernels::table12_kernels();
  const kernels::CompiledKernel first =
      kernels::compile_kernel(kernels::table12_spec(table.front()));
  sim::FunctionalSim fsim(first.program), fback(first.program);
  struct Timed {
    u32 cpus;
    TimingConfig cfg;
    std::unique_ptr<soc::Majc5200> m, back;
  };
  std::vector<Timed> timed;
  for (u32 cpus : {1u, 2u}) {
    for (const TimingConfig& cfg : {TimingConfig{}, fault_injection_config()}) {
      auto make = [&] {
        return std::make_unique<soc::Majc5200>(first.program, cpus, cfg);
      };
      timed.push_back({cpus, cfg, make(), make()});
    }
  }

  u64 pin = kFnvOffset;
  u32 states = 0;
  auto check = [&](auto& back, const std::vector<u8>& bytes) {
    ckpt::restore_checkpoint(back, bytes);
    EXPECT_EQ(ckpt::save_checkpoint(back), bytes);
    pin = (pin ^ fnv1a(bytes)) * kFnvPrime;
    ++states;
  };
  for (const kernels::NamedKernel& nk : table) {
    const kernels::CompiledKernel k =
        kernels::compile_kernel(kernels::table12_spec(nk));
    for (u64 cap : {37u, 300u, 5000u}) {
      SCOPED_TRACE(testing::Message() << nk.name << " cap " << cap);
      fsim.reset(k.program);
      fback.reset(k.program);
      kernels::setup_kernel(fsim, k.spec);
      fsim.run(cap);
      check(fback, ckpt::save_checkpoint(fsim));
      for (Timed& c : timed) {
        SCOPED_TRACE(c.cpus);
        c.m->reset(k.program, c.cfg);
        c.back->reset(k.program, c.cfg);
        kernels::setup_kernel(*c.m, k.spec);
        c.m->run(cap);
        check(*c.back, ckpt::save_checkpoint(*c.m));
      }
    }
  }
  EXPECT_EQ(states, 240u);
  EXPECT_EQ(pin, 0x2c696b7b22142bb9ull) << std::hex << pin;
}

// ------------------------------------------------- hostile checkpoint bytes

// A small arena keeps the many restores below cheap; the programs' code
// and data sit well inside it.
constexpr std::size_t kSmallArena = 2u << 20;

/// A mid-run checkpoint of kLoopProg: functional for `cpus` == 0, else on a
/// `cpus`-CPU machine.
std::vector<u8> mid_run_checkpoint(u32 cpus) {
  if (cpus == 0) {
    sim::FunctionalSim f(assemble_or_throw(kLoopProg), kSmallArena);
    f.run(300);
    return ckpt::save_checkpoint(f);
  }
  soc::Majc5200 m(assemble_or_throw(kLoopProg), cpus, TimingConfig{},
                  kSmallArena);
  m.run(400);
  return ckpt::save_checkpoint(m);
}

/// Restore `bytes` into a freshly built machine of the kind mid_run_checkpoint
/// used for `cpus`.
void restore_fresh(u32 cpus, const std::vector<u8>& bytes) {
  if (cpus == 0) {
    sim::FunctionalSim f(assemble_or_throw(kLoopProg), kSmallArena);
    ckpt::restore_checkpoint(f, bytes);
  } else {
    soc::Majc5200 m(assemble_or_throw(kLoopProg), cpus, TimingConfig{},
                    kSmallArena);
    ckpt::restore_checkpoint(m, bytes);
  }
}

/// Offset of the first byte after section tag `tag` (the tag must occur).
std::size_t after_tag(const std::vector<u8>& bytes, const char (&tag)[5]) {
  const auto it = std::search(bytes.begin(), bytes.end(), tag, tag + 4);
  EXPECT_NE(it, bytes.end()) << tag;
  return static_cast<std::size_t>(it - bytes.begin()) + 4;
}

/// The little-endian u64 at `off`.
u64 u64_at(const std::vector<u8>& bytes, std::size_t off) {
  return ckpt::Reader(std::span<const u8>(bytes).subspan(off)).get_u64();
}

TEST(Ckpt, OversizedCountsAreErrors) {
  // A count that exceeds its container's capacity is a format error, never
  // an allocation: the LSU load, store and MSHR counts (the first after the
  // fill counter, each later one after the entries before it; a store entry
  // is 20 bytes), the ECC healed-line count and the NUPA FIFO byte count
  // (after its capacity).
  for (u32 cpus : {1u, 2u}) {
    SCOPED_TRACE(cpus);
    const std::vector<u8> good = mid_run_checkpoint(cpus);
    soc::Majc5200 m(assemble_or_throw(kLoopProg), cpus, TimingConfig{},
                    kSmallArena);
    const std::size_t loads = after_tag(good, "LSU ") + 8;
    const std::size_t stores = loads + 8 + 8 * u64_at(good, loads);
    const std::size_t mshrs = stores + 8 + 20 * u64_at(good, stores);
    const std::pair<const char*, std::size_t> fields[] = {
        {"LSU loads", loads},
        {"LSU stores", stores},
        {"MSHRs", mshrs},
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

TEST(Ckpt, WrappingMemoryPageIndexIsAnError) {
  // Page index 2^52 - 1 puts a 4 KB page at byte offset 2^64 - 4096: the
  // offset plus the page length wraps to 0, so a range check on the scaled
  // offset alone passes and the page lands just below the arena. The index
  // must be bounded before it is scaled.
  for (u32 cpus : {0u, 1u}) {
    SCOPED_TRACE(cpus);
    std::vector<u8> bad = mid_run_checkpoint(cpus);
    const std::size_t page = after_tag(bad, "MEM ") + 8;  // after the size
    ASSERT_EQ(static_cast<u32>(u64_at(bad, page + 8)),
              sim::FlatMemory::kPageBytes);  // a whole first page
    const u64 wrapping = (u64{1} << 52) - 1;
    for (int i = 0; i < 8; ++i)
      bad[page + i] = static_cast<u8>(wrapping >> (8 * i));
    EXPECT_THROW(restore_fresh(cpus, bad), Error);
  }
}

void reset_machine(sim::FunctionalSim& f) { f.reset(); }
void reset_machine(soc::Majc5200& m) { m.reset(nullptr, TimingConfig{}); }

/// 600 seeded truncations and byte mutations of `good`, each restored into
/// `m`: every restore must either succeed or throw majc::Error — no other
/// exception (bad_alloc, length_error, ...) may escape. Returns the number
/// of errors.
template <class Machine>
u32 mutation_storm(Machine& m, const std::vector<u8>& good, u64 seed) {
  SplitMix64 rng(seed);
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
    reset_machine(m);
    try {
      ckpt::restore_checkpoint(m, bad);
    } catch (const Error&) {
      ++errors;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial << ": non-majc exception "
                    << e.what();
    }
  }
  return errors;
}

TEST(Ckpt, MutatedCheckpointsRestoreOrThrowError) {
  // A functional, a cycle and a chip checkpoint each take the storm. The
  // truncations alone fail 200 times.
  {
    sim::FunctionalSim f(assemble_or_throw(kLoopProg), kSmallArena);
    EXPECT_GT(mutation_storm(f, mid_run_checkpoint(0), 0xc0ffee), 200u);
  }
  for (u32 cpus : {1u, 2u}) {
    SCOPED_TRACE(cpus);
    soc::Majc5200 m(assemble_or_throw(kLoopProg), cpus, TimingConfig{},
                    kSmallArena);
    EXPECT_GT(mutation_storm(m, mid_run_checkpoint(cpus), 0xc0ffee + cpus),
              200u);
  }
}

// --------------------------------------------- sparse arena digest and save

/// arch_digest's definition written without its zero-page shortcut:
/// byte-wise FNV-1a over the whole arena, then each CPU state's registers
/// and pc as little-endian u64s.
u64 reference_digest(std::span<const u8> arena,
                     const std::vector<const sim::CpuState*>& states) {
  u64 h = 1469598103934665603ull;
  auto mix = [&h](u8 b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  auto mix64 = [&mix](u64 v) {
    for (int i = 0; i < 8; ++i) mix(static_cast<u8>(v >> (8 * i)));
  };
  for (u8 b : arena) mix(b);
  for (const sim::CpuState* st : states) {
    for (u32 r : st->regs) mix64(r);
    mix64(st->pc);
  }
  return h;
}

u64 reference_digest(const sim::FunctionalSim& s) {
  return reference_digest(s.memory().raw(), {&s.state()});
}

u64 reference_digest(const soc::Majc5200& m) {
  std::vector<const sim::CpuState*> states;
  for (u32 c = 0; c < m.num_cpus(); ++c)
    for (u32 t = 0; t < m.cpu(c).hw_threads(); ++t)
      states.push_back(&m.cpu(c).state(t));
  return reference_digest(m.memory().raw(), states);
}

/// The digest equals the byte-wise reference, and save -> clear() ->
/// restore (or save -> scribble -> restore) brings the arena back byte for
/// byte.
template <class Machine>
void expect_sparse_arena_exact(Machine& m) {
  EXPECT_EQ(ckpt::arch_digest(m), reference_digest(m));
  const std::vector<u8> before(m.memory().raw().begin(),
                               m.memory().raw().end());
  const std::vector<u8> ck = ckpt::save_checkpoint(m);
  m.memory().clear();
  EXPECT_TRUE(std::ranges::all_of(m.memory().raw(),
                                  [](u8 b) { return b == 0; }));
  ckpt::restore_checkpoint(m, ck);
  EXPECT_TRUE(std::ranges::equal(m.memory().raw(), before));
  EXPECT_EQ(ckpt::save_checkpoint(m), ck);
  // Restoring over a dirty arena leaves no stale byte behind.
  std::ranges::fill(m.memory().raw(), u8{0xee});
  ckpt::restore_checkpoint(m, ck);
  EXPECT_TRUE(std::ranges::equal(m.memory().raw(), before));
}

// Stores a word into page 2 and then zeroes it again: a page the guest
// touched that must still count as all-zero.
constexpr const char* kZeroAgainProg = R"(
    setlo g3, 8192
    setlo g4, 99
    stwi g4, g3, 0
    stwi g0, g3, 0
    halt
)";

TEST(Ckpt, SparseDigestAndSaveMatchByteWiseReference) {
  // Whole-page arenas and one whose size is not a multiple of 4 KB; in
  // each, a lone non-zero byte at a page's first byte, at a page's last
  // byte, and at the arena's last byte.
  constexpr std::size_t kNoPoke = ~std::size_t{0};
  const masm::Image img = assemble_or_throw(kZeroAgainProg);
  for (std::size_t bytes : {std::size_t{8 * 4096}, std::size_t{3 * 4096 + 100}}) {
    for (std::size_t poke : {kNoPoke, std::size_t{2 * 4096},
                             std::size_t{2 * 4096 + 4095}, bytes - 1}) {
      SCOPED_TRACE(testing::Message() << bytes << " bytes, poke " << poke);
      sim::FunctionalSim f(img, bytes);
      f.run();
      if (poke != kNoPoke) f.memory().write_u8(poke, 0xa5);
      expect_sparse_arena_exact(f);

      for (u32 cpus : {1u, 2u}) {
        SCOPED_TRACE(cpus);
        soc::Majc5200 m(img, cpus, TimingConfig{}, bytes);
        m.run();
        if (poke != kNoPoke) m.memory().write_u8(poke, 0x5a);
        expect_sparse_arena_exact(m);
      }
    }
  }
}

TEST(Ckpt, ClearZeroesEveryPageIncludingTheTail) {
  sim::FlatMemory mem(3 * 4096 + 100);
  for (std::size_t off : {std::size_t{0}, std::size_t{4095},
                          std::size_t{2 * 4096}, mem.size() - 1})
    mem.write_u8(off, 0xff);
  std::size_t pages = 0;
  mem.for_each_nonzero_page([&](std::size_t off, std::span<const u8> page) {
    EXPECT_EQ(off % sim::FlatMemory::kPageBytes, 0u);
    EXPECT_EQ(page.size(),
              std::min(sim::FlatMemory::kPageBytes, mem.size() - off));
    ++pages;
  });
  EXPECT_EQ(pages, 3u);  // page 0 twice over, page 2, the 100-byte tail
  mem.clear();
  EXPECT_TRUE(std::ranges::all_of(mem.raw(), [](u8 b) { return b == 0; }));
}

TEST(Ckpt, ArenaMoveHandsOverTheMapping) {
  sim::FlatMemory a(2 * 4096);
  a.write_u8(4096, 7);
  const u8* base = a.raw().data();
  sim::FlatMemory b(std::move(a));
  EXPECT_EQ(b.raw().data(), base);
  EXPECT_EQ(b.read_u8(4096), 7);
  EXPECT_EQ(a.size(), 0u);  // the moved-from arena owns nothing to unmap
  a = std::move(b);
  EXPECT_EQ(a.raw().data(), base);
  EXPECT_EQ(b.size(), 0u);
}

TEST(Ckpt, ArenaMappingFailureIsAnError) {
  // Larger than any host address space: the mapping fails without
  // allocating anything.
  EXPECT_THROW(sim::FlatMemory(std::size_t{1} << 62), Error);
}

// -------------------------------------------------------- arena residency

/// Number of pages in a checkpoint's sparse MEM section.
std::size_t saved_pages(const std::vector<u8>& ck) {
  ckpt::Reader r(std::span<const u8>(ck).subspan(after_tag(ck, "MEM ")));
  r.get_u64();  // arena size
  std::size_t pages = 0;
  std::vector<u8> page;
  while (r.get_u64() != ~u64{0}) {
    page.resize(r.get_u32());
    r.get_bytes(page);
    ++pages;
  }
  return pages;
}

/// Bytes of `arena` held in private host pages: /proc/self/pagemap entries
/// that are present (bit 63) and exclusively mapped (bit 56). A page the
/// host has only read maps the kernel's shared zero page, which is present
/// but not exclusive; mincore would count it, and a digest reads every page.
std::size_t resident_bytes(std::span<const u8> arena) {
  const auto host_page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const auto first = reinterpret_cast<std::uintptr_t>(arena.data()) / host_page;
  std::vector<u64> entries((arena.size() + host_page - 1) / host_page);
  std::ifstream pagemap("/proc/self/pagemap", std::ios::binary);
  pagemap.seekg(static_cast<std::streamoff>(first * sizeof(u64)));
  pagemap.read(reinterpret_cast<char*>(entries.data()),
               static_cast<std::streamsize>(entries.size() * sizeof(u64)));
  EXPECT_TRUE(pagemap) << "cannot read /proc/self/pagemap";
  return host_page * static_cast<std::size_t>(std::ranges::count_if(
                         entries, [](u64 e) { return (e >> 63) & (e >> 56) & 1; }));
}

template <class Machine>
void expect_resident_only_what_was_saved(Machine& m,
                                         const kernels::CompiledKernel& k) {
  const kernels::KernelRun run = kernels::run_kernel_on(m, k.spec);  // digests
  ASSERT_TRUE(run.valid) << run.message;
  const std::size_t saved = saved_pages(ckpt::save_checkpoint(m));
  if constexpr (std::is_same_v<Machine, soc::Majc5200>) {
    m.reset(k.program, TimingConfig{});
  } else {
    m.reset(k.program);
  }
  // The slack covers pages written but left zero (the image loader writes
  // .space regions) and host pages larger than the checkpoint's 4 KB.
  // Swapping can only lower the count. A whole-arena pass that writes
  // makes all 8,192 pages resident.
  const std::size_t page =
      std::max<std::size_t>(sim::FlatMemory::kPageBytes, sysconf(_SC_PAGESIZE));
  EXPECT_LE(resident_bytes(m.memory().raw()), (saved + 8) * page)
      << saved << " pages saved of a " << m.memory().size() << "-byte arena";
}

TEST(Ckpt, ArenaResidencyIsBoundedBySavedPages) {
  // Digest, save and reset visit the whole arena, yet must leave resident
  // only the pages the guest wrote: the job's host cost follows its guest.
  const kernels::CompiledKernel k = kernels::compile_kernel(
      kernels::table12_spec(*kernels::find_table12_kernel("idct")));
  {
    sim::FunctionalSim f(k.program);
    expect_resident_only_what_was_saved(f, k);
  }
  {
    soc::Majc5200 m(k.program, 1, TimingConfig{});
    expect_resident_only_what_was_saved(m, k);
  }
}

} // namespace
} // namespace majc
