// Differential fuzzing: random (but well-formed) MAJC programs must leave
// identical architectural state on the instruction-accurate simulator and
// on the cycle-accurate model (whose stalls, caches, LSU scheduling and
// branch prediction must never change computed values), and the cycle
// model's statistics must satisfy basic invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <tuple>

#include "src/kernels/table12.h"
#include "src/masm/assembler.h"
#include "src/sim/functional_sim.h"
#include "src/soc/chip.h"
#include "src/support/rng.h"

namespace majc {
namespace {

/// Emit a random straight-line body with occasional bounded loops and
/// masked in-bounds memory traffic on a 4 KB scratch region.
std::string random_program(u64 seed, u32 packets) {
  SplitMix64 rng(seed);
  std::string src = ".data\nscratch: .space 4096\n.code\n";
  src += "sethi g3, %hi(scratch)\norlo g3, %lo(scratch)\n";
  // Random initial register state.
  for (u32 r = 10; r <= 29; ++r) {
    const u32 v = rng.next_u32();
    src += "sethi g" + std::to_string(r) + ", " + std::to_string(v >> 16) +
           "\norlo g" + std::to_string(r) + ", " + std::to_string(v & 0xFFFF) +
           "\n";
  }
  auto reg = [&] { return "g" + std::to_string(10 + rng.next_below(20)); };
  auto lreg = [&] { return "l" + std::to_string(rng.next_below(8)); };

  static const char* kFu0Ops[] = {"add", "sub", "and", "or", "xor",
                                  "sll", "srl", "sra", "cmplt", "cmpltu"};
  static const char* kComputeOps[] = {
      "add",      "sub",    "and",      "or",       "xor",    "andn",
      "sll",      "srl",    "sra",      "satadd",   "satsub", "mul",
      "mulhi",    "madd",   "msub",     "padd",     "padd.s", "psub.u",
      "pmulh.s",  "pmuls15.s", "pmaddh.s", "dotp",  "lzd",    "pdist",
      "fadd",     "fsub",   "fmul",     "fmadd",    "fmin",   "fmax",
      "fneg",     "fabs",   "fcmplt",   "itof",     "cmpeq",  "cmple"};

  u32 loop_depth = 0;
  u32 loops = 0;
  for (u32 p = 0; p < packets; ++p) {
    const u32 kind = rng.next_below(10);
    if (kind == 0) {
      // Masked word load from scratch.
      src += std::string("andi g9, ") + reg() + ", 252\n";
      src += std::string("ldw ") + reg() + ", g3, g9\n";
    } else if (kind == 1) {
      src += std::string("andi g9, ") + reg() + ", 252\n";
      src += std::string("stw ") + reg() + ", g3, g9\n";
    } else if (kind == 2 && loop_depth == 0 && loops < 3) {
      // Bounded countdown loop.
      const u32 n = 2 + rng.next_below(6);
      src += "setlo g8, " + std::to_string(n) + "\n";
      src += "lp" + std::to_string(loops) + ":\n";
      loop_depth = 1;
      ++loops;
    } else if (kind == 3 && loop_depth == 1) {
      src += "addi g8, g8, -1\n";
      src += "bnz g8, lp" + std::to_string(loops - 1) + "\n";
      loop_depth = 0;
    } else {
      // A 1-4 wide compute packet.
      const u32 width = 1 + rng.next_below(4);
      for (u32 s = 0; s < width; ++s) {
        if (s > 0) src += " | ";
        const char* op =
            s == 0 ? kFu0Ops[rng.next_below(std::size(kFu0Ops))]
                   : kComputeOps[rng.next_below(std::size(kComputeOps))];
        const std::string rd = (s > 0 && rng.next_below(3) == 0) ? lreg() : reg();
        src += std::string(op) + " " + rd + ", " + reg() + ", " + reg();
      }
      src += "\n";
    }
  }
  if (loop_depth == 1) {
    src += "addi g8, g8, -1\nbnz g8, lp" + std::to_string(loops - 1) + "\n";
  }
  src += "halt\n";
  return src;
}

class Differential : public ::testing::TestWithParam<u64> {};

TEST_P(Differential, CycleModelComputesIdenticalState) {
  const std::string src = random_program(GetParam(), 120);

  sim::FunctionalSim fsim(masm::assemble_or_throw(src));
  const auto fres = fsim.run(2'000'000);
  ASSERT_TRUE(fres.halted) << src;

  soc::Majc5200 csim(masm::assemble_or_throw(src), 1);
  const auto cres = csim.run(2'000'000);
  ASSERT_TRUE(cres.halted);

  // Registers (all 224, including every FU's locals).
  for (u32 r = 0; r < isa::kNumRegs; ++r) {
    ASSERT_EQ(fsim.state().regs[r], csim.cpu().state().regs[r])
        << "register " << r << " diverged (seed " << GetParam() << ")";
  }
  // Scratch memory.
  const Addr base = fsim.program().image().symbol("scratch");
  for (u32 off = 0; off < 4096; off += 4) {
    ASSERT_EQ(fsim.memory().read_u32(base + off),
              csim.memory().read_u32(base + off))
        << "memory +" << off << " diverged (seed " << GetParam() << ")";
  }

  // Statistics invariants.
  EXPECT_EQ(fres.packets, cres.packets);
  EXPECT_EQ(fres.instrs, cres.instrs);
  EXPECT_GE(cres.cycles, cres.packets);  // at most one packet per cycle
  EXPECT_EQ(csim.cpu().stats().width_hist.total(), cres.packets);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::Range<u64>(1, 25));

// ---- Table 1 / Table 2 kernel sweep ----
//
// Every paper kernel, run from a seeded-random machine state: both sims get
// identical random initial registers (all 224 except the hardwired g0, the
// stack-convention g2, and the GETTICK scratch g90/g91) and an identical
// 64 KB random high-memory region, on 8 MB guest memory. The cycle model's
// stalls, caches, LSU scheduling and branch prediction must not change any
// computed value: registers, all of memory (minus the 8-byte `ticks` region,
// whose GETTICK values legitimately differ between the two time bases) and
// the packet/instruction counts must match, and the kernel's own golden
// validation must pass on both.

class KernelDifferential
    : public ::testing::TestWithParam<std::tuple<int, u64>> {};

TEST_P(KernelDifferential, KernelsComputeIdenticalStateFromRandomMachineState) {
  const auto [kernel_index, seed] = GetParam();
  const kernels::NamedKernel& kc = kernels::table12_kernels()[kernel_index];
  const kernels::KernelSpec spec = kernels::table12_spec(kc, seed);

  constexpr std::size_t kMemBytes = 8u << 20;
  sim::FunctionalSim fsim(masm::assemble_or_throw(spec.source), kMemBytes);
  soc::Majc5200 csim(masm::assemble_or_throw(spec.source), 1, TimingConfig{},
                     kMemBytes);
  if (spec.setup) {
    spec.setup(fsim.memory(), fsim.program().image());
    spec.setup(csim.memory(), csim.program().image());
  }

  // Identical seeded-random machine state in both sims.
  SplitMix64 rng(seed * 1000003u + static_cast<u64>(kernel_index));
  for (u32 r = 1; r < isa::kNumRegs; ++r) {
    if (r == 2 || r == 90 || r == 91) continue;
    const u32 v = rng.next_u32();
    fsim.state().regs[r] = v;
    csim.cpu().state().regs[r] = v;
  }
  constexpr Addr kHighBase = 6u << 20;
  for (u32 off = 0; off < (64u << 10); off += 4) {
    const u32 v = rng.next_u32();
    fsim.memory().write_u32(kHighBase + off, v);
    csim.memory().write_u32(kHighBase + off, v);
  }

  const auto fres = fsim.run(spec.max_packets);
  const auto cres = csim.run(spec.max_packets);
  ASSERT_TRUE(fres.halted) << kc.name;
  ASSERT_TRUE(cres.halted) << kc.name;
  EXPECT_EQ(fres.packets, cres.packets) << kc.name;
  EXPECT_EQ(fres.instrs, cres.instrs) << kc.name;

  // Registers: exclude the GETTICK scratch pair — g91 latches a tick value
  // and the two sims run on different time bases (packets vs cycles).
  for (u32 r = 0; r < isa::kNumRegs; ++r) {
    if (r == 90 || r == 91) continue;
    ASSERT_EQ(fsim.state().regs[r], csim.cpu().state().regs[r])
        << kc.name << " register " << r << " diverged (seed " << seed << ")";
  }

  // All of memory, minus the 8-byte ticks region.
  Addr ticks = ~Addr{0};
  const auto& syms = fsim.program().image().symbols;
  if (auto it = syms.find("ticks"); it != syms.end()) ticks = it->second;
  std::span<u8> fm = fsim.memory().raw();
  std::span<u8> cm = csim.memory().raw();
  ASSERT_EQ(fm.size(), cm.size());
  if (ticks != ~Addr{0}) {
    // Blank out the excluded window in both images, then compare wholesale.
    std::fill_n(fm.begin() + ticks, 8, u8{0});
    std::fill_n(cm.begin() + ticks, 8, u8{0});
  }
  if (std::memcmp(fm.data(), cm.data(), fm.size()) != 0) {
    std::size_t i = 0;
    while (i < fm.size() && fm[i] == cm[i]) ++i;
    FAIL() << kc.name << " memory byte 0x" << std::hex << i
           << " diverged (seed " << std::dec << seed << ")";
  }

  // The kernel's own golden-model validation must hold on both sims.
  if (spec.validate) {
    std::string msg;
    EXPECT_TRUE(spec.validate(fsim.memory(), fsim.program().image(), msg))
        << kc.name << " functional: " << msg;
    EXPECT_TRUE(spec.validate(csim.memory(), csim.program().image(), msg))
        << kc.name << " cycle: " << msg;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelDifferential,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(kernels::table12_kernels().size())),
        ::testing::Values<u64>(2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<int, u64>>& info) {
      const int k = std::get<0>(info.param);
      return std::string(kernels::table12_kernels()[k].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Differential, MicrothreadedModelAlsoMatches) {
  // Two contexts running the same random program on disjoint scratch halves
  // must each match a functional reference run.
  const std::string body = random_program(777, 60);
  // Shift each context's scratch accesses by gettid*2048.
  std::string src = body;
  const std::string anchor = "orlo g3, %lo(scratch)\n";
  src.replace(src.find(anchor), anchor.size(),
              anchor + "gettid g7\nslli g7, g7, 11\nadd g3, g3, g7\n");

  TimingConfig cfg;
  cfg.hw_threads = 2;
  soc::Majc5200 csim(masm::assemble_or_throw(src), 1, cfg);
  ASSERT_TRUE(csim.run(4'000'000).halted);

  sim::FunctionalSim fsim(masm::assemble_or_throw(body));
  ASSERT_TRUE(fsim.run(2'000'000).halted);

  // Thread 0 used scratch+0, like the functional run; compare it.
  const Addr base = fsim.program().image().symbol("scratch");
  for (u32 off = 0; off < 2048; off += 4) {
    ASSERT_EQ(fsim.memory().read_u32(base + off),
              csim.memory().read_u32(base + off))
        << "thread-0 memory +" << off;
  }
  for (u32 r = 10; r <= 29; ++r) {
    EXPECT_EQ(fsim.state().regs[r], csim.cpu().state(0).regs[r]) << r;
  }
}

} // namespace
} // namespace majc
