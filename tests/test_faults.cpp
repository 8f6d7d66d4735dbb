// RAS model tests: architected traps across simulators, seeded fault
// injection (DRAM ECC, cache fill parity, crossbar grants), the livelock
// watchdog, and cache way-disable degradation.
#include <gtest/gtest.h>

#include "src/masm/assembler.h"
#include "src/soc/chip.h"
#include "src/support/fault.h"

namespace majc {
namespace {

using masm::assemble_or_throw;

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlan, InertWhenAllRatesZero) {
  const FaultPlan plan{FaultConfig{}};
  EXPECT_FALSE(plan.enabled());
  for (Addr line = 0; line < 4096; line += 32) {
    EXPECT_EQ(plan.dram_fault(line), FaultPlan::DramFault::kNone);
    EXPECT_FALSE(plan.fill_corrupted(line, line));
    EXPECT_EQ(plan.grant_delay(line), 0u);
    EXPECT_FALSE(plan.grant_dropped(line));
  }
}

TEST(FaultPlan, DeterministicAcrossInstances) {
  FaultConfig cfg;
  cfg.dram_correctable_rate = 0.01;
  cfg.fill_parity_rate = 0.05;
  cfg.xbar_delay_rate = 0.05;
  const FaultPlan a{cfg};
  const FaultPlan b{cfg};
  EXPECT_TRUE(a.enabled());
  for (Addr line = 0; line < 1u << 16; line += 32) {
    EXPECT_EQ(a.dram_fault(line), b.dram_fault(line));
    EXPECT_EQ(a.fill_corrupted(line, 7), b.fill_corrupted(line, 7));
    EXPECT_EQ(a.grant_delay(line), b.grant_delay(line));
  }
}

TEST(FaultPlan, RaisingCorrectableRateNeverMovesUncorrectableLines) {
  // Uncorrectable faults claim the low hash slice, so turning correctable
  // errors up cannot reclassify a machine-check line as correctable.
  FaultConfig lo;
  lo.dram_uncorrectable_rate = 0.001;
  FaultConfig hi = lo;
  hi.dram_correctable_rate = 0.2;
  const FaultPlan a{lo};
  const FaultPlan b{hi};
  u64 uncorrectable = 0;
  for (Addr line = 0; line < 1u << 20; line += 32) {
    const bool mc_a = a.dram_fault(line) == FaultPlan::DramFault::kUncorrectable;
    const bool mc_b = b.dram_fault(line) == FaultPlan::DramFault::kUncorrectable;
    EXPECT_EQ(mc_a, mc_b);
    uncorrectable += mc_a;
  }
  EXPECT_GT(uncorrectable, 0u);  // the rate actually selects some lines
}

// ------------------------------------------------------------------- Traps

TEST(Faults, CycleModeDeliversMisalignedTrap) {
  soc::Majc5200 sim(assemble_or_throw(R"(
    setlo g3, 4097
    ldwi g4, g3, 0
    halt
  )"), 1);
  const auto res = sim.run();
  EXPECT_EQ(res.reason, TerminationReason::kTrap);
  EXPECT_EQ(res.trap.code, TrapCause::kMisaligned);
  EXPECT_EQ(res.trap.cpu, 0u);
  EXPECT_EQ(res.trap.pc, sim.program().image().entry + isa::kInstrBytes);
  EXPECT_FALSE(res.halted);
}

TEST(Faults, ChipTrapNamesTheFaultingCpu) {
  // CPU0 halts cleanly; CPU1 performs a misaligned load. The chip stops on
  // the trap and the report carries cpu=1 plus a dual-CPU state dump.
  const char* src = R"(
    getcpu g20
    bnz g20, cpu1
    halt
  cpu1:
    setlo g3, 4097
    ldwi g4, g3, 0
    halt
  )";
  soc::Majc5200 chip(assemble_or_throw(src), 2);
  const auto res = chip.run();
  EXPECT_EQ(res.reason, TerminationReason::kTrap);
  EXPECT_EQ(res.trap.code, TrapCause::kMisaligned);
  EXPECT_EQ(res.trap.cpu, 1u);
  EXPECT_FALSE(res.halted);
  EXPECT_NE(res.dump.find("architected trap"), std::string::npos);
  EXPECT_NE(res.dump.find("cpu1:"), std::string::npos);
}

TEST(Faults, DivideByZeroTrapsOnlyWhenArmed) {
  const char* src = R"(
    setlo g3, 7
    setlo g4, 0
    div g5, g3, g4
    halt
  )";
  {
    sim::FunctionalSim s(assemble_or_throw(src));
    const auto res = s.run();  // default: total semantics, div/0 = 0
    EXPECT_EQ(res.reason, TerminationReason::kHalted);
    EXPECT_EQ(s.state().read(5), 0u);
  }
  {
    sim::FunctionalSim s(assemble_or_throw(src));
    s.set_trap_div_zero(true);
    const auto res = s.run();
    EXPECT_EQ(res.reason, TerminationReason::kTrap);
    EXPECT_EQ(res.trap.code, TrapCause::kDivideByZero);
  }
}

// ---------------------------------------------------- guest trap delivery

// Installs a handler, takes a misaligned load, and resumes at the faulting
// packet's fall-through via RETT. g5 captures the cause read back with MFTR;
// g9 proves execution continued past the faulting packet.
constexpr const char* kRecoverProg = R"(
    sethi g20, %hi(handler)
    orlo g20, %lo(handler)
    settvec g20
    setlo g3, 4097
    ldwi g4, g3, 0       # misaligned: vectors to handler
    setlo g9, 77         # RETT target (fall-through of faulting packet)
    halt
  handler:
    mftr g5, 0           # saved cause
    mftr g7, 2           # fall-through pc of the faulting packet
    rett g7
)";

TEST(TrapDelivery, CycleModeGuestHandlerRecoversMisalignedLoad) {
  soc::Majc5200 sim(assemble_or_throw(kRecoverProg), 1);
  const auto res = sim.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);
  EXPECT_TRUE(res.halted);
  EXPECT_EQ(sim.cpu().state().read(5),
            static_cast<u32>(TrapCause::kMisaligned));
  EXPECT_EQ(sim.cpu().state().read(9), 77u);
  EXPECT_EQ(sim.cpu().stats().traps_delivered, 1u);
  EXPECT_FALSE(sim.cpu().state().in_trap);  // RETT re-armed delivery
}

TEST(TrapDelivery, FunctionalSimGuestHandlerRecoversMisalignedLoad) {
  sim::FunctionalSim sim(assemble_or_throw(kRecoverProg));
  const auto res = sim.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);
  EXPECT_EQ(sim.state().read(5), static_cast<u32>(TrapCause::kMisaligned));
  EXPECT_EQ(sim.state().read(9), 77u);
  EXPECT_EQ(sim.traps_delivered(), 1u);
}

TEST(TrapDelivery, NoHandlerStillTerminatesTheRun) {
  // tvec == 0: PR 1 behavior is unchanged — the trap surfaces as the
  // termination reason instead of vectoring anywhere.
  soc::Majc5200 sim(assemble_or_throw(R"(
    setlo g3, 4097
    ldwi g4, g3, 0
    halt
  )"), 1);
  const auto res = sim.run();
  EXPECT_EQ(res.reason, TerminationReason::kTrap);
  EXPECT_EQ(res.trap.code, TrapCause::kMisaligned);
  EXPECT_EQ(sim.cpu().stats().traps_delivered, 0u);
}

TEST(TrapDelivery, DoubleFaultStaysFatal) {
  // The handler itself takes a misaligned load while in_trap is set: the
  // second trap must not re-enter the handler (infinite recursion) but end
  // the run.
  soc::Majc5200 sim(assemble_or_throw(R"(
    sethi g20, %hi(handler)
    orlo g20, %lo(handler)
    settvec g20
    setlo g3, 4097
    ldwi g4, g3, 0
    halt
  handler:
    ldwi g6, g3, 0       # faults again inside the handler
    rett g7
  )"), 1);
  const auto res = sim.run();
  EXPECT_EQ(res.reason, TerminationReason::kTrap);
  EXPECT_EQ(res.trap.code, TrapCause::kMisaligned);
  EXPECT_EQ(sim.cpu().stats().traps_delivered, 1u);  // first trap only
}

// --------------------------------------------------------------------- ECC

// Walks an array with stores then re-reads it into a checksum in g10.
constexpr const char* kChecksumProg = R"(
    .data
  buf: .space 1024
    .code
    sethi g3, %hi(buf)
    orlo g3, %lo(buf)
    setlo g5, 256        # words
    setlo g6, 1
  fill:
    stwi g6, g3, 0
    addi g6, g6, 3
    addi g3, g3, 4
    addi g5, g5, -1
    bnz g5, fill
    sethi g3, %hi(buf)
    orlo g3, %lo(buf)
    setlo g5, 256
    setlo g10, 0
  sum:
    ldwi g7, g3, 0
    add g10, g10, g7
    addi g3, g3, 4
    addi g5, g5, -1
    bnz g5, sum
    halt
)";

TEST(Faults, CorrectableEccIsBitIdenticalToFaultFree) {
  soc::Majc5200 clean(assemble_or_throw(kChecksumProg), 1);
  const auto clean_res = clean.run();
  ASSERT_EQ(clean_res.reason, TerminationReason::kHalted);

  TimingConfig cfg;
  cfg.faults.dram_correctable_rate = 1.0;  // every line needs correction
  soc::Majc5200 faulty(assemble_or_throw(kChecksumProg), 1, cfg);
  const auto res = faulty.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);
  // SEC-DED corrected every read; the architectural result is untouched.
  EXPECT_EQ(faulty.cpu().state().read(10), clean.cpu().state().read(10));
  EXPECT_GE(faulty.ecc().corrected(), 1u);
  EXPECT_EQ(faulty.ecc().machine_checks(), 0u);
  EXPECT_EQ(faulty.ecc().silent_corruptions(), 0u);
}

TEST(Faults, UncorrectableEccRaisesMachineCheck) {
  TimingConfig cfg;
  cfg.faults.dram_uncorrectable_rate = 1.0;
  soc::Majc5200 sim(assemble_or_throw(kChecksumProg), 1, cfg);
  const auto res = sim.run();
  EXPECT_EQ(res.reason, TerminationReason::kTrap);
  EXPECT_EQ(res.trap.code, TrapCause::kMachineCheck);
  EXPECT_GE(sim.ecc().machine_checks(), 1u);
}

TEST(Faults, EccOffSilentlyCorruptsData) {
  soc::Majc5200 clean(assemble_or_throw(kChecksumProg), 1);
  clean.run();

  TimingConfig cfg;
  cfg.faults.dram_correctable_rate = 1.0;
  cfg.faults.ecc_enabled = false;
  soc::Majc5200 sim(assemble_or_throw(kChecksumProg), 1, cfg);
  const auto res = sim.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);  // no trap, just rot
  EXPECT_GE(sim.ecc().silent_corruptions(), 1u);
  EXPECT_NE(sim.cpu().state().read(10), clean.cpu().state().read(10));
}

// ------------------------------------------- machine-check recovery policy

TEST(Faults, RetryPolicyAbsorbsUncorrectableEcc) {
  soc::Majc5200 clean(assemble_or_throw(kChecksumProg), 1);
  clean.run();

  TimingConfig cfg;
  cfg.faults.dram_uncorrectable_rate = 1.0;
  cfg.faults.mc_policy = MachineCheckPolicy::kRetry;
  soc::Majc5200 sim(assemble_or_throw(kChecksumProg), 1, cfg);
  const auto res = sim.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);
  EXPECT_EQ(sim.cpu().state().read(10), clean.cpu().state().read(10));
  EXPECT_GE(sim.ecc().retried(), 1u);
  EXPECT_GE(sim.ecc().machine_checks(), 1u);
  EXPECT_EQ(sim.ecc().silent_corruptions(), 0u);
}

TEST(Faults, PoisonPolicyScrubsLinesAndContinues) {
  soc::Majc5200 clean(assemble_or_throw(kChecksumProg), 1);
  clean.run();

  TimingConfig cfg;
  cfg.faults.dram_uncorrectable_rate = 1.0;
  cfg.faults.mc_policy = MachineCheckPolicy::kPoison;
  soc::Majc5200 sim(assemble_or_throw(kChecksumProg), 1, cfg);
  const auto res = sim.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);
  EXPECT_EQ(sim.cpu().state().read(10), clean.cpu().state().read(10));
  EXPECT_GE(sim.ecc().poisoned_lines(), 1u);
  // A scrubbed line is healed for the rest of the run: far fewer machine
  // checks than lines read, and none fatal.
  EXPECT_EQ(res.trap.code, TrapCause::kNone);
}

TEST(Faults, DeliverPolicyWithoutHandlerIsFatal) {
  TimingConfig cfg;
  cfg.faults.dram_uncorrectable_rate = 1.0;
  cfg.faults.mc_policy = MachineCheckPolicy::kDeliver;
  soc::Majc5200 sim(assemble_or_throw(kChecksumProg), 1, cfg);
  const auto res = sim.run();
  EXPECT_EQ(res.reason, TerminationReason::kTrap);
  EXPECT_EQ(res.trap.code, TrapCause::kMachineCheck);
  EXPECT_TRUE(res.trap.deliverable);  // policy allowed delivery; no tvec
}

TEST(Faults, DeliverPolicyReachesGuestHandlerWhichRetries) {
  // End-to-end RAS path: uncorrectable ECC error → line scrubbed → machine
  // check delivered to the guest handler → handler retries the faulting
  // packet via RETT tpc → scrubbed line reads clean → kernel completes with
  // the fault-free checksum. g62 counts handler entries.
  constexpr const char* kHandled = R"(
      .data
    buf: .space 1024
      .code
      sethi g60, %hi(handler)
      orlo g60, %lo(handler)
      settvec g60
      sethi g3, %hi(buf)
      orlo g3, %lo(buf)
      setlo g5, 256
      setlo g6, 1
    fill:
      stwi g6, g3, 0
      addi g6, g6, 3
      addi g3, g3, 4
      addi g5, g5, -1
      bnz g5, fill
      sethi g3, %hi(buf)
      orlo g3, %lo(buf)
      setlo g5, 256
      setlo g10, 0
    sum:
      ldwi g7, g3, 0
      add g10, g10, g7
      addi g3, g3, 4
      addi g5, g5, -1
      bnz g5, sum
      halt
    handler:
      addi g62, g62, 1
      mftr g61, 1        # tpc: retry the faulting packet
      rett g61
  )";
  soc::Majc5200 clean(assemble_or_throw(kChecksumProg), 1);
  clean.run();

  TimingConfig cfg;
  cfg.faults.dram_uncorrectable_rate = 0.05;
  cfg.faults.mc_policy = MachineCheckPolicy::kDeliver;
  soc::Majc5200 sim(assemble_or_throw(kHandled), 1, cfg);
  const auto res = sim.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);
  EXPECT_EQ(sim.cpu().state().read(10), clean.cpu().state().read(10));
  EXPECT_GE(sim.cpu().stats().traps_delivered, 1u);
  EXPECT_EQ(sim.cpu().state().read(62), sim.cpu().stats().traps_delivered);
  EXPECT_GE(sim.ecc().poisoned_lines(), 1u);
}

// ----------------------------------------------------- fill parity / xbar

TEST(Faults, FillParityRetriesCostTimeNotCorrectness) {
  soc::Majc5200 clean(assemble_or_throw(kChecksumProg), 1);
  const auto clean_res = clean.run();

  TimingConfig cfg;
  // Each refetch redraws per fill index, so at 0.5 every fill succeeds
  // within the 8-attempt refetch bound with overwhelming probability.
  cfg.faults.fill_parity_rate = 0.5;
  soc::Majc5200 sim(assemble_or_throw(kChecksumProg), 1, cfg);
  const auto res = sim.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);
  EXPECT_EQ(sim.cpu().state().read(10), clean.cpu().state().read(10));
  EXPECT_GE(sim.memsys().lsu(0).counters().get("fill_parity_retries"), 1u);
  EXPECT_GT(res.cycles, clean_res.cycles);
}

TEST(Faults, FillParityExhaustionRaisesBoundedMachineCheck) {
  // At rate 1.0 every refetch is corrupted too: instead of spinning until
  // the watchdog fires, the bounded refetch gives up after max_fill_retries
  // attempts and raises a machine check.
  TimingConfig cfg;
  cfg.faults.fill_parity_rate = 1.0;
  cfg.faults.max_fill_retries = 4;
  soc::Majc5200 sim(assemble_or_throw(kChecksumProg), 1, cfg);
  const auto res = sim.run();
  EXPECT_EQ(res.reason, TerminationReason::kTrap);
  EXPECT_EQ(res.trap.code, TrapCause::kMachineCheck);
  const mem::MemorySystem& ms = sim.memsys();
  EXPECT_GE(ms.ifetch_machine_checks() +
                ms.lsu(0).counter(mem::LsuCounter::kFillMachineChecks),
            1u);
}

TEST(Faults, CrossbarGrantFaultsDelayTransfers) {
  soc::Majc5200 clean(assemble_or_throw(kChecksumProg), 1);
  const auto clean_res = clean.run();

  TimingConfig cfg;
  cfg.faults.xbar_delay_rate = 0.5;
  cfg.faults.xbar_drop_rate = 0.1;
  soc::Majc5200 sim(assemble_or_throw(kChecksumProg), 1, cfg);
  const auto res = sim.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);
  EXPECT_EQ(sim.cpu().state().read(10), clean.cpu().state().read(10));
  EXPECT_GE(sim.memsys().xbar().delayed_grants(), 1u);
  // A dropped grant pays a full re-arbitration, so it is strictly slower
  // than a delayed one — but still invisible to architecture.
  EXPECT_GE(sim.memsys().xbar().dropped_grants(), 1u);
  EXPECT_GT(res.cycles, clean_res.cycles);
}

// ---------------------------------------------------------------- watchdog

TEST(Faults, WatchdogKillsSingleCpuInfiniteLoop) {
  TimingConfig cfg;
  cfg.watchdog_cycles = 5'000;
  soc::Majc5200 sim(assemble_or_throw(R"(
  spin:
    bz g0, spin
    halt
  )"), 1,
                    cfg);
  const auto res = sim.run();
  EXPECT_EQ(res.reason, TerminationReason::kWatchdog);
  EXPECT_FALSE(res.halted);
  EXPECT_LT(res.cycles, 100'000u);  // killed well before the packet cap
}

TEST(Faults, WatchdogKillsLivelockedDualCpuRun) {
  // CPU0 finishes; CPU1 spins on a flag nobody ever sets. Loads and branches
  // are not progress, so the watchdog fires long before the packet cap.
  const char* src = R"(
    .data
  flag: .space 4
    .code
    getcpu g20
    bnz g20, consumer
    halt
  consumer:
    sethi g11, %hi(flag)
    orlo g11, %lo(flag)
  spin:
    ldwi g5, g11, 0
    bz g5, spin
    halt
  )";
  TimingConfig cfg;
  cfg.watchdog_cycles = 20'000;
  soc::Majc5200 chip(assemble_or_throw(src), 2, cfg);
  const auto res = chip.run();
  EXPECT_EQ(res.reason, TerminationReason::kWatchdog);
  EXPECT_FALSE(res.halted);
  EXPECT_LT(chip.cpu(1).stats().packets, 1'000'000u);
  EXPECT_NE(res.dump.find("watchdog"), std::string::npos);
  EXPECT_NE(res.dump.find("cpu0"), std::string::npos);
  EXPECT_NE(res.dump.find("cpu1"), std::string::npos);
}

// --------------------------------------------------------- way disabling

TEST(Faults, DisabledWaysDegradeTimingNotResults) {
  // Three lines in the same set: they co-reside in a healthy 4-way D$ but
  // thrash a cache degraded to one live way.
  const char* src = R"(
    .data
  buf: .space 12288       # spans three 4 KB set-strides
    .code
    sethi g3, %hi(buf)
    orlo g3, %lo(buf)
    setlo g8, 4096
    add g6, g3, g8
    add g7, g6, g8
    setlo g5, 200
    setlo g10, 0
  loop:
    ldw g11, g3, g0
    ldw g12, g6, g0
    ldw g13, g7, g0
    add g10, g10, g11
    add g10, g10, g12
    add g10, g10, g13
    addi g5, g5, -1
    bnz g5, loop
    halt
  )";
  soc::Majc5200 healthy(assemble_or_throw(src), 1);
  const auto base = healthy.run();
  ASSERT_EQ(base.reason, TerminationReason::kHalted);

  TimingConfig cfg;
  cfg.dcache_disabled_ways = 3;  // 4-way D$ degraded to a single live way
  soc::Majc5200 degraded(assemble_or_throw(src), 1, cfg);
  const auto res = degraded.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);
  EXPECT_EQ(degraded.memsys().dcache().disabled_ways(), 3u);
  EXPECT_EQ(degraded.cpu().state().read(10), healthy.cpu().state().read(10));
  EXPECT_GT(res.cycles, base.cycles);
  EXPECT_GT(degraded.memsys().dcache().misses(), healthy.memsys().dcache().misses());
}

} // namespace
} // namespace majc
