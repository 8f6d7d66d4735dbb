// Directed microbenchmarks of the cycle-accurate CPU model: every latency
// and bypass rule the paper documents is asserted here (Fig. 2 / §3.2 / §4).
#include <gtest/gtest.h>

#include "src/masm/assembler.h"
#include "src/soc/chip.h"

namespace majc {
namespace {

TimingConfig ideal_config() {
  TimingConfig cfg;
  cfg.perfect_icache = true;  // isolate core timing from instruction supply
  return cfg;
}

Cycle run_cycles(const char* src, const TimingConfig& cfg = ideal_config()) {
  soc::Majc5200 sim(masm::assemble_or_throw(src), 1, cfg);
  const auto res = sim.run();
  EXPECT_TRUE(res.halted);
  return res.cycles;
}

/// Cycle cost of `body` relative to the same program with `baseline` body.
i64 extra_cycles(const std::string& body, const std::string& baseline) {
  const std::string pre = "setlo g3, 3\nsetlo g4, 5\nsetlo g5, 7\n";
  const Cycle a = run_cycles((pre + body + "halt\n").c_str());
  const Cycle b = run_cycles((pre + baseline + "halt\n").c_str());
  return static_cast<i64>(a) - static_cast<i64>(b);
}

TEST(CycleTiming, OnePacketPerCycleWhenIndependent) {
  // 3 setlo + 10 independent packets + halt, all single-cycle: 14 cycles.
  std::string body;
  for (int i = 0; i < 10; ++i) body += "setlo g" + std::to_string(10 + i) + ", 1\n";
  const Cycle c = run_cycles(("setlo g3, 3\nsetlo g4, 5\nsetlo g5, 7\n" + body +
                              "halt\n").c_str());
  EXPECT_EQ(c, 14u);
}

TEST(CycleTiming, AluDependencyWithinFuHasNoBubble) {
  // add (FU0) -> dependent add (FU0): 1-cycle latency, full internal bypass.
  EXPECT_EQ(extra_cycles("add g6, g3, g4\nadd g7, g6, g5\n",
                         "add g6, g3, g4\nadd g7, g3, g5\n"),
            0);
}

TEST(CycleTiming, MultiplyLatencyIsTwoCycles) {
  // mul on FU1 -> dependent add on FU1: one bubble.
  EXPECT_EQ(extra_cycles("nop | mul l0, g3, g4\nnop | add g7, l0, g5\n",
                         "nop | mul l0, g3, g4\nnop | add g7, g3, g5\n"),
            1);
}

TEST(CycleTiming, Fp32LatencyIsFourCycles) {
  EXPECT_EQ(extra_cycles("nop | fadd l0, g3, g4\nnop | fadd g7, l0, g5\n",
                         "nop | fadd l0, g3, g4\nnop | fadd g7, g3, g5\n"),
            3);
}

TEST(CycleTiming, Fp32IsFullyPipelined) {
  // Four back-to-back independent fadds on FU1 issue in consecutive cycles.
  EXPECT_EQ(extra_cycles("nop | fadd l0, g3, g4\nnop | fadd l1, g3, g4\n"
                         "nop | fadd l2, g3, g4\nnop | fadd l3, g3, g4\n",
                         "nop\nnop\nnop\nnop\n"),
            0);
}

TEST(CycleTiming, DivideIsNonPipelinedSixCycles) {
  // Two divides on FU0: the second waits for the unit (issue interval 6).
  EXPECT_EQ(extra_cycles("div g6, g3, g4\ndiv g7, g4, g3\n",
                         "add g6, g3, g4\nadd g7, g4, g3\n"),
            5);
}

TEST(CycleTiming, Fp64IsPartiallyPipelined) {
  // dadd issue interval is 2: the second independent dadd waits one cycle.
  // A leading nop packet lets the g4:g5 pair operands settle so the only
  // difference between the programs is the FP64 pipe recovery.
  EXPECT_EQ(extra_cycles("nop\nnop | dadd l0, g4, g4\nnop | dadd l2, g4, g4\n",
                         "nop\nnop\nnop\n"),
            1);
}

TEST(CycleTiming, LoadToUseIsTwoCycles) {
  TimingConfig cfg = ideal_config();
  cfg.perfect_dcache = true;  // guaranteed hit
  const std::string pre = "setlo g3, 4096\n";
  const Cycle dep = run_cycles(
      (pre + "ldwi g6, g3, 0\nadd g7, g6, g6\nhalt\n").c_str(), cfg);
  const Cycle indep = run_cycles(
      (pre + "ldwi g6, g3, 0\nadd g7, g3, g3\nhalt\n").c_str(), cfg);
  EXPECT_EQ(static_cast<i64>(dep) - static_cast<i64>(indep), 1);
}

TEST(CycleTiming, Fu0ResultVisibleToFu1NextCycle) {
  // FU0 add result consumed by FU1 in the next packet: +1 forwarding delay.
  EXPECT_EQ(extra_cycles("add g6, g3, g4\nnop | add g7, g6, g5\n",
                         "add g6, g3, g4\nnop | add g7, g3, g5\n"),
            1);
}

TEST(CycleTiming, Fu1ResultForwardsToFu0WithoutDelay) {
  EXPECT_EQ(extra_cycles("nop | add g6, g3, g4\nadd g7, g6, g5\n",
                         "nop | add g6, g3, g4\nadd g7, g3, g5\n"),
            0);
}

TEST(CycleTiming, Fu1ToFu2GoesThroughWriteback) {
  // Cross-FU among FU1-3 waits for Trap/WB: +2 cycles.
  EXPECT_EQ(extra_cycles("nop | add g6, g3, g4\nnop | nop | add g7, g6, g5\n",
                         "nop | add g6, g3, g4\nnop | nop | add g7, g3, g5\n"),
            2);
}

TEST(CycleTiming, BypassAblationSlowsCrossFuForwarding) {
  TimingConfig no_bypass = ideal_config();
  no_bypass.full_bypass = false;
  const char* src = R"(
    setlo g3, 3
    add g6, g3, g3
    nop | add g7, g6, g6
    halt
  )";
  const Cycle with = run_cycles(src);
  const Cycle without = run_cycles(src, no_bypass);
  EXPECT_GT(without, with);
}

TEST(CycleTiming, MispredictCostsFourCycles) {
  // A single not-taken branch: gshare counters initialize weakly taken, so
  // the first encounter mispredicts and pays the refill penalty.
  const i64 d = extra_cycles("bz g3, skip\nskip: nop\n", "nop\nnop\n");
  EXPECT_EQ(d, 4);
}

TEST(CycleTiming, GshareLearnsALoop) {
  // 100-iteration loop: after warmup the backward branch predicts correctly.
  const char* src = R"(
    setlo g3, 100
    setlo g4, 0
  loop:
    add g4, g4, g3
    addi g3, g3, -1
    bnz g3, loop
    halt
  )";
  soc::Majc5200 sim(masm::assemble_or_throw(src), 1, ideal_config());
  sim.run();
  const auto& st = sim.cpu().stats();
  EXPECT_EQ(st.cond_branches, 100u);
  EXPECT_LE(st.mispredicts, 3u);
  EXPECT_EQ(sim.cpu().state().read(4), 5050u);
}

TEST(CycleTiming, StaticPredictionAblationMispredictsEveryTakenBranch) {
  TimingConfig cfg = ideal_config();
  cfg.bpred_enabled = false;
  const char* src = R"(
    setlo g3, 50
  loop:
    addi g3, g3, -1
    bnz g3, loop
    halt
  )";
  soc::Majc5200 sim(masm::assemble_or_throw(src), 1, cfg);
  sim.run();
  EXPECT_EQ(sim.cpu().stats().mispredicts, 49u);  // taken 49x, not-taken 1x
}

TEST(CycleTiming, ColdIcacheAddsFetchLatency) {
  TimingConfig cold;  // real I$, cold
  const char* src = "setlo g3, 1\nhalt\n";
  const Cycle c = run_cycles(src, cold);
  // Both packets sit in one 32-byte line: exactly one miss.
  EXPECT_GT(c, 3u);
  soc::Majc5200 sim(masm::assemble_or_throw(src), 1, cold);
  sim.run();
  EXPECT_EQ(sim.memsys().icache(0).misses(), 1u);
}

TEST(CycleTiming, DcacheMissThenHitOnSameLine) {
  TimingConfig cfg = ideal_config();
  const char* src = R"(
    setlo g3, 8192
    ldwi g4, g3, 0      # miss
    ldwi g5, g3, 4      # same line: hit
    halt
  )";
  soc::Majc5200 sim(masm::assemble_or_throw(src), 1, cfg);
  sim.run();
  EXPECT_EQ(sim.memsys().dcache().misses(), 1u);
  EXPECT_EQ(sim.memsys().dcache().hits(), 1u);
}

TEST(CycleTiming, PrefetchHidesMissLatency) {
  TimingConfig cfg = ideal_config();
  const char* body_pref = R"(
    setlo g3, 8192
    prefi g0, g3, 0
    setlo g6, 0
    setlo g7, 0
    setlo g8, 0
    setlo g9, 0
    setlo g10, 0
    setlo g11, 0
    setlo g12, 0
    setlo g13, 0
    setlo g14, 0
    setlo g15, 0
    setlo g16, 0
    setlo g17, 0
    setlo g18, 0
    setlo g19, 0
    setlo g20, 0
    setlo g21, 0
    setlo g22, 0
    setlo g23, 0
    setlo g24, 0
    setlo g25, 0
    setlo g26, 0
    setlo g27, 0
    setlo g28, 0
    setlo g29, 0
    setlo g30, 0
    setlo g31, 0
    setlo g32, 0
    setlo g33, 0
    ldwi g4, g3, 0
    add g5, g4, g4
    halt
  )";
  // Same program with prefetch disabled.
  TimingConfig no_pref = cfg;
  no_pref.prefetch_enabled = false;
  const Cycle with = run_cycles(body_pref, cfg);
  const Cycle without = run_cycles(body_pref, no_pref);
  EXPECT_LT(with, without);
}

TEST(CycleTiming, StoreToLoadForwarding) {
  TimingConfig cfg = ideal_config();
  const char* src = R"(
    setlo g3, 8192
    setlo g4, 77
    stwi g4, g3, 0      # store miss sits in the store buffer
    ldwi g5, g3, 0      # forwarded from the buffer, no wait for the fill
    add g6, g5, g5
    halt
  )";
  soc::Majc5200 sim(masm::assemble_or_throw(src), 1, cfg);
  const auto res = sim.run();
  EXPECT_TRUE(res.halted);
  EXPECT_EQ(sim.cpu().state().read(6), 154u);
  EXPECT_EQ(sim.memsys().lsu(0).counters().get("store_forwards"), 1u);
  // Forwarding means the dependent chain finishes far sooner than a DRAM
  // round trip (24-cycle latency + transfer).
  EXPECT_LT(res.cycles, 24u);
}

TEST(CycleTiming, PerfectDcacheMatchesPaperNoMemoryEffectsMode) {
  // Strided walk over 64 KB (4x the D$) with real vs perfect D$.
  const char* src = R"(
    setlo g3, 8192
    setlo g4, 2048      # iterations
    setlo g6, 0
  loop:
    ldwi g5, g3, 0
    add g6, g6, g5
    addi g3, g3, 32
    addi g4, g4, -1
    bnz g4, loop
    halt
  )";
  TimingConfig real = ideal_config();
  TimingConfig perfect = ideal_config();
  perfect.perfect_dcache = true;
  const Cycle creal = run_cycles(src, real);
  const Cycle cperf = run_cycles(src, perfect);
  EXPECT_GT(creal, cperf + 2048u);  // every access misses in the real config
}

// ---- Directed LSU microtests: exact-cycle pins of the store/load special
// paths (store-to-load forwarding, MSHR miss merging, write-combining
// stores, membar drain). These lock down the timing contract the LSU's
// incremental-watermark rework must preserve. ----

TEST(CycleTiming, ForwardedLoadDeliversOneCycleAfterIssue) {
  // A load forwarded from a live store-buffer entry has data_ready =
  // issue + 1, beating the 2-cycle D$ load-to-use: a dependent consumer in
  // the very next packet sees no bubble at all, so the dependent and
  // independent programs take exactly the same number of cycles (contrast
  // LoadToUseIsTwoCycles, where the dependence costs one).
  TimingConfig cfg = ideal_config();
  const std::string pre = "setlo g3, 8192\nsetlo g4, 77\nstwi g4, g3, 0\n";
  const Cycle dep = run_cycles(
      (pre + "ldwi g5, g3, 0\nadd g6, g5, g5\nhalt\n").c_str(), cfg);
  const Cycle indep = run_cycles(
      (pre + "ldwi g5, g3, 0\nadd g6, g4, g4\nhalt\n").c_str(), cfg);
  EXPECT_EQ(dep, indep);

  soc::Majc5200 sim(
      masm::assemble_or_throw(pre + "ldwi g5, g3, 0\nadd g6, g5, g5\nhalt\n"),
      1, cfg);
  sim.run();
  const auto c = sim.memsys().lsu(0).counters();
  EXPECT_EQ(c.get("store_forwards"), 1u);
  EXPECT_EQ(c.get("load_misses"), 0u);  // the load never touched the D$
}

TEST(CycleTiming, MissMergeAttachesSecondLoadToInFlightFill) {
  // Back-to-back loads of one uncached line: the second load finds the
  // first's fill in the MSHR and attaches to it — one miss, one merge, and
  // both loads deliver on the same fill-completion cycle, so a consumer of
  // either value finishes at exactly the same time.
  TimingConfig cfg = ideal_config();
  const std::string pre = "setlo g3, 8192\nldwi g4, g3, 0\nldwi g5, g3, 4\n";
  const Cycle dep_second =
      run_cycles((pre + "add g6, g5, g5\nhalt\n").c_str(), cfg);
  const Cycle dep_first =
      run_cycles((pre + "add g6, g4, g4\nhalt\n").c_str(), cfg);
  EXPECT_EQ(dep_second, dep_first);

  soc::Majc5200 sim(masm::assemble_or_throw(pre + "add g6, g5, g5\nhalt\n"), 1,
                    cfg);
  sim.run();
  const auto c = sim.memsys().lsu(0).counters();
  EXPECT_EQ(c.get("load_misses"), 1u);
  EXPECT_EQ(c.get("mshr_merges"), 1u);
}

TEST(CycleTiming, WriteCombiningStoresRetireInOneCycle) {
  // Non-allocating (.na) stores to a missing line skip read-for-ownership:
  // the first store to a line opens a combining-buffer entry (one
  // background line write), and every store retires the next cycle — the
  // program runs exactly as fast as the same packets doing register ALU
  // work. A second line opens a second entry.
  TimingConfig cfg = ideal_config();
  const std::string pre = "setlo g3, 8192\nsetlo g5, 8224\nsetlo g4, 7\n";
  const std::string wc = pre +
                         "stw.na g4, g3, g0\nstw.na g4, g3, g0\n"
                         "stw.na g4, g3, g0\nstw.na g4, g5, g0\nhalt\n";
  const std::string alu = pre +
                          "add g6, g3, g4\nadd g6, g3, g4\n"
                          "add g6, g3, g4\nadd g6, g5, g4\nhalt\n";
  EXPECT_EQ(run_cycles(wc.c_str(), cfg), run_cycles(alu.c_str(), cfg));

  soc::Majc5200 sim(masm::assemble_or_throw(wc.c_str()), 1, cfg);
  sim.run();
  const auto c = sim.memsys().lsu(0).counters();
  EXPECT_EQ(c.get("wc_stores"), 4u);
  EXPECT_EQ(c.get("wc_lines"), 2u);
  EXPECT_EQ(c.get("store_misses"), 0u);  // no read-for-ownership fills
}

TEST(CycleTiming, MembarDrainsExactlyToOutstandingCompletion) {
  TimingConfig cfg = ideal_config();
  const std::string pre = "setlo g3, 8192\nsetlo g4, 7\n";
  const auto delta = [&](const char* body, const char* baseline) {
    const Cycle a = run_cycles((pre + body + "halt\n").c_str(), cfg);
    const Cycle b = run_cycles((pre + baseline + "halt\n").c_str(), cfg);
    return static_cast<i64>(a) - static_cast<i64>(b);
  };
  // Nothing outstanding: the membar issues immediately, costing only its
  // own packet slot (same as a nop).
  EXPECT_EQ(delta("membar\n", "nop\n"), 0);
  // A store miss leaves its fill + retire in flight; the membar stalls
  // until exactly that completion: crossbar hops out and back, the DRDRAM
  // row-activate, the 32-byte line transfers, plus the store's retire
  // cycle. Pinned against the default timing config.
  EXPECT_EQ(delta("stwi g4, g3, 0\nmembar\n", "stwi g4, g3, 0\nnop\n"), 42);
  // A write-combining store only waits for the background line write (no
  // return transfer into the D$), so its drain is cheaper.
  EXPECT_EQ(delta("stw.na g4, g3, g0\nmembar\n", "stw.na g4, g3, g0\nnop\n"),
            39);
  // Once drained, a second membar is free again.
  EXPECT_EQ(delta("stwi g4, g3, 0\nmembar\nmembar\n",
                  "stwi g4, g3, 0\nmembar\nnop\n"),
            0);

  soc::Majc5200 sim(
      masm::assemble_or_throw(pre + "stwi g4, g3, 0\nmembar\nhalt\n"), 1, cfg);
  sim.run();
  EXPECT_EQ(sim.memsys().lsu(0).counters().get("membars"), 1u);
}

TEST(CycleTiming, CycleAndFunctionalSimsAgreeOnResults) {
  const char* src = R"(
    setlo g3, 20
    setlo g4, 1
  loop:
    nop | mul g4, g4, g3 | nop
    addi g3, g3, -4
    bnz g3, loop
    halt
  )";
  sim::FunctionalSim fsim(masm::assemble_or_throw(src));
  fsim.run();
  soc::Majc5200 csim(masm::assemble_or_throw(src), 1);
  csim.run();
  for (u32 r = 0; r < isa::kNumRegs; ++r) {
    EXPECT_EQ(fsim.state().regs[r], csim.cpu().state().regs[r]) << "reg " << r;
  }
}

} // namespace
} // namespace majc
