// The gshare branch predictor: the paper's Fig. 2 geometry (4096 entries,
// 12 history bits), counter training and saturation, index aliasing, the
// static not-taken ablation, and the mispredict penalty as charged by the
// cycle model.
#include <gtest/gtest.h>

#include "src/cpu/branch_predictor.h"
#include "src/masm/assembler.h"
#include "src/soc/chip.h"
#include "src/support/error.h"

namespace majc {
namespace {

TimingConfig with_history(u32 entries, u32 history_bits) {
  TimingConfig cfg;
  cfg.bpred_entries = entries;
  cfg.bpred_history_bits = history_bits;
  return cfg;
}

TEST(BranchPredictor, DefaultGeometryIsThePapers) {
  const TimingConfig cfg;
  EXPECT_EQ(cfg.bpred_entries, 4096u);
  EXPECT_EQ(cfg.bpred_history_bits, 12u);
  EXPECT_TRUE(cfg.bpred_enabled);
}

TEST(BranchPredictor, CountersStartWeaklyTakenAndTrainToNotTaken) {
  cpu::BranchPredictor bp{TimingConfig{}};
  const Addr pc = 0x1000;
  // 2-bit counters initialize to 2 (weakly taken).
  EXPECT_TRUE(bp.predict(pc));
  // One not-taken outcome drops the counter to 1 -> predict not-taken.
  bp.update(pc, false);
  EXPECT_FALSE(bp.predict(pc));
  bp.update(pc, false);
  EXPECT_FALSE(bp.predict(pc));
}

TEST(BranchPredictor, SaturationAbsorbsOneContraryOutcome) {
  // history_bits = 0 pins the index so training and probing hit one counter.
  cpu::BranchPredictor bp{with_history(4096, 0)};
  const Addr pc = 0x2000;
  for (int i = 0; i < 8; ++i) bp.update(pc, true);  // saturate at 3
  bp.update(pc, false);                             // 3 -> 2: still taken
  EXPECT_TRUE(bp.predict(pc));
  bp.update(pc, false);                             // 2 -> 1: flips
  EXPECT_FALSE(bp.predict(pc));
}

TEST(BranchPredictor, HistoryDisambiguatesAnAlternatingPattern) {
  // A single branch alternating T/N defeats a history-less counter (it
  // hovers between 1 and 2) but is fully predictable through the global
  // history register: after warmup every prediction is correct.
  cpu::BranchPredictor bp{TimingConfig{}};
  const Addr pc = 0x3000;
  bool taken = false;
  for (int i = 0; i < 64; ++i, taken = !taken) bp.update(pc, taken);
  bp.reset_stats();
  for (int i = 0; i < 64; ++i, taken = !taken) {
    bp.predict(pc);
    bp.update(pc, taken);
  }
  EXPECT_EQ(bp.accuracy(), 1.0);
}

TEST(BranchPredictor, TableIndexAliasesAtTheEntryCount) {
  // With zero history bits the index is (pc >> 2) mod entries, so branches
  // entries*4 bytes apart share (and fight over) one counter.
  constexpr u32 kEntries = 64;
  cpu::BranchPredictor bp{with_history(kEntries, 0)};
  const Addr pc = 0x1000;
  const Addr alias = pc + kEntries * 4;
  const Addr non_alias = pc + kEntries * 2;
  for (int i = 0; i < 4; ++i) bp.update(pc, false);
  EXPECT_FALSE(bp.predict(alias));     // same counter, trained not-taken
  EXPECT_TRUE(bp.predict(non_alias));  // different counter, untouched
}

TEST(BranchPredictor, StaticModePredictsNotTakenAndNeverTrains) {
  TimingConfig cfg;
  cfg.bpred_enabled = false;
  cpu::BranchPredictor bp{cfg};
  const Addr pc = 0x4000;
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(bp.predict(pc));
    bp.update(pc, true);  // taken outcomes must not teach the static mode
  }
  EXPECT_FALSE(bp.predict(pc));
  // Every lookup was wrong: static not-taken vs always-taken stream.
  EXPECT_EQ(bp.correct(), 0u);
}

TEST(BranchPredictor, EntryCountMustBePowerOfTwo) {
  EXPECT_THROW(cpu::BranchPredictor{with_history(1000, 12)}, Error);
  EXPECT_NO_THROW(cpu::BranchPredictor{with_history(1024, 12)});
}

// ---- timing: the penalty the cycle model charges ----

namespace timing {

/// A 200-iteration countdown loop: the backward branch is taken 199 times
/// and falls through once. Perfect I$ isolates the branch effect.
const char* kBiasedLoop = R"(
  setlo g3, 200
lp:
  addi g3, g3, -1
  bnz g3, lp
  halt
)";

soc::Majc5200::Result run(bool bpred_on, cpu::CpuStats& stats_out) {
  TimingConfig cfg;
  cfg.perfect_icache = true;
  cfg.bpred_enabled = bpred_on;
  soc::Majc5200 sim(masm::assemble_or_throw(kBiasedLoop), 1, cfg);
  const auto res = sim.run();
  stats_out = sim.cpu().stats();
  return res;
}

TEST(BranchPredictorTiming, BranchPenaltyStallEqualsMispredictsTimesPenalty) {
  const TimingConfig cfg;
  cpu::CpuStats on, off;
  const auto res_on = run(true, on);
  const auto res_off = run(false, off);
  ASSERT_TRUE(res_on.halted);
  ASSERT_TRUE(res_off.halted);

  // The attribution identity, on both configurations: every branch-penalty
  // stall cycle comes from a mispredict (no jumps in this program).
  EXPECT_EQ(on.stalls.get(cpu::StallCause::kBranchPenalty),
            on.mispredicts * cfg.mispredict_penalty);
  EXPECT_EQ(off.stalls.get(cpu::StallCause::kBranchPenalty),
            off.mispredicts * cfg.mispredict_penalty);
  EXPECT_EQ(on.jumps, 0u);

  // Static not-taken mispredicts every taken iteration (199); gshare trains
  // within a few iterations.
  EXPECT_EQ(off.mispredicts, 199u);
  EXPECT_LT(on.mispredicts, 8u);

  // Identical instruction streams, so the whole cycle difference is the
  // extra mispredict penalties.
  EXPECT_EQ(res_off.cycles - res_on.cycles,
            (off.mispredicts - on.mispredicts) * cfg.mispredict_penalty);
}

TEST(BranchPredictorTiming, PredictorAccuracyIsVisibleThroughTheCpu) {
  cpu::CpuStats stats;
  TimingConfig cfg;
  cfg.perfect_icache = true;
  soc::Majc5200 sim(masm::assemble_or_throw(timing::kBiasedLoop), 1, cfg);
  ASSERT_TRUE(sim.run().halted);
  // 200 conditional executions, 199 taken.
  EXPECT_EQ(sim.cpu().stats().cond_branches, 200u);
  EXPECT_EQ(sim.cpu().stats().taken_branches, 199u);
  EXPECT_GT(sim.cpu().predictor().accuracy(), 0.95);
}

} // namespace timing

} // namespace
} // namespace majc
