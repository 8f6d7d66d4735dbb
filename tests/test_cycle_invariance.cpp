// Guest-visible cycle counts must not move when the host-side fast path
// changes. The golden values below were captured from the pre-predecode
// model (PR 1 tree) with the default TimingConfig; the predecode layer,
// flat stall counters and cached-now bookkeeping are host-only
// optimisations, so every kernel must reproduce them bit-identically.
//
// The arch_digest pins (memory + registers + pc at the end of the run)
// guard the architectural outcome the same way: a machine-structure
// refactor must leave them untouched.
//
// If a future PR changes the *timing model* on purpose, re-capture these
// numbers and say so in the commit; an unexplained diff here is a bug.
#include <gtest/gtest.h>

#include "src/kernels/biquad.h"
#include "src/kernels/bitrev.h"
#include "src/kernels/cfir.h"
#include "src/kernels/color_convert.h"
#include "src/kernels/convolve.h"
#include "src/kernels/dct_quant.h"
#include "src/kernels/fft.h"
#include "src/kernels/fir.h"
#include "src/kernels/idct.h"
#include "src/kernels/kernel.h"
#include "src/kernels/lms.h"
#include "src/kernels/max_search.h"
#include "src/kernels/mb_decode.h"
#include "src/kernels/motion_est.h"
#include "src/kernels/table12.h"
#include "src/kernels/vld.h"
#include "src/masm/assembler.h"
#include "src/soc/chip.h"
#include "src/support/checkpoint.h"

namespace majc {
namespace {

struct Golden {
  const char* name;
  Cycle kernel_cycles;
  Cycle total_cycles;
  u64 arch_digest = 0;  // compared by check() only
};

void check(const kernels::KernelSpec& spec, const Golden& g) {
  SCOPED_TRACE(g.name);
  const kernels::KernelRun r = kernels::run_kernel(spec);
  ASSERT_TRUE(r.valid) << r.message;
  EXPECT_EQ(r.kernel_cycles, g.kernel_cycles);
  EXPECT_EQ(r.total_cycles, g.total_cycles);
  EXPECT_EQ(r.arch_digest, g.arch_digest);
}

TEST(CycleInvariance, Table1DspKernels) {
  check(kernels::make_biquad_spec(),
        {"biquad", 51u, 914u, 0x6a1d6239e95b213eull});
  check(kernels::make_fir_spec(), {"fir", 1899u, 5495u, 0x5b5dcef162b9a264ull});
  check(kernels::make_iir_spec(), {"iir", 1873u, 5272u, 0x885ac06d93a987e1ull});
  check(kernels::make_cfir_spec(),
        {"cfir", 10507u, 23744u, 0xfcf8baff8036547cull});
  check(kernels::make_lms_spec(), {"lms", 58u, 794u, 0x61b85a59c4bec2c8ull});
  check(kernels::make_max_search_spec(),
        {"max_search", 140u, 1417u, 0x3bee72e26e04242cull});
  check(kernels::make_bitrev_spec(),
        {"bitrev", 3069u, 10909u, 0xec56a8c626eab016ull});
  check(kernels::make_fft_radix2_spec(),
        {"fft_radix2", 76180u, 76282u, 0x3cacd389b1aac8d1ull});
  check(kernels::make_fft_radix4_spec(),
        {"fft_radix4", 58494u, 58574u, 0xdedcf5eb7534fe6aull});
}

TEST(CycleInvariance, Table2VideoKernels) {
  check(kernels::make_idct_spec(),
        {"idct", 317u, 5115u, 0xb0399190dc7a3abaull});
  check(kernels::make_dct_quant_spec(),
        {"dct_quant", 365u, 5809u, 0x1e338c651559f984ull});
  check(kernels::make_vld_spec(),
        {"vld", 12480u, 12583u, 0x90ae4c178a9ef2c2ull});
  check(kernels::make_motion_est_spec(),
        {"motion_est", 4143u, 15474u, 0x8e0cea3396ea7520ull});
  check(kernels::make_mb_decode_spec(),
        {"mb_decode", 11794u, 12391u, 0x95da3883225843efull});
}

TEST(CycleInvariance, StreamingKernels) {
  check(kernels::make_convolve_spec(),
        {"convolve", 1908265u, 1908456u, 0xe5ca617a929501d6ull});
  check(kernels::make_color_convert_spec(),
        {"color_convert", 1602678u, 1603332u, 0x02e4eb2217fd4942ull});
}

// ---- Degraded configurations. The hot-path machinery (cache hints,
// fetch memos, incremental LSU watermarks) must stay bit-identical when
// ways are disabled (hints can dangle into dead ways) and when fault
// injection perturbs fills and crossbar transfers mid-stream. ----

void check_cfg(const kernels::KernelSpec& spec, const TimingConfig& cfg,
               const Golden& g) {
  SCOPED_TRACE(g.name);
  const kernels::KernelRun r = kernels::run_kernel(spec, cfg);
  ASSERT_TRUE(r.valid) << r.message;
  EXPECT_EQ(r.kernel_cycles, g.kernel_cycles);
  EXPECT_EQ(r.total_cycles, g.total_cycles);
}

TEST(CycleInvariance, WayDisabledCaches) {
  TimingConfig cfg;
  cfg.dcache_disabled_ways = 2;
  cfg.icache_disabled_ways = 1;
  check_cfg(kernels::make_fir_spec(), cfg, {"fir", 1899u, 5495u});
  check_cfg(kernels::make_idct_spec(), cfg, {"idct", 317u, 5115u});
  check_cfg(kernels::make_mb_decode_spec(), cfg, {"mb_decode", 11794u, 12391u});
  check_cfg(kernels::make_motion_est_spec(), cfg,
            {"motion_est", 4143u, 15474u});
}

TEST(CycleInvariance, FaultInjectionConfigs) {
  TimingConfig faulty;
  faulty.faults.seed = 77;
  faulty.faults.dram_correctable_rate = 1.0 / 4096;
  faulty.faults.fill_parity_rate = 1.0 / 512;
  faulty.faults.xbar_delay_rate = 1.0 / 256;
  check_cfg(kernels::make_fir_spec(), faulty, {"fir", 1899u, 5495u});
  check_cfg(kernels::make_idct_spec(), faulty, {"idct", 317u, 5115u});
  check_cfg(kernels::make_mb_decode_spec(), faulty,
            {"mb_decode", 11794u, 12391u});
  check_cfg(kernels::make_motion_est_spec(), faulty,
            {"motion_est", 4143u, 15504u});

  TimingConfig both = faulty;
  both.dcache_disabled_ways = 2;
  both.icache_disabled_ways = 1;
  check_cfg(kernels::make_mb_decode_spec(), both,
            {"mb_decode", 11794u, 12391u});
  check_cfg(kernels::make_motion_est_spec(), both,
            {"motion_est", 4143u, 15504u});
}

// ---- Watchdog. The chip's run loop tracks cross-CPU progress
// incrementally; the exact cycle at which a no-progress spin trips the
// watchdog is guest-visible and must not drift when the recompute is
// restructured. ----

constexpr const char* kSpinProgram = R"(
    .data
  flag: .space 4
    .code
    sethi g3, %hi(flag)
    orlo g3, %lo(flag)
    setlo g4, 1
    stwi g4, g3, 0
  spin:
    ldwi g5, g3, 0
    bnz g5, spin
    halt
)";

TEST(CycleInvariance, WatchdogFiresAtPinnedCycle) {
  TimingConfig cfg;
  cfg.watchdog_cycles = 5000;
  soc::Majc5200 sim(masm::assemble_or_throw(kSpinProgram), 1, cfg);
  const auto res = sim.run();
  EXPECT_EQ(res.reason, TerminationReason::kWatchdog);
  EXPECT_EQ(res.cycles, 5047u);
  EXPECT_EQ(res.packets, 3352u);
}

TEST(CycleInvariance, ChipWatchdogFiresAtPinnedCycle) {
  TimingConfig cfg;
  cfg.watchdog_cycles = 5000;
  soc::Majc5200 chip(masm::assemble_or_throw(kSpinProgram), 2, cfg);
  const auto res = chip.run();
  EXPECT_EQ(res.reason, TerminationReason::kWatchdog);
  EXPECT_EQ(res.cycles, 5066u);
  EXPECT_EQ(chip.cpu(0).stats().packets, 3370u);
  EXPECT_EQ(chip.cpu(1).stats().packets, 3336u);
}

TEST(CycleInvariance, DualCpuChipGolden) {
  // Both CPUs run to completion through the shared D$ and crossbar; the
  // chip's earliest-CPU batch stepping must interleave them exactly as the
  // original lockstep loop did.
  constexpr const char* kDual = R"(
      .data
    out: .space 8
      .code
      getcpu g3
      sethi g4, %hi(out)
      orlo g4, %lo(out)
      slli g5, g3, 2
      setlo g6, 100
      setlo g7, 0
    lp:
      add g7, g7, g6
      addi g6, g6, -1
      bnz g6, lp
      stw g7, g4, g5
      membar
      halt
  )";
  soc::Majc5200 chip(masm::assemble_or_throw(kDual), 2);
  const auto res = chip.run();
  EXPECT_EQ(res.reason, TerminationReason::kHalted);
  EXPECT_TRUE(res.halted);
  EXPECT_EQ(res.cycles, 429u);
  EXPECT_EQ(chip.cpu(0).stats().packets, 309u);
  EXPECT_EQ(chip.cpu(1).stats().packets, 309u);
  EXPECT_EQ(ckpt::arch_digest(chip), 0x95eb9091437068deull);
}

// ---- Fast path vs general path. Installing a trace observer forces the
// general (traced) step loop; every guest-visible artifact — cycles,
// packets, registers, cache and LSU statistics — must match the untraced
// fast path bit for bit. ----

TEST(CycleInvariance, TracedPathMatchesFastPath) {
  // run_steps() runs an untraced one-thread CPU on the specialized step
  // body and a traced one on the general body. On every Table 1/2 kernel
  // the two must leave the same machine: results, registers, cache
  // counters, and the checkpoint bytes that cover cache tags, LSU buffers,
  // the predictor and the CPU statistics.
  for (const kernels::NamedKernel& nk : kernels::table12_kernels()) {
    SCOPED_TRACE(nk.name);
    const kernels::CompiledKernel k =
        kernels::compile_kernel(kernels::table12_spec(nk));

    soc::Majc5200 fast(k.program, 1);
    kernels::setup_kernel(fast, k.spec);
    const auto rf = fast.run();

    soc::Majc5200 traced(k.program, 1);
    kernels::setup_kernel(traced, k.spec);
    u64 events = 0;
    traced.cpu().set_trace([&events](const cpu::TraceEvent&) { ++events; });
    const auto rt = traced.run();

    EXPECT_GT(events, 0u);
    EXPECT_EQ(rf.cycles, rt.cycles);
    EXPECT_EQ(rf.packets, rt.packets);
    EXPECT_EQ(rf.instrs, rt.instrs);
    EXPECT_EQ(rf.reason, rt.reason);
    for (u32 r = 0; r < isa::kNumRegs; ++r) {
      EXPECT_EQ(fast.cpu().state().regs[r], traced.cpu().state().regs[r])
          << "reg " << r;
    }
    EXPECT_EQ(fast.memsys().dcache().hits(), traced.memsys().dcache().hits());
    EXPECT_EQ(fast.memsys().dcache().misses(),
              traced.memsys().dcache().misses());
    EXPECT_EQ(fast.memsys().icache(0).hits(),
              traced.memsys().icache(0).hits());
    EXPECT_EQ(fast.memsys().icache(0).misses(),
              traced.memsys().icache(0).misses());
    EXPECT_EQ(ckpt::save_checkpoint(fast), ckpt::save_checkpoint(traced));
  }
}

} // namespace
} // namespace majc
