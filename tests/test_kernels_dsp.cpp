// Correctness + sanity-of-timing tests for the Table 2 DSP kernels.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "src/kernels/biquad.h"
#include "src/kernels/bitrev.h"
#include "src/kernels/cfir.h"
#include "src/kernels/fft.h"
#include "src/kernels/fir.h"
#include "src/kernels/lms.h"
#include "src/kernels/max_search.h"
#include "src/sim/functional_sim.h"

namespace majc {
namespace {

using kernels::run_kernel;
using kernels::run_kernel_functional;

class FirSeeds : public ::testing::TestWithParam<u64> {};

TEST_P(FirSeeds, MatchesGoldenBitExactly) {
  const auto spec = kernels::make_fir_spec(GetParam());
  const auto run = run_kernel_functional(spec);
  EXPECT_TRUE(run.halted);
  EXPECT_TRUE(run.valid) << run.message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FirSeeds, ::testing::Values(1u, 2u, 42u, 77u));

TEST(Fir, CycleCountInPaperBallpark) {
  const auto run = run_kernel(kernels::make_fir_spec(1));
  EXPECT_TRUE(run.valid) << run.message;
  // Paper: 2757 cycles. Same order of magnitude is the reproduction target;
  // the exact number depends on scheduling (EXPERIMENTS.md records ours).
  EXPECT_GT(run.kernel_cycles, 1000u);
  EXPECT_LT(run.kernel_cycles, 6000u);
}

TEST(Fir, PerfectDcacheIsNotSlower) {
  TimingConfig perfect;
  perfect.perfect_dcache = true;
  perfect.perfect_icache = true;
  const auto fast = run_kernel(kernels::make_fir_spec(1), perfect);
  const auto real = run_kernel(kernels::make_fir_spec(1));
  EXPECT_TRUE(fast.valid);
  EXPECT_LE(fast.kernel_cycles, real.kernel_cycles);
}


class BiquadSeeds : public ::testing::TestWithParam<u64> {};

TEST_P(BiquadSeeds, SingleSampleMatchesGolden) {
  const auto run = run_kernel_functional(kernels::make_biquad_spec(GetParam()));
  EXPECT_TRUE(run.valid) << run.message;
}

TEST_P(BiquadSeeds, Iir64SamplesMatchesGolden) {
  const auto run = run_kernel_functional(kernels::make_iir_spec(GetParam()));
  EXPECT_TRUE(run.valid) << run.message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BiquadSeeds, ::testing::Values(1u, 5u, 99u));

TEST(Biquad, CascadeLatencyNearPaper) {
  const auto run = run_kernel(kernels::make_biquad_spec(1));
  EXPECT_TRUE(run.valid) << run.message;
  // Paper: 63 cycles for one sample through eight sections.
  EXPECT_GT(run.kernel_cycles, 30u);
  EXPECT_LT(run.kernel_cycles, 130u);
}

TEST(Iir, PerSampleCostNearPaper) {
  const auto run = run_kernel(kernels::make_iir_spec(1));
  EXPECT_TRUE(run.valid) << run.message;
  // Paper: 2021 cycles for 64 samples (31.6 / sample).
  EXPECT_GT(run.kernel_cycles, 1200u);
  EXPECT_LT(run.kernel_cycles, 6000u);
}


TEST(Cfir, MatchesGoldenBitExactly) {
  const auto run = run_kernel_functional(kernels::make_cfir_spec(1));
  EXPECT_TRUE(run.valid) << run.message;
}

TEST(Cfir, CycleCountNearPaper) {
  const auto run = run_kernel(kernels::make_cfir_spec(1));
  EXPECT_TRUE(run.valid) << run.message;
  // Paper: 8643 cycles.
  EXPECT_GT(run.kernel_cycles, 5000u);
  EXPECT_LT(run.kernel_cycles, 16000u);
}

class LmsSeeds : public ::testing::TestWithParam<u64> {};

TEST_P(LmsSeeds, MatchesGoldenBitExactly) {
  const auto run = run_kernel_functional(kernels::make_lms_spec(GetParam()));
  EXPECT_TRUE(run.valid) << run.message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LmsSeeds, ::testing::Values(1u, 3u, 17u));

TEST(Lms, SingleSampleCostNearPaper) {
  const auto run = run_kernel(kernels::make_lms_spec(1));
  EXPECT_TRUE(run.valid) << run.message;
  // Paper: 64 cycles per adaptation step (steady state).
  EXPECT_GT(run.kernel_cycles, 30u);
  EXPECT_LT(run.kernel_cycles, 140u);
}

class MaxSeeds : public ::testing::TestWithParam<u64> {};

TEST_P(MaxSeeds, MatchesGolden) {
  const auto run = run_kernel_functional(kernels::make_max_search_spec(GetParam()));
  EXPECT_TRUE(run.valid) << run.message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxSeeds,
                         ::testing::Values(1u, 2u, 3u, 4u, 50u, 123u));

TEST(MaxSearch, CycleCountNearPaper) {
  const auto run = run_kernel(kernels::make_max_search_spec(1));
  EXPECT_TRUE(run.valid) << run.message;
  // Paper: 126 cycles for 40 elements.
  EXPECT_GT(run.kernel_cycles, 80u);
  EXPECT_LT(run.kernel_cycles, 260u);
}


TEST(Fft, Radix2MatchesReferenceDft) {
  const auto run = run_kernel_functional(kernels::make_fft_radix2_spec(1));
  EXPECT_TRUE(run.valid) << run.message;
}

TEST(Fft, Radix4MatchesReferenceDft) {
  const auto run = run_kernel_functional(kernels::make_fft_radix4_spec(1));
  EXPECT_TRUE(run.valid) << run.message;
}

/// A NaN bin must fail validation: `|NaN - expect| > tol` is false, so the
/// comparison has to be written to reject it.
void expect_nan_bin_rejected(const kernels::KernelSpec& spec) {
  sim::FunctionalSim sim(masm::assemble_or_throw(spec.source));
  const auto run = kernels::run_kernel_on(sim, spec);
  ASSERT_TRUE(run.valid) << run.message;
  const masm::Image& img = sim.program().image();
  const Addr bin17 = img.symbol("xarr") + 8 * 17;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  u32 nan_bits;
  std::memcpy(&nan_bits, &nan, 4);
  for (const Addr part : {bin17, bin17 + 4}) {  // real, then imaginary
    const u32 clean = sim.memory().read_u32(part);
    sim.memory().write_u32(part, nan_bits);
    std::string msg;
    EXPECT_FALSE(spec.validate(sim.memory(), img, msg)) << spec.name;
    EXPECT_EQ(msg.rfind("X[17]", 0), 0u) << msg;
    sim.memory().write_u32(part, clean);
  }
}

TEST(Fft, Radix2RejectsNanBin) {
  expect_nan_bin_rejected(kernels::make_fft_radix2_spec(1));
}

TEST(Fft, Radix4RejectsNanBin) {
  expect_nan_bin_rejected(kernels::make_fft_radix4_spec(1));
}

TEST(Fft, Radix4BeatsRadix2AsPaperClaims) {
  const auto r2 = run_kernel(kernels::make_fft_radix2_spec(1));
  const auto r4 = run_kernel(kernels::make_fft_radix4_spec(1));
  EXPECT_TRUE(r2.valid) << r2.message;
  EXPECT_TRUE(r4.valid) << r4.message;
  // The paper's stated reason MAJC's register file matters: radix-4 is
  // the compute-efficient choice and must win.
  EXPECT_LT(r4.kernel_cycles, r2.kernel_cycles);
}

TEST(Bitrev, PermutationIsExact) {
  const auto run = run_kernel_functional(kernels::make_bitrev_spec(1));
  EXPECT_TRUE(run.valid) << run.message;
}

TEST(Bitrev, CycleCountNearPaper) {
  const auto run = run_kernel(kernels::make_bitrev_spec(1));
  EXPECT_TRUE(run.valid) << run.message;
  // Paper: 2484 cycles for the 1024-point reorder.
  EXPECT_GT(run.kernel_cycles, 1500u);
  EXPECT_LT(run.kernel_cycles, 5000u);
}

} // namespace
} // namespace majc
