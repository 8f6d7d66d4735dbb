// Validation of the golden models themselves: the fixed-point reference
// transforms must agree with straightforward double-precision math to
// quantization accuracy, so "kernel == golden" tests actually pin the
// kernels to the right function.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <stdexcept>

#include "src/kernels/convolve.h"
#include "src/kernels/dct_common.h"
#include "src/kernels/fft.h"
#include "src/kernels/idct.h"
#include "src/kernels/vld.h"
#include "src/sim/functional_sim.h"
#include "src/support/rng.h"

namespace majc {
namespace {

/// Double precision 2-D IDCT.
void idct_double(const i16* in, double* out) {
  auto c = [](int u) { return u == 0 ? 1.0 / std::sqrt(2.0) : 1.0; };
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      double acc = 0;
      for (int u = 0; u < 8; ++u) {
        for (int v = 0; v < 8; ++v) {
          acc += 0.25 * c(u) * c(v) * in[u * 8 + v] *
                 std::cos((2 * y + 1) * u * std::numbers::pi / 16.0) *
                 std::cos((2 * x + 1) * v * std::numbers::pi / 16.0);
        }
      }
      out[y * 8 + x] = acc;
    }
  }
}

class IdctAccuracy : public ::testing::TestWithParam<u64> {};

TEST_P(IdctAccuracy, FixedPointTracksDoublePrecision) {
  SplitMix64 rng(GetParam());
  i16 in[64];
  in[0] = static_cast<i16>(rng.next_range(-800, 800));
  for (int i = 1; i < 64; ++i) in[i] = static_cast<i16>(rng.next_range(-150, 150));

  i16 fixed[64];
  kernels::idct8x8_reference(in, fixed);
  double exact[64];
  idct_double(in, exact);
  for (int i = 0; i < 64; ++i) {
    // Two 11-bit-scaled passes: error stays within a few LSBs.
    EXPECT_NEAR(static_cast<double>(fixed[i]), exact[i], 3.0) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IdctAccuracy, ::testing::Values(1u, 2u, 3u, 9u));

TEST(DctMatrices, ForwardTimesInverseIsNearIdentity) {
  const auto f = kernels::fdct_matrix();
  const auto inv = kernels::idct_matrix();
  const double scale = 1 << kernels::kDctShift;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      double acc = 0;
      for (int k = 0; k < 8; ++k) {
        acc += (inv[i * 8 + k] / scale) * (f[k * 8 + j] / scale);
      }
      EXPECT_NEAR(acc, i == j ? 1.0 : 0.0, 2e-3) << i << "," << j;
    }
  }
}

TEST(ConvolveReference, MatchesDirect2dConvolution) {
  // The separable golden equals the direct 5x5 form on a small crop.
  std::vector<i16> img(kernels::kConvW * kernels::kConvH, 0);
  SplitMix64 rng(5);
  for (auto& p : img) p = static_cast<i16>(rng.next_below(256));
  std::vector<i16> out;
  kernels::convolve5x5_reference(img, out);
  for (u32 y = 0; y < 4; ++y) {
    for (u32 x = 0; x < 16; ++x) {
      i32 direct = 0;
      for (u32 r = 0; r < 5; ++r) {
        for (u32 k = 0; k < 5; ++k) {
          direct += kernels::kConvCoef[r] * kernels::kConvCoef[k] *
                    img[(y + r) * kernels::kConvW + x + k];
        }
      }
      EXPECT_EQ(out[y * kernels::kConvOutW + x], static_cast<i16>(direct));
    }
  }
}

TEST(VldReference, EncodeDecodeRoundTripsSymbols) {
  const auto syms = kernels::make_vld_symbols(33);
  const auto stream = kernels::encode_vld_stream(syms);
  // Decoding the whole stream touches each encoded (run, level) exactly;
  // verify via the final block against an independent in-place decode.
  i16 block[64];
  kernels::vld_reference(stream, kernels::kVldSymbols, block);
  i16 expect[64] = {};
  u32 idx = 63;
  for (const auto& s : syms) {
    idx = (idx + s.run + 1) & 63u;
    expect[kernels::vld_zigzag_table()[idx]] =
        static_cast<i16>(s.level * kernels::kVldQscale);
  }
  for (int i = 0; i < 64; ++i) EXPECT_EQ(block[i], expect[i]) << i;
}

/// The DFT by its definition: O(N^2), double precision. The oracle the
/// fast reference_dft must reproduce.
std::vector<std::complex<double>> direct_dft(
    const std::vector<std::complex<float>>& x) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double a = -2.0 * std::numbers::pi *
                       static_cast<double>(k * j % n) / static_cast<double>(n);
      acc += std::complex<double>(x[j].real(), x[j].imag()) *
             std::complex<double>(std::cos(a), std::sin(a));
    }
    out[k] = acc;
  }
  return out;
}

double max_magnitude(const std::vector<std::complex<double>>& v) {
  double m = 0.0;
  for (const auto& c : v) m = std::max(m, std::abs(c));
  return m;
}

void expect_reference_matches_direct(
    const std::vector<std::complex<float>>& x) {
  const auto fast = kernels::reference_dft(x);
  const auto slow = direct_dft(x);
  ASSERT_EQ(fast.size(), slow.size());
  const double bound = 1e-9 * max_magnitude(slow);
  for (std::size_t k = 0; k < x.size(); ++k) {
    ASSERT_LE(std::abs(fast[k] - slow[k]), bound) << "bin " << k;
  }
}

class FftReferenceSeeds : public ::testing::TestWithParam<u64> {};

TEST_P(FftReferenceSeeds, FastReferenceMatchesDirectDft) {
  std::vector<std::complex<float>> x(kernels::kFftN);
  SplitMix64 rng(GetParam());
  for (auto& c : x) {
    c = {static_cast<float>(rng.next_double(-1.0, 1.0)),
         static_cast<float>(rng.next_double(-1.0, 1.0))};
  }
  expect_reference_matches_direct(x);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FftReferenceSeeds,
                         ::testing::Values(1u, 1592610980u, 271828182u));

TEST(FftReference, ImpulseAndConstantMatchDirectDft) {
  std::vector<std::complex<float>> impulse(kernels::kFftN);
  impulse[3] = {1.0f, -0.5f};
  expect_reference_matches_direct(impulse);
  const std::vector<std::complex<float>> dc(kernels::kFftN, {0.25f, 0.75f});
  expect_reference_matches_direct(dc);
}

TEST(FftReference, RejectsLengthThatIsNotAPowerOfTwo) {
  EXPECT_THROW(kernels::reference_dft(std::vector<std::complex<float>>(12)),
               std::invalid_argument);
}

/// Each FFT spec's validator holds the guest to 2e-4 * max|X| on every bin:
/// after a clean run, moving one bin by half the tolerance still validates
/// and moving it by one and a half times the tolerance does not.
void check_tolerance_boundary(const kernels::KernelSpec& spec,
                              u32 (*permute)(u32)) {
  sim::FunctionalSim sim(masm::assemble_or_throw(spec.source));
  const masm::Image& img = sim.program().image();
  const Addr xa = img.symbol("xarr");
  auto read_f32 = [&](Addr a) {
    const u32 raw = sim.memory().read_u32(a);
    float f;
    std::memcpy(&f, &raw, 4);
    return f;
  };
  // The spec's input, recovered from the image's permuted data before the run.
  std::vector<std::complex<float>> x(kernels::kFftN);
  for (u32 i = 0; i < kernels::kFftN; ++i) {
    const Addr a = xa + 8 * permute(i);
    x[i] = {read_f32(a), read_f32(a + 4)};
  }
  const double tol = 2e-4 * max_magnitude(kernels::reference_dft(x));

  const kernels::KernelRun run = kernels::run_kernel_on(sim, spec);
  ASSERT_TRUE(run.valid) << run.message;
  for (const u32 k : {0u, 511u, 1023u}) {
    const Addr a = xa + 8 * k;
    const u32 clean = sim.memory().read_u32(a);
    for (const double factor : {0.5, 1.5}) {
      const float moved = static_cast<float>(read_f32(a) + factor * tol);
      u32 raw;
      std::memcpy(&raw, &moved, 4);
      sim.memory().write_u32(a, raw);
      std::string msg;
      const bool ok = spec.validate(sim.memory(), img, msg);
      sim.memory().write_u32(a, clean);
      if (factor < 1.0) {
        EXPECT_TRUE(ok) << spec.name << " bin " << k << ": " << msg;
      } else {
        EXPECT_FALSE(ok) << spec.name << " bin " << k;
        EXPECT_EQ(msg.rfind("X[" + std::to_string(k) + "]", 0), 0u) << msg;
      }
    }
  }
}

TEST(FftValidation, Radix2ToleranceBoundary) {
  check_tolerance_boundary(kernels::make_fft_radix2_spec(1),
                           kernels::bit_reverse10);
}

TEST(FftValidation, Radix4ToleranceBoundary) {
  check_tolerance_boundary(kernels::make_fft_radix4_spec(1),
                           kernels::digit4_reverse5);
}

} // namespace
} // namespace majc
