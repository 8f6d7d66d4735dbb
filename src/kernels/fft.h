// 1024-point complex single-precision FFTs (Table 2, rows 7-8).
//
// Radix-2: 10 stages x 512 butterflies, decimation-in-time, input in
// bit-reversed order, twiddles hoisted per (stage, j) and the group loop
// unrolled by two so two butterflies' FP chains interleave across FU1-3
// while FU0 streams pair loads/stores.
//
// Radix-4: 5 stages x 256 dragonflies, input in digit-4-reversed order.
// Each dragonfly needs ~26 registers of live complex state — the kernel the
// paper cites as enabled by MAJC's large register file ("unlike traditional
// DSPs that have smaller register files, MAJC-5200 is capable of using the
// compute efficient Radix-4 FFT algorithms").
//
// Validation compares against a double-precision reference spectrum with a
// tolerance scaled to FP32 accumulation error. Each spec computes that
// spectrum and tolerance once, when it is built (an O(N log N) transform),
// and its validate closure holds them, so validating a job only compares
// the 1024 bins.
#pragma once

#include <complex>
#include <vector>

#include "src/kernels/kernel.h"

namespace majc::kernels {

inline constexpr u32 kFftN = 1024;

KernelSpec make_fft_radix2_spec(u64 seed = 1);
KernelSpec make_fft_radix4_spec(u64 seed = 1);

/// Reference DFT of `x` in double precision, computed by an O(N log N)
/// radix-2 FFT that shares no permutation or twiddle code with the guest
/// kernels. `x.size()` must be a power of two (else std::invalid_argument).
/// tests/test_kernel_references.cpp pins it to the O(N^2) definition.
std::vector<std::complex<double>> reference_dft(
    const std::vector<std::complex<float>>& x);

/// Bit-reversal (radix-2) and digit-4-reversal permutation indices.
u32 bit_reverse10(u32 i);
u32 digit4_reverse5(u32 i);

} // namespace majc::kernels
