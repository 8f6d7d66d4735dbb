// Headline peak rates (paper §1/§6): 6.16 GFLOPS and 12.32 GOPS at 500 MHz
// across both CPUs, measured by running saturating burst kernels on the
// dual-CPU chip model.
#include "bench/bench_util.h"
#include "src/kernels/peak.h"
#include "src/soc/chip.h"

using namespace majc;
using namespace majc::bench;

namespace {

/// Run the burst on both CPUs of the chip; returns aggregate ops/second.
double dual_cpu_rate(const kernels::PeakSpec& spec, double per_iter) {
  soc::Majc5200 chip(masm::assemble_or_throw(spec.kernel.source), 2);
  const auto res = chip.run();
  require(res.halted, "peak kernel did not halt");
  double rate = 0;
  for (u32 c = 0; c < 2; ++c) {
    const Addr ticks = chip.program().image().symbol("ticks");
    // Both CPUs share the image; per-CPU cycles come from their own clocks.
    (void)ticks;
    const Cycle cycles = chip.cpu(c).now();
    rate += per_iter * spec.iterations / static_cast<double>(cycles) * kClockHz;
  }
  return rate;
}

} // namespace

int main(int argc, char** argv) {
  Table table("Headline peak rates (dual-CPU MAJC-5200 at 500 MHz)", argc, argv);

  const auto fp = kernels::make_fp_peak_spec();
  const double gflops =
      dual_cpu_rate(fp, fp.flops_per_iteration) / 1e9;
  table.row("single-precision FP peak", "6.16 GFLOPS", fmt("%.2f GFLOPS", gflops));

  const auto simd = kernels::make_simd_peak_spec();
  const double gops =
      dual_cpu_rate(simd, simd.ops16_per_iteration) / 1e9;
  table.row("16-bit SIMD peak", "12.32 GOPS", fmt("%.2f GOPS", gops));

  std::printf(
      "\n(per-CPU: 3 FMA pipes x 2 flops + FU0 rsqrt/6 = 6.17 flops/cycle;\n"
      " 3 SIMD MAC pipes x 4 ops + FU0 pdiv x 2/6 = 12.33 ops/cycle)\n");
  return 0;
}
