// Ablations of the design choices DESIGN.md calls out: the bypass network,
// gshare branch prediction, the non-blocking LSU, block prefetch, and the
// dual-ported shared D$. Each row reruns a representative kernel with the
// feature disabled.
#include "bench/bench_util.h"
#include "src/kernels/bitrev.h"
#include "src/kernels/convolve.h"
#include "src/kernels/fir.h"
#include "src/kernels/idct.h"
#include "src/kernels/vld.h"
#include "src/masm/assembler.h"
#include "src/soc/chip.h"

using namespace majc;
using namespace majc::bench;
using namespace majc::kernels;

namespace {

double cy(const KernelSpec& spec, const TimingConfig& cfg) {
  const auto r = run_kernel(spec, cfg);
  require(r.valid, spec.name + " failed: " + r.message);
  return static_cast<double>(r.kernel_cycles);
}

void ablate(Table& table, const std::string& what, const KernelSpec& spec,
            const TimingConfig& off) {
  const double base = cy(spec, TimingConfig{});
  const double cost = cy(spec, off);
  table.row(what + " (" + spec.name + ")", "feature on",
      fmt("%.2fx slower off", cost / base));
}

} // namespace

namespace {

/// The paper's "two-scalar" claim: the complete FU0<->FU1 bypass lets a
/// serial dependence chain alternate between the two units at 1 IPC.
double two_scalar_cycles(TimingConfig cfg) {
  cfg.perfect_icache = true;  // isolate the bypass effect
  std::string src = "setlo g3, 1\nsetlo g4, 1\n";
  for (int i = 0; i < 200; ++i) {
    src += (i % 2 == 0) ? "add g4, g4, g3\n"          // FU0
                        : "nop | add g4, g4, g3\n";   // FU1
  }
  src += "halt\n";
  soc::Majc5200 sim(masm::assemble_or_throw(src), 1, cfg);
  const auto res = sim.run();
  require(res.halted, "two-scalar microbench did not halt");
  return static_cast<double>(res.cycles);
}

/// Cold streaming read over 256 KB with four independent accumulator
/// streams (so overlapping misses can actually help): exposes the value of
/// non-blocking loads and of block prefetch.
double stream_cycles(const TimingConfig& cfg, bool with_prefetch) {
  std::string src = R"(
    sethi g3, 4
    orlo g3, 0
    sethi g7, 0
    orlo g7, 2048
    setlo g10, 0 | setlo g11, 0 | setlo g12, 0 | setlo g13, 0
    setlo g8, 128
  lp:
)";
  if (with_prefetch) {
    src += "  pref g0, g3, g8\n";
  }
  // Software-pipelined consumption: this iteration sums the values loaded
  // by the previous one, so the four line misses overlap when the LSU is
  // non-blocking.
  src += R"(
    ldwi g4, g3, 0
    ldwi g5, g3, 32
    ldwi g6, g3, 64
    ldwi g9, g3, 96
    nop | add g10, g10, g14 | add g11, g11, g15
    nop | add g12, g12, g16 | add g13, g13, g17
    nop | mov g14, g4 | mov g15, g5
    nop | mov g16, g6 | mov g17, g9
    addi g3, g3, 128
    addi g7, g7, -1
    bnz g7, lp
    halt
  )";
  soc::Majc5200 sim(masm::assemble_or_throw(src), 1, cfg);
  const auto res = sim.run();
  require(res.halted, "stream microbench did not halt");
  return static_cast<double>(res.cycles);
}

} // namespace

int main(int argc, char** argv) {
  Table table("Ablations: cost of disabling each MAJC-5200 design feature", argc, argv);

  {
    TimingConfig off;
    off.full_bypass = false;
    const double on_cy = two_scalar_cycles(TimingConfig{});
    const double off_cy = two_scalar_cycles(off);
    table.row("FU0<->FU1 bypass (two-scalar chain)", "feature on",
        fmt("%.2fx slower off", off_cy / on_cy));
    ablate(table, "bypass network", make_idct_spec(), off);
    ablate(table, "bypass network", make_fir_spec(), off);
  }
  {
    TimingConfig off;
    off.bpred_enabled = false;
    ablate(table, "gshare branch prediction", make_vld_spec(), off);
  }
  {
    TimingConfig on;
    TimingConfig off;
    off.nonblocking_loads = false;
    table.row("non-blocking loads (cold stream)", "feature on",
        fmt("%.2fx slower off",
            stream_cycles(off, false) / stream_cycles(on, false)));
    ablate(table, "non-blocking loads", make_bitrev_spec(), off);
  }
  {
    // Prefetch micro: a dependent single-stream walk where each line miss
    // is exposed unless a block prefetch (4 lines ahead) hides it.
    auto dep_stream = [&](bool pf) {
      std::string src = R"(
        sethi g3, 4
        orlo g3, 0
        sethi g7, 0
        orlo g7, 8192
        setlo g6, 0
        setlo g8, 128
      lp:
      )";
      if (pf) src += "  pref g0, g3, g8\n";
      src += R"(
        ldwi g4, g3, 0
        add g6, g6, g4
        addi g3, g3, 32
        addi g7, g7, -1
        bnz g7, lp
        halt
      )";
      soc::Majc5200 sim(masm::assemble_or_throw(src), 1, TimingConfig{});
      const auto res = sim.run();
      require(res.halted, "prefetch micro did not halt");
      return static_cast<double>(res.cycles);
    };
    table.row("block prefetch (cold stream)", "prefetch on",
        fmt("%.2fx faster with pref", dep_stream(false) / dep_stream(true)));
  }
  {
    // Dual-ported D$: contention only shows with both CPUs hammering it.
    const char* src = R"(
      .data
    buf: .space 8192
      .code
      sethi g3, %hi(buf)
      orlo g3, %lo(buf)
      getcpu g4
      slli g4, g4, 7
      add g3, g3, g4      # distinct 128 B regions per CPU
      setlo g5, 20000
    lp:
      ldwi g6, g3, 0
      ldwi g7, g3, 4
      stwi g6, g3, 8
      addi g5, g5, -1
      bnz g5, lp
      halt
    )";
    auto run_chip = [&](bool dual) {
      TimingConfig cfg;
      cfg.dcache_dual_ported = dual;
      soc::Majc5200 chip(masm::assemble_or_throw(src), 2, cfg);
      const auto res = chip.run();
      require(res.halted, "dual-port ablation did not halt");
      return static_cast<double>(res.cycles);
    };
    const double dual = run_chip(true);
    const double single = run_chip(false);
    table.row("dual-ported shared D$ (2-CPU loop)", "feature on",
        fmt("%.2fx slower off", single / dual));
  }
  {
    // Vertical microthreading (the MAJC feature beyond what MAJC-5200's
    // paper tables use): two contexts on one CPU hide miss latency on a
    // miss-bound walk with equal total work.
    auto walk = [&](u32 iters, u32 threads) {
      std::string src = R"(
        gettid g20
        sethi g3, 0x40
        orlo g3, 0
        slli g21, g20, 18
        slli g22, g20, 11
        add g3, g3, g21
        add g3, g3, g22
        setlo g6, 0
        sethi g7, )" + std::to_string(iters >> 16) +
                        "\norlo g7, " + std::to_string(iters & 0xFFFF) + R"(
      lp:
        ldwi g4, g3, 0
        add g6, g6, g4
        addi g3, g3, 32
        addi g7, g7, -1
        bnz g7, lp
        halt
      )";
      TimingConfig cfg;
      cfg.hw_threads = threads;
      soc::Majc5200 sim(masm::assemble_or_throw(src), 1, cfg);
      const auto res = sim.run();
      require(res.halted, "microthreading walk did not halt");
      return static_cast<double>(res.cycles);
    };
    table.row("vertical microthreading (2 ctx)", "extension",
        fmt("%.2fx faster than 1 ctx", walk(4096, 1) / walk(2048, 2)));
  }
  {
    TimingConfig perfect;
    perfect.perfect_dcache = true;
    perfect.perfect_icache = true;
    const double base = cy(make_convolve_spec(), TimingConfig{});
    const double ideal = cy(make_convolve_spec(), perfect);
    table.row("memory effects (5x5 convolution)", "paper reports both",
        fmt("%.2fx of ideal", base / ideal));
  }
  return 0;
}
