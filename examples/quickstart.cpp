// Quickstart: assemble a MAJC program from source, run it on both the
// instruction-accurate and the cycle-accurate simulators, and inspect the
// results — the smallest end-to-end tour of the library.
//
//   $ ./quickstart
#include <cstdio>

#include "src/masm/assembler.h"
#include "src/sim/functional_sim.h"
#include "src/soc/chip.h"

int main() {
  // A VLIW packet per line; slot 0 is FU0 (memory/control), slots 1-3 are
  // the compute units. This program sums 1..100 twice — once sequentially
  // on FU0 and once with two parallel partial sums on FU1/FU2 — and prints
  // both through the TRAP console.
  const char* source = R"(
    .data
  result: .space 8
    .code
    setlo g3, 100        # i
    setlo g4, 0          # serial sum
    setlo g5, 0 | setlo g6, 0   # parallel partial sums
  loop:
    add g4, g4, g3
    addi g3, g3, -2 | add g5, g5, g3 | addi g6, g6, -1
    nop | add g6, g6, g3 | nop
    addi g3, g3, 2
    addi g3, g3, -1
    bnz g3, loop
    nop | add g5, g5, g6
    trap g0, g4, 0       # print serial sum
    sethi g8, %hi(result)
    orlo g8, %lo(result)
    stwi g4, g8, 0
    halt
  )";

  majc::masm::Image image = majc::masm::assemble_or_throw(source);

  // 1. Instruction-accurate run.
  majc::sim::FunctionalSim fsim(image);
  const auto fres = fsim.run();
  std::printf("functional: %llu packets, %llu instructions, console: %s",
              static_cast<unsigned long long>(fres.packets),
              static_cast<unsigned long long>(fres.instrs),
              fsim.console().c_str());

  // 2. Cycle-accurate run on one CPU of the chip (same image, identical
  //    results by construction).
  majc::soc::Majc5200 csim(image, /*num_cpus=*/1);
  const auto cres = csim.run();
  std::printf("cycle-accurate: %llu cycles, IPC %.2f\n",
              static_cast<unsigned long long>(cres.cycles), cres.ipc());
  std::printf("branch prediction accuracy: %.1f %%\n",
              100.0 * csim.cpu().predictor().accuracy());
  std::printf("result in memory: %u\n",
              csim.memory().read_u32(image.symbol("result")));
  return 0;
}
