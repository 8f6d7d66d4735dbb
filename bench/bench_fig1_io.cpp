// Reproduces Figure 1's interface bandwidth claims: DRDRAM 1.6 GB/s, PCI
// 264 MB/s, North/South UPA 2.0 GB/s each, aggregate I/O > 4.8 GB/s, all
// meeting at the central crossbar with the DTE moving data among them.
#include "bench/bench_util.h"
#include "src/masm/assembler.h"
#include "src/soc/chip.h"

using namespace majc;
using namespace majc::bench;

namespace {

double gb_per_s(u64 bytes, Cycle cycles) {
  return static_cast<double>(bytes) / static_cast<double>(cycles) * kClockHz /
         1e9;
}

} // namespace

int main(int argc, char** argv) {
  Table table("Figure 1: interface peak bandwidths through the crossbar", argc, argv);
  constexpr u32 kBytes = 4u << 20;

  {
    soc::Majc5200 chip(masm::assemble_or_throw("halt\n"), 2);
    // DRDRAM channel: saturate with a DTE memory-to-memory copy (reads and
    // writes share the channel, so the copy rate is half the channel rate).
    // Source and destination sit in different banks so row accesses overlap.
    const Cycle done = chip.dte().submit({0x200000, 0x600800, kBytes}, 0);
    table.row("DRDRAM channel (DTE copy r+w)", "1.6 GB/s",
        fmt("%.2f GB/s", gb_per_s(2ull * kBytes, done)));
  }
  {
    soc::Majc5200 chip(masm::assemble_or_throw("halt\n"), 2);
    const Cycle done = chip.pci().stream(kBytes, true, 0);
    table.row("PCI (32-bit / 66 MHz)", "264 MB/s",
        fmt("%.0f MB/s", 1000.0 * gb_per_s(kBytes, done)));
  }
  {
    soc::Majc5200 chip(masm::assemble_or_throw("halt\n"), 2);
    // UPA line rate, measured against the FIFO path (no DRAM behind it).
    const Cycle done = chip.nupa().push_fifo(std::vector<u8>(4096), 0);
    table.row("North UPA line rate (FIFO fill)", "2.0 GB/s",
        fmt("%.2f GB/s", gb_per_s(4096, done)));
  }
  {
    soc::Majc5200 chip(masm::assemble_or_throw("halt\n"), 2);
    const Cycle done = chip.supa().stream(kBytes, false, 0);
    table.row("South UPA -> memory stream", "bounded by DRDRAM",
        fmt("%.2f GB/s", gb_per_s(kBytes, done)));
  }
  {
    // Aggregate I/O: the paper's ">4.8 GB/s" sums the interface peaks
    // (1.6 DRDRAM + 0.264 PCI + 2 x 2.0 UPA). Sum our measured rates the
    // same way, with each interface driven at its own saturation point.
    soc::Majc5200 chip(masm::assemble_or_throw("halt\n"), 2);
    const Cycle dte_done = chip.dte().submit({0x200000, 0x600800, kBytes}, 0);
    const double dram = gb_per_s(2ull * kBytes, dte_done);
    soc::Majc5200 c2(masm::assemble_or_throw("halt\n"), 2);
    const double pci = gb_per_s(kBytes, c2.pci().stream(kBytes, true, 0));
    const double nupa =
        gb_per_s(4096, c2.nupa().push_fifo(std::vector<u8>(4096), 0));
    const double supa = c2.memsys().config().upa_bytes_per_cycle * kClockHz /
                        1e9;  // line rate (memory-bound streams measured above)
    table.row("aggregate I/O (sum of interfaces)", "> 4.8 GB/s",
        fmt("%.2f GB/s", dram + pci + nupa + supa));
  }

  std::printf("\nSoC inventory (Fig. 1 blocks modelled): 2x MAJC CPU, shared\n"
              "dual-ported D$, per-CPU I$, memory controller + DRDRAM, PCI,\n"
              "North UPA (4 KB input FIFO) + South UPA, graphics preprocessor,\n"
              "data transfer engine, central crossbar.\n");
  return 0;
}
