#include "src/cpu/report.h"

#include <cstdio>
#include <sstream>

#include "src/soc/chip.h"

namespace majc::cpu {
namespace {

void line(std::ostringstream& os, const char* label, double value,
          const char* unit) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "  %-28s %12.2f %s\n", label, value, unit);
  os << buf;
}

void cpu_report(std::ostringstream& os, CycleCpu& cpu, mem::MemorySystem& ms,
                const std::string& title, u32 id) {
  const CpuStats& st = cpu.stats();
  const auto cycles = static_cast<double>(cpu.now());
  const auto packets = static_cast<double>(st.packets);
  os << "=== MAJC " << title << " performance report ===\n";
  line(os, "cycles", cycles, "");
  line(os, "packets", packets, "");
  line(os, "instructions", static_cast<double>(st.instrs), "");
  if (cycles > 0) {
    line(os, "IPC", static_cast<double>(st.instrs) / cycles, "instr/cycle");
    line(os, "packet rate", packets / cycles, "packets/cycle");
  }

  os << "CPI stack (cycles per packet):\n";
  if (packets > 0) {
    line(os, "  issue", 1.0, "");
    const CounterSet stall_set = st.stalls.aggregate();
    for (const auto& [cause, stall] : stall_set.all()) {
      line(os, ("  " + cause).c_str(),
           static_cast<double>(stall) / packets, "");
    }
  }

  os << "issue width histogram:\n";
  for (u32 w = 1; w <= 4; ++w) {
    line(os, ("  " + std::to_string(w) + "-wide").c_str(),
         static_cast<double>(st.width_hist.bucket(w)), "packets");
  }
  line(os, "  mean width", st.width_hist.mean(), "");

  os << "memory and prediction:\n";
  line(os, "  I$ hit rate", 100.0 * ms.icache(id).hit_rate(), "%");
  line(os, "  D$ hit rate", 100.0 * ms.dcache().hit_rate(), "%");
  line(os, "  branch accuracy", 100.0 * cpu.predictor().accuracy(), "%");
  line(os, "  DRDRAM busy", static_cast<double>(ms.dram().busy_cycles()),
       "cycles");
  if (st.thread_switches > 0) {
    line(os, "  context switches", static_cast<double>(st.thread_switches),
         "");
  }
}

} // namespace

std::string performance_report(soc::Majc5200& m) {
  std::ostringstream os;
  for (u32 c = 0; c < m.num_cpus(); ++c) {
    cpu_report(os, m.cpu(c), m.memsys(),
               m.num_cpus() == 1 ? "CPU" : "cpu" + std::to_string(c), c);
  }
  return os.str();
}

} // namespace majc::cpu
