#include "src/mem/memsys.h"

#include <bit>
#include <string>

#include "src/support/trap.h"

namespace majc::mem {

MemorySystem::MemorySystem(const TimingConfig& cfg)
    : cfg_(cfg),
      plan_(cfg_.faults),
      xbar_(cfg_),
      dram_(cfg_),
      dcache_({cfg_.dcache_bytes, cfg_.dcache_ways, kLineBytes, "dcache"}),
      icaches_{Cache{{cfg_.icache_bytes, cfg_.icache_ways, kLineBytes,
                      "icache0"}},
               Cache{{cfg_.icache_bytes, cfg_.icache_ways, kLineBytes,
                      "icache1"}}} {
  line_mask_ = ~Addr{kLineBytes - 1};
  line_shift_ = static_cast<u32>(std::countr_zero(kLineBytes));
  xbar_.set_fault_plan(&plan_);
  dcache_.disable_ways(cfg_.dcache_disabled_ways);
  for (auto& ic : icaches_) ic.disable_ways(cfg_.icache_disabled_ways);
  Cycle* shared_port = cfg_.dcache_dual_ported ? nullptr : &dport_free_;
  lsus_[0] = std::make_unique<Lsu>(cfg_, dcache_, dram_, xbar_, Port::kCpu0,
                                   shared_port, &plan_);
  lsus_[1] = std::make_unique<Lsu>(cfg_, dcache_, dram_, xbar_, Port::kCpu1,
                                   shared_port, &plan_);
}

Cycle MemorySystem::ifetch_lines_slow(u32 cpu, Addr first, Addr last,
                                      Cycle now) {
  Cache& ic = icaches_[cpu];
  const Port port = cpu == 0 ? Port::kCpu0 : Port::kCpu1;
  Cycle ready = now;
  for (Addr line = first; line <= last; line += kLineBytes) {
    // access() refreshes the line's memo slot on both hit and allocate, so
    // the next fetch of this line resolves inline.
    if (!ic.access(line, /*is_store=*/false, /*allocate=*/true,
                   &fetch_hint(cpu, line))
             .hit) {
      const Cycle at_mem = xbar_.transfer(port, Port::kMem, 0, now);
      const Cycle dram_done = dram_.request(line, kLineBytes, at_mem);
      Cycle fill = xbar_.transfer(Port::kMem, port, kLineBytes, dram_done);
      // Parity-bad I$ fills are refetched (timing-only fault), bounded the
      // same way as D$ fills: persistent corruption is a machine check, not
      // a watchdog-bound livelock.
      u32 attempts = 0;
      while (plan_.fill_corrupted(line, ifetch_fills_++)) {
        if (attempts++ >= cfg_.faults.max_fill_retries) {
          ++ifetch_machine_checks_;
          raise_trap(TrapCause::kMachineCheck,
                     "instruction fetch fill for line " +
                         std::to_string(line) + " failed parity " +
                         std::to_string(attempts) + " consecutive times",
                     static_cast<u32>(line));
        }
        ++ifetch_parity_retries_;
        const Cycle at2 = xbar_.transfer(port, Port::kMem, 0, fill);
        fill = xbar_.transfer(Port::kMem, port, kLineBytes,
                              dram_.request(line, kLineBytes, at2));
      }
      ready = std::max(ready, fill);
    }
  }
  return ready;
}

void MemorySystem::poison_line(Addr line) {
  dcache_.invalidate(line);
  for (auto& ic : icaches_) ic.invalidate(line);
}

void MemorySystem::reset_stats() {
  xbar_.reset_stats();
  dram_.reset_stats();
  dcache_.reset_stats();
  for (auto& ic : icaches_) ic.reset_stats();
  for (auto& l : lsus_) l->reset_stats();
}

} // namespace majc::mem
