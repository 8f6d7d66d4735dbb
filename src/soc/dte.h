// Data Transfer Engine: the on-chip DMA engine of MAJC-5200.
//
// "An on-chip Data Transfer Engine (DTE) provides DMA capabilities amongst
// these various memory and I/O devices, with the bus interface unit acting
// as a central crossbar" (paper §3.1). The model executes descriptor-based
// copies: data moves functionally through the MemoryBus and time accrues on
// the crossbar ports and the DRDRAM channel, so DTE traffic visibly steals
// bandwidth from CPU misses in the benches.
#pragma once

#include <functional>

#include "src/mem/memsys.h"
#include "src/sim/memory.h"

namespace majc::soc {

class Dte {
public:
  /// One DMA descriptor: copy `bytes` from `src` to `dst` (both in the
  /// physical address space). `via` names the crossbar port the transfer is
  /// attributed to (kDte for plain memory-to-memory copies).
  struct Descriptor {
    Addr src = 0;
    Addr dst = 0;
    u32 bytes = 0;
    mem::Port via = mem::Port::kDte;
  };

  Dte(mem::MemorySystem& ms, sim::MemoryBus& mem) : ms_(ms), mem_(mem) {}

  /// Execute a descriptor beginning no earlier than `now`; returns the
  /// completion cycle. Cache lines covering both ranges are invalidated
  /// (dirty source lines are written back first so the copy sees fresh
  /// data).
  Cycle submit(const Descriptor& d, Cycle now);

  u64 bytes_moved() const { return bytes_moved_; }
  u64 descriptors_run() const { return descriptors_; }

  /// Install a per-descriptor observer (start/completion cycles) for the
  /// trace layer; empty function disables. Called once per submit().
  void set_observer(
      std::function<void(const Descriptor&, Cycle start, Cycle done)> fn) {
    observer_ = std::move(fn);
  }

  template <class Ar> void io(Ar& a);  // checkpoint: support/checkpoint.cpp

private:
  void flush_range(Addr base, u32 bytes, bool writeback);

  mem::MemorySystem& ms_;
  sim::MemoryBus& mem_;
  u64 bytes_moved_ = 0;
  u64 descriptors_ = 0;
  std::function<void(const Descriptor&, Cycle, Cycle)> observer_;
};

} // namespace majc::soc
