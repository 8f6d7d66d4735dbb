// Chip-wide timing configuration.
//
// Values stated by the paper are defaults here; every knob is variable so
// bench_ablation can quantify each design choice (bypass network, dual-ported
// D$, gshare prediction, non-blocking LSU, prefetch). DESIGN.md §4 records
// the provenance of each default.
#pragma once

#include "src/support/fault.h"
#include "src/support/types.h"

namespace majc {

struct TimingConfig {
  // ---- instruction supply ----
  u32 icache_bytes = 16 * 1024;  // per CPU, 2-way (paper §3.1)
  u32 icache_ways = 2;
  bool perfect_icache = false;

  // ---- data cache (shared, dual ported, 4-way, 16 KB; paper §3.1) ----
  u32 dcache_bytes = 16 * 1024;
  u32 dcache_ways = 4;
  bool dcache_dual_ported = true;   // ablation: false = 1 port, CPUs contend
  bool perfect_dcache = false;      // "without memory effects" mode (Table 3)
  u32 load_to_use = 2;              // D$ hit load-to-use (paper §3.2)

  // ---- LSU (paper §3.2) ----
  u32 load_buffers = 5;
  u32 store_buffers = 8;
  u32 mshrs = 4;                    // max outstanding cache misses
  bool nonblocking_loads = true;    // ablation: false = blocking on miss
  bool prefetch_enabled = true;

  // ---- DRDRAM main memory (paper §3.1: 1.6 GB/s peak) ----
  u32 dram_latency = 24;            // row-activate access latency (~48 ns)
  u32 dram_page_hit_latency = 4;    // column access on an open 2 KB page
  u32 dram_banks = 8;
  // 1.6 GB/s at 500 MHz = 3.2 bytes per CPU cycle on the Rambus channel.
  double dram_bytes_per_cycle = 3.2;

  // ---- crossbar / bus interface unit ----
  u32 crossbar_hop = 2;             // cycles added per transfer through the BIU

  // ---- branch prediction (paper Fig. 2: gshare, 4096 entries, 12 bits) ----
  bool bpred_enabled = true;        // ablation: false = static not-taken
  u32 bpred_entries = 4096;
  u32 bpred_history_bits = 12;
  u32 mispredict_penalty = 4;       // front-end refill: fetch/align/decode/read
  u32 jump_penalty = 4;             // indirect jmpl redirect

  // ---- vertical microthreading (MAJC §2; extension, off for the paper's
  //      single-thread tables) ----
  u32 hw_threads = 1;            // hardware contexts per CPU (1 = off)
  u32 mt_switch_threshold = 8;   // stall (cycles) that triggers a switch
  u32 mt_switch_penalty = 2;     // "rapid, low overhead context switching"

  // ---- bypass network (paper §3.2) ----
  bool full_bypass = true;          // ablation: false = all cross-FU via WB
  u32 wb_delay = 2;                 // extra cycles for cross-FU via write-back

  // ---- external ports (paper §3.1 / Fig. 1) ----
  double pci_bytes_per_cycle = 0.528;   // 264 MB/s at 500 MHz
  double upa_bytes_per_cycle = 4.0;     // 2.0 GB/s each for N/S UPA
  u32 nupa_fifo_bytes = 4 * 1024;       // NUPA input FIFO readable by CPUs

  // ---- RAS: traps, fault injection, degradation, watchdog ----
  // Raise a kDivideByZero trap instead of the default total-divide
  // semantics (div/0 = 0); off by default to match the paper-era contract.
  bool trap_div_zero = false;
  // Cycles to redirect into the trap handler when a trap is delivered to a
  // guest SETTVEC vector (front-end refill through the T stage; mirrors the
  // mispredict/jump redirect cost plus pipeline drain).
  u32 trap_entry_penalty = 6;
  // Cache ways taken out of service (a "failed" way degrades capacity
  // instead of crashing); clamped to ways - 1.
  u32 dcache_disabled_ways = 0;
  u32 icache_disabled_ways = 0;
  // Run watchdog: terminate when no CPU has made externally visible
  // progress (store, atomic, console trap, or halt) for this many cycles.
  // 0 disables. Pure-read/compute stretches longer than this are treated
  // as livelock, so keep it generous.
  u64 watchdog_cycles = 10'000'000;
  // Seeded deterministic fault injection (inert with all rates at 0).
  FaultConfig faults;
};

} // namespace majc
