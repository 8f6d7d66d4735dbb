// Chip-level memory system: shared D$, per-CPU I$ and LSU, DRDRAM, crossbar.
//
// Both CPUs share the coherent, dual-ported 16 KB 4-way D$ (paper §3.1),
// which is what gives MAJC-5200 its "very low overhead communication between
// the two CPUs". Instruction fetch misses and data misses compete for the
// same DRDRAM channel through the crossbar, as do the DMA agents (DTE, GPP,
// UPA ports) modelled in src/soc.
#pragma once

#include <array>
#include <memory>
#include <utility>

#include "src/mem/cache.h"
#include "src/mem/crossbar.h"
#include "src/mem/dram.h"
#include "src/mem/lsu.h"
#include "src/soc/config.h"

namespace majc::mem {

inline constexpr u32 kNumCpus = 2;

class MemorySystem {
public:
  explicit MemorySystem(const TimingConfig& cfg);

  Lsu& lsu(u32 cpu) { return *lsus_[cpu]; }
  const Lsu& lsu(u32 cpu) const { return *lsus_[cpu]; }
  Cache& dcache() { return dcache_; }
  const Cache& dcache() const { return dcache_; }
  Cache& icache(u32 cpu) { return icaches_[cpu]; }
  const Cache& icache(u32 cpu) const { return icaches_[cpu]; }
  Dram& dram() { return dram_; }
  const Dram& dram() const { return dram_; }
  Crossbar& xbar() { return xbar_; }
  const Crossbar& xbar() const { return xbar_; }
  const TimingConfig& config() const { return cfg_; }
  const FaultPlan& fault_plan() const { return plan_; }
  u64 ifetch_parity_retries() const { return ifetch_parity_retries_; }
  u64 ifetch_machine_checks() const { return ifetch_machine_checks_; }

  /// Instruction fetch of `bytes` at `addr` for CPU `cpu`; returns the cycle
  /// the packet is available to the aligner. The dominant case — a packet
  /// within one line that repeats the fetch stream's last resident line —
  /// resolves inline; everything else (line-crossing packets, misses,
  /// perfect-I$ mode) takes the out-of-line path.
  Cycle ifetch(u32 cpu, Addr addr, u32 bytes, Cycle now) {
    if (cfg_.perfect_icache) return now;
    // Per-line fetch memo, checked per fetched line (packets span at most
    // two): a direct-mapped table of the stream's recent lines, so loop
    // bodies spanning many I$ lines still resolve entirely inline. Hints
    // self-validate against the tag store (a wrong or stale slot only costs
    // the general path), so collisions need no invalidation. The first line
    // whose hint fails hands the REMAINING lines to the out-of-line path —
    // lines already resolved here were hits and contribute nothing to the
    // ready cycle, so resuming from `line` with ready == now is exact.
    Addr line = addr & line_mask_;
    const Addr last = (addr + bytes - 1) & line_mask_;
    Cache& ic = icaches_[cpu];
    for (; line <= last; line += cfg_.line_bytes) {
      if (!ic.hit_fast(line, /*is_store=*/false, fetch_hint(cpu, line))) {
        return ifetch_lines_slow(cpu, line, last, now);
      }
    }
    return now;
  }

  /// Drop every cached copy of `line` (D$ and both I$s) — the scrub step of
  /// the machine-check poison/deliver recovery policies.
  void poison_line(Addr line);

  void reset_stats();

  template <class Ar> void io(Ar& a);  // checkpoint: support/checkpoint.cpp

private:
  /// General ifetch path for lines `first..last` (inclusive, line-aligned):
  /// full lookup, fills, parity-retry modelling.
  Cycle ifetch_lines_slow(u32 cpu, Addr first, Addr last, Cycle now);

  /// Direct-mapped fetch-memo slot for a line address.
  Cache::Hint& fetch_hint(u32 cpu, Addr line) {
    return ifetch_hints_[cpu][(line >> line_shift_) & (kFetchMemo - 1)];
  }

  TimingConfig cfg_;
  FaultPlan plan_;
  Crossbar xbar_;
  Dram dram_;
  Cache dcache_;
  std::array<Cache, kNumCpus> icaches_;
  Cycle dport_free_ = 0;  // single-port D$ arbitration (ablation)
  // Per-CPU I$ fetch memo: direct-mapped by line address, self-validating.
  static constexpr u32 kFetchMemo = 64;
  Addr line_mask_ = 0;  // ~(line_bytes - 1)
  u32 line_shift_ = 0;
  std::array<std::array<Cache::Hint, kFetchMemo>, kNumCpus> ifetch_hints_{};
  std::array<std::unique_ptr<Lsu>, kNumCpus> lsus_;
  u64 ifetch_fills_ = 0;
  u64 ifetch_parity_retries_ = 0;
  u64 ifetch_machine_checks_ = 0;
};

} // namespace majc::mem
