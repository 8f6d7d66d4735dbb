// Majc5200: the cycle-accurate machine — the full system-on-chip (Fig. 1).
//
// Up to two 4-issue VLIW CPUs sharing the dual-ported D$ and common
// external interfaces, a DRDRAM memory controller, PCI, North/South UPA,
// the Data Transfer Engine, and the crossbar that connects them. Every CPU
// runs the same loaded image; programs dispatch per-CPU work with GETCPU
// (or the host sets each CPU's pc to a different entry symbol).
//
// The CPU count (1 or 2) is fixed at construction. The paper's Table 1/2
// kernel numbers are this chip with one CPU issuing, so single-CPU cycle
// mode is simply a one-CPU Majc5200: its run() makes one unbounded
// run_steps batch, and its digest and statistics cover only that CPU.
//
// With two CPUs they advance in cycle order at packet granularity: each
// step executes the packet of whichever CPU's next issue cycle is earlier,
// so accesses to the shared D$, DRDRAM and crossbar interleave in global
// time. Shared-memory interactions (atomics through the shared D$)
// therefore linearize in cycle order — the communication model the paper
// highlights.
#pragma once

#include <array>
#include <memory>
#include <optional>

#include "src/cpu/cycle_cpu.h"
#include "src/mem/ecc.h"
#include "src/soc/dte.h"
#include "src/soc/ports.h"

namespace majc::soc {

class Majc5200 {
public:
  static constexpr u32 kNumCpus = mem::kNumCpus;  // the most a chip holds

  /// A chip with `num_cpus` (1 or 2) CPUs sharing a predecoded program
  /// (the farm engine predecodes each image once for all workers).
  Majc5200(sim::ProgramRef program, u32 num_cpus, const TimingConfig& cfg = {},
           std::size_t mem_bytes = sim::FlatMemory::kDefaultBytes);
  Majc5200(masm::Image image, u32 num_cpus, const TimingConfig& cfg = {},
           std::size_t mem_bytes = sim::FlatMemory::kDefaultBytes);
  // The CPUs, ports and ECC hook hold references into the machine.
  Majc5200(const Majc5200&) = delete;
  Majc5200& operator=(const Majc5200&) = delete;

  /// Reinitialize in place for a fresh run — optionally of a different
  /// program (null keeps the current one) and timing config — reusing the
  /// memory arena instead of reallocating it. A reset machine is
  /// indistinguishable from a newly constructed one: caches, LSUs, branch
  /// predictors, fault streams, ports and statistics all restart from their
  /// constructed state. The CPU count is kept.
  void reset(sim::ProgramRef program, const TimingConfig& cfg);

  struct Result {
    Cycle cycles = 0;   // global time when the last CPU stopped
    u64 packets = 0;    // summed over the CPUs
    u64 instrs = 0;
    bool halted = false;  // every CPU halted
    TerminationReason reason = TerminationReason::kPacketCap;
    Trap trap;          // valid (code != kNone) only when reason == kTrap
    std::string dump;   // diagnostic report for trap / watchdog terminations
    double ipc() const {
      return cycles == 0 ? 0.0
                         : static_cast<double>(instrs) /
                               static_cast<double>(cycles);
    }
  };

  /// Run every CPU until it halts, traps or reaches `max_packets_per_cpu`
  /// (an absolute per-CPU count, so a larger cap resumes a capped run).
  Result run(u64 max_packets_per_cpu = 100'000'000);

  /// Point one CPU at a different entry symbol before running.
  void set_entry(u32 cpu, const std::string& symbol);

  u32 num_cpus() const { return num_cpus_; }
  cpu::CycleCpu& cpu(u32 i = 0) { return *cpus_[i]; }
  const cpu::CycleCpu& cpu(u32 i = 0) const { return *cpus_[i]; }
  mem::MemorySystem& memsys() { return shared_->ms; }
  const mem::MemorySystem& memsys() const { return shared_->ms; }
  sim::FlatMemory& memory() { return mem_; }
  const sim::FlatMemory& memory() const { return mem_; }
  mem::EccMemory& ecc() { return shared_->ecc; }
  const mem::EccMemory& ecc() const { return shared_->ecc; }
  const sim::Program& program() const { return *prog_; }
  Dte& dte() { return shared_->dte; }
  NupaPort& nupa() { return shared_->nupa; }
  IoPort& supa() { return shared_->supa; }
  IoPort& pci() { return shared_->pci; }

  void save(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);

private:
  /// Everything the CPUs share downstream of the arena. Rebuilt as a unit
  /// by reset(), so nothing keeps state from the previous run.
  struct Shared {
    Shared(const TimingConfig& cfg, sim::FlatMemory& mem);
    mem::MemorySystem ms;
    mem::EccMemory ecc;  // CPU-side ECC view of DRDRAM (DMA agents bypass it)
    Dte dte;
    NupaPort nupa;
    IoPort supa;
    IoPort pci;
  };

  /// (Re)build everything downstream of the arena: memory contents, shared
  /// structures, CPUs and their stacks. Shared by the constructor and
  /// reset().
  void init(const TimingConfig& cfg);
  /// Multi-line state dump of every CPU (pc, cycle, progress, packet
  /// counts) for trap / watchdog reports.
  std::string state_dump() const;

  sim::ProgramRef prog_;
  u32 num_cpus_;
  sim::FlatMemory mem_;
  // optional so reset() can reconstruct in place (machine reuse); engaged
  // for the whole life of the object after construction.
  std::optional<Shared> shared_;
  std::array<std::unique_ptr<cpu::CycleCpu>, kNumCpus> cpus_;
};

} // namespace majc::soc

namespace majc::cpu {
/// The former name of the single-CPU cycle machine, now one-CPU Majc5200.
/// Kept only because e2ebench/majc_e2e.cpp, which stays byte-stable so its
/// benchmark runs remain comparable across trees, still names it; new code
/// spells soc::Majc5200.
using CycleSim = soc::Majc5200;
} // namespace majc::cpu
