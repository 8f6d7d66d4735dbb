#include "src/soc/chip.h"

#include <algorithm>
#include <sstream>

namespace majc::soc {

Majc5200::Shared::Shared(const TimingConfig& cfg, sim::FlatMemory& mem)
    : ms(cfg),
      ecc(mem, ms.fault_plan()),
      dte(ms, mem),
      nupa(ms, mem),
      supa(ms, mem, mem::Port::kSupa),
      pci(ms, mem, mem::Port::kPci) {
  ecc.set_poison_hook([&m = ms](Addr line) { m.poison_line(line); });
}

Majc5200::Majc5200(masm::Image image, u32 num_cpus, const TimingConfig& cfg,
                   std::size_t mem_bytes)
    : Majc5200(sim::make_program(std::move(image)), num_cpus, cfg, mem_bytes) {}

Majc5200::Majc5200(sim::ProgramRef program, u32 num_cpus,
                   const TimingConfig& cfg, std::size_t mem_bytes)
    : prog_(std::move(program)), num_cpus_(num_cpus), mem_(mem_bytes) {
  if (num_cpus_ < 1 || num_cpus_ > kNumCpus)
    throw Error("Majc5200: a chip has 1 or 2 CPUs, not " +
                std::to_string(num_cpus_));
  init(cfg);
}

void Majc5200::init(const TimingConfig& cfg) {
  shared_.emplace(cfg, mem_);
  sim::load_image(prog_->image(), mem_);
  for (u32 c = 0; c < num_cpus_; ++c) {
    cpus_[c] = std::make_unique<cpu::CycleCpu>(*prog_, shared_->ecc,
                                               shared_->ms, c);
    // Distinct stacks, 64 KB apart below the top of memory: CPU-major, one
    // per hardware thread.
    const u32 threads = cpus_[c]->hw_threads();
    for (u32 t = 0; t < threads; ++t) {
      cpus_[c]->state(t).regs[2] =
          static_cast<u32>(mem_.size() - 64 - (c * threads + t) * (64u << 10));
    }
  }
}

void Majc5200::reset(sim::ProgramRef program, const TimingConfig& cfg) {
  if (program) prog_ = std::move(program);
  // Reuse the arena: clear() zeroes only the pages the last job left
  // non-zero, then the machine is rebuilt around it. Everything except the
  // arena's mapping is reconstructed, so a reset machine reproduces a fresh
  // machine's run bit-for-bit (tests/test_farm.cpp asserts this).
  mem_.clear();
  init(cfg);
}

void Majc5200::set_entry(u32 cpu, const std::string& symbol) {
  cpus_[cpu]->state().pc = prog_->image().symbol(symbol);
}

std::string Majc5200::state_dump() const {
  std::ostringstream os;
  for (u32 i = 0; i < num_cpus_; ++i) {
    const cpu::CycleCpu& c = *cpus_[i];
    os << "cpu" << i << ": pc=0x" << std::hex
       << c.state(c.active_thread()).pc << std::dec << " cycle=" << c.now()
       << " last_progress=" << c.last_progress()
       << " packets=" << c.stats().packets
       << (c.halted() ? " [halted]" : " [running]");
    if (const Trap* t = c.trap()) {
      os << " trap=" << trap_cause_name(t->code);
    }
    os << "\n";
  }
  return os.str();
}

Majc5200::Result Majc5200::run(u64 max_packets_per_cpu) {
  const u64 wd = memsys().config().watchdog_cycles;
  bool watchdog_fired = false;
  auto runnable = [&](const cpu::CycleCpu& c) {
    return !c.halted() && c.stats().packets < max_packets_per_cpu;
  };
  while (true) {
    // Advance the CPU whose next packet issues earliest in global time
    // (tie: lowest index), and keep advancing it in one batch for exactly
    // as long as the one-step-at-a-time scheduler would have kept picking
    // it: CPU0 stays scheduled while now0 <= now1, CPU1 while now1 < now0.
    // run_steps enforces that bound via `limit`, so the global interleaving
    // of issued packets — and every shared-structure access order behind
    // it — is identical to stepping one packet at a time. A lone CPU (or
    // one whose peer cannot run) gets a single unbounded batch.
    u32 next = num_cpus_;
    for (u32 i = 0; i < num_cpus_; ++i) {
      if (!runnable(*cpus_[i])) continue;
      if (next == num_cpus_ ||
          cpus_[i]->cached_now() < cpus_[next]->cached_now()) {
        next = i;
      }
    }
    if (next == num_cpus_) break;
    Cycle limit = ~Cycle{0};
    Cycle peer_progress = 0;
    if (num_cpus_ == 2) {
      const cpu::CycleCpu& other = *cpus_[1 - next];
      // `next == 1` implies now1 < now0, so the CPU1 bound now0 - 1 cannot
      // underflow.
      if (runnable(other)) {
        limit = next == 0 ? other.cached_now() : other.cached_now() - 1;
      }
      // Livelock watchdog: global time advanced wd cycles past the last
      // externally visible effect (store / atomic / console / halt)
      // retired by ANY cpu. Loads, branches and spin loops are not
      // progress. The peer's progress clock is frozen while it is not
      // stepping, so passing it once per batch checks the same bound the
      // per-step loop did.
      peer_progress = other.last_progress();
    }
    const cpu::CycleCpu::RunEnd end = cpus_[next]->run_steps(
        max_packets_per_cpu, wd, peer_progress, limit);
    // A machine-level trap on any CPU stops the chip so the fault is
    // reported precisely instead of being overwritten by further execution.
    if (end == cpu::CycleCpu::RunEnd::kTrap) break;
    if (end == cpu::CycleCpu::RunEnd::kWatchdog) {
      watchdog_fired = true;
      break;
    }
  }

  Result res;
  bool all_halted = true;
  const cpu::CycleCpu* trapped = nullptr;
  for (u32 i = 0; i < num_cpus_; ++i) {
    const cpu::CycleCpu& c = *cpus_[i];
    res.packets += c.stats().packets;
    res.instrs += c.stats().instrs;
    res.cycles = std::max(res.cycles, c.now());
    all_halted = all_halted && c.halted();
    if (trapped == nullptr && c.trap() != nullptr) trapped = &c;
  }
  if (trapped != nullptr) {
    res.reason = TerminationReason::kTrap;
    res.trap = *trapped->trap();
    res.dump = sim::trap_report(res.trap, *prog_,
                                trapped->state(trapped->active_thread())) +
               state_dump();
  } else if (watchdog_fired) {
    res.reason = TerminationReason::kWatchdog;
    std::ostringstream os;
    os << "== watchdog: no progress for " << wd << " cycles ==\n"
       << state_dump();
    res.dump = os.str();
  } else if (all_halted) {
    res.reason = TerminationReason::kHalted;
    res.halted = true;
  } else {
    res.reason = TerminationReason::kPacketCap;
  }
  return res;
}

} // namespace majc::soc
