#include "src/trace/stats_json.h"

#include <cstdio>

#include "src/support/checkpoint.h"
#include "src/trace/json.h"

namespace majc::trace {

namespace {

void write_counters(JsonWriter& j, std::string_view key, const CounterSet& c) {
  j.key(key).begin_object();
  for (const auto& [name, value] : c.all()) j.kv(name, value);
  j.end_object();
}

std::string hex_u64(u64 v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The trap that ended the run (emitted only when reason == "trap").
void write_trap(JsonWriter& j, const Trap& t) {
  j.key("trap").begin_object();
  j.kv("cause", trap_cause_name(t.code));
  j.kv("code", static_cast<u64>(t.code));
  j.kv("cpu", t.cpu);
  j.kv("pc", t.pc);
  j.kv("time", t.cycle);
  j.kv("unit", time_unit_name(t.unit));
  j.kv("value", t.value);
  j.kv("detail", t.detail);
  j.kv("deliverable", t.deliverable);
  j.end_object();
}

/// Recovery counters: what the RAS machinery absorbed without ending the
/// run (plus the machine checks it could not).
void write_ras(JsonWriter& j, const mem::EccMemory& ecc,
               const mem::MemorySystem& ms, u64 traps_delivered) {
  j.key("ras").begin_object();
  j.key("ecc").begin_object();
  j.kv("policy", machine_check_policy_name(ms.config().faults.mc_policy));
  j.kv("corrected", ecc.corrected());
  j.kv("machine_checks", ecc.machine_checks());
  j.kv("retried", ecc.retried());
  j.kv("poisoned_lines", ecc.poisoned_lines());
  j.kv("silent_corruptions", ecc.silent_corruptions());
  j.end_object();
  u64 fill_retries = ms.ifetch_parity_retries();
  u64 fill_mcs = ms.ifetch_machine_checks();
  for (u32 c = 0; c < mem::kNumCpus; ++c) {
    fill_retries += ms.lsu(c).counter(mem::LsuCounter::kFillParityRetries);
    fill_mcs += ms.lsu(c).counter(mem::LsuCounter::kFillMachineChecks);
  }
  j.key("fills").begin_object();
  j.kv("parity_retries", fill_retries);
  j.kv("machine_checks", fill_mcs);
  j.end_object();
  j.key("xbar").begin_object();
  j.kv("delayed_grants", ms.xbar().delayed_grants());
  j.kv("dropped_grants", ms.xbar().dropped_grants());
  j.end_object();
  j.kv("traps_delivered", traps_delivered);
  j.end_object();
}

void write_cache(JsonWriter& j, std::string_view key, const mem::Cache& c) {
  j.key(key).begin_object();
  j.kv("hits", c.hits());
  j.kv("misses", c.misses());
  j.kv("hit_rate", c.hit_rate());
  j.end_object();
}

void write_cpu(JsonWriter& j, cpu::CycleCpu& cpu, mem::MemorySystem& ms,
               u32 id) {
  const cpu::CpuStats& st = cpu.stats();
  j.begin_object();
  j.kv("id", id);
  j.kv("packets", st.packets);
  j.kv("instrs", st.instrs);
  j.kv("thread_switches", st.thread_switches);
  j.kv("traps_delivered", st.traps_delivered);
  j.key("width_hist").begin_array();
  for (u32 w = 1; w <= isa::kNumFus; ++w) j.value(st.width_hist.bucket(w));
  j.end_array();
  j.key("branches").begin_object();
  j.kv("cond", st.cond_branches);
  j.kv("taken", st.taken_branches);
  j.kv("mispredicts", st.mispredicts);
  j.kv("jumps", st.jumps);
  j.end_object();
  write_counters(j, "stalls", st.stalls.aggregate());
  write_counters(j, "lsu", ms.lsu(id).counters());
  write_cache(j, "icache", ms.icache(id));
  j.end_object();
}

void write_mem(JsonWriter& j, mem::MemorySystem& ms) {
  j.key("mem").begin_object();
  write_cache(j, "dcache", ms.dcache());
  j.key("dram").begin_object();
  j.kv("requests", ms.dram().requests());
  j.kv("busy_cycles", ms.dram().busy_cycles());
  j.end_object();
  j.end_object();
}

} // namespace

void write_stats_json(std::ostream& os, soc::Majc5200& m,
                      const soc::Majc5200::Result& res) {
  // A one-CPU machine reports as mode "cycle" (with IPC), a two-CPU one as
  // "chip" (with the DTE) — the same names its checkpoints carry.
  const bool single = m.num_cpus() == 1;
  JsonWriter j(os);
  j.begin_object();
  j.kv("schema", kStatsSchema);
  j.kv("mode", ckpt::mode_name(static_cast<ckpt::Mode>(m.num_cpus())));
  j.key("run").begin_object();
  j.kv("cycles", res.cycles);
  j.kv("packets", res.packets);
  j.kv("instrs", res.instrs);
  if (single) j.kv("ipc", res.ipc());
  j.kv("halted", res.halted);
  j.kv("reason", termination_reason_name(res.reason));
  if (res.reason == TerminationReason::kTrap) write_trap(j, res.trap);
  j.kv("arch_digest", hex_u64(ckpt::arch_digest(m)));
  j.end_object();
  j.key("cpus").begin_array();
  u64 traps_delivered = 0;
  for (u32 i = 0; i < m.num_cpus(); ++i) {
    write_cpu(j, m.cpu(i), m.memsys(), i);
    traps_delivered += m.cpu(i).stats().traps_delivered;
  }
  j.end_array();
  write_mem(j, m.memsys());
  write_ras(j, m.ecc(), m.memsys(), traps_delivered);
  if (!single) {
    j.key("dte").begin_object();
    j.kv("descriptors", m.dte().descriptors_run());
    j.kv("bytes_moved", m.dte().bytes_moved());
    j.end_object();
  }
  j.end_object();
  os << "\n";
}

void write_stats_json(std::ostream& os, const sim::FunctionalSim& sim,
                      const sim::RunResult& res) {
  JsonWriter j(os);
  j.begin_object();
  j.kv("schema", kStatsSchema);
  j.kv("mode", "functional");
  j.key("run").begin_object();
  // Cumulative accessors, not the per-call RunResult: a checkpointed run
  // restored mid-way reports the same totals as an unbroken one.
  j.kv("packets", sim.packets_run());
  j.kv("instrs", sim.instrs_run());
  j.kv("halted", res.halted);
  j.kv("reason", termination_reason_name(res.reason));
  if (res.reason == TerminationReason::kTrap) write_trap(j, res.trap);
  j.kv("arch_digest", hex_u64(ckpt::arch_digest(sim)));
  j.kv("traps_delivered", sim.traps_delivered());
  j.end_object();
  j.kv("program_packets", static_cast<u64>(sim.program().num_packets()));
  j.end_object();
  os << "\n";
}

} // namespace majc::trace
