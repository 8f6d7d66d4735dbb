// Machine-readable run statistics ("--stats-json").
//
// One schema ("majc-stats-v1") across the cycle-accurate machine (one CPU
// or the full two-CPU SoC) and the instruction-accurate simulator, so
// downstream tooling (plots, CI dashboards, regression diffs) parses every
// run mode the same way. Counter names match the human-readable
// performance report exactly — both views render the same CounterSet
// aggregates.
#pragma once

#include <ostream>

#include "src/sim/functional_sim.h"
#include "src/soc/chip.h"

namespace majc::trace {

inline constexpr const char* kStatsSchema = "majc-stats-v1";

/// Cycle-accurate run, one or two CPUs.
void write_stats_json(std::ostream& os, soc::Majc5200& m,
                      const soc::Majc5200::Result& res);

/// Instruction-accurate run (no timing: packet/instruction counts only).
void write_stats_json(std::ostream& os, const sim::FunctionalSim& sim,
                      const sim::RunResult& res);

} // namespace majc::trace
