// Human-readable performance reports for cycle-accurate runs: a CPI stack
// (where every cycle went), issue-width histogram, cache and predictor
// rates. Used by the majc_run tool and the examples.
#pragma once

#include <string>

namespace majc::soc {
class Majc5200;
}

namespace majc::cpu {

/// Full report for a finished run: one section per CPU of the machine.
std::string performance_report(soc::Majc5200& m);

} // namespace majc::cpu
