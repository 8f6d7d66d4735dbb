// Central crossbar ("switch" / bus interface unit, Fig. 1).
//
// All on-chip agents — the two CPUs, the graphics preprocessor, the data
// transfer engine, the North/South UPA ports, PCI and the memory controller —
// exchange data through this crossbar. The model tracks per-port occupancy
// (each port has its interface's peak bandwidth) plus a fixed hop latency,
// which is enough to reproduce the paper's aggregate-I/O claim
// (> 4.8 GB/s) and to make DMA traffic contend with CPU misses.
#pragma once

#include <array>

#include "src/soc/config.h"
#include "src/support/types.h"

namespace majc::mem {

enum class Port : u8 {
  kCpu0 = 0,
  kCpu1,
  kGpp,
  kDte,
  kNupa,
  kSupa,
  kPci,
  kMem,
  kCount,
};

inline constexpr std::size_t kNumPorts = static_cast<std::size_t>(Port::kCount);

class Crossbar {
public:
  explicit Crossbar(const TimingConfig& cfg);

  /// Install the run's fault plan (null = fault-free). A delayed grant
  /// starts late; a dropped grant pays a full re-arbitration before the
  /// transfer is retried. Data is never lost — drops are a timing fault.
  void set_fault_plan(const FaultPlan* plan) { plan_ = plan; }

  /// Schedule a transfer of `bytes` from `src` to `dst` starting no earlier
  /// than `now`; returns the completion cycle. Both ports are occupied for
  /// the duration, so a slow external interface (PCI) throttles its peer.
  Cycle transfer(Port src, Port dst, u32 bytes, Cycle now);

  /// Peak bandwidth of a port in bytes per CPU cycle.
  double port_bandwidth(Port p) const {
    return bandwidth_[static_cast<std::size_t>(p)];
  }

  u64 transfers() const { return transfers_; }
  u64 delayed_grants() const { return delayed_grants_; }
  u64 dropped_grants() const { return dropped_grants_; }
  void reset_stats();

  template <class Ar> void io(Ar& a);  // checkpoint: support/checkpoint.cpp

private:
  u32 hop_;
  std::array<double, kNumPorts> bandwidth_{};
  std::array<Cycle, kNumPorts> free_{};
  std::array<u64, kNumPorts> bytes_{};
  u64 transfers_ = 0;
  const FaultPlan* plan_ = nullptr;
  u64 delayed_grants_ = 0;
  u64 dropped_grants_ = 0;
};

} // namespace majc::mem
