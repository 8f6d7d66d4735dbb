#include "src/mem/crossbar.h"

#include <algorithm>
#include <cmath>

namespace majc::mem {

Crossbar::Crossbar(const TimingConfig& cfg) : hop_(cfg.crossbar_hop) {
  // Internal agents run at the crossbar's native width (8 bytes/cycle at the
  // core clock = 4 GB/s per port); external interfaces are capped at their
  // physical rates (paper §3.1).
  constexpr double kInternal = 8.0;
  bandwidth_ = {kInternal, kInternal, kInternal, kInternal,
                /*nupa=*/4.0, /*supa=*/4.0, cfg.pci_bytes_per_cycle,
                /*mem=*/kInternal};
  bandwidth_[static_cast<std::size_t>(Port::kNupa)] = cfg.upa_bytes_per_cycle;
  bandwidth_[static_cast<std::size_t>(Port::kSupa)] = cfg.upa_bytes_per_cycle;
}

Cycle Crossbar::transfer(Port src, Port dst, u32 bytes, Cycle now) {
  auto& src_free = free_[static_cast<std::size_t>(src)];
  auto& dst_free = free_[static_cast<std::size_t>(dst)];
  const double bw = std::min(port_bandwidth(src), port_bandwidth(dst));
  Cycle start = std::max({now, src_free, dst_free});
  if (plan_ != nullptr && plan_->enabled()) {
    if (plan_->grant_dropped(transfers_)) {
      // Lost grant: the requester times out and re-arbitrates.
      start += hop_ + plan_->config().xbar_delay_cycles;
      ++dropped_grants_;
    }
    if (const u32 d = plan_->grant_delay(transfers_); d > 0) {
      start += d;
      ++delayed_grants_;
    }
  }
  const auto duration =
      static_cast<Cycle>(std::ceil(static_cast<double>(bytes) / bw));
  src_free = start + duration;
  dst_free = start + duration;
  bytes_[static_cast<std::size_t>(src)] += bytes;
  bytes_[static_cast<std::size_t>(dst)] += bytes;
  ++transfers_;
  return start + hop_ + duration;
}

void Crossbar::reset_stats() {
  bytes_.fill(0);
  transfers_ = 0;
  delayed_grants_ = 0;
  dropped_grants_ = 0;
}

} // namespace majc::mem
