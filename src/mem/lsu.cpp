#include "src/mem/lsu.h"

#include <bit>
#include <string>

#include "src/support/trap.h"

namespace majc::mem {

using sim::MemAccess;

CounterSet Lsu::counters() const {
  static constexpr std::array<const char*, kNumLsuCounters> kNames = {
      "loads",
      "stores",
      "atomics",
      "membars",
      "load_misses",
      "store_misses",
      "mshr_merges",
      "mshr_full_stalls",
      "load_buffer_stalls",
      "store_buffer_stalls",
      "blocking_stalls",
      "store_forwards",
      "dport_conflicts",
      "wc_lines",
      "wc_stores",
      "prefetches",
      "prefetches_queued",
      "prefetches_dropped",
      "fill_parity_retries",
      "fill_machine_checks",
  };
  CounterSet out;
  for (u32 i = 0; i < kNumLsuCounters; ++i) {
    if (counters_[i] != 0) out.add(kNames[i], counters_[i]);
  }
  return out;
}

Lsu::Lsu(const TimingConfig& cfg, Cache& dcache, Dram& dram, Crossbar& xbar,
         Port port, Cycle* dcache_port_free, const FaultPlan* plan)
    : cfg_(cfg),
      dcache_(dcache),
      dram_(dram),
      xbar_(xbar),
      port_(port),
      dport_free_(dcache_port_free),
      plan_(plan) {
  line_shift_ = static_cast<u32>(std::countr_zero(cfg_.line_bytes));
  // Buffers are small and bounded (atomics may briefly push loads_ past its
  // nominal capacity): one reservation keeps the issue path allocation-free.
  loads_.reserve(cfg_.load_buffers + 4);
  stores_.reserve(cfg_.store_buffers + 1);
  mshr_.reserve(cfg_.mshrs + 1);
}

void Lsu::rebuild_watermarks() {
  store_live_ = 0;
  for (const StoreEntry& s : stores_) {
    store_live_ = std::max(store_live_, s.done);
  }
  prune_now_ = 0;  // everything restored is live as of the save boundary
}

Cycle Lsu::fill_line(Addr addr, Cycle now) {
  const Addr line = addr & ~Addr{cfg_.line_bytes - 1};
  const Cycle at_mem = xbar_.transfer(port_, Port::kMem, 0, now);
  const Cycle dram_done = dram_.request(line, cfg_.line_bytes, at_mem);
  // Return path for the line through the crossbar.
  Cycle done = xbar_.transfer(Port::kMem, port_, cfg_.line_bytes, dram_done);
  if (plan_ != nullptr) {
    // Parity-bad fills are discarded and refetched from DRDRAM. Data stays
    // correct (the backing store is the truth); the cost is purely timing —
    // bounded: a line that keeps arriving bad becomes a machine check
    // instead of spinning until the watchdog fires.
    u32 attempts = 0;
    while (plan_->fill_corrupted(line, fills_++)) {
      if (attempts++ >= cfg_.faults.max_fill_retries) {
        bump(LsuCounter::kFillMachineChecks);
        raise_trap(TrapCause::kMachineCheck,
                   "cache fill for line " + std::to_string(line) +
                       " failed parity " + std::to_string(attempts) +
                       " consecutive times",
                   static_cast<u32>(line));
      }
      bump(LsuCounter::kFillParityRetries);
      const Cycle at2 = xbar_.transfer(port_, Port::kMem, 0, done);
      done = xbar_.transfer(Port::kMem, port_, cfg_.line_bytes,
                            dram_.request(line, cfg_.line_bytes, at2));
    }
  }
  return done;
}

Cycle Lsu::mshr_ready(Cycle now) {
  if (mshr_.size() < cfg_.mshrs) return now;
  Cycle earliest = ~Cycle{0};
  for (const MshrEntry& e : mshr_) earliest = std::min(earliest, e.done);
  return std::max(now, earliest);
}

Cycle Lsu::cached_access(Addr addr, bool is_store, bool allocate, Cycle now) {
  // A fill already in flight for this line? Attach to it (miss merge). The
  // `done > now` filter skips lazily retained retired fills.
  const Addr line = addr & ~Addr{cfg_.line_bytes - 1};
  for (const MshrEntry& e : mshr_) {
    if (e.line == line && e.done > now) {
      bump(LsuCounter::kMshrMerges);
      // Mark the line present for subsequent accesses.
      dcache_.access(addr, is_store, allocate, &dhint(addr));
      return e.done;
    }
  }
  if (dcache_.hit_fast(addr, is_store, dhint(addr))) return now;
  const Cache::AccessResult res = dcache_.access(addr, is_store, allocate,
                                                 &dhint(addr));
  if (res.hit) return now;

  bump(is_store ? LsuCounter::kStoreMisses : LsuCounter::kLoadMisses);
  const Cycle start = mshr_ready(now);
  if (start > now) bump(LsuCounter::kMshrFullStalls, start - now);
  // Entries that retire by `start` free their slots for this miss.
  std::erase_if(mshr_, [start](const MshrEntry& e) { return e.done <= start; });
  const Cycle done = fill_line(line, start);
  if (observer_) {
    observer_({is_store ? LsuTraceEvent::Kind::kStoreMiss
                        : LsuTraceEvent::Kind::kLoadMiss,
               line, start, done});
  }
  if (allocate && mshr_.size() < cfg_.mshrs) mshr_.push_back({line, done});
  if (res.writeback) {
    // Victim write-back: consumes channel bandwidth but nobody waits on it.
    const Cycle at_mem = xbar_.transfer(port_, Port::kMem, cfg_.line_bytes, done);
    dram_.request(res.victim_line, cfg_.line_bytes, at_mem);
  }
  return done;
}

Lsu::IssueResult Lsu::issue(const MemAccess& acc, Cycle now) {
  // Retired-entry boundary: the eager scheme swept all three buffers here
  // (and again after each stall below). We only advance the boundary; the
  // scans filter on it implicitly via `done > now`, and checkpoint save
  // applies it so the serialized buffers match the eager scheme's bytes.
  prune_now_ = std::max(prune_now_, now);
  IssueResult out{now, now};

  if (cfg_.perfect_dcache) {
    out.data_ready = now + cfg_.load_to_use;
    return out;
  }
  if (!cfg_.nonblocking_loads && blocked_until_ > now) {
    out.issue_at = blocked_until_;
    bump(LsuCounter::kBlockingStalls, blocked_until_ - now);
    now = blocked_until_;
    prune_now_ = now;
  }
  // Single-ported D$ ablation: cached accesses from both CPUs serialize on
  // the one port.
  if (dport_free_ != nullptr && acc.attr != 1 &&
      (acc.kind == MemAccess::Kind::kLoad ||
       acc.kind == MemAccess::Kind::kStore ||
       acc.kind == MemAccess::Kind::kAtomic)) {
    if (*dport_free_ > now) {
      bump(LsuCounter::kDportConflicts, *dport_free_ - now);
      out.issue_at = *dport_free_;
      now = *dport_free_;
      prune_now_ = now;
    }
    *dport_free_ = now + 1;
  }

  switch (acc.kind) {
    case MemAccess::Kind::kLoad: {
      // Load buffer capacity (5 entries): compact retired entries only when
      // the raw count reaches capacity, then stall only if genuinely full.
      if (loads_.size() >= cfg_.load_buffers) {
        std::erase_if(loads_, [now](Cycle c) { return c <= now; });
        if (loads_.size() >= cfg_.load_buffers) {
          const Cycle slot = *std::min_element(loads_.begin(), loads_.end());
          bump(LsuCounter::kLoadBufferStalls, slot > now ? slot - now : 0);
          out.issue_at = std::max(now, slot);
          now = out.issue_at;
          prune_now_ = now;
        }
      }
      // Store-to-load forwarding from the store buffer. When the newest
      // store completion is already in the past no entry can be live, so
      // the scan is skipped entirely (the common streaming-kernel case).
      if (store_live_ > now) {
        for (const StoreEntry& s : stores_) {
          if (s.done > now && s.addr <= acc.addr &&
              acc.addr + acc.bytes <= s.addr + s.bytes) {
            bump(LsuCounter::kStoreForwards);
            out.data_ready = now + 1;
            loads_.push_back(out.data_ready);
            return out;
          }
        }
      }
      Cycle ready;
      if (acc.attr == 1) {  // non-cached: straight to memory
        const Cycle at_mem = xbar_.transfer(port_, Port::kMem, 0, now);
        ready = xbar_.transfer(Port::kMem, port_,
                               std::max(acc.bytes, 4u),
                               dram_.request(acc.addr, acc.bytes, at_mem));
      } else {
        const bool allocate = acc.attr != 2;  // non-allocating loads don't fill
        ready = cached_access(acc.addr, /*is_store=*/false, allocate, now) +
                cfg_.load_to_use;
      }
      out.data_ready = ready;
      loads_.push_back(ready);
      if (!cfg_.nonblocking_loads && ready > now + cfg_.load_to_use) {
        blocked_until_ = ready;
      }
      bump(LsuCounter::kLoads);
      return out;
    }
    case MemAccess::Kind::kStore: {
      if (stores_.size() >= cfg_.store_buffers) {
        std::erase_if(stores_,
                      [now](const StoreEntry& s) { return s.done <= now; });
        if (stores_.size() >= cfg_.store_buffers) {
          Cycle slot = stores_.front().done;
          for (const StoreEntry& s : stores_) slot = std::min(slot, s.done);
          bump(LsuCounter::kStoreBufferStalls, slot > now ? slot - now : 0);
          out.issue_at = std::max(now, slot);
          now = out.issue_at;
          prune_now_ = now;
        }
      }
      Cycle done;
      if (acc.attr == 1) {  // non-cached: straight to memory
        done = xbar_.transfer(port_, Port::kMem, acc.bytes,
                              dram_.request(acc.addr, acc.bytes, now));
      } else if (acc.attr == 2 && !dcache_.probe(acc.addr, &dhint(acc.addr))) {
        // Non-allocating store miss: no read-for-ownership — stores combine
        // in a small buffer of open lines and each touched line is written
        // out once.
        const Addr line = acc.addr & ~Addr{cfg_.line_bytes - 1};
        bool open = false;
        WcEntry* victim = &wc_[0];
        for (WcEntry& e : wc_) {
          if (e.line == line) {
            open = true;
            break;
          }
          if (e.opened < victim->opened) victim = &e;
        }
        if (!open) {
          const Cycle at_mem =
              xbar_.transfer(port_, Port::kMem, cfg_.line_bytes, now);
          wc_done_ = std::max(wc_done_,
                              dram_.request(line, cfg_.line_bytes, at_mem));
          victim->line = line;
          victim->opened = now;
          bump(LsuCounter::kWcLines);
        }
        // The store retires into the combining buffer immediately; the line
        // write drains in the background (tracked for membar via drain()).
        done = now + 1;
        bump(LsuCounter::kWcStores);
      } else {
        done = cached_access(acc.addr, /*is_store=*/true, acc.attr != 2, now) +
               1;
      }
      stores_.push_back({acc.addr, acc.bytes, done});
      store_live_ = std::max(store_live_, done);
      out.data_ready = done;
      bump(LsuCounter::kStores);
      return out;
    }
    case MemAccess::Kind::kAtomic: {
      // Atomics serialize: drain buffered stores first, then perform a
      // read-modify-write through the D$.
      const Cycle start = drain(now);
      const Cycle done =
          cached_access(acc.addr, /*is_store=*/true, true, start) +
          cfg_.load_to_use;
      out.issue_at = start;
      out.data_ready = done;
      loads_.push_back(done);
      bump(LsuCounter::kAtomics);
      return out;
    }
    case MemAccess::Kind::kPrefetch: {
      if (!cfg_.prefetch_enabled) return out;
      if (dcache_.probe(acc.addr, &dhint(acc.addr))) return out;
      const Addr line = acc.addr & ~Addr{cfg_.line_bytes - 1};
      for (const MshrEntry& e : mshr_) {
        if (e.line == line && e.done > now) return out;  // fill in flight
      }
      // "Non-faulting prefetch instructions ... are also queued in LSU"
      // (paper §3.2): when all four miss slots are busy the prefetch waits
      // in the queue and launches as the oldest outstanding fill retires.
      Cycle start = now;
      if (mshr_.size() >= cfg_.mshrs) {
        std::erase_if(mshr_,
                      [now](const MshrEntry& e) { return e.done <= now; });
      }
      if (mshr_.size() >= cfg_.mshrs) {
        auto oldest = mshr_.begin();
        for (auto it = mshr_.begin(); it != mshr_.end(); ++it) {
          if (it->done < oldest->done) oldest = it;
        }
        start = std::max(now, oldest->done);
        // The queue is finite: refuse to book fills more than ~0.5k cycles
        // ahead of real time (non-faulting prefetches are discardable).
        if (start > now + 512) {
          bump(LsuCounter::kPrefetchesDropped);
          return out;
        }
        mshr_.erase(oldest);
        bump(LsuCounter::kPrefetchesQueued);
      }
      const Cycle done = fill_line(line, start);
      if (observer_) {
        observer_({LsuTraceEvent::Kind::kPrefetch, line, start, done});
      }
      mshr_.push_back({line, done});
      dcache_.access(acc.addr, /*is_store=*/false, /*allocate=*/true, &dhint(acc.addr));
      bump(LsuCounter::kPrefetches);
      return out;
    }
    case MemAccess::Kind::kMembar: {
      out.issue_at = drain(now);
      out.data_ready = out.issue_at;
      bump(LsuCounter::kMembars);
      return out;
    }
    case MemAccess::Kind::kNone:
      return out;
  }
  return out;
}

Cycle Lsu::drain(Cycle now) {
  // A scan of the buffers as they stand. An entry that compaction removed
  // was done by the cycle of that issue, which is no later than `now`. An
  // MSHR freed before its fill was done (a miss waiting for a slot, or a
  // queued prefetch) gave way to a fill that starts no earlier and is
  // itself buffered: in mshr_, or for a non-allocating miss in loads_ or
  // stores_.
  Cycle done = std::max(now, wc_done_);
  for (Cycle c : loads_) done = std::max(done, c);
  for (const StoreEntry& s : stores_) done = std::max(done, s.done);
  for (const MshrEntry& e : mshr_) done = std::max(done, e.done);
  return done;
}

} // namespace majc::mem
