// Set-associative cache timing model (tags + LRU only).
//
// Data always moves through the functional MemoryBus, so the caches track
// tags purely for timing: hits, misses, write-backs of dirty victims.
// Instances: one 16 KB 2-way I$ per CPU and the 16 KB 4-way dual-ported
// write-back D$ shared by both CPUs (paper §3.1).
//
// Geometry: the line size and the set count must be powers of two (every
// geometry the paper describes is), so address decomposition is plain
// shifts and masks, and the LSU and I$ align lines by masking. Callers on
// a repeated access stream pass a Hint so a re-access of the most recent
// line skips the tag scan and the LRU aging loop entirely. The fast path is
// self-validating — it re-checks the hinted way's tag, validity and MRU
// rank on every use — so it never needs invalidation hooks and is exactly
// equivalent to the general path (MRU means touch() would not move any
// rank; hit/miss counters advance identically).
#pragma once

#include <string>
#include <vector>

#include "src/support/stats.h"
#include "src/support/types.h"

namespace majc::mem {

class Cache {
public:
  struct Config {
    u32 bytes = 16 * 1024;
    u32 ways = 4;
    u32 line_bytes = 32;
    std::string name = "cache";
  };

  struct AccessResult {
    bool hit = false;
    bool writeback = false;  // a dirty victim was evicted
    Addr victim_line = 0;
  };

  /// Last-line memo for one access stream (one per LSU, one per I$ fetch
  /// stream). Purely a performance hint: a stale or wrong hint only costs
  /// the general path. Callers never need to reset it.
  struct Hint {
    u64 line = ~u64{0};  // memoized line number (addr / line_bytes)
    u32 way = 0;
  };

  explicit Cache(const Config& cfg);

  /// Look up `addr`; on a miss, allocate the line (if `allocate`), evicting
  /// LRU. `is_store` marks the line dirty. `hint`, when given, memoizes the
  /// stream's last resident line for the repeat-hit fast path.
  AccessResult access(Addr addr, bool is_store, bool allocate = true,
                      Hint* hint = nullptr);

  /// Tag probe with no state change. A hint accelerates the probe but is
  /// not updated (probe leaves all cache state untouched).
  bool probe(Addr addr, const Hint* hint = nullptr) const;

  /// Inline repeat-hit fast path: when the hinted way still holds `addr`'s
  /// line, performs exactly what access() does on that hit — count it, mark
  /// dirty on stores, promote the way to MRU — without the tag scan. Tags
  /// are unique within a set, so the hinted way is the way the scan would
  /// have found. Returns false in every other case, and the caller falls
  /// back to the full access().
  bool hit_fast(Addr addr, bool is_store, const Hint& hint) {
    const u64 line = addr >> line_shift_;
    if (hint.line != line) return false;
    const u32 set = static_cast<u32>(line) & set_mask_;
    Line& l = lines_[static_cast<std::size_t>(set) * cfg_.ways + hint.way];
    if (!l.valid || l.tag != (line >> set_shift_)) return false;
    ++hits_;
    if (is_store) l.dirty = true;
    if (l.lru != 0) touch(set, hint.way);
    return true;
  }

  /// Invalidate a single line if present; returns true if it was dirty.
  bool invalidate(Addr addr);

  /// Take `n` ways out of service (RAS degradation: a failed way shrinks
  /// capacity instead of crashing). Clamped to ways - 1; lines resident in
  /// the disabled ways are invalidated.
  void disable_ways(u32 n);
  u32 disabled_ways() const { return disabled_ways_; }

  u32 sets() const { return sets_; }
  u32 ways() const { return cfg_.ways; }
  u64 hits() const { return hits_; }
  u64 misses() const { return misses_; }
  u64 writebacks() const { return writebacks_; }
  double hit_rate() const {
    const u64 total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }
  const Config& config() const { return cfg_; }
  void reset_stats();

  template <class Ar> void io(Ar& a);  // checkpoint: support/checkpoint.cpp

private:
  struct Line {
    u64 tag = 0;
    bool valid = false;
    bool dirty = false;
    u32 lru = 0;  // 0 = most recently used
  };

  u64 line_of(Addr addr) const { return addr >> line_shift_; }
  u32 set_of(u64 line) const { return static_cast<u32>(line) & set_mask_; }
  u64 tag_of(u64 line) const { return line >> set_shift_; }
  u32 live_ways() const { return cfg_.ways - disabled_ways_; }
  void touch(u32 set, u32 way);

  Config cfg_;
  u32 sets_;
  u32 disabled_ways_ = 0;
  u32 line_shift_ = 0;
  u32 set_shift_ = 0;
  u32 set_mask_ = 0;
  std::vector<Line> lines_;  // sets_ * ways, row-major by set
  u64 hits_ = 0;
  u64 misses_ = 0;
  u64 writebacks_ = 0;
};

} // namespace majc::mem
