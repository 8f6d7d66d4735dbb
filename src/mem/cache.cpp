#include "src/mem/cache.h"

#include <algorithm>
#include <bit>

#include "src/support/error.h"

namespace majc::mem {

Cache::Cache(const Config& cfg) : cfg_(cfg) {
  require(cfg_.line_bytes > 0 && cfg_.ways > 0 && cfg_.bytes > 0,
          "cache config fields must be positive");
  require(cfg_.bytes % (cfg_.line_bytes * cfg_.ways) == 0,
          "cache size must be a multiple of ways * line size");
  sets_ = cfg_.bytes / (cfg_.line_bytes * cfg_.ways);
  require(std::has_single_bit(cfg_.line_bytes) && std::has_single_bit(sets_),
          "cache line size and set count must be powers of two");
  line_shift_ = static_cast<u32>(std::countr_zero(cfg_.line_bytes));
  set_shift_ = static_cast<u32>(std::countr_zero(sets_));
  set_mask_ = sets_ - 1;
  lines_.resize(static_cast<std::size_t>(sets_) * cfg_.ways);
  for (u32 s = 0; s < sets_; ++s) {
    for (u32 w = 0; w < cfg_.ways; ++w) lines_[s * cfg_.ways + w].lru = w;
  }
}

void Cache::touch(u32 set, u32 way) {
  Line* row = &lines_[static_cast<std::size_t>(set) * cfg_.ways];
  const u32 old = row[way].lru;
  if (old == 0) return;  // already MRU: no rank moves
  for (u32 w = 0; w < live_ways(); ++w) {
    if (row[w].lru < old) ++row[w].lru;
  }
  row[way].lru = 0;
}

Cache::AccessResult Cache::access(Addr addr, bool is_store, bool allocate,
                                  Hint* hint) {
  const u64 line = line_of(addr);
  const u32 set = set_of(line);
  const u64 tag = tag_of(line);
  Line* row = &lines_[static_cast<std::size_t>(set) * cfg_.ways];

  // Repeat-hit fast path: the hinted way must still hold this line *and* be
  // MRU (lru == 0), which makes touch() a provable no-op. Each condition is
  // re-checked here, so a stale hint can never change behavior.
  if (hint != nullptr && hint->line == line) {
    Line& l = row[hint->way];
    if (l.valid && l.tag == tag && l.lru == 0) {
      ++hits_;
      if (is_store) l.dirty = true;
      return {.hit = true};
    }
  }

  for (u32 w = 0; w < live_ways(); ++w) {
    if (row[w].valid && row[w].tag == tag) {
      ++hits_;
      if (is_store) row[w].dirty = true;
      touch(set, w);
      if (hint != nullptr) *hint = {.line = line, .way = w};
      return {.hit = true};
    }
  }
  ++misses_;
  if (!allocate) return {.hit = false};

  // Choose the LRU way as victim (only live ways participate).
  u32 victim = 0;
  for (u32 w = 0; w < live_ways(); ++w) {
    if (!row[w].valid) {
      victim = w;
      break;
    }
    if (row[w].lru > row[victim].lru) victim = w;
  }
  AccessResult res;
  if (row[victim].valid && row[victim].dirty) {
    res.writeback = true;
    res.victim_line = (row[victim].tag * sets_ + set) * cfg_.line_bytes;
    ++writebacks_;
  }
  row[victim] = {.tag = tag, .valid = true, .dirty = is_store, .lru = row[victim].lru};
  touch(set, victim);
  if (hint != nullptr) *hint = {.line = line, .way = victim};
  return res;
}

bool Cache::probe(Addr addr, const Hint* hint) const {
  const u64 line = line_of(addr);
  const u32 set = set_of(line);
  const u64 tag = tag_of(line);
  const Line* row = &lines_[static_cast<std::size_t>(set) * cfg_.ways];
  if (hint != nullptr && hint->line == line) {
    const Line& l = row[hint->way];
    if (l.valid && l.tag == tag) return true;
  }
  for (u32 w = 0; w < live_ways(); ++w) {
    if (row[w].valid && row[w].tag == tag) return true;
  }
  return false;
}

bool Cache::invalidate(Addr addr) {
  const u64 line = line_of(addr);
  const u32 set = set_of(line);
  const u64 tag = tag_of(line);
  Line* row = &lines_[static_cast<std::size_t>(set) * cfg_.ways];
  for (u32 w = 0; w < cfg_.ways; ++w) {
    if (row[w].valid && row[w].tag == tag) {
      const bool dirty = row[w].dirty;
      row[w].valid = false;
      row[w].dirty = false;
      return dirty;
    }
  }
  return false;
}

void Cache::disable_ways(u32 n) {
  disabled_ways_ = cfg_.ways > 1 ? std::min(n, cfg_.ways - 1) : 0;
  // Resident lines in the dead ways are gone (their data was only ever a
  // timing fiction; the backing store holds the truth).
  for (u32 s = 0; s < sets_; ++s) {
    Line* row = &lines_[static_cast<std::size_t>(s) * cfg_.ways];
    for (u32 w = live_ways(); w < cfg_.ways; ++w) {
      row[w].valid = false;
      row[w].dirty = false;
    }
  }
}

void Cache::reset_stats() {
  hits_ = misses_ = writebacks_ = 0;
}

} // namespace majc::mem
