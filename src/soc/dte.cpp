#include "src/soc/dte.h"

#include <algorithm>
#include <vector>

namespace majc::soc {

void Dte::flush_range(Addr base, u32 bytes, bool writeback) {
  for (Addr line = base & ~Addr{kLineBytes - 1}; line < base + bytes;
       line += kLineBytes) {
    const bool was_dirty = ms_.dcache().invalidate(line);
    if (was_dirty && writeback) {
      // The dirty line's data already lives in the functional memory (the
      // model writes through functionally); only the bandwidth is charged.
      ms_.dram().request(line, kLineBytes, 0);
    }
  }
}

Cycle Dte::submit(const Descriptor& d, Cycle now) {
  // Functional copy.
  std::vector<u8> buf(d.bytes);
  mem_.read(d.src, buf);
  mem_.write(d.dst, buf);

  // Coherence: the CPUs must not see stale cached destination data, and the
  // engine must see committed source data.
  flush_range(d.src, d.bytes, /*writeback=*/true);
  flush_range(d.dst, d.bytes, /*writeback=*/false);

  // Timing: each line is read from DRAM through the crossbar into the DTE
  // and written back out. Chunks pipeline: reads issue back-to-back (the
  // DRDRAM channel and banks pace themselves) and each write follows its
  // own read, so a big copy sustains the full channel rate split between
  // the read and write streams.
  Cycle done = now;
  for (u32 off = 0; off < d.bytes; off += kLineBytes) {
    const u32 chunk = std::min(kLineBytes, d.bytes - off);
    const Cycle src_ready = ms_.dram().request(d.src + off, chunk, now);
    const Cycle read_done =
        ms_.xbar().transfer(mem::Port::kMem, d.via, chunk, src_ready);
    const Cycle at_mem =
        ms_.xbar().transfer(d.via, mem::Port::kMem, chunk, read_done);
    done = std::max(done, ms_.dram().request(d.dst + off, chunk, at_mem));
  }
  bytes_moved_ += d.bytes;
  ++descriptors_;
  if (observer_) observer_(d, now, done);
  return done;
}

} // namespace majc::soc
