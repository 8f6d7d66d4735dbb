#include "src/soc/ports.h"

#include <algorithm>

#include "src/support/error.h"

namespace majc::soc {

void Fifo::push(std::span<const u8> data) {
  require(can_push(static_cast<u32>(data.size())), "NUPA FIFO overflow");
  bytes_.insert(bytes_.end(), data.begin(), data.end());
  pushed_ += data.size();
}

u32 Fifo::pop(std::span<u8> out) {
  const u32 n = std::min<u32>(static_cast<u32>(out.size()), occupancy());
  for (u32 i = 0; i < n; ++i) {
    out[i] = bytes_.front();
    bytes_.pop_front();
  }
  return n;
}

Cycle IoPort::move(Addr mem_addr, u32 bytes, bool inbound, Cycle now) {
  // Chunk at cache-line granularity through the crossbar to the memory
  // controller. Chunks pipeline: the crossbar port and the DRDRAM channel
  // each pace themselves through their own occupancy clocks, so sustained
  // rate converges to min(port bandwidth, 1.6 GB/s) instead of serializing
  // a full latency round trip per chunk.
  Cycle done = now;
  for (u32 off = 0; off < bytes; off += kLineBytes) {
    const u32 chunk = std::min(kLineBytes, bytes - off);
    if (inbound) {
      const Cycle at_mem =
          ms_.xbar().transfer(port_, mem::Port::kMem, chunk, now);
      done = std::max(done, ms_.dram().request(mem_addr + off, chunk, at_mem));
    } else {
      const Cycle from_mem = ms_.dram().request(mem_addr + off, chunk, now);
      done = std::max(done,
                      ms_.xbar().transfer(mem::Port::kMem, port_, chunk,
                                          from_mem));
    }
  }
  return done;
}

Cycle IoPort::dma_in(Addr dst, std::span<const u8> data, Cycle now) {
  mem_.write(dst, data);
  // Device writes go straight to DRAM; stale cached copies must vanish.
  for (Addr line = dst & ~Addr{kLineBytes - 1}; line < dst + data.size();
       line += kLineBytes) {
    ms_.dcache().invalidate(line);
  }
  bytes_in_ += data.size();
  return move(dst, static_cast<u32>(data.size()), /*inbound=*/true, now);
}

Cycle IoPort::stream(u32 bytes, bool inbound, Cycle now) {
  (inbound ? bytes_in_ : bytes_out_) += bytes;
  return move(/*mem_addr=*/0, bytes, inbound, now);
}

Cycle NupaPort::push_fifo(std::span<const u8> data, Cycle now) {
  fifo_.push(data);
  // FIFO fill runs at the UPA line rate but does not cross to memory.
  return now + static_cast<Cycle>(static_cast<double>(data.size()) / line_rate_) + 1;
}

} // namespace majc::soc
