// Byte-addressed memory abstraction used by the functional executor.
//
// The functional simulator uses a FlatMemory directly; the cycle-accurate
// SoC model layers caches / DRDRAM timing on top while funneling actual data
// through the same interface, so functional and timed runs are guaranteed to
// compute identical values.
//
// The model is little-endian (a host-convenience choice; the paper's
// benchmarks are endian-agnostic). Accesses must be naturally aligned;
// misaligned or out-of-bounds accesses raise an architected trap
// (src/support/trap.h) that the run loops deliver precisely.
#pragma once

#include <algorithm>
#include <span>

#include "src/support/types.h"

namespace majc::sim {

class MemoryBus {
public:
  virtual ~MemoryBus() = default;

  virtual void read(Addr addr, std::span<u8> out) = 0;
  virtual void write(Addr addr, std::span<const u8> in) = 0;

  // Typed helpers (little-endian, alignment-checked).
  u8 read_u8(Addr a);
  u16 read_u16(Addr a);
  u32 read_u32(Addr a);
  u64 read_u64(Addr a);
  void write_u8(Addr a, u8 v);
  void write_u16(Addr a, u16 v);
  void write_u32(Addr a, u32 v);
  void write_u64(Addr a, u64 v);
};

/// Bounds-checked backing store starting at address 0: an anonymous private
/// mapping, so constructing a machine allocates no arena memory and the
/// host keeps only the pages a guest writes resident (pages that are only
/// read map the kernel's shared zero page). Whole-arena operations
/// (digest, checkpoint save, reset) visit the arena in 4 KB pages and skip
/// the all-zero ones, so a job pays for the pages its guest wrote, not for
/// the arena's size.
class FlatMemory final : public MemoryBus {
public:
  static constexpr std::size_t kDefaultBytes = 32u << 20;
  static constexpr std::size_t kPageBytes = 4096;

  /// Throws majc::Error if the mapping fails.
  explicit FlatMemory(std::size_t bytes = kDefaultBytes);
  ~FlatMemory() override;
  FlatMemory(FlatMemory&& o) noexcept;
  FlatMemory& operator=(FlatMemory&& o) noexcept;

  void read(Addr addr, std::span<u8> out) override;
  void write(Addr addr, std::span<const u8> in) override;

  std::size_t size() const { return size_; }
  std::span<u8> raw() { return {base_, size_}; }
  std::span<const u8> raw() const { return {base_, size_}; }

  /// Calls fn(offset, page) for every 4 KB page, in address order, that
  /// holds a non-zero byte. A short tail page is visited like any other.
  template <class Fn> void for_each_nonzero_page(Fn&& fn) const {
    for (std::size_t off = 0; off < size_; off += kPageBytes) {
      const std::span<const u8> page(base_ + off,
                                     std::min(kPageBytes, size_ - off));
      if (!is_zero(page)) fn(off, page);
    }
  }

  /// Zero the arena, writing only the pages that are not already zero.
  void clear();

private:
  static bool is_zero(std::span<const u8> page);

  u8* base_ = nullptr;
  std::size_t size_ = 0;
};

} // namespace majc::sim
