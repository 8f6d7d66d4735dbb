#include "src/sim/memory.h"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "src/support/error.h"
#include "src/support/trap.h"

namespace majc::sim {
namespace {

void check_align(Addr a, std::size_t n) {
  if (n > 1 && (a % n) != 0) {
    raise_trap(TrapCause::kMisaligned,
               "misaligned " + std::to_string(n) +
                   "-byte access at address " + std::to_string(a));
  }
}

} // namespace

u8 MemoryBus::read_u8(Addr a) {
  u8 v;
  read(a, {&v, 1});
  return v;
}

u16 MemoryBus::read_u16(Addr a) {
  check_align(a, 2);
  u8 b[2];
  read(a, b);
  u16 v;
  std::memcpy(&v, b, 2);
  return v;
}

u32 MemoryBus::read_u32(Addr a) {
  check_align(a, 4);
  u8 b[4];
  read(a, b);
  u32 v;
  std::memcpy(&v, b, 4);
  return v;
}

u64 MemoryBus::read_u64(Addr a) {
  check_align(a, 8);
  u8 b[8];
  read(a, b);
  u64 v;
  std::memcpy(&v, b, 8);
  return v;
}

void MemoryBus::write_u8(Addr a, u8 v) { write(a, {&v, 1}); }

void MemoryBus::write_u16(Addr a, u16 v) {
  check_align(a, 2);
  u8 b[2];
  std::memcpy(b, &v, 2);
  write(a, b);
}

void MemoryBus::write_u32(Addr a, u32 v) {
  check_align(a, 4);
  u8 b[4];
  std::memcpy(b, &v, 4);
  write(a, b);
}

void MemoryBus::write_u64(Addr a, u64 v) {
  check_align(a, 8);
  u8 b[8];
  std::memcpy(b, &v, 8);
  write(a, b);
}

FlatMemory::FlatMemory(std::size_t bytes) : size_(bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    fail("memory: cannot map a " + std::to_string(bytes) +
         "-byte arena: " + std::strerror(errno));
  }
  // Keep residency at 4 KB granularity where the host would otherwise back
  // a touched region with 2 MB pages (advisory; a refusal changes nothing).
  madvise(p, bytes, MADV_NOHUGEPAGE);
  base_ = static_cast<u8*>(p);
}

FlatMemory::~FlatMemory() {
  if (base_ != nullptr) munmap(base_, size_);
}

FlatMemory::FlatMemory(FlatMemory&& o) noexcept
    : base_(std::exchange(o.base_, nullptr)),
      size_(std::exchange(o.size_, 0)) {}

FlatMemory& FlatMemory::operator=(FlatMemory&& o) noexcept {
  if (this != &o) {
    if (base_ != nullptr) munmap(base_, size_);
    base_ = std::exchange(o.base_, nullptr);
    size_ = std::exchange(o.size_, 0);
  }
  return *this;
}

bool FlatMemory::is_zero(std::span<const u8> page) {
  static constexpr u8 kZeroPage[kPageBytes] = {};
  return std::memcmp(page.data(), kZeroPage, page.size()) == 0;
}

void FlatMemory::clear() {
  for_each_nonzero_page([this](std::size_t off, std::span<const u8> page) {
    std::memset(base_ + off, 0, page.size());
  });
}

void FlatMemory::read(Addr addr, std::span<u8> out) {
  if (addr + out.size() > size_) {
    raise_trap(TrapCause::kOutOfBounds,
               "memory read out of bounds at address " + std::to_string(addr));
  }
  std::memcpy(out.data(), base_ + addr, out.size());
}

void FlatMemory::write(Addr addr, std::span<const u8> in) {
  if (addr + in.size() > size_) {
    raise_trap(TrapCause::kOutOfBounds,
               "memory write out of bounds at address " + std::to_string(addr));
  }
  std::memcpy(base_ + addr, in.data(), in.size());
}

} // namespace majc::sim
