// Deterministic checkpoint / restore of full machine state (DESIGN.md §8).
//
// A checkpoint is a versioned little-endian binary image of everything a
// simulator needs to resume cycle-for-cycle identically: register files and
// trap-unit state, the flat memory (sparse: all-zero 4 KB pages are
// elided), cache tags + LRU, LSU buffers and MSHRs, branch-predictor
// counters and history, fault-plan event indices (fill / grant counters),
// cycle counters and statistics. Serialization order is fixed — unordered
// containers are emitted sorted by key — so saving the same state twice
// produces byte-identical files.
//
// Format (version 2):
//
//   magic   8 bytes   "MAJCCKPT"
//   version u32       kVersion
//   mode    u8        Mode: 0 = functional; otherwise the cycle-accurate
//                     machine's CPU count (1 = "cycle", 2 = "chip")
//   config  u64       config_fingerprint(TimingConfig) — 0 for functional
//   image   u64       image_hash(masm::Image)
//   body              tagged component sections (see checkpoint.cpp)
//
// Version 2 is the first format with one cycle-accurate machine
// (soc::Majc5200, 1 or 2 CPUs): a single-CPU body is the chip body with one
// CPU section, where version 1 wrote a separate single-CPU layout.
//
// Compatibility rule: a checkpoint restores only into a simulator built
// from the SAME image with the SAME TimingConfig (including FaultConfig)
// and the same mode — for the cycle machine, the same CPU count; version
// bumps are never read across. Restore throws majc::Error on any mismatch
// rather than guessing — resuming under a different configuration would
// silently produce different timing. Every count read from the body is
// bounded by the capacity it describes (or by the bytes left to read), so
// a corrupt file also ends in majc::Error, never in an allocation failure.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/support/error.h"
#include "src/support/types.h"

namespace majc {
struct TimingConfig;
}
namespace majc::masm {
struct Image;
}
namespace majc::sim {
class FunctionalSim;
}
namespace majc::soc {
class Majc5200;
}

namespace majc::ckpt {

inline constexpr char kMagic[8] = {'M', 'A', 'J', 'C', 'C', 'K', 'P', 'T'};
inline constexpr u32 kVersion = 2;

/// Which simulator wrote the checkpoint. A checkpoint restores only into
/// the same mode. The cycle-accurate modes are the machine's CPU count.
enum class Mode : u8 {
  kFunctional = 0,
  kCycle = 1,  // soc::Majc5200 with one CPU
  kChip = 2,   // soc::Majc5200 with two CPUs
};

constexpr const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kFunctional: return "functional";
    case Mode::kCycle: return "cycle";
    case Mode::kChip: return "chip";
  }
  return "?";
}

/// Append-only little-endian byte sink. Primitive names are put_* / get_*
/// (not overloads named after the types) so the u8/u16/... type aliases
/// stay usable inside the class.
class Writer {
public:
  void put_u8(u8 v) { buf_.push_back(v); }
  void put_u16(u16 v);
  void put_u32(u32 v);
  void put_u64(u64 v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_f64(double v);  // bit-exact (bit_cast to u64)
  void put_bytes(std::span<const u8> v);
  void put_string(const std::string& s);
  /// Four-character section tag; Reader::expect_tag verifies it, making a
  /// layout drift a loud error instead of silently misparsed state.
  void put_tag(const char (&tag)[5]);

  const std::vector<u8>& bytes() const { return buf_; }
  std::vector<u8> take() { return std::move(buf_); }

private:
  std::vector<u8> buf_;
};

/// Bounds-checked little-endian reader over a checkpoint image. Any
/// overrun or tag mismatch throws majc::Error (truncated / corrupt file).
class Reader {
public:
  explicit Reader(std::span<const u8> data) : data_(data) {}

  u8 get_u8();
  u16 get_u16();
  u32 get_u32();
  u64 get_u64();
  bool get_bool() { return get_u8() != 0; }
  double get_f64();
  void get_bytes(std::span<u8> out);
  std::string get_string();
  void expect_tag(const char (&tag)[5]);

  std::size_t remaining() const { return data_.size() - pos_; }

private:
  void need(std::size_t n) const;

  std::span<const u8> data_;
  std::size_t pos_ = 0;
};

/// FNV-1a fingerprint over every TimingConfig field (doubles via their bit
/// patterns), including the nested FaultConfig. Guards restore against a
/// run resumed under different timing — see the compatibility rule above.
u64 config_fingerprint(const TimingConfig& cfg);

/// FNV-1a over the image's code, data, bases and entry (symbols excluded:
/// they do not affect execution).
u64 image_hash(const masm::Image& img);

/// FNV-1a digest of architectural outcome (memory contents + registers +
/// pc): two runs that agree here computed the same results. Reported in
/// majc-stats-v1 so a restored run can be compared against an unbroken one.
/// The cycle machine hashes only the CPUs it has, so a one-CPU digest
/// covers exactly one CPU's threads.
u64 arch_digest(const sim::FunctionalSim& s);
u64 arch_digest(const soc::Majc5200& s);

/// Serialize the full state of a simulator (header + body).
std::vector<u8> save_checkpoint(const sim::FunctionalSim& s);
std::vector<u8> save_checkpoint(const soc::Majc5200& s);

/// Restore into a freshly constructed (or reset) simulator (same image,
/// same config, same mode). Throws majc::Error on any header mismatch,
/// short read or out-of-range count.
void restore_checkpoint(sim::FunctionalSim& s, std::span<const u8> bytes);
void restore_checkpoint(soc::Majc5200& s, std::span<const u8> bytes);

/// Mode recorded in a checkpoint header (validates magic + version only).
Mode peek_mode(std::span<const u8> bytes);

/// File helpers (binary, whole-file). Throw majc::Error on I/O failure.
void write_checkpoint_file(const std::string& path,
                           std::span<const u8> bytes);
std::vector<u8> read_checkpoint_file(const std::string& path);

} // namespace majc::ckpt
