// Threaded-code translation backend for the functional simulator.
//
// The MAJC premise — a statically scheduled VLIW whose packet structure is
// fully known before issue — applies to the host side of the model too: the
// predecoded Program already names every operand, destination and control
// target, so instead of re-interpreting packets through the generic
// execute_packet switch, a one-time translation pass lowers each packet into
// a short run of fixed-size dispatch records ("threaded code"). A
// computed-goto inner loop (labels-as-values; GCC and Clang) then executes
// records back-to-back with no per-packet virtual dispatch, meta lookup, or
// SlotEffects marshalling.
//
// Translation is purely host-side: guest-visible state (registers, memory,
// traps, checkpoints, arch_digest, stats) is bit-identical to the
// interpreter. tests/test_backend_equiv.cpp pins that invariant across all
// 16 Table 1/2 kernels, under fault injection, and across checkpoint
// boundaries.
//
// Lowering rules (DESIGN.md §13):
//  * A packet's slots execute with parallel-read semantics; the translator
//    lowers them to sequential records only when the execution order can be
//    proven equivalent (no earlier-executed slot's destinations intersect a
//    later slot's sources or destinations). Otherwise the packet becomes a
//    single kGenericPacket record that calls execute_packet verbatim.
//  * Trap-capable slot-0 ops (memory, div) execute first, so a trapping
//    packet commits nothing — the interpreter's precise-trap contract.
//    Control transfers execute last, after the other slots committed.
//  * dotp and fmadd get direct records, and adjacent ones inside a packet
//    fuse (dotp pairs and triples, fmadd pairs). These are the only fusions
//    kept: each other family was ablated per kernel and bought nothing
//    measurable. Every record belongs to exactly one packet.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/isa/encoding.h"
#include "src/support/types.h"

namespace majc::sim {

class Program;

/// Record index sentinel: "no translated target" (branch to a non-boundary
/// address or off the end of the image — resolved, and trapped, at runtime).
inline constexpr u32 kNoRec = ~u32{0};

/// Static translation statistics: what the 16 kernels' packets look like and
/// which fusion rules fired (majc_run --shape-stats).
struct ShapeStats {
  u64 packets = 0;          // packets translated
  u64 records = 0;          // dispatch records emitted
  u64 generic_packets = 0;  // packets lowered to kGenericPacket
  u64 fused_pairs = 0;      // intra-packet pair fusions
  /// Packet shape (slot mnemonics joined with '+') -> static occurrence
  /// count. std::map keeps the output deterministic.
  std::map<std::string, u64> shapes;
  /// Fused record name -> static occurrence count.
  std::map<std::string, u64> fused;
};

/// Render stats as text: totals plus the `top_n` most common shapes and
/// every fused-shape count (deterministic: count desc, then name).
std::string format_shape_stats(const ShapeStats& s, std::size_t top_n = 12);

/// The translated form of one Program.
struct ThreadedCode {
  /// One dispatch record. 24 bytes, meaning depends on `kind`; `pc` is the
  /// owning packet's address (trap context / cap-exit pc), `pk_add` /
  /// `ins_add` are the retire increments carried by the last record of each
  /// packet (0 on interior records).
  struct Rec {
    u8 kind = 0;
    u8 a = 0, b = 0, c = 0, d = 0, e = 0;  // physical registers / selectors
    u8 pk_add = 0, ins_add = 0;
    i32 imm = 0;
    i32 imm2 = 0;
    u32 arg = 0;  // record index (control) / side-table index / value
    u32 pc = 0;   // owning packet's address
  };
  static_assert(sizeof(Rec) == 24);

  /// Side-table entry for slot ops executed through the per-class
  /// executors (SIMD / FP32 / FP64) — exact semantics reuse.
  struct SlotOp {
    isa::Instr in;
    u8 fu = 0;
  };

  std::vector<Rec> recs;    // all packets, program order, execution order
  std::vector<u32> entry;   // packet index -> first record index
  std::vector<SlotOp> slot_ops;
  ShapeStats stats;
};

/// Lower every packet of `prog` into threaded code. Pure function of the
/// Program; called once per image through Program::threaded().
ThreadedCode translate(const Program& prog);

} // namespace majc::sim
