// Threaded-code backend: translation pass + computed-goto dispatch loop.
//
// See threaded.h for the lowering rules and DESIGN.md §13 for the
// equivalence argument. The executor is written against the same semantic
// primitives as the interpreter (CpuState::read/write, the MemoryBus typed
// helpers on the trap path, the per-class exec_* functions for SIMD/FP and
// execute_packet for generic packets), so every guest-visible outcome —
// including trap cause/detail strings — is bit-identical by construction.
#include "src/sim/threaded.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>

#include "src/sim/exec.h"
#include "src/sim/functional_sim.h"
#include "src/sim/predecode.h"
#include "src/support/saturate.h"
#include "src/support/trap.h"

namespace majc::sim {
namespace {

using isa::Instr;
using isa::Op;
using isa::PhysReg;

// Record kinds. The X-macro keeps the enum and the computed-goto label
// table in lockstep (a mismatch is a compile error, not a misdispatch).
#define MAJC_REC_KINDS(X)                                                     \
  /* R-form ALU: a=rd, b=rs1, c=rs2 */                                        \
  X(kAdd) X(kSub) X(kAnd) X(kOr) X(kXor) X(kAndn) X(kSll) X(kSrl) X(kSra)     \
  X(kCmpeq) X(kCmpne) X(kCmplt) X(kCmple) X(kCmpltu) X(kCmpleu)               \
  X(kCmovnz) X(kCmovz) X(kPick) X(kSatadd) X(kSatsub)                         \
  /* I-form ALU: a=rd, b=rs1, imm */                                          \
  X(kAddi) X(kAndi) X(kOri) X(kXori) X(kSlli) X(kSrli) X(kSrai)               \
  X(kOrlo) X(kSetImm) X(kGettick)                                             \
  /* integer multiply family: a=rd, b=rs1, c=rs2 */                           \
  X(kMul) X(kMulhi) X(kMulhiu) X(kMadd) X(kMsub) X(kDiv) X(kDivu)             \
  /* memory: ea = read(b) + read(c) + imm; a = data register */               \
  X(kLdb) X(kLdbu) X(kLdh) X(kLdhu) X(kLdw) X(kLdl) X(kLdg)                   \
  X(kStb) X(kSth) X(kStw) X(kStl) X(kStg) X(kStcw) X(kCas) X(kSwap)           \
  /* control (slot 0, executed last) */                                       \
  X(kBnz) X(kBz) X(kCallRec) X(kJmplRec) X(kHaltRec)                          \
  X(kTrapCon) X(kSettvecRec)                                                  \
  /* SIMD / FP through the per-class executors: arg = slot_ops index */      \
  X(kSlotOp)                                                                  \
  /* direct SIMD / FP specializations for the Table 1/2 hot ops, and the */   \
  /* in-packet fusions of them that pay for their lines (DESIGN.md §13) */    \
  X(kDotp) X(kDotp2) X(kDotp3) X(kFmaddF32) X(kFmadd2)                        \
  /* deferred-commit parallel packet: optional mem slot 0 + slot-op slots */  \
  X(kMemSlots)                                                                \
  /* fallbacks / sentinels */                                                 \
  X(kNopRec) X(kGenericPacket) X(kEndOfCode)

enum Kind : u8 {
#define MAJC_KIND_ENUM(k) k,
  MAJC_REC_KINDS(MAJC_KIND_ENUM)
#undef MAJC_KIND_ENUM
      kNumKinds
};
static_assert(kNumKinds <= 256);

using Rec = ThreadedCode::Rec;
using SlotOp = ThreadedCode::SlotOp;

// ---------------------------------------------------------------------------
// Translation
// ---------------------------------------------------------------------------

/// Does slot 0 of this packet redirect control flow? Such packets execute
/// slots 1..w-1 first and the transfer last (the transfer decides the next
/// record, after the other slots committed).
bool is_transfer(const Instr& in) {
  const isa::OpInfo& info = in.info();
  return info.has(isa::kBranch) || info.has(isa::kCall) ||
         info.has(isa::kJump) || info.has(isa::kHalt);
}

/// Sequential execution in `order` is equivalent to the packet's parallel
/// read / joint commit iff no earlier-executed slot's destinations intersect
/// a later-executed slot's sources or destinations.
bool sequential_ok(const PacketMeta& m, const u32* order, u32 n) {
  for (u32 ei = 0; ei + 1 < n; ++ei) {
    const auto& de = m.slot[order[ei]].dests;
    if (de.size() == 0) continue;
    for (u32 li = ei + 1; li < n; ++li) {
      const u32 l = order[li];
      for (PhysReg r : de) {
        for (const PacketMeta::SrcRead& s : m.srcs) {
          if (s.fu == l && s.reg == r) return false;
        }
        for (PhysReg dl : m.slot[l].dests) {
          if (dl == r) return false;
        }
      }
    }
  }
  return true;
}

/// Lower one slot to a record. Returns false when the op has no specialized
/// lowering (the whole packet then falls back to kGenericPacket).
bool lower_slot(const Instr& in, u32 fu, const PacketMeta& m,
                std::vector<Rec>& out, std::vector<SlotOp>& slot_ops) {
  const isa::OpInfo& info = in.info();
  Rec r;
  r.pc = static_cast<u32>(m.pc);
  const PhysReg rd = isa::to_phys(in.rd, fu);
  const PhysReg rs1 = isa::to_phys(in.rs1, fu);
  const PhysReg rs2 = isa::to_phys(in.rs2, fu);

  auto rrr = [&](u8 kind) {
    r.kind = kind;
    r.a = rd;
    r.b = rs1;
    r.c = rs2;
    out.push_back(r);
  };
  auto rri = [&](u8 kind) {
    r.kind = kind;
    r.a = rd;
    r.b = rs1;
    r.imm = in.imm;
    out.push_back(r);
  };
  auto set_imm = [&](u32 value) {
    r.kind = kSetImm;
    r.a = rd;
    r.arg = value;
    out.push_back(r);
  };
  // Unified load/store addressing: ea = read(b) + read(c) + imm. The R form
  // uses (rs1, rs2, 0); the I form uses (rs1, g0, imm) — g0 reads zero.
  auto mem = [&](u8 kind) {
    r.kind = kind;
    r.a = rd;
    r.b = rs1;
    if (info.form == isa::Form::kI) {
      r.c = 0;
      r.imm = in.imm;
    } else {
      r.c = rs2;
      r.imm = 0;
    }
    out.push_back(r);
  };
  auto slot_op = [&](u8 kind) {
    r.kind = kind;
    r.arg = static_cast<u32>(slot_ops.size());
    slot_ops.push_back({in, static_cast<u8>(fu)});
    out.push_back(r);
  };

  switch (in.op) {
    case Op::kAdd: rrr(kAdd); return true;
    case Op::kSub: rrr(kSub); return true;
    case Op::kAnd: rrr(kAnd); return true;
    case Op::kOr: rrr(kOr); return true;
    case Op::kXor: rrr(kXor); return true;
    case Op::kAndn: rrr(kAndn); return true;
    case Op::kSll: rrr(kSll); return true;
    case Op::kSrl: rrr(kSrl); return true;
    case Op::kSra: rrr(kSra); return true;
    case Op::kCmpeq: rrr(kCmpeq); return true;
    case Op::kCmpne: rrr(kCmpne); return true;
    case Op::kCmplt: rrr(kCmplt); return true;
    case Op::kCmple: rrr(kCmple); return true;
    case Op::kCmpltu: rrr(kCmpltu); return true;
    case Op::kCmpleu: rrr(kCmpleu); return true;
    case Op::kCmovnz: rrr(kCmovnz); return true;
    case Op::kCmovz: rrr(kCmovz); return true;
    case Op::kPick: rrr(kPick); return true;
    case Op::kSatadd: rrr(kSatadd); return true;
    case Op::kSatsub: rrr(kSatsub); return true;
    case Op::kAddi: rri(kAddi); return true;
    case Op::kAndi: rri(kAndi); return true;
    case Op::kOri: rri(kOri); return true;
    case Op::kXori: rri(kXori); return true;
    case Op::kSlli: rri(kSlli); return true;
    case Op::kSrli: rri(kSrli); return true;
    case Op::kSrai: rri(kSrai); return true;
    case Op::kSetlo: set_imm(static_cast<u32>(in.imm)); return true;
    case Op::kSethi:
      set_imm(static_cast<u32>(in.imm & 0xFFFF) << 16);
      return true;
    case Op::kOrlo:
      r.kind = kOrlo;
      r.a = rd;
      r.imm = in.imm;
      out.push_back(r);
      return true;
    case Op::kMul: rrr(kMul); return true;
    case Op::kMulhi: rrr(kMulhi); return true;
    case Op::kMulhiu: rrr(kMulhiu); return true;
    case Op::kMadd: rrr(kMadd); return true;
    case Op::kMsub: rrr(kMsub); return true;
    case Op::kDiv: rrr(kDiv); return true;
    case Op::kDivu: rrr(kDivu); return true;
    case Op::kLdb: case Op::kLdbi: mem(kLdb); return true;
    case Op::kLdbu: case Op::kLdbui: mem(kLdbu); return true;
    case Op::kLdh: case Op::kLdhi: mem(kLdh); return true;
    case Op::kLdhu: case Op::kLdhui: mem(kLdhu); return true;
    case Op::kLdw: case Op::kLdwi: mem(kLdw); return true;
    case Op::kLdl: case Op::kLdli: mem(kLdl); return true;
    case Op::kLdg: case Op::kLdgi: mem(kLdg); return true;
    case Op::kStb: case Op::kStbi: mem(kStb); return true;
    case Op::kSth: case Op::kSthi: mem(kSth); return true;
    case Op::kStw: case Op::kStwi: mem(kStw); return true;
    case Op::kStl: case Op::kStli: mem(kStl); return true;
    case Op::kStg: case Op::kStgi: mem(kStg); return true;
    case Op::kStcw: rrr(kStcw); return true;
    case Op::kCas: rrr(kCas); return true;
    case Op::kSwap: rrr(kSwap); return true;
    case Op::kPref: case Op::kPrefi: case Op::kMembar:
      // Non-faulting, no architectural effect in functional mode: emit
      // nothing (the packet's ins_add still counts the instruction).
      return true;
    case Op::kBnz:
    case Op::kBz:
      r.kind = in.op == Op::kBnz ? kBnz : kBz;
      r.a = rd;  // condition register
      r.imm = in.imm;
      r.arg = m.taken_index;  // packet index; patched to a record index
      out.push_back(r);
      return true;
    case Op::kCall:
      r.kind = kCallRec;
      r.imm = in.imm;
      r.arg = m.taken_index;
      out.push_back(r);
      return true;
    case Op::kJmpl:
      r.kind = kJmplRec;
      r.a = rd;
      r.b = rs1;
      out.push_back(r);
      return true;
    case Op::kHalt:
      r.kind = kHaltRec;
      out.push_back(r);
      return true;
    case Op::kNop:
      return true;  // no record; counted through ins_add
    case Op::kTrap:
      r.kind = kTrapCon;
      r.a = rs1;
      r.imm = in.imm;
      out.push_back(r);
      return true;
    case Op::kGetcpu:
    case Op::kGettid:
      set_imm(0);  // FunctionalSim runs cpu 0 / thread 0
      return true;
    case Op::kGettick:
      r.kind = kGettick;
      r.a = rd;
      out.push_back(r);
      return true;
    case Op::kSettvec:
      r.kind = kSettvecRec;
      r.a = rd;
      out.push_back(r);
      return true;
    case Op::kMftr:
    case Op::kRett:
      // Trap-handler plumbing: cold by construction; the generic lowering
      // reuses execute_packet and is exactly the interpreter.
      return false;
    case Op::kDotp: rrr(kDotp); return true;    // Table 2 DCT/FIR workhorse
    case Op::kFmadd: rrr(kFmaddF32); return true;  // FP FIR/LMS workhorse
    default:
      if (info.cls == isa::OpClass::kSimd || info.cls == isa::OpClass::kFp32 ||
          info.cls == isa::OpClass::kFp64) {
        slot_op(kSlotOp);
        return true;
      }
      return false;
  }
}

/// Memory record kind for ops with the unified ea = b + c + imm lowering
/// (kMemSlots packs one of these beside its slot ops); -1 for anything else.
int mem_kind_of(Op op) {
  switch (op) {
    case Op::kLdb: case Op::kLdbi: return kLdb;
    case Op::kLdbu: case Op::kLdbui: return kLdbu;
    case Op::kLdh: case Op::kLdhi: return kLdh;
    case Op::kLdhu: case Op::kLdhui: return kLdhu;
    case Op::kLdw: case Op::kLdwi: return kLdw;
    case Op::kLdl: case Op::kLdli: return kLdl;
    case Op::kLdg: case Op::kLdgi: return kLdg;
    case Op::kStb: case Op::kStbi: return kStb;
    case Op::kSth: case Op::kSthi: return kSth;
    case Op::kStw: case Op::kStwi: return kStw;
    case Op::kStl: case Op::kStli: return kStl;
    case Op::kStg: case Op::kStgi: return kStg;
    default: return -1;
  }
}

/// Fuse adjacent records of one packet (the list is in execution order and
/// already proven sequential-equivalent, so combining two neighbours into
/// one record preserves semantics). Returns true and writes `f` on a match.
bool fuse_pair(const Rec& x, const Rec& y, ShapeStats& stats, Rec& f) {
  if (x.kind == kDotp && y.kind == kDotp) {
    f = Rec{};
    f.kind = kDotp2;
    f.a = x.a;
    f.b = x.b;
    f.c = x.c;
    f.d = y.a;
    f.e = y.b;
    f.imm = y.c;
    ++stats.fused["dotp+dotp"];
    return true;
  }
  if (x.kind == kDotp2 && y.kind == kDotp) {
    // Chained by the peephole's re-check after each fusion.
    f = x;
    f.kind = kDotp3;
    f.imm2 = static_cast<i32>(static_cast<u32>(x.imm & 0xFF) |
                              (u32{y.a} << 8) | (u32{y.b} << 16) |
                              (u32{y.c} << 24));
    ++stats.fused["dotp+dotp+dotp"];
    return true;
  }
  if (x.kind == kFmaddF32 && y.kind == kFmaddF32) {
    f = Rec{};
    f.kind = kFmadd2;
    f.a = x.a;
    f.b = x.b;
    f.c = x.c;
    f.d = y.a;
    f.e = y.b;
    f.imm = y.c;
    ++stats.fused["fmadd+fmadd"];
    return true;
  }
  return false;
}

} // namespace

std::string format_shape_stats(const ShapeStats& s, std::size_t top_n) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "packets %llu  records %llu  generic %llu  fused-pairs %llu\n",
                static_cast<unsigned long long>(s.packets),
                static_cast<unsigned long long>(s.records),
                static_cast<unsigned long long>(s.generic_packets),
                static_cast<unsigned long long>(s.fused_pairs));
  out += buf;
  auto dump = [&](const char* title, const std::map<std::string, u64>& m,
                  std::size_t limit) {
    std::vector<std::pair<std::string, u64>> rows(m.begin(), m.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    out += title;
    out += ":\n";
    if (rows.empty()) out += "  (none)\n";
    for (std::size_t i = 0; i < rows.size() && i < limit; ++i) {
      std::snprintf(buf, sizeof buf, "  %-32s %llu\n", rows[i].first.c_str(),
                    static_cast<unsigned long long>(rows[i].second));
      out += buf;
    }
  };
  dump("top packet shapes", s.shapes, top_n);
  dump("fused shapes", s.fused, s.fused.size());
  return out;
}

ThreadedCode translate(const Program& prog) {
  ThreadedCode tc;
  const u32 n = static_cast<u32>(prog.num_packets());
  tc.stats.packets = n;

  // Lower each packet to a run of records in execution order, branch
  // targets still expressed as packet indices.
  tc.entry.resize(n);
  std::vector<Rec> out;  // the current packet's records
  for (u32 i = 0; i < n; ++i) {
    const isa::Packet& p = prog.packet(i);
    const PacketMeta& m = prog.meta(i);

    std::string shape;
    for (u32 s = 0; s < p.width; ++s) {
      if (s) shape += '+';
      shape += p.slot[s].info().mnemonic;
    }
    ++tc.stats.shapes[shape];

    // Execution order: trap-capable slot-0 ops (memory, divide) first so a
    // trapping packet commits nothing; control transfers last so the other
    // slots committed before the flow redirects.
    u32 order[isa::kMaxSlots];
    u32 w = 0;
    const bool transfer = p.width > 0 && is_transfer(p.slot[0]);
    if (transfer) {
      for (u32 s = 1; s < p.width; ++s) order[w++] = s;
      order[w++] = 0;
    } else {
      for (u32 s = 0; s < p.width; ++s) order[w++] = s;
    }

    out.clear();
    bool ok = sequential_ok(m, order, w);
    if (ok) {
      for (u32 s = 0; s < w && ok; ++s) {
        ok = lower_slot(p.slot[order[s]], order[s], m, out, tc.slot_ops);
      }
    }
    if (ok && out.empty()) {
      // nop / prefetch / membar packets: a record must still retire them.
      Rec r;
      r.kind = kNopRec;
      r.pc = static_cast<u32>(m.pc);
      out.push_back(r);
    }
    if (!ok) {
      out.clear();
      // Deferred-commit parallel packet: slot 0 is a unified-addressing
      // memory op (or contributes nothing), every other slot runs through a
      // per-class executor. The slot ops evaluate into scratch effects that
      // commit only after the (trap-capable) memory op succeeded, so this
      // shape needs no hazard proof at all — it IS the parallel-read,
      // slot-order-commit semantics, minus the generic packet walk.
      bool mem_slots_ok = !transfer && p.width >= 2;
      int mk = 0xFF;  // "no memory op"
      if (mem_slots_ok) {
        const Instr& s0 = p.slot[0];
        if (s0.op == Op::kNop || s0.op == Op::kPref || s0.op == Op::kPrefi ||
            s0.op == Op::kMembar) {
          mk = 0xFF;
        } else {
          mk = mem_kind_of(s0.op);
          mem_slots_ok = mk >= 0;
        }
      }
      u32 n_slot_ops = 0;
      if (mem_slots_ok) {
        for (u32 s = 1; s < p.width && mem_slots_ok; ++s) {
          const isa::OpClass cls = p.slot[s].info().cls;
          if (p.slot[s].op == Op::kNop) continue;
          mem_slots_ok = cls == isa::OpClass::kSimd ||
                         cls == isa::OpClass::kFp32 ||
                         cls == isa::OpClass::kFp64;
          if (mem_slots_ok) ++n_slot_ops;
        }
        mem_slots_ok = mem_slots_ok && n_slot_ops > 0;
      }
      if (mem_slots_ok) {
        Rec f;
        f.kind = kMemSlots;
        f.pc = static_cast<u32>(m.pc);
        f.d = static_cast<u8>(mk);
        if (mk != 0xFF) {
          const Instr& s0 = p.slot[0];
          f.a = isa::to_phys(s0.rd, 0);
          f.b = isa::to_phys(s0.rs1, 0);
          if (s0.info().form == isa::Form::kI) {
            f.c = 0;
            f.imm = s0.imm;
          } else {
            f.c = isa::to_phys(s0.rs2, 0);
            f.imm = 0;
          }
        }
        f.arg = static_cast<u32>(tc.slot_ops.size());
        f.e = static_cast<u8>(n_slot_ops);
        for (u32 s = 1; s < p.width; ++s) {
          if (p.slot[s].op == Op::kNop) continue;
          tc.slot_ops.push_back({p.slot[s], static_cast<u8>(s)});
        }
        out.push_back(f);
      } else {
        Rec r;
        r.kind = kGenericPacket;
        r.pc = static_cast<u32>(m.pc);
        r.imm = static_cast<i32>(i);
        r.arg = m.taken_index;  // packet index; patched below
        out.push_back(r);
        ++tc.stats.generic_packets;
      }
    }

    // Intra-packet peephole fusion over adjacent records. A successful
    // fusion re-checks the same position so pairs chain into triples
    // (dotp+dotp+dotp is the DCT kernels' signature shape).
    for (std::size_t j = 0; j + 1 < out.size();) {
      Rec f;
      if (fuse_pair(out[j], out[j + 1], tc.stats, f)) {
        f.pc = out[j].pc;
        out[j] = f;
        out.erase(out.begin() + static_cast<std::ptrdiff_t>(j) + 1);
        ++tc.stats.fused_pairs;
      } else {
        ++j;
      }
    }

    // The last-executed record retires the packet.
    out.back().pk_add = 1;
    out.back().ins_add = static_cast<u8>(m.width);
    tc.entry[i] = static_cast<u32>(tc.recs.size());
    tc.recs.insert(tc.recs.end(), out.begin(), out.end());
  }

  Rec end;
  end.kind = kEndOfCode;
  end.pc = static_cast<u32>(n == 0 ? prog.image().code_base
                                   : prog.meta(n - 1).fall_through);
  tc.recs.push_back(end);

  // Patch packet indices to record indices now that every entry is known.
  for (Rec& r : tc.recs) {
    switch (r.kind) {
      case kBnz:
      case kBz:
      case kCallRec:
      case kGenericPacket:
        r.arg = r.arg < n ? tc.entry[r.arg] : kNoRec;
        break;
      default:
        break;
    }
  }
  tc.stats.records = tc.recs.size();
  return tc;
}

// ---------------------------------------------------------------------------
// Program integration
// ---------------------------------------------------------------------------

Program::~Program() = default;

const ThreadedCode& Program::threaded() const {
  std::call_once(threaded_once_, [&] {
    threaded_ = std::make_unique<ThreadedCode>(translate(*this));
  });
  return *threaded_;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

struct ExecCtx {
  const Program& prog;
  const ThreadedCode& tc;
  CpuState& st;
  ExecEnv& env;
  PacketScratch& scratch;  // generic-packet fallback's executor storage
  RunResult& res;
  u64& packets_run;
  u64& instrs_run;
  u64 max_packets;
  u8* mbase;
  // Per-granule fast-path bounds: ea <= limN iff [ea, ea+N) is in range
  // (negative when the arena is smaller than the granule).
  i64 lim1, lim2, lim4, lim8, lim32;
};

/// Evaluate one side-table slot op through its per-class executor into `fx`
/// — exact semantics reuse for SIMD/FP (these ops cannot trap: the executors
/// cover every opcode of their class).
inline void eval_slot_op(ExecCtx& cx, const SlotOp& so, SlotEffects& fx) {
  switch (so.in.info().cls) {
    case isa::OpClass::kSimd: exec_simd(so.in, so.fu, cx.st, fx); break;
    case isa::OpClass::kFp32: exec_fp32(so.in, so.fu, cx.st, fx); break;
    default: exec_fp64(so.in, so.fu, cx.st, fx); break;
  }
}

inline void run_slot_op(ExecCtx& cx, u32 idx) {
  SlotEffects fx;
  eval_slot_op(cx, cx.tc.slot_ops[idx], fx);
  for (const WriteBack& wb : fx.writes) cx.st.write(wb.reg, wb.value);
}

// Direct-specialization helpers; bit-exact twins of the exec_simd / exec_fp32
// bodies for dotp and fmadd.
constexpr i32 sx16(u32 v) { return static_cast<i16>(static_cast<u16>(v)); }

inline u32 dotp_eval(u32 old, u32 a, u32 b) {
  return old + static_cast<u32>(sx16(a >> 16) * sx16(b >> 16) +
                                sx16(a) * sx16(b));
}

inline u32 fmadd_eval(u32 acc, u32 a, u32 b) {
  return std::bit_cast<u32>(std::fmaf(std::bit_cast<float>(a),
                                      std::bit_cast<float>(b),
                                      std::bit_cast<float>(acc)));
}

/// The deferred memory op of a kMemSlots record: executes (and may throw)
/// before any slot-op effect commits, then commits its own loads — slot 0
/// commits first, like the interpreter. Uses the MemoryBus typed helpers for
/// identical trap cause/detail text.
void exec_mem_slot(ExecCtx& cx, CpuState& st, const Rec* rp) {
  st.pc = rp->pc;
  const u32 ea = st.read(rp->b) + st.read(rp->c) + static_cast<u32>(rp->imm);
  MemoryBus& mem = cx.env.mem;
  switch (rp->d) {
    case kLdb:
      st.write(rp->a, static_cast<u32>(static_cast<i32>(
                          static_cast<i8>(mem.read_u8(ea)))));
      break;
    case kLdbu: st.write(rp->a, mem.read_u8(ea)); break;
    case kLdh:
      st.write(rp->a, static_cast<u32>(static_cast<i32>(
                          static_cast<i16>(mem.read_u16(ea)))));
      break;
    case kLdhu: st.write(rp->a, mem.read_u16(ea)); break;
    case kLdw: st.write(rp->a, mem.read_u32(ea)); break;
    case kLdl: {
      const u64 v = mem.read_u64(ea);
      st.write(rp->a, static_cast<u32>(v >> 32));
      st.write(static_cast<PhysReg>(rp->a + 1), static_cast<u32>(v));
      break;
    }
    case kLdg: {
      u32 tmp[8];  // gather before committing (trapping ldg commits nothing)
      for (u32 i = 0; i < 8; ++i) tmp[i] = mem.read_u32(ea + 4 * i);
      for (u32 i = 0; i < 8; ++i) {
        st.write(static_cast<PhysReg>(rp->a + i), tmp[i]);
      }
      break;
    }
    case kStb: mem.write_u8(ea, static_cast<u8>(st.read(rp->a))); break;
    case kSth: mem.write_u16(ea, static_cast<u16>(st.read(rp->a))); break;
    case kStw: mem.write_u32(ea, st.read(rp->a)); break;
    case kStl:
      mem.write_u64(ea, (u64{st.read(rp->a)} << 32) |
                            st.read(static_cast<PhysReg>(rp->a + 1)));
      break;
    default:  // kStg
      for (u32 i = 0; i < 8; ++i) {
        mem.write_u32(ea + 4 * i, st.read(static_cast<PhysReg>(rp->a + i)));
      }
      break;
  }
}

// Computed-goto dispatch (labels-as-values; the build supports only GCC and
// Clang, which both provide it): CASE(k) is the handler label of kind k.
#define CASE(k) L_##k
#define DISPATCH() goto* kLbl[rp->kind]

// Retire the packet this record completes (interior records carry
// pk_add == 0) and fall through to the next record. On a cap exit st.pc is
// the next unexecuted packet's address — records are contiguous, so rp[1]
// exists (the stream ends with kEndOfCode) and rp[1].pc is the fall-through.
#define RETIRE_NEXT()                                        \
  do {                                                       \
    if (rp->pk_add != 0) {                                   \
      cx.res.packets += rp->pk_add;                          \
      cx.packets_run += rp->pk_add;                          \
      cx.res.instrs += rp->ins_add;                          \
      cx.instrs_run += rp->ins_add;                          \
      if (cx.res.packets >= cx.max_packets) {                \
        st.pc = rp[1].pc;                                    \
        return;                                              \
      }                                                      \
    }                                                        \
    ++rp;                                                    \
    DISPATCH();                                              \
  } while (0)

// Retire a control-transfer record and redirect. Mirrors the interpreter's
// order exactly: retire, then cap check (a cap exit never resolves the
// target — a taken branch to a non-boundary address on the cap-th packet
// exits kPacketCap without trapping), then resolve.
#define RETIRE_TRANSFER(taken_expr)                                          \
  do {                                                                       \
    const bool tk = (taken_expr);                                            \
    cx.res.packets += 1;                                                     \
    cx.packets_run += 1;                                                     \
    cx.res.instrs += rp->ins_add;                                            \
    cx.instrs_run += rp->ins_add;                                            \
    if (tk) {                                                                \
      if (rp->arg != kNoRec) {                                               \
        const Rec* nx = recs + rp->arg;                                      \
        if (cx.res.packets >= cx.max_packets) {                              \
          st.pc = nx->pc;                                                    \
          return;                                                            \
        }                                                                    \
        rp = nx;                                                             \
        DISPATCH();                                                          \
      }                                                                      \
      st.pc = Addr{rp->pc} +                                                 \
              static_cast<Addr>(static_cast<i64>(rp->imm) * 4);              \
      if (cx.res.packets >= cx.max_packets) return;                          \
      cx.prog.index_of(st.pc); /* not a packet boundary: throws */           \
    }                                                                        \
    if (cx.res.packets >= cx.max_packets) {                                  \
      st.pc = rp[1].pc;                                                      \
      return;                                                                \
    }                                                                        \
    ++rp;                                                                    \
    DISPATCH();                                                              \
  } while (0)

/// Run records until the guest halts or the packet cap is reached; throws
/// TrapException for architected traps (the caller delivers or terminates).
/// Invariant at every throw site: st.pc names the faulting packet (or the
/// invalid transfer target), exactly like the interpreter.
void exec_records(ExecCtx& cx, u32 start_rec) {
  const Rec* const recs = cx.tc.recs.data();
  const Rec* rp = recs + start_rec;
  CpuState& st = cx.st;

  static const void* const kLbl[] = {
#define MAJC_KIND_LBL(k) &&L_##k,
      MAJC_REC_KINDS(MAJC_KIND_LBL)
#undef MAJC_KIND_LBL
  };
  DISPATCH();

  CASE(kAdd): {
    st.write(rp->a, st.read(rp->b) + st.read(rp->c));
    RETIRE_NEXT();
  }
  CASE(kSub): {
    st.write(rp->a, st.read(rp->b) - st.read(rp->c));
    RETIRE_NEXT();
  }
  CASE(kAnd): {
    st.write(rp->a, st.read(rp->b) & st.read(rp->c));
    RETIRE_NEXT();
  }
  CASE(kOr): {
    st.write(rp->a, st.read(rp->b) | st.read(rp->c));
    RETIRE_NEXT();
  }
  CASE(kXor): {
    st.write(rp->a, st.read(rp->b) ^ st.read(rp->c));
    RETIRE_NEXT();
  }
  CASE(kAndn): {
    st.write(rp->a, st.read(rp->b) & ~st.read(rp->c));
    RETIRE_NEXT();
  }
  CASE(kSll): {
    st.write(rp->a, st.read(rp->b) << (st.read(rp->c) & 31));
    RETIRE_NEXT();
  }
  CASE(kSrl): {
    st.write(rp->a, st.read(rp->b) >> (st.read(rp->c) & 31));
    RETIRE_NEXT();
  }
  CASE(kSra): {
    st.write(rp->a, static_cast<u32>(static_cast<i32>(st.read(rp->b)) >>
                                     (st.read(rp->c) & 31)));
    RETIRE_NEXT();
  }
  CASE(kCmpeq): {
    st.write(rp->a, st.read(rp->b) == st.read(rp->c) ? 1 : 0);
    RETIRE_NEXT();
  }
  CASE(kCmpne): {
    st.write(rp->a, st.read(rp->b) != st.read(rp->c) ? 1 : 0);
    RETIRE_NEXT();
  }
  CASE(kCmplt): {
    st.write(rp->a, static_cast<i32>(st.read(rp->b)) <
                            static_cast<i32>(st.read(rp->c))
                        ? 1
                        : 0);
    RETIRE_NEXT();
  }
  CASE(kCmple): {
    st.write(rp->a, static_cast<i32>(st.read(rp->b)) <=
                            static_cast<i32>(st.read(rp->c))
                        ? 1
                        : 0);
    RETIRE_NEXT();
  }
  CASE(kCmpltu): {
    st.write(rp->a, st.read(rp->b) < st.read(rp->c) ? 1 : 0);
    RETIRE_NEXT();
  }
  CASE(kCmpleu): {
    st.write(rp->a, st.read(rp->b) <= st.read(rp->c) ? 1 : 0);
    RETIRE_NEXT();
  }
  CASE(kCmovnz): {
    if (st.read(rp->c) != 0) st.write(rp->a, st.read(rp->b));
    RETIRE_NEXT();
  }
  CASE(kCmovz): {
    if (st.read(rp->c) == 0) st.write(rp->a, st.read(rp->b));
    RETIRE_NEXT();
  }
  CASE(kPick): {
    st.write(rp->a, st.read(rp->a) != 0 ? st.read(rp->b) : st.read(rp->c));
    RETIRE_NEXT();
  }
  CASE(kSatadd): {
    st.write(rp->a, static_cast<u32>(
                        sat_add32(static_cast<i32>(st.read(rp->b)),
                                  static_cast<i32>(st.read(rp->c)))));
    RETIRE_NEXT();
  }
  CASE(kSatsub): {
    st.write(rp->a, static_cast<u32>(
                        sat_sub32(static_cast<i32>(st.read(rp->b)),
                                  static_cast<i32>(st.read(rp->c)))));
    RETIRE_NEXT();
  }
  CASE(kAddi): {
    st.write(rp->a, st.read(rp->b) + static_cast<u32>(rp->imm));
    RETIRE_NEXT();
  }
  CASE(kAndi): {
    st.write(rp->a, st.read(rp->b) & static_cast<u32>(rp->imm));
    RETIRE_NEXT();
  }
  CASE(kOri): {
    st.write(rp->a, st.read(rp->b) | static_cast<u32>(rp->imm));
    RETIRE_NEXT();
  }
  CASE(kXori): {
    st.write(rp->a, st.read(rp->b) ^ static_cast<u32>(rp->imm));
    RETIRE_NEXT();
  }
  CASE(kSlli): {
    st.write(rp->a, st.read(rp->b) << (static_cast<u32>(rp->imm) & 31));
    RETIRE_NEXT();
  }
  CASE(kSrli): {
    st.write(rp->a, st.read(rp->b) >> (static_cast<u32>(rp->imm) & 31));
    RETIRE_NEXT();
  }
  CASE(kSrai): {
    st.write(rp->a, static_cast<u32>(static_cast<i32>(st.read(rp->b)) >>
                                     (static_cast<u32>(rp->imm) & 31)));
    RETIRE_NEXT();
  }
  CASE(kOrlo): {
    st.write(rp->a, st.read(rp->a) | (static_cast<u32>(rp->imm) & 0xFFFF));
    RETIRE_NEXT();
  }
  CASE(kSetImm): {
    st.write(rp->a, rp->arg);
    RETIRE_NEXT();
  }
  CASE(kGettick): {
    st.write(rp->a, static_cast<u32>(cx.packets_run));
    RETIRE_NEXT();
  }
  CASE(kMul): {
    st.write(rp->a, st.read(rp->b) * st.read(rp->c));
    RETIRE_NEXT();
  }
  CASE(kMulhi): {
    st.write(rp->a,
             static_cast<u32>((i64{static_cast<i32>(st.read(rp->b))} *
                               i64{static_cast<i32>(st.read(rp->c))}) >>
                              32));
    RETIRE_NEXT();
  }
  CASE(kMulhiu): {
    st.write(rp->a, static_cast<u32>(
                        (u64{st.read(rp->b)} * u64{st.read(rp->c)}) >> 32));
    RETIRE_NEXT();
  }
  CASE(kMadd): {
    st.write(rp->a, st.read(rp->a) + st.read(rp->b) * st.read(rp->c));
    RETIRE_NEXT();
  }
  CASE(kMsub): {
    st.write(rp->a, st.read(rp->a) - st.read(rp->b) * st.read(rp->c));
    RETIRE_NEXT();
  }
  CASE(kDiv): {
    const i32 a = static_cast<i32>(st.read(rp->b));
    const i32 b = static_cast<i32>(st.read(rp->c));
    u32 r;
    if (b == 0) {
      if (cx.env.trap_div_zero) {
        st.pc = rp->pc;
        raise_trap(TrapCause::kDivideByZero, "div with zero divisor");
      }
      r = 0;
    } else if (a == std::numeric_limits<i32>::min() && b == -1) {
      r = static_cast<u32>(a);
    } else {
      r = static_cast<u32>(a / b);
    }
    st.write(rp->a, r);
    RETIRE_NEXT();
  }
  CASE(kDivu): {
    const u32 ua = st.read(rp->b);
    const u32 ub = st.read(rp->c);
    if (ub == 0 && cx.env.trap_div_zero) {
      st.pc = rp->pc;
      raise_trap(TrapCause::kDivideByZero, "divu with zero divisor");
    }
    st.write(rp->a, ub == 0 ? 0 : ua / ub);
    RETIRE_NEXT();
  }
  CASE(kLdb): {
    const u32 ea = st.read(rp->b) + st.read(rp->c) + static_cast<u32>(rp->imm);
    u32 v;
    if (static_cast<i64>(ea) <= cx.lim1) [[likely]] {
      v = static_cast<u32>(
          static_cast<i32>(static_cast<i8>(cx.mbase[ea])));
    } else {
      st.pc = rp->pc;
      v = static_cast<u32>(
          static_cast<i32>(static_cast<i8>(cx.env.mem.read_u8(ea))));
    }
    st.write(rp->a, v);
    RETIRE_NEXT();
  }
  CASE(kLdbu): {
    const u32 ea = st.read(rp->b) + st.read(rp->c) + static_cast<u32>(rp->imm);
    u32 v;
    if (static_cast<i64>(ea) <= cx.lim1) [[likely]] {
      v = cx.mbase[ea];
    } else {
      st.pc = rp->pc;
      v = cx.env.mem.read_u8(ea);
    }
    st.write(rp->a, v);
    RETIRE_NEXT();
  }
  CASE(kLdh): {
    const u32 ea = st.read(rp->b) + st.read(rp->c) + static_cast<u32>(rp->imm);
    u32 v;
    if ((ea & 1) == 0 && static_cast<i64>(ea) <= cx.lim2) [[likely]] {
      u16 h;
      std::memcpy(&h, cx.mbase + ea, 2);
      v = static_cast<u32>(static_cast<i32>(static_cast<i16>(h)));
    } else {
      st.pc = rp->pc;
      v = static_cast<u32>(
          static_cast<i32>(static_cast<i16>(cx.env.mem.read_u16(ea))));
    }
    st.write(rp->a, v);
    RETIRE_NEXT();
  }
  CASE(kLdhu): {
    const u32 ea = st.read(rp->b) + st.read(rp->c) + static_cast<u32>(rp->imm);
    u32 v;
    if ((ea & 1) == 0 && static_cast<i64>(ea) <= cx.lim2) [[likely]] {
      u16 h;
      std::memcpy(&h, cx.mbase + ea, 2);
      v = h;
    } else {
      st.pc = rp->pc;
      v = cx.env.mem.read_u16(ea);
    }
    st.write(rp->a, v);
    RETIRE_NEXT();
  }
  CASE(kLdw): {
    const u32 ea = st.read(rp->b) + st.read(rp->c) + static_cast<u32>(rp->imm);
    u32 v;
    if ((ea & 3) == 0 && static_cast<i64>(ea) <= cx.lim4) [[likely]] {
      std::memcpy(&v, cx.mbase + ea, 4);
    } else {
      st.pc = rp->pc;
      v = cx.env.mem.read_u32(ea);
    }
    st.write(rp->a, v);
    RETIRE_NEXT();
  }
  CASE(kLdl): {
    const u32 ea = st.read(rp->b) + st.read(rp->c) + static_cast<u32>(rp->imm);
    u64 v;
    if ((ea & 7) == 0 && static_cast<i64>(ea) <= cx.lim8) [[likely]] {
      std::memcpy(&v, cx.mbase + ea, 8);
    } else {
      st.pc = rp->pc;
      v = cx.env.mem.read_u64(ea);
    }
    st.write(rp->a, static_cast<u32>(v >> 32));
    st.write(static_cast<PhysReg>(rp->a + 1), static_cast<u32>(v));
    RETIRE_NEXT();
  }
  CASE(kLdg): {
    const u32 ea = st.read(rp->b) + st.read(rp->c) + static_cast<u32>(rp->imm);
    if ((ea & 3) == 0 && static_cast<i64>(ea) <= cx.lim32) [[likely]] {
      for (u32 i = 0; i < 8; ++i) {
        u32 v;
        std::memcpy(&v, cx.mbase + ea + 4 * i, 4);
        st.write(static_cast<PhysReg>(rp->a + i), v);
      }
    } else {
      // Gather all eight words before committing any: a trapping group
      // load leaves the register file untouched (interpreter contract).
      st.pc = rp->pc;
      u32 tmp[8];
      for (u32 i = 0; i < 8; ++i) tmp[i] = cx.env.mem.read_u32(ea + 4 * i);
      for (u32 i = 0; i < 8; ++i) {
        st.write(static_cast<PhysReg>(rp->a + i), tmp[i]);
      }
    }
    RETIRE_NEXT();
  }
  CASE(kStb): {
    const u32 ea = st.read(rp->b) + st.read(rp->c) + static_cast<u32>(rp->imm);
    if (static_cast<i64>(ea) <= cx.lim1) [[likely]] {
      cx.mbase[ea] = static_cast<u8>(st.read(rp->a));
    } else {
      st.pc = rp->pc;
      cx.env.mem.write_u8(ea, static_cast<u8>(st.read(rp->a)));
    }
    RETIRE_NEXT();
  }
  CASE(kSth): {
    const u32 ea = st.read(rp->b) + st.read(rp->c) + static_cast<u32>(rp->imm);
    if ((ea & 1) == 0 && static_cast<i64>(ea) <= cx.lim2) [[likely]] {
      const u16 h = static_cast<u16>(st.read(rp->a));
      std::memcpy(cx.mbase + ea, &h, 2);
    } else {
      st.pc = rp->pc;
      cx.env.mem.write_u16(ea, static_cast<u16>(st.read(rp->a)));
    }
    RETIRE_NEXT();
  }
  CASE(kStw): {
    const u32 ea = st.read(rp->b) + st.read(rp->c) + static_cast<u32>(rp->imm);
    if ((ea & 3) == 0 && static_cast<i64>(ea) <= cx.lim4) [[likely]] {
      const u32 v = st.read(rp->a);
      std::memcpy(cx.mbase + ea, &v, 4);
    } else {
      st.pc = rp->pc;
      cx.env.mem.write_u32(ea, st.read(rp->a));
    }
    RETIRE_NEXT();
  }
  CASE(kStl): {
    const u32 ea = st.read(rp->b) + st.read(rp->c) + static_cast<u32>(rp->imm);
    const u64 v = (u64{st.read(rp->a)} << 32) |
                  st.read(static_cast<PhysReg>(rp->a + 1));
    if ((ea & 7) == 0 && static_cast<i64>(ea) <= cx.lim8) [[likely]] {
      std::memcpy(cx.mbase + ea, &v, 8);
    } else {
      st.pc = rp->pc;
      cx.env.mem.write_u64(ea, v);
    }
    RETIRE_NEXT();
  }
  CASE(kStg): {
    const u32 ea = st.read(rp->b) + st.read(rp->c) + static_cast<u32>(rp->imm);
    if ((ea & 3) == 0 && static_cast<i64>(ea) <= cx.lim32) [[likely]] {
      for (u32 i = 0; i < 8; ++i) {
        const u32 v = st.read(static_cast<PhysReg>(rp->a + i));
        std::memcpy(cx.mbase + ea + 4 * i, &v, 4);
      }
    } else {
      st.pc = rp->pc;
      for (u32 i = 0; i < 8; ++i) {
        cx.env.mem.write_u32(ea + 4 * i,
                             st.read(static_cast<PhysReg>(rp->a + i)));
      }
    }
    RETIRE_NEXT();
  }
  CASE(kStcw): {
    st.pc = rp->pc;
    const Addr ea = static_cast<Addr>(st.read(rp->b));
    if (st.read(rp->c) != 0) cx.env.mem.write_u32(ea, st.read(rp->a));
    RETIRE_NEXT();
  }
  CASE(kCas): {
    st.pc = rp->pc;
    const Addr ea = static_cast<Addr>(st.read(rp->b));
    const u32 old = cx.env.mem.read_u32(ea);
    if (old == st.read(rp->c)) cx.env.mem.write_u32(ea, st.read(rp->a));
    st.write(rp->a, old);
    RETIRE_NEXT();
  }
  CASE(kSwap): {
    st.pc = rp->pc;
    const Addr ea = static_cast<Addr>(st.read(rp->b));
    const u32 old = cx.env.mem.read_u32(ea);
    cx.env.mem.write_u32(ea, st.read(rp->a));
    st.write(rp->a, old);
    RETIRE_NEXT();
  }
  CASE(kBnz): {
    RETIRE_TRANSFER(st.read(rp->a) != 0);
  }
  CASE(kBz): {
    RETIRE_TRANSFER(st.read(rp->a) == 0);
  }
  CASE(kCallRec): {
    st.write(isa::to_phys(isa::kLinkReg, 0), rp[1].pc);
    RETIRE_TRANSFER(true);
  }
  CASE(kJmplRec): {
    const Addr target = static_cast<Addr>(st.read(rp->b));
    st.write(rp->a, rp[1].pc);  // link = fall-through (next record's pc)
    cx.res.packets += 1;
    cx.packets_run += 1;
    cx.res.instrs += rp->ins_add;
    cx.instrs_run += rp->ins_add;
    st.pc = target;
    if (cx.res.packets >= cx.max_packets) return;
    rp = recs + cx.tc.entry[cx.prog.index_of(st.pc)];  // throws on miss
    DISPATCH();
  }
  CASE(kHaltRec): {
    st.halted = true;
    st.pc = rp[1].pc;  // fall-through, as the interpreter leaves it
    cx.res.packets += 1;
    cx.packets_run += 1;
    cx.res.instrs += rp->ins_add;
    cx.instrs_run += rp->ins_add;
    return;
  }
  CASE(kTrapCon): {
    if (cx.env.console != nullptr) {
      format_console_trap(*cx.env.console, static_cast<u32>(rp->imm),
                          st.read(rp->a));
    }
    RETIRE_NEXT();
  }
  CASE(kSettvecRec): {
    st.tvec = static_cast<Addr>(st.read(rp->a));
    RETIRE_NEXT();
  }
  CASE(kSlotOp): {
    run_slot_op(cx, rp->arg);
    RETIRE_NEXT();
  }
  CASE(kDotp): {
    st.write(rp->a, dotp_eval(st.read(rp->a), st.read(rp->b), st.read(rp->c)));
    RETIRE_NEXT();
  }
  CASE(kDotp2): {
    st.write(rp->a, dotp_eval(st.read(rp->a), st.read(rp->b), st.read(rp->c)));
    const PhysReg r2 = static_cast<PhysReg>(rp->imm);
    st.write(rp->d, dotp_eval(st.read(rp->d), st.read(rp->e), st.read(r2)));
    RETIRE_NEXT();
  }
  CASE(kDotp3): {
    const u32 t = static_cast<u32>(rp->imm2);
    st.write(rp->a, dotp_eval(st.read(rp->a), st.read(rp->b), st.read(rp->c)));
    st.write(rp->d, dotp_eval(st.read(rp->d), st.read(rp->e),
                              st.read(static_cast<PhysReg>(t & 0xFF))));
    const PhysReg d3 = static_cast<PhysReg>((t >> 8) & 0xFF);
    st.write(d3, dotp_eval(st.read(d3),
                           st.read(static_cast<PhysReg>((t >> 16) & 0xFF)),
                           st.read(static_cast<PhysReg>(t >> 24))));
    RETIRE_NEXT();
  }
  CASE(kFmaddF32): {
    st.write(rp->a,
             fmadd_eval(st.read(rp->a), st.read(rp->b), st.read(rp->c)));
    RETIRE_NEXT();
  }
  CASE(kFmadd2): {
    st.write(rp->a,
             fmadd_eval(st.read(rp->a), st.read(rp->b), st.read(rp->c)));
    const PhysReg r2 = static_cast<PhysReg>(rp->imm);
    st.write(rp->d,
             fmadd_eval(st.read(rp->d), st.read(rp->e), st.read(r2)));
    RETIRE_NEXT();
  }
  CASE(kMemSlots): {
    // Parallel-read packet with deferred commit: slot ops evaluate into
    // scratch effects against pre-packet state; the trap-capable memory op
    // runs (and commits) first; only then do the slot effects land.
    SlotEffects fx;
    const SlotOp* so = cx.tc.slot_ops.data() + rp->arg;
    for (u32 i = 0; i < rp->e; ++i) eval_slot_op(cx, so[i], fx);
    if (rp->d != 0xFF) exec_mem_slot(cx, st, rp);
    for (const WriteBack& wb : fx.writes) st.write(wb.reg, wb.value);
    RETIRE_NEXT();
  }
  CASE(kNopRec): {
    RETIRE_NEXT();
  }
  CASE(kGenericPacket): {
    const u32 pi = static_cast<u32>(rp->imm);
    const isa::Packet& p = cx.prog.packet(pi);
    const PacketMeta& m = cx.prog.meta(pi);
    st.pc = rp->pc;
    const PacketOutcome out = execute_packet(st, p, m, cx.env, cx.scratch);
    cx.res.packets += 1;
    cx.packets_run += 1;
    cx.res.instrs += out.width;
    cx.instrs_run += out.width;
    if (st.halted) return;
    if (out.next_pc == m.fall_through) {
      if (cx.res.packets >= cx.max_packets) return;  // st.pc == rp[1].pc
      ++rp;
      DISPATCH();
    }
    if (rp->arg != kNoRec && out.next_pc == m.taken_target) {
      if (cx.res.packets >= cx.max_packets) return;
      rp = recs + rp->arg;
      DISPATCH();
    }
    if (cx.res.packets >= cx.max_packets) return;
    rp = recs + cx.tc.entry[cx.prog.index_of(st.pc)];  // throws on miss
    DISPATCH();
  }
  CASE(kEndOfCode): {
    // Fell off the end of the image: same diagnosis as the interpreter's
    // next-packet fetch.
    st.pc = rp->pc;
    cx.prog.index_of(st.pc);  // always throws (translated once, immutable)
    return;                   // unreachable
  }
}

#undef CASE
#undef DISPATCH
#undef RETIRE_NEXT
#undef RETIRE_TRANSFER

} // namespace

RunResult FunctionalSim::run_threaded(u64 max_packets) {
  RunResult res;
  const ThreadedCode& tc = program_->threaded();
  ExecEnv env{mem_};
  env.trap_div_zero = trap_div_zero_;
  env.console = &console_;
  env.tick = &packets_run_;
  const std::span<u8> raw = mem_.raw();
  const i64 size = static_cast<i64>(raw.size());
  PacketScratch scratch;
  ExecCtx cx{*program_,    tc,          state_,   env,
             scratch,      res,         packets_run_, instrs_run_,
             max_packets,  raw.data(),  size - 1,    size - 2,
             size - 4,     size - 8,    size - 32};
  while (!state_.halted && res.packets < max_packets) {
    try {
      exec_records(cx, tc.entry[program_->index_of(state_.pc)]);
    } catch (const TrapException& e) {
      // Identical delivery protocol to the interpreter loop: st.pc names
      // the faulting packet at every throw site.
      Trap t = e.trap();
      t.cpu = 0;
      t.pc = state_.pc;
      t.cycle = packets_run_;
      t.unit = TimeUnit::kPackets;
      if (state_.can_deliver(t.deliverable)) {
        const u32 fidx = program_->find_index(state_.pc);
        const Addr npc = fidx == kNoPacketIndex
                             ? state_.pc
                             : program_->meta(fidx).fall_through;
        state_.deliver_trap(static_cast<u32>(t.code), t.pc, npc, t.value);
        ++traps_delivered_;
        last_trap_ = std::move(t);
        continue;
      }
      res.trap = std::move(t);
      res.reason = TerminationReason::kTrap;
      return res;
    }
  }
  res.halted = state_.halted;
  res.reason = res.halted ? TerminationReason::kHalted
                          : TerminationReason::kPacketCap;
  return res;
}

} // namespace majc::sim
