// Checkpoint serialization: primitives, the header, and the io() field list
// of every component (declared as members in the components' own headers so
// they can reach private state; gathered here so the full format lives in
// one translation unit, in serialization order).
#include "src/support/checkpoint.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <type_traits>
#include <vector>

#include "src/masm/image.h"
#include "src/sim/functional_sim.h"
#include "src/soc/chip.h"
#include "src/soc/config.h"
#include "src/support/trap.h"

namespace majc::ckpt {

// ---------------------------------------------------------------- primitives

void Writer::put_u16(u16 v) {
  put_u8(static_cast<u8>(v));
  put_u8(static_cast<u8>(v >> 8));
}

void Writer::put_u32(u32 v) {
  put_u16(static_cast<u16>(v));
  put_u16(static_cast<u16>(v >> 16));
}

void Writer::put_u64(u64 v) {
  put_u32(static_cast<u32>(v));
  put_u32(static_cast<u32>(v >> 32));
}

void Writer::put_bytes(std::span<const u8> v) {
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void Writer::put_string(const std::string& s) {
  put_u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::put_tag(const char (&tag)[5]) {
  for (int i = 0; i < 4; ++i) put_u8(static_cast<u8>(tag[i]));
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) throw Error("checkpoint: truncated (short read)");
}

u8 Reader::get_u8() {
  need(1);
  return data_[pos_++];
}

u16 Reader::get_u16() {
  const u16 lo = get_u8();
  return static_cast<u16>(lo | (u16{get_u8()} << 8));
}

u32 Reader::get_u32() {
  const u32 lo = get_u16();
  return lo | (u32{get_u16()} << 16);
}

u64 Reader::get_u64() {
  const u64 lo = get_u32();
  return lo | (u64{get_u32()} << 32);
}

void Reader::get_bytes(std::span<u8> out) {
  need(out.size());
  std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(pos_), out.size(),
              out.begin());
  pos_ += out.size();
}

std::string Reader::get_string() {
  const u64 n = get_u64();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data()) + pos_,
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

void Reader::expect_tag(const char (&tag)[5]) {
  char got[5] = {};
  for (int i = 0; i < 4; ++i) got[i] = static_cast<char>(get_u8());
  if (std::string_view(got, 4) != std::string_view(tag, 4))
    throw Error(std::string("checkpoint: section tag mismatch (expected '") +
                tag + "', found '" + got + "')");
}

u64 Reader::in_range(u64 v, u64 max, const char* what) {
  if (v > max)
    throw Error(std::string("checkpoint: ") + what + " " + std::to_string(v) +
                " out of range (at most " + std::to_string(max) + ")");
  return v;
}

// Field dispatch for io(): every io() runs in this file, so the archives'
// type switch lives here too.
template <class T>
void Writer::put(T& v) {
  using U = std::remove_const_t<T>;
  if constexpr (std::is_same_v<U, bool>) {
    put_bool(v);
  } else if constexpr (std::is_enum_v<U>) {
    static_assert(sizeof(U) == 1, "checkpointed enums are u8");
    put_u8(static_cast<u8>(v));
  } else if constexpr (std::is_integral_v<U>) {
    static_assert(sizeof(U) == 1 || sizeof(U) == 4 || sizeof(U) == 8);
    if constexpr (sizeof(U) == 1) put_u8(v);
    else if constexpr (sizeof(U) == 4) put_u32(v);
    else put_u64(v);
  } else if constexpr (std::is_same_v<U, std::string>) {
    put_string(v);
  } else if constexpr (std::is_same_v<U, std::vector<u8>>) {
    put_bytes(v);
  } else if constexpr (requires { v.io(*this); }) {
    v.io(*this);
  } else {
    for (auto& e : v) put(e);
  }
}

template <class T>
void Reader::get(T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = get_bool();
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(sizeof(T) == 1, "checkpointed enums are u8");
    v = static_cast<T>(get_u8());
  } else if constexpr (std::is_integral_v<T>) {
    static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
    if constexpr (sizeof(T) == 1) v = get_u8();
    else if constexpr (sizeof(T) == 4) v = get_u32();
    else v = get_u64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = get_string();
  } else if constexpr (std::is_same_v<T, std::vector<u8>>) {
    get_bytes(v);
  } else if constexpr (requires { v.io(*this); }) {
    v.io(*this);
  } else {
    for (auto& e : v) get(e);
  }
}

// -------------------------------------------------------------- fingerprints

namespace {

constexpr u64 kFnvOffset = 1469598103934665603ull;
constexpr u64 kFnvPrime = 1099511628211ull;

void fnv_bytes(u64& h, std::span<const u8> bytes) {
  for (u8 b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
}

void fnv_u64(u64& h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<u8>(v >> (8 * i));
    h *= kFnvPrime;
  }
}

void fnv_f64(u64& h, double v) { fnv_u64(h, std::bit_cast<u64>(v)); }

} // namespace

u64 config_fingerprint(const TimingConfig& c) {
  u64 h = kFnvOffset;
  fnv_u64(h, c.icache_bytes);
  fnv_u64(h, c.icache_ways);
  fnv_u64(h, c.perfect_icache);
  fnv_u64(h, c.dcache_bytes);
  fnv_u64(h, c.dcache_ways);
  fnv_u64(h, c.dcache_dual_ported);
  fnv_u64(h, c.perfect_dcache);
  fnv_u64(h, kLineBytes);  // once a knob; hashed to keep v2 bytes
  fnv_u64(h, c.load_to_use);
  fnv_u64(h, c.load_buffers);
  fnv_u64(h, c.store_buffers);
  fnv_u64(h, c.mshrs);
  fnv_u64(h, c.nonblocking_loads);
  fnv_u64(h, c.prefetch_enabled);
  fnv_u64(h, c.dram_latency);
  fnv_u64(h, c.dram_page_hit_latency);
  fnv_u64(h, c.dram_banks);
  fnv_f64(h, c.dram_bytes_per_cycle);
  fnv_u64(h, c.crossbar_hop);
  fnv_u64(h, c.bpred_enabled);
  fnv_u64(h, c.bpred_entries);
  fnv_u64(h, c.bpred_history_bits);
  fnv_u64(h, c.mispredict_penalty);
  fnv_u64(h, c.jump_penalty);
  fnv_u64(h, c.hw_threads);
  fnv_u64(h, c.mt_switch_threshold);
  fnv_u64(h, c.mt_switch_penalty);
  fnv_u64(h, c.full_bypass);
  fnv_u64(h, c.wb_delay);
  fnv_f64(h, c.pci_bytes_per_cycle);
  fnv_f64(h, c.upa_bytes_per_cycle);
  fnv_u64(h, c.nupa_fifo_bytes);
  fnv_u64(h, c.trap_div_zero);
  fnv_u64(h, c.trap_entry_penalty);
  fnv_u64(h, c.dcache_disabled_ways);
  fnv_u64(h, c.icache_disabled_ways);
  fnv_u64(h, c.watchdog_cycles);
  fnv_u64(h, c.faults.seed);
  fnv_f64(h, c.faults.dram_correctable_rate);
  fnv_f64(h, c.faults.dram_uncorrectable_rate);
  fnv_u64(h, c.faults.ecc_enabled);
  fnv_u64(h, static_cast<u64>(c.faults.mc_policy));
  fnv_f64(h, c.faults.fill_parity_rate);
  fnv_u64(h, c.faults.max_fill_retries);
  fnv_f64(h, c.faults.xbar_delay_rate);
  fnv_u64(h, c.faults.xbar_delay_cycles);
  fnv_f64(h, c.faults.xbar_drop_rate);
  return h;
}

u64 image_hash(const masm::Image& img) {
  u64 h = kFnvOffset;
  for (u32 w : img.code) fnv_u64(h, w);
  fnv_bytes(h, img.data);
  fnv_u64(h, img.code_base);
  fnv_u64(h, img.data_base);
  fnv_u64(h, img.entry);
  return h;
}

// ------------------------------------------------------------------- header

namespace {

void write_header(Writer& w, Mode mode, u64 cfg_fp, u64 img_hash) {
  for (char c : kMagic) w.put_u8(static_cast<u8>(c));
  w.put_u32(kVersion);
  w.put_u8(static_cast<u8>(mode));
  w.put_u64(cfg_fp);
  w.put_u64(img_hash);
}

Mode read_header_common(Reader& r) {
  char magic[8];
  for (char& c : magic) c = static_cast<char>(r.get_u8());
  if (std::string_view(magic, 8) != std::string_view(kMagic, 8))
    throw Error("checkpoint: bad magic (not a MAJC checkpoint file)");
  const u32 version = r.get_u32();
  if (version != kVersion)
    throw Error("checkpoint: version " + std::to_string(version) +
                " not readable by this build (expected " +
                std::to_string(kVersion) + ")");
  return static_cast<Mode>(r.get_u8());
}

void check_header(Reader& r, Mode mode, u64 cfg_fp, u64 img_hash) {
  const Mode got = read_header_common(r);
  if (got != mode)
    throw Error(std::string("checkpoint: mode mismatch (file is '") +
                mode_name(got) + "', simulator is '" + mode_name(mode) + "')");
  if (r.get_u64() != cfg_fp)
    throw Error("checkpoint: TimingConfig mismatch — a checkpoint resumes "
                "only under the configuration that produced it");
  if (r.get_u64() != img_hash)
    throw Error("checkpoint: program image mismatch — a checkpoint resumes "
                "only with the image that produced it");
}

} // namespace

Mode peek_mode(std::span<const u8> bytes) {
  Reader r(bytes);
  return read_header_common(r);
}

void write_checkpoint_file(const std::string& path,
                           std::span<const u8> bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw Error("checkpoint: cannot open '" + path + "' for writing");
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) throw Error("checkpoint: write to '" + path + "' failed");
}

std::vector<u8> read_checkpoint_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw Error("checkpoint: cannot open '" + path + "'");
  const std::streamsize n = f.tellg();
  f.seekg(0);
  std::vector<u8> bytes(static_cast<std::size_t>(n));
  f.read(reinterpret_cast<char*>(bytes.data()), n);
  if (!f) throw Error("checkpoint: read of '" + path + "' failed");
  return bytes;
}

} // namespace majc::ckpt

// ------------------------------------------------------ component field lists
//
// One io() per component, in serialization order. The Writer runs a list to
// save and the Reader runs the same list to restore (checkpoint.h, "The two
// archives").

namespace majc {
namespace {

template <class Ar>
void io_trap(Ar& a, Trap& t) {
  a.io(t.code, t.cpu, t.pc, t.cycle, t.unit, t.detail, t.value, t.deliverable);
}

template <class Ar>
void io_state(Ar& a, sim::CpuState& st) {
  a.io(st.regs, st.pc, st.halted, st.tvec, st.tcause, st.tpc, st.tnpc,
       st.tdetail, st.in_trap);
}

template <class Ar>
void io_cpu_stats(Ar& a, cpu::CpuStats& s) {
  a.io(s.packets, s.instrs, s.width_hist, s.cond_branches, s.taken_branches,
       s.mispredicts, s.jumps, s.thread_switches, s.traps_delivered,
       s.stalls.counts);
}

// Flat memory, sparse: all-zero 4 KB pages are elided; a ~0 page index
// terminates the page list. Restore clears the arena first, so the elided
// pages come back exactly as written; both sides touch only non-zero pages.
// The page list is not a field list, so it keeps one overload per direction.
constexpr std::size_t kPageBytes = sim::FlatMemory::kPageBytes;

void io_memory(ckpt::Writer& w, sim::FlatMemory& m) {
  w.put_tag("MEM ");
  w.put_u64(m.size());
  m.for_each_nonzero_page([&w](std::size_t off, std::span<const u8> page) {
    w.put_u64(off / kPageBytes);
    w.put_u32(static_cast<u32>(page.size()));
    w.put_bytes(page);
  });
  w.put_u64(~u64{0});
}

void io_memory(ckpt::Reader& r, sim::FlatMemory& m) {
  r.expect_tag("MEM ");
  const std::span<u8> raw = m.raw();
  r.same(raw.size(), "checkpoint: memory size mismatch");
  m.clear();
  for (;;) {
    const u64 p = r.get_u64();
    if (p == ~u64{0}) break;
    // Bound the index before scaling it: p * kPageBytes can wrap around
    // past a check on the offset and land below the arena.
    const std::size_t off =
        r.in_range(p, raw.size() / kPageBytes, "memory page") * kPageBytes;
    const std::size_t n = r.in_range(r.get_u32(),
                                     std::min(kPageBytes, raw.size() - off),
                                     "memory page bytes");
    r.get_bytes(raw.subspan(off, n));
  }
}

} // namespace

template <class Ar>
void Histogram::io(Ar& a) {
  a.same(buckets_.size(), "checkpoint: histogram bucket-count mismatch");
  a.io(buckets_);
}

} // namespace majc

// ------------------------------------------------------------ memory system

namespace majc::mem {

template <class Ar>
void Cache::io(Ar& a) {
  a.tag("CCHE");
  a.bounded(disabled_ways_, cfg_.ways > 1 ? cfg_.ways - 1 : 0,
            "disabled cache ways");
  a.same(lines_.size(),
         "checkpoint: cache geometry mismatch (" + cfg_.name + ")");
  for (Line& l : lines_) a.io(l.tag, l.valid, l.dirty, l.lru);
  a.io(hits_, misses_, writebacks_);
}

template <class Ar>
void Dram::io(Ar& a) {
  a.tag("DRAM");
  a.same(banks_.size(), "checkpoint: DRAM bank-count mismatch");
  for (Bank& b : banks_) a.io(b.busy, b.open_page);
  a.io(channel_free_, requests_, bytes_, busy_cycles_);
}

template <class Ar>
void Crossbar::io(Ar& a) {
  a.tag("XBAR");
  a.io(free_, bytes_, transfers_, delayed_grants_, dropped_grants_);
}

template <class Ar>
void Lsu::io(Ar& a) {
  a.tag("LSU ");
  a.io(fills_);
  // The buffers retire entries lazily; a save writes only the entries live
  // past the retirement boundary, so the byte stream matches the eagerly
  // pruned representation (entries at or before prune_now_ were
  // architecturally retired — keeping them is purely a hot-path
  // optimization). MSHRs are written sorted by line address: insertion
  // order must not leak into the bytes (determinism rule). A restore reads
  // straight into the buffers.
  std::vector<Cycle> live_loads;
  std::vector<StoreEntry> live_stores;
  std::vector<MshrEntry> live_mshrs;
  if constexpr (!Ar::kLoading) {
    for (Cycle c : loads_)
      if (c > prune_now_) live_loads.push_back(c);
    for (const StoreEntry& s : stores_)
      if (s.done > prune_now_) live_stores.push_back(s);
    for (const MshrEntry& e : mshr_)
      if (e.done > prune_now_) live_mshrs.push_back(e);
    std::ranges::sort(live_mshrs, {}, [](const MshrEntry& e) {
      return std::pair(e.line, e.done);
    });
  }
  auto& loads = Ar::kLoading ? loads_ : live_loads;
  auto& stores = Ar::kLoading ? stores_ : live_stores;
  auto& mshrs = Ar::kLoading ? mshr_ : live_mshrs;
  // Live entries never exceed the configured buffers, except that an atomic
  // may briefly push the load buffer past capacity (the slack the
  // constructor reserves).
  a.seq(loads, cfg_.load_buffers + 4, "LSU load count");
  a.io(loads);
  a.seq(stores, cfg_.store_buffers, "LSU store count");
  for (StoreEntry& s : stores) a.io(s.addr, s.bytes, s.done);
  a.seq(mshrs, cfg_.mshrs, "MSHR count");
  for (MshrEntry& e : mshrs) a.io(e.line, e.done);
  a.io(blocked_until_);
  for (WcEntry& e : wc_) a.io(e.line, e.opened);
  a.io(wc_done_, counters_);
  if constexpr (Ar::kLoading) rebuild_watermarks();
}

template <class Ar>
void EccMemory::io(Ar& a) {
  a.tag("ECC ");
  // Written sorted: the set's iteration order must not reach the bytes.
  // Each line is 8 bytes, so on restore the bytes left bound the count.
  std::vector<Addr> healed;
  u64 max = 0;
  if constexpr (Ar::kLoading) {
    max = a.remaining() / 8;
  } else {
    healed.assign(healed_.begin(), healed_.end());
    std::ranges::sort(healed);
  }
  a.seq(healed, max, "ECC healed-line count");
  a.io(healed);
  if constexpr (Ar::kLoading) {
    healed_.clear();
    healed_.insert(healed.begin(), healed.end());
  }
  a.io(corrected_, machine_checks_, retried_, poisoned_, silent_corruptions_);
}

template <class Ar>
void MemorySystem::io(Ar& a) {
  a.tag("MSYS");
  a.io(xbar_, dram_, dcache_, icaches_, dport_free_);
  for (auto& lsu : lsus_) a.io(*lsu);
  a.io(ifetch_fills_, ifetch_parity_retries_, ifetch_machine_checks_);
}

} // namespace majc::mem

// --------------------------------------------------------------------- cpu

namespace majc::cpu {

template <class Ar>
void Scoreboard::io(Ar& a) {
  for (Entry& e : entries_) {
    a.io(e.done);
    a.bounded(e.producer, kNoProducer, "scoreboard producer");
  }
}

template <class Ar>
void BranchPredictor::io(Ar& a) {
  a.tag("BPRD");
  a.same(counters_.size(), "checkpoint: branch-predictor size mismatch");
  a.io(counters_, ghr_, lookups_, correct_);
}

template <class Ar>
void CycleCpu::io(Ar& a) {
  a.tag("CPU ");
  a.bounded(active_, threads_.size() - 1, "active thread");
  a.io(current_cycle_, now_cache_, last_progress_, console_);
  io_cpu_stats(a, stats_);
  a.io(bpred_, fu_busy_);
  bool pending = trap_.has_value();
  a.io(pending);
  if constexpr (Ar::kLoading)
    trap_ = pending ? std::optional<Trap>(Trap{}) : std::nullopt;
  if (trap_) io_trap(a, *trap_);
  io_trap(a, last_trap_);
  a.same(threads_.size(), "checkpoint: hardware-thread count mismatch");
  for (ThreadCtx& th : threads_) {
    io_state(a, th.state);
    a.io(th.sb, th.ready);
    if constexpr (Ar::kLoading) {
      // The packet-index cache is derived state: invalidate it and let the
      // next step() re-resolve through the pc -> index map.
      th.idx = sim::kNoPacketIndex;
      th.idx_pc = th.state.pc;
    }
  }
  if constexpr (Ar::kLoading) env_.thread_id = active_;
}

} // namespace majc::cpu

// --------------------------------------------------------------------- sim

namespace majc::sim {

template <class Ar>
void FunctionalSim::io(Ar& a) {
  a.tag("FSIM");
  io_memory(a, mem_);
  io_state(a, state_);
  a.io(console_, packets_run_, instrs_run_, traps_delivered_);
  io_trap(a, last_trap_);
  a.io(trap_div_zero_);
}

} // namespace majc::sim

// --------------------------------------------------------------------- soc

namespace majc::soc {

template <class Ar>
void Fifo::io(Ar& a) {
  a.tag("FIFO");
  a.same(capacity_, "checkpoint: FIFO capacity mismatch");
  a.seq(bytes_, capacity_, "FIFO byte count");
  a.io(bytes_, pushed_);
}

template <class Ar>
void IoPort::io(Ar& a) {
  a.io(bytes_in_, bytes_out_);
}

template <class Ar>
void Dte::io(Ar& a) {
  a.io(bytes_moved_, descriptors_);
}

template <class Ar>
void Majc5200::io(Ar& a) {
  Shared& s = *shared_;
  a.tag("CHIP");
  io_memory(a, mem_);
  a.io(s.ms, s.ecc);
  for (u32 c = 0; c < num_cpus_; ++c) a.io(*cpus_[c]);
  a.io(s.dte, s.nupa, s.nupa.fifo(), s.supa, s.pci);
}

} // namespace majc::soc

// ------------------------------------------------------ top-level overloads

namespace majc::ckpt {

namespace {

// FNV-1a maps a zero byte h -> h * P, so an all-zero 4 KB page hashes to
// h * P^4096: one multiply instead of 4096.
constexpr u64 kFnvPrimePage = [] {
  u64 p = 1;
  for (std::size_t i = 0; i < kPageBytes; ++i) p *= kFnvPrime;
  return p;
}();

/// fnv_bytes over the whole arena, visiting only its non-zero pages.
void fnv_memory(u64& h, const sim::FlatMemory& m) {
  std::size_t done = 0;  // bytes hashed so far; every gap is whole pages
  m.for_each_nonzero_page([&](std::size_t off, std::span<const u8> page) {
    for (; done < off; done += kPageBytes) h *= kFnvPrimePage;
    fnv_bytes(h, page);
    done = off + page.size();
  });
  for (; done + kPageBytes <= m.size(); done += kPageBytes) h *= kFnvPrimePage;
  fnv_bytes(h, m.raw().subspan(done));  // a short all-zero tail page
}

void fnv_state(u64& h, const sim::CpuState& st) {
  for (u32 v : st.regs) fnv_u64(h, v);
  fnv_u64(h, st.pc);
}

} // namespace

u64 arch_digest(const sim::FunctionalSim& s) {
  u64 h = kFnvOffset;
  fnv_memory(h, s.memory());
  fnv_state(h, s.state());
  return h;
}

u64 arch_digest(const soc::Majc5200& s) {
  u64 h = kFnvOffset;
  fnv_memory(h, s.memory());
  for (u32 c = 0; c < s.num_cpus(); ++c)
    for (u32 t = 0; t < s.cpu(c).hw_threads(); ++t)
      fnv_state(h, s.cpu(c).state(t));
  return h;
}

std::vector<u8> save_checkpoint(const sim::FunctionalSim& s) {
  Writer w;
  write_header(w, Mode::kFunctional, 0, image_hash(s.program().image()));
  // io() also restores, so it is not const; a Writer only reads the state.
  const_cast<sim::FunctionalSim&>(s).io(w);
  return w.take();
}

std::vector<u8> save_checkpoint(const soc::Majc5200& s) {
  Writer w;
  write_header(w, static_cast<Mode>(s.num_cpus()),
               config_fingerprint(s.memsys().config()),
               image_hash(s.program().image()));
  // io() also restores, so it is not const; a Writer only reads the state.
  const_cast<soc::Majc5200&>(s).io(w);
  return w.take();
}

void restore_checkpoint(sim::FunctionalSim& s, std::span<const u8> bytes) {
  Reader r(bytes);
  check_header(r, Mode::kFunctional, 0, image_hash(s.program().image()));
  s.io(r);
}

void restore_checkpoint(soc::Majc5200& s, std::span<const u8> bytes) {
  Reader r(bytes);
  check_header(r, static_cast<Mode>(s.num_cpus()),
               config_fingerprint(s.memsys().config()),
               image_hash(s.program().image()));
  s.io(r);
}

} // namespace majc::ckpt
