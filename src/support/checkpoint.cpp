// Checkpoint serialization: primitives, the header, and the save/restore
// definitions of every component (declared as members in the components'
// own headers so they can reach private state; gathered here so the full
// format lives in one translation unit, in serialization order).
#include "src/support/checkpoint.h"

#include <algorithm>
#include <bit>
#include <fstream>
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

void Writer::put_f64(double v) { put_u64(std::bit_cast<u64>(v)); }

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

double Reader::get_f64() { return std::bit_cast<double>(get_u64()); }

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

namespace {

/// `v`, a count or index read from a checkpoint, if it is at most `max`
/// (the capacity it describes); majc::Error otherwise. Applied before the
/// value sizes or indexes anything, so a corrupt file cannot drive an
/// allocation or an out-of-range access.
u64 bounded(u64 v, u64 max, const char* what) {
  if (v > max)
    throw Error(std::string("checkpoint: ") + what + " " + std::to_string(v) +
                " out of range (at most " + std::to_string(max) + ")");
  return v;
}

} // namespace

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
  fnv_u64(h, c.line_bytes);
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

// ------------------------------------------------- shared struct serializers

namespace majc {
namespace {

void save_trap(ckpt::Writer& w, const Trap& t) {
  w.put_u8(static_cast<u8>(t.code));
  w.put_u32(t.cpu);
  w.put_u64(t.pc);
  w.put_u64(t.cycle);
  w.put_u8(static_cast<u8>(t.unit));
  w.put_string(t.detail);
  w.put_u32(t.value);
  w.put_bool(t.deliverable);
}

void restore_trap(ckpt::Reader& r, Trap& t) {
  t.code = static_cast<TrapCause>(r.get_u8());
  t.cpu = r.get_u32();
  t.pc = r.get_u64();
  t.cycle = r.get_u64();
  t.unit = static_cast<TimeUnit>(r.get_u8());
  t.detail = r.get_string();
  t.value = r.get_u32();
  t.deliverable = r.get_bool();
}

void save_state(ckpt::Writer& w, const sim::CpuState& st) {
  for (u32 v : st.regs) w.put_u32(v);
  w.put_u64(st.pc);
  w.put_bool(st.halted);
  w.put_u64(st.tvec);
  w.put_u32(st.tcause);
  w.put_u64(st.tpc);
  w.put_u64(st.tnpc);
  w.put_u32(st.tdetail);
  w.put_bool(st.in_trap);
}

void restore_state(ckpt::Reader& r, sim::CpuState& st) {
  for (u32& v : st.regs) v = r.get_u32();
  st.pc = r.get_u64();
  st.halted = r.get_bool();
  st.tvec = r.get_u64();
  st.tcause = r.get_u32();
  st.tpc = r.get_u64();
  st.tnpc = r.get_u64();
  st.tdetail = r.get_u32();
  st.in_trap = r.get_bool();
}

// Flat memory, sparse: all-zero 4 KB pages are elided; a ~0 page index
// terminates the page list. Restore zero-fills first, so the elided pages
// come back exactly as written.
constexpr std::size_t kPageBytes = 4096;

void save_memory(ckpt::Writer& w, const sim::FlatMemory& m) {
  w.put_tag("MEM ");
  const std::span<const u8> raw = m.raw();
  w.put_u64(raw.size());
  for (std::size_t p = 0; p * kPageBytes < raw.size(); ++p) {
    const std::size_t off = p * kPageBytes;
    const std::span<const u8> page =
        raw.subspan(off, std::min(kPageBytes, raw.size() - off));
    if (std::all_of(page.begin(), page.end(), [](u8 b) { return b == 0; }))
      continue;
    w.put_u64(p);
    w.put_u32(static_cast<u32>(page.size()));
    w.put_bytes(page);
  }
  w.put_u64(~u64{0});
}

void restore_memory(ckpt::Reader& r, sim::FlatMemory& m) {
  r.expect_tag("MEM ");
  const std::span<u8> raw = m.raw();
  if (r.get_u64() != raw.size())
    throw Error("checkpoint: memory size mismatch");
  std::fill(raw.begin(), raw.end(), u8{0});
  for (;;) {
    const u64 p = r.get_u64();
    if (p == ~u64{0}) break;
    const u32 n = r.get_u32();
    const std::size_t off = static_cast<std::size_t>(p) * kPageBytes;
    if (off + n > raw.size() || n > kPageBytes)
      throw Error("checkpoint: memory page out of range");
    r.get_bytes(raw.subspan(off, n));
  }
}

void save_cpu_stats(ckpt::Writer& w, const cpu::CpuStats& s) {
  w.put_u64(s.packets);
  w.put_u64(s.instrs);
  s.width_hist.save(w);
  w.put_u64(s.cond_branches);
  w.put_u64(s.taken_branches);
  w.put_u64(s.mispredicts);
  w.put_u64(s.jumps);
  w.put_u64(s.thread_switches);
  w.put_u64(s.traps_delivered);
  for (u64 c : s.stalls.counts) w.put_u64(c);
}

void restore_cpu_stats(ckpt::Reader& r, cpu::CpuStats& s) {
  s.packets = r.get_u64();
  s.instrs = r.get_u64();
  s.width_hist.restore(r);
  s.cond_branches = r.get_u64();
  s.taken_branches = r.get_u64();
  s.mispredicts = r.get_u64();
  s.jumps = r.get_u64();
  s.thread_switches = r.get_u64();
  s.traps_delivered = r.get_u64();
  for (u64& c : s.stalls.counts) c = r.get_u64();
}

} // namespace

// Histogram (majc namespace).
void Histogram::save(ckpt::Writer& w) const {
  w.put_u64(buckets_.size());
  for (u64 b : buckets_) w.put_u64(b);
}

void Histogram::restore(ckpt::Reader& r) {
  if (r.get_u64() != buckets_.size())
    throw Error("checkpoint: histogram bucket-count mismatch");
  for (u64& b : buckets_) b = r.get_u64();
}

} // namespace majc

// ------------------------------------------------------------ memory system

namespace majc::mem {

void Cache::save(ckpt::Writer& w) const {
  w.put_tag("CCHE");
  w.put_u32(disabled_ways_);
  w.put_u64(lines_.size());
  for (const Line& l : lines_) {
    w.put_u64(l.tag);
    w.put_bool(l.valid);
    w.put_bool(l.dirty);
    w.put_u32(l.lru);
  }
  w.put_u64(hits_);
  w.put_u64(misses_);
  w.put_u64(writebacks_);
}

void Cache::restore(ckpt::Reader& r) {
  r.expect_tag("CCHE");
  disabled_ways_ = static_cast<u32>(
      ckpt::bounded(r.get_u32(), cfg_.ways > 1 ? cfg_.ways - 1 : 0,
                    "disabled cache ways"));
  if (r.get_u64() != lines_.size())
    throw Error("checkpoint: cache geometry mismatch (" + cfg_.name + ")");
  for (Line& l : lines_) {
    l.tag = r.get_u64();
    l.valid = r.get_bool();
    l.dirty = r.get_bool();
    l.lru = r.get_u32();
  }
  hits_ = r.get_u64();
  misses_ = r.get_u64();
  writebacks_ = r.get_u64();
}

void Dram::save(ckpt::Writer& w) const {
  w.put_tag("DRAM");
  w.put_u64(banks_.size());
  for (const Bank& b : banks_) {
    w.put_u64(b.busy);
    w.put_u64(b.open_page);
  }
  w.put_u64(channel_free_);
  w.put_u64(requests_);
  w.put_u64(bytes_);
  w.put_u64(busy_cycles_);
}

void Dram::restore(ckpt::Reader& r) {
  r.expect_tag("DRAM");
  if (r.get_u64() != banks_.size())
    throw Error("checkpoint: DRAM bank-count mismatch");
  for (Bank& b : banks_) {
    b.busy = r.get_u64();
    b.open_page = r.get_u64();
  }
  channel_free_ = r.get_u64();
  requests_ = r.get_u64();
  bytes_ = r.get_u64();
  busy_cycles_ = r.get_u64();
}

void Crossbar::save(ckpt::Writer& w) const {
  w.put_tag("XBAR");
  for (Cycle f : free_) w.put_u64(f);
  for (u64 b : bytes_) w.put_u64(b);
  w.put_u64(transfers_);
  w.put_u64(delayed_grants_);
  w.put_u64(dropped_grants_);
}

void Crossbar::restore(ckpt::Reader& r) {
  r.expect_tag("XBAR");
  for (Cycle& f : free_) f = r.get_u64();
  for (u64& b : bytes_) b = r.get_u64();
  transfers_ = r.get_u64();
  delayed_grants_ = r.get_u64();
  dropped_grants_ = r.get_u64();
}

void Lsu::save(ckpt::Writer& w) const {
  w.put_tag("LSU ");
  w.put_u64(fills_);
  // The buffers retire entries lazily; serialize only entries live past the
  // retirement boundary so the byte stream matches the eagerly-pruned
  // representation (entries at or before prune_now_ were architecturally
  // retired — keeping them in memory is purely a hot-path optimization).
  u64 n_loads = 0;
  for (Cycle c : loads_) n_loads += c > prune_now_ ? 1 : 0;
  w.put_u64(n_loads);
  for (Cycle c : loads_) {
    if (c > prune_now_) w.put_u64(c);
  }
  u64 n_stores = 0;
  for (const StoreEntry& s : stores_) n_stores += s.done > prune_now_ ? 1 : 0;
  w.put_u64(n_stores);
  for (const StoreEntry& s : stores_) {
    if (s.done <= prune_now_) continue;
    w.put_u64(s.addr);
    w.put_u32(s.bytes);
    w.put_u64(s.done);
  }
  // MSHRs sorted by line address: internal (insertion) order must not leak
  // into the byte stream (determinism rule).
  std::vector<std::pair<Addr, Cycle>> mshrs;
  mshrs.reserve(mshr_.size());
  for (const MshrEntry& e : mshr_) {
    if (e.done > prune_now_) mshrs.emplace_back(e.line, e.done);
  }
  std::sort(mshrs.begin(), mshrs.end());
  w.put_u64(mshrs.size());
  for (const auto& [line, done] : mshrs) {
    w.put_u64(line);
    w.put_u64(done);
  }
  w.put_u64(blocked_until_);
  for (const WcEntry& e : wc_) {
    w.put_u64(e.line);
    w.put_u64(e.opened);
  }
  w.put_u64(wc_done_);
  for (u64 c : counters_) w.put_u64(c);
}

void Lsu::restore(ckpt::Reader& r) {
  r.expect_tag("LSU ");
  fills_ = r.get_u64();
  // Live entries never exceed the configured buffers, except that an atomic
  // may briefly push the load buffer past capacity (the slack the
  // constructor reserves).
  loads_.resize(
      ckpt::bounded(r.get_u64(), cfg_.load_buffers + 4, "LSU load count"));
  for (Cycle& c : loads_) c = r.get_u64();
  stores_.resize(
      ckpt::bounded(r.get_u64(), cfg_.store_buffers, "LSU store count"));
  for (StoreEntry& s : stores_) {
    s.addr = r.get_u64();
    s.bytes = r.get_u32();
    s.done = r.get_u64();
  }
  mshr_.clear();
  const u64 n_mshrs = ckpt::bounded(r.get_u64(), cfg_.mshrs, "MSHR count");
  for (u64 i = 0; i < n_mshrs; ++i) {
    const Addr line = r.get_u64();
    const Cycle done = r.get_u64();
    mshr_.push_back({line, done});
  }
  blocked_until_ = r.get_u64();
  for (WcEntry& e : wc_) {
    e.line = r.get_u64();
    e.opened = r.get_u64();
  }
  wc_done_ = r.get_u64();
  for (u64& c : counters_) c = r.get_u64();
  rebuild_watermarks();
}

void EccMemory::save(ckpt::Writer& w) const {
  w.put_tag("ECC ");
  std::vector<Addr> healed(healed_.begin(), healed_.end());
  std::sort(healed.begin(), healed.end());
  w.put_u64(healed.size());
  for (Addr a : healed) w.put_u64(a);
  w.put_u64(corrected_);
  w.put_u64(machine_checks_);
  w.put_u64(retried_);
  w.put_u64(poisoned_);
  w.put_u64(silent_corruptions_);
}

void EccMemory::restore(ckpt::Reader& r) {
  r.expect_tag("ECC ");
  healed_.clear();
  const u64 n =
      ckpt::bounded(r.get_u64(), r.remaining() / 8, "ECC healed-line count");
  for (u64 i = 0; i < n; ++i) healed_.insert(r.get_u64());
  corrected_ = r.get_u64();
  machine_checks_ = r.get_u64();
  retried_ = r.get_u64();
  poisoned_ = r.get_u64();
  silent_corruptions_ = r.get_u64();
}

void MemorySystem::save(ckpt::Writer& w) const {
  w.put_tag("MSYS");
  xbar_.save(w);
  dram_.save(w);
  dcache_.save(w);
  for (const Cache& ic : icaches_) ic.save(w);
  w.put_u64(dport_free_);
  for (const auto& lsu : lsus_) lsu->save(w);
  w.put_u64(ifetch_fills_);
  w.put_u64(ifetch_parity_retries_);
  w.put_u64(ifetch_machine_checks_);
}

void MemorySystem::restore(ckpt::Reader& r) {
  r.expect_tag("MSYS");
  xbar_.restore(r);
  dram_.restore(r);
  dcache_.restore(r);
  for (Cache& ic : icaches_) ic.restore(r);
  dport_free_ = r.get_u64();
  for (auto& lsu : lsus_) lsu->restore(r);
  ifetch_fills_ = r.get_u64();
  ifetch_parity_retries_ = r.get_u64();
  ifetch_machine_checks_ = r.get_u64();
}

} // namespace majc::mem

// --------------------------------------------------------------------- cpu

namespace majc::cpu {

void Scoreboard::save(ckpt::Writer& w) const {
  for (const Entry& e : entries_) {
    w.put_u64(e.done);
    w.put_u8(e.producer);
  }
}

void Scoreboard::restore(ckpt::Reader& r) {
  for (Entry& e : entries_) {
    e.done = r.get_u64();
    e.producer = static_cast<u8>(
        ckpt::bounded(r.get_u8(), kNoProducer, "scoreboard producer"));
  }
}

void BranchPredictor::save(ckpt::Writer& w) const {
  w.put_tag("BPRD");
  w.put_u64(counters_.size());
  w.put_bytes(counters_);
  w.put_u32(ghr_);
  w.put_u64(lookups_);
  w.put_u64(correct_);
}

void BranchPredictor::restore(ckpt::Reader& r) {
  r.expect_tag("BPRD");
  if (r.get_u64() != counters_.size())
    throw Error("checkpoint: branch-predictor size mismatch");
  r.get_bytes(counters_);
  ghr_ = r.get_u32();
  lookups_ = r.get_u64();
  correct_ = r.get_u64();
}

void CycleCpu::save(ckpt::Writer& w) const {
  w.put_tag("CPU ");
  w.put_u32(active_);
  w.put_u64(current_cycle_);
  w.put_u64(now_cache_);
  w.put_u64(last_progress_);
  w.put_string(console_);
  save_cpu_stats(w, stats_);
  bpred_.save(w);
  for (const auto& fu : fu_busy_)
    for (Cycle c : fu) w.put_u64(c);
  w.put_bool(trap_.has_value());
  if (trap_) save_trap(w, *trap_);
  save_trap(w, last_trap_);
  w.put_u64(threads_.size());
  for (const ThreadCtx& th : threads_) {
    save_state(w, th.state);
    th.sb.save(w);
    w.put_u64(th.ready);
  }
}

void CycleCpu::restore(ckpt::Reader& r) {
  r.expect_tag("CPU ");
  active_ = static_cast<u32>(
      ckpt::bounded(r.get_u32(), threads_.size() - 1, "active thread"));
  current_cycle_ = r.get_u64();
  now_cache_ = r.get_u64();
  last_progress_ = r.get_u64();
  console_ = r.get_string();
  restore_cpu_stats(r, stats_);
  bpred_.restore(r);
  for (auto& fu : fu_busy_)
    for (Cycle& c : fu) c = r.get_u64();
  if (r.get_bool()) {
    Trap t;
    restore_trap(r, t);
    trap_ = std::move(t);
  } else {
    trap_.reset();
  }
  restore_trap(r, last_trap_);
  if (r.get_u64() != threads_.size())
    throw Error("checkpoint: hardware-thread count mismatch");
  for (ThreadCtx& th : threads_) {
    restore_state(r, th.state);
    th.sb.restore(r);
    th.ready = r.get_u64();
    // The packet-index cache is derived state: invalidate it and let the
    // next step() re-resolve through the pc -> index map.
    th.idx = sim::kNoPacketIndex;
    th.idx_pc = th.state.pc;
  }
  env_.thread_id = active_;
}

} // namespace majc::cpu

// --------------------------------------------------------------------- sim

namespace majc::sim {

void FunctionalSim::save(ckpt::Writer& w) const {
  w.put_tag("FSIM");
  save_memory(w, mem_);
  save_state(w, state_);
  w.put_string(console_);
  w.put_u64(packets_run_);
  w.put_u64(instrs_run_);
  w.put_u64(traps_delivered_);
  save_trap(w, last_trap_);
  w.put_bool(trap_div_zero_);
}

void FunctionalSim::restore(ckpt::Reader& r) {
  r.expect_tag("FSIM");
  restore_memory(r, mem_);
  restore_state(r, state_);
  console_ = r.get_string();
  packets_run_ = r.get_u64();
  instrs_run_ = r.get_u64();
  traps_delivered_ = r.get_u64();
  restore_trap(r, last_trap_);
  trap_div_zero_ = r.get_bool();
}

} // namespace majc::sim

// --------------------------------------------------------------------- soc

namespace majc::soc {

void Fifo::save(ckpt::Writer& w) const {
  w.put_tag("FIFO");
  w.put_u32(capacity_);
  w.put_u64(bytes_.size());
  for (u8 b : bytes_) w.put_u8(b);
  w.put_u64(pushed_);
}

void Fifo::restore(ckpt::Reader& r) {
  r.expect_tag("FIFO");
  if (r.get_u32() != capacity_)
    throw Error("checkpoint: FIFO capacity mismatch");
  bytes_.clear();
  const u64 n = ckpt::bounded(r.get_u64(), capacity_, "FIFO byte count");
  for (u64 i = 0; i < n; ++i) bytes_.push_back(r.get_u8());
  pushed_ = r.get_u64();
}

void IoPort::save(ckpt::Writer& w) const {
  w.put_u64(bytes_in_);
  w.put_u64(bytes_out_);
}

void IoPort::restore(ckpt::Reader& r) {
  bytes_in_ = r.get_u64();
  bytes_out_ = r.get_u64();
}

void Dte::save(ckpt::Writer& w) const {
  w.put_u64(bytes_moved_);
  w.put_u64(descriptors_);
}

void Dte::restore(ckpt::Reader& r) {
  bytes_moved_ = r.get_u64();
  descriptors_ = r.get_u64();
}

void Majc5200::save(ckpt::Writer& w) const {
  const Shared& s = *shared_;
  w.put_tag("CHIP");
  save_memory(w, mem_);
  s.ms.save(w);
  s.ecc.save(w);
  for (u32 c = 0; c < num_cpus_; ++c) cpus_[c]->save(w);
  s.dte.save(w);
  s.nupa.save(w);
  s.nupa.fifo().save(w);
  s.supa.save(w);
  s.pci.save(w);
}

void Majc5200::restore(ckpt::Reader& r) {
  Shared& s = *shared_;
  r.expect_tag("CHIP");
  restore_memory(r, mem_);
  s.ms.restore(r);
  s.ecc.restore(r);
  for (u32 c = 0; c < num_cpus_; ++c) cpus_[c]->restore(r);
  s.dte.restore(r);
  s.nupa.restore(r);
  s.nupa.fifo().restore(r);
  s.supa.restore(r);
  s.pci.restore(r);
}

} // namespace majc::soc

// ------------------------------------------------------ top-level overloads

namespace majc::ckpt {

namespace {

void fnv_state(u64& h, const sim::CpuState& st) {
  for (u32 v : st.regs) fnv_u64(h, v);
  fnv_u64(h, st.pc);
}

} // namespace

u64 arch_digest(const sim::FunctionalSim& s) {
  u64 h = kFnvOffset;
  fnv_bytes(h, s.memory().raw());
  fnv_state(h, s.state());
  return h;
}

u64 arch_digest(const soc::Majc5200& s) {
  u64 h = kFnvOffset;
  fnv_bytes(h, s.memory().raw());
  for (u32 c = 0; c < s.num_cpus(); ++c)
    for (u32 t = 0; t < s.cpu(c).hw_threads(); ++t)
      fnv_state(h, s.cpu(c).state(t));
  return h;
}

std::vector<u8> save_checkpoint(const sim::FunctionalSim& s) {
  Writer w;
  write_header(w, Mode::kFunctional, 0, image_hash(s.program().image()));
  s.save(w);
  return w.take();
}

std::vector<u8> save_checkpoint(const soc::Majc5200& s) {
  Writer w;
  write_header(w, static_cast<Mode>(s.num_cpus()),
               config_fingerprint(s.memsys().config()),
               image_hash(s.program().image()));
  s.save(w);
  return w.take();
}

void restore_checkpoint(sim::FunctionalSim& s, std::span<const u8> bytes) {
  Reader r(bytes);
  check_header(r, Mode::kFunctional, 0, image_hash(s.program().image()));
  s.restore(r);
}

void restore_checkpoint(soc::Majc5200& s, std::span<const u8> bytes) {
  Reader r(bytes);
  check_header(r, static_cast<Mode>(s.num_cpus()),
               config_fingerprint(s.memsys().config()),
               image_hash(s.program().image()));
  s.restore(r);
}

} // namespace majc::ckpt
