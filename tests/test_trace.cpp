// The observability layer: the JSON emitter, Chrome trace export (structure
// a trace viewer will accept), the cycle-attribution profiler (whose totals
// must reconcile exactly with the CPU's own StallCounters), the --stats-json
// schema, and the bench Table JSON dump. Everything here must also be
// byte-stable: identical runs produce identical artifacts.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/kernels/fir.h"
#include "src/kernels/kernel.h"
#include "src/kernels/mb_decode.h"
#include "src/masm/assembler.h"
#include "src/soc/chip.h"
#include "src/trace/chrome_trace.h"
#include "src/trace/json.h"
#include "src/trace/profiler.h"
#include "src/trace/stats_json.h"

namespace majc {
namespace {

// ---- a minimal structural JSON validator ----
//
// Not a parser-of-record: enough of RFC 8259 to reject anything a real
// trace viewer's JSON.parse would reject (unbalanced structure, trailing
// commas, bad literals, unescaped control characters).
class JsonChecker {
public:
  static bool valid(const std::string& text, std::string* err = nullptr) {
    JsonChecker c(text);
    const bool ok = c.value() && (c.skip_ws(), c.pos_ == text.size());
    if (!ok && err != nullptr) {
      *err = "JSON error near offset " + std::to_string(c.pos_);
    }
    return ok;
  }

private:
  explicit JsonChecker(const std::string& t) : t_(t) {}

  void skip_ws() {
    while (pos_ < t_.size() && (t_[pos_] == ' ' || t_[pos_] == '\n' ||
                                t_[pos_] == '\r' || t_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool literal(const char* s) {
    const std::size_t n = std::strlen(s);
    if (t_.compare(pos_, n, s) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string() {
    if (t_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < t_.size()) {
      const char c = t_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= t_.size()) return false;
        const char e = t_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= t_.size() ||
                !std::isxdigit(static_cast<unsigned char>(t_[pos_]))) {
              return false;
            }
          }
        } else if (std::strchr("\"\\/bfnrt", e) == nullptr) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < t_.size() && t_[pos_] == '-') ++pos_;
    while (pos_ < t_.size() &&
           (std::isdigit(static_cast<unsigned char>(t_[pos_])) ||
            t_[pos_] == '.' || t_[pos_] == 'e' || t_[pos_] == 'E' ||
            t_[pos_] == '+' || t_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool value() {
    skip_ws();
    if (pos_ >= t_.size()) return false;
    const char c = t_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < t_.size() && t_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= t_.size() || !string()) return false;
      skip_ws();
      if (pos_ >= t_.size() || t_[pos_] != ':') return false;
      ++pos_;
      if (!value()) return false;
      skip_ws();
      if (pos_ < t_.size() && t_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < t_.size() && t_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < t_.size() && t_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (pos_ < t_.size() && t_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < t_.size() && t_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& t_;
  std::size_t pos_ = 0;
};

// ---- helpers ----

/// Count lines in the trace body containing `needle` (the writer emits one
/// event per line, so substring counting is event counting).
u64 count_lines_with(const std::string& text, const std::string& needle) {
  u64 n = 0;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.find(needle) != std::string::npos) ++n;
  }
  return n;
}

/// Extract the integer value of `"key":` on each line containing `filter`.
std::vector<i64> field_on_lines(const std::string& text,
                                const std::string& filter,
                                const std::string& key) {
  std::vector<i64> out;
  std::istringstream is(text);
  std::string line;
  const std::string k = "\"" + key + "\":";
  while (std::getline(is, line)) {
    if (line.find(filter) == std::string::npos) continue;
    const auto pos = line.find(k);
    if (pos == std::string::npos) continue;
    out.push_back(std::strtoll(line.c_str() + pos + k.size(), nullptr, 10));
  }
  return out;
}

/// One kernel run with the full observability stack installed: Chrome trace
/// recorder + LSU recorder + profiler all fed from the same event streams.
struct TracedRun {
  std::string trace_json;
  soc::Majc5200::Result result;
  cpu::CpuStats stats;
  u64 lsu_load_misses = 0;
  u64 lsu_store_misses = 0;
  u64 lsu_prefetches = 0;
  trace::CycleProfiler::Totals totals;
  std::string profile_report;
  std::string stats_json;
  u64 events_written = 0;
};

TracedRun traced_kernel_run(const kernels::KernelSpec& spec) {
  const TimingConfig cfg;
  soc::Majc5200 sim(masm::assemble_or_throw(spec.source), 1, cfg);
  if (spec.setup) spec.setup(sim.memory(), sim.program().image());

  std::ostringstream trace_os;
  trace::ChromeTraceWriter writer(trace_os);
  trace::CpuTraceRecorder recorder(writer, sim.program(), cfg, 0);
  trace::LsuTraceRecorder lsu_recorder(writer, 0);
  lsu_recorder.attach(sim.memsys().lsu(0));
  trace::CycleProfiler profiler(sim.program());
  sim.cpu().set_trace([&](const cpu::TraceEvent& ev) {
    recorder.on_event(ev);
    profiler.on_event(ev);
  });

  TracedRun out;
  out.result = sim.run(spec.max_packets);
  out.events_written = writer.events_written();
  writer.finish();
  out.trace_json = trace_os.str();
  out.stats = sim.cpu().stats();
  out.lsu_load_misses =
      sim.memsys().lsu(0).counter(mem::LsuCounter::kLoadMisses);
  out.lsu_store_misses =
      sim.memsys().lsu(0).counter(mem::LsuCounter::kStoreMisses);
  out.lsu_prefetches =
      sim.memsys().lsu(0).counter(mem::LsuCounter::kPrefetches);
  out.totals = profiler.totals();
  out.profile_report = profiler.report(10, out.result.cycles);
  std::ostringstream stats_os;
  trace::write_stats_json(stats_os, sim, out.result);
  out.stats_json = stats_os.str();
  return out;
}

/// The mb_decode run is the acceptance workload; trace it once and share.
const TracedRun& mb_run() {
  static const TracedRun run =
      traced_kernel_run(kernels::make_mb_decode_spec());
  return run;
}

// ---- JsonWriter ----

TEST(JsonWriter, BasicDocumentEscapesAndValidates) {
  std::ostringstream os;
  trace::JsonWriter j(os);
  j.begin_object();
  j.kv("s", "a\"b\\c\n\t");
  j.kv("n", 3.14159265);
  j.kv("i", u64{18446744073709551615ull});
  j.kv("neg", i64{-7});
  j.kv("b", true);
  j.key("arr").begin_array().value(u64{1}).value(u64{2}).end_array();
  j.key("empty").begin_object().end_object();
  j.end_object();
  const std::string text = os.str();
  std::string err;
  EXPECT_TRUE(JsonChecker::valid(text, &err)) << err << "\n" << text;
  EXPECT_NE(text.find("\"a\\\"b\\\\c\\n\\t\""), std::string::npos);
  EXPECT_NE(text.find("3.14159"), std::string::npos);
  EXPECT_NE(text.find("18446744073709551615"), std::string::npos);
  EXPECT_NE(text.find("-7"), std::string::npos);
}

TEST(JsonWriter, NonFiniteNumbersBecomeZero) {
  EXPECT_EQ(trace::json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(trace::json_number(std::numeric_limits<double>::quiet_NaN()), "0");
}

TEST(JsonWriter, CompactModeIsSingleLine) {
  std::ostringstream os;
  trace::JsonWriter j(os, /*pretty=*/false);
  j.begin_object();
  j.kv("a", u64{1});
  j.key("b").begin_array().value(u64{2}).end_array();
  j.end_object();
  EXPECT_EQ(os.str().find('\n'), std::string::npos);
  EXPECT_TRUE(JsonChecker::valid(os.str()));
}

// ---- Chrome trace ----

TEST(ChromeTrace, MbDecodeTraceIsStructurallyValid) {
  const TracedRun& run = mb_run();
  ASSERT_TRUE(run.result.halted);

  std::string err;
  ASSERT_TRUE(JsonChecker::valid(run.trace_json, &err)) << err;

  // Document shape + viewer metadata.
  EXPECT_EQ(run.trace_json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(count_lines_with(run.trace_json, "\"process_name\""), 1u);
  EXPECT_EQ(count_lines_with(run.trace_json, "\"thread_name\""), 7u);

  // One issue slice per issued packet; one FU slice per instruction (each
  // instruction occupies exactly one pipe).
  EXPECT_EQ(count_lines_with(run.trace_json, "\"cat\":\"packet\""),
            run.result.packets);
  EXPECT_EQ(count_lines_with(run.trace_json, "\"cat\":\"fu\""),
            run.result.instrs);

  // Async LSU slices come in begin/end pairs, and the event counter matches
  // what actually reached the stream.
  EXPECT_EQ(count_lines_with(run.trace_json, "\"ph\":\"b\""),
            count_lines_with(run.trace_json, "\"ph\":\"e\""));
  EXPECT_EQ(count_lines_with(run.trace_json, "\"ph\":"), run.events_written);
}

TEST(ChromeTrace, IssueTimestampsAreNonDecreasing) {
  const TracedRun& run = mb_run();
  const auto ts = field_on_lines(run.trace_json, "\"cat\":\"packet\"", "ts");
  ASSERT_EQ(ts.size(), run.result.packets);
  for (std::size_t i = 1; i < ts.size(); ++i) {
    ASSERT_GE(ts[i], ts[i - 1]) << "issue event " << i;
  }
  // The last issue happens strictly before the run's end cycle.
  EXPECT_LT(static_cast<u64>(ts.back()), run.result.cycles);
}

TEST(ChromeTrace, ByteStableAcrossIdenticalRuns) {
  const TracedRun a = traced_kernel_run(kernels::make_fir_spec());
  const TracedRun b = traced_kernel_run(kernels::make_fir_spec());
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.stats_json, b.stats_json);
  EXPECT_EQ(a.profile_report, b.profile_report);
  // And the acceptance workload reproduces the shared run byte-for-byte.
  const TracedRun c = traced_kernel_run(kernels::make_mb_decode_spec());
  EXPECT_EQ(c.trace_json, mb_run().trace_json);
}

TEST(ChromeTrace, StallSlicesCoverTheStallCounterTotals) {
  const TracedRun& run = mb_run();
  // Sum of slice durations per stall cause == the CPU's flat counters.
  const std::pair<const char*, cpu::StallCause> causes[] = {
      {"stall_ifetch", cpu::StallCause::kIfetch},
      {"stall_operand", cpu::StallCause::kOperand},
      {"stall_fu_busy", cpu::StallCause::kFuBusy},
      {"stall_lsu", cpu::StallCause::kLsu},
      {"stall_branch_penalty", cpu::StallCause::kBranchPenalty},
  };
  for (const auto& [name, cause] : causes) {
    const auto durs = field_on_lines(
        run.trace_json, "\"name\":\"" + std::string(name) + "\"", "dur");
    u64 sum = 0;
    for (i64 d : durs) sum += static_cast<u64>(d);
    EXPECT_EQ(sum, run.stats.stalls.get(cause)) << name;
  }
  // Mispredict instants match the predictor's count.
  EXPECT_EQ(count_lines_with(run.trace_json, "\"name\":\"mispredict\""),
            run.stats.mispredicts);
}

TEST(ChromeTrace, LsuMissesBecomeAsyncFillSlices) {
  const TracedRun& run = mb_run();
  // mb_decode streams macroblocks through a cold D$, so fills must occur.
  const u64 miss_events =
      run.lsu_load_misses + run.lsu_store_misses + run.lsu_prefetches;
  ASSERT_GT(miss_events, 0u);
  const u64 begins = count_lines_with(run.trace_json, "\"ph\":\"b\"");
  EXPECT_GT(begins, 0u);
  // MSHR merges coalesce into one fill, so slices never exceed miss events.
  EXPECT_LE(begins, miss_events);
  // Fill slices carry the line address label.
  EXPECT_GT(count_lines_with(run.trace_json, "_miss @0x"), 0u);
}

// ---- profiler ----

TEST(Profiler, TotalsReconcileExactlyWithCpuCounters) {
  const TracedRun& run = mb_run();
  const auto& t = run.totals;
  EXPECT_EQ(t.packets, run.stats.packets);
  EXPECT_EQ(t.instrs, run.stats.instrs);
  EXPECT_EQ(t.mispredicts, run.stats.mispredicts);
  for (u32 i = 0; i < cpu::kNumStallCauses; ++i) {
    EXPECT_EQ(t.stall[i], run.stats.stalls.counts[i]) << "stall cause " << i;
  }
  // Per-FU slot occupancy sums to the instruction count.
  u64 slots = 0;
  for (u64 s : t.fu_slots) slots += s;
  EXPECT_EQ(slots, t.instrs);
  // Cycle-attribution identity: issue + stalls + switch overhead == run
  // length (single thread: no switch overhead).
  EXPECT_EQ(t.switches, 0u);
  EXPECT_EQ(t.attributed_cycles(0), run.result.cycles);
}

TEST(Profiler, BypassHistogramCoversEveryDeliveryPath) {
  // Every operand read is classified onto exactly one delivery path, and the
  // report names every path that delivered at least one operand.
  const TracedRun& run = mb_run();
  EXPECT_GT(run.totals.bypass_total(), 0u);
  for (u32 i = 0; i < cpu::kNumBypassPaths; ++i) {
    if (run.totals.bypass[i] == 0) continue;
    EXPECT_NE(run.profile_report.find(cpu::bypass_path_name(
                  static_cast<cpu::BypassPath>(i))),
              std::string::npos);
  }
}

TEST(Profiler, HotPacketReportNamesTheHotLoop) {
  const TracedRun& run = mb_run();
  EXPECT_NE(run.profile_report.find("== cycle profile =="), std::string::npos);
  EXPECT_NE(run.profile_report.find("hot packets"), std::string::npos);
  EXPECT_NE(run.profile_report.find("pc=0x"), std::string::npos);
  // Hot rows are disasm-annotated (packets render with the ";;" terminator).
  EXPECT_NE(run.profile_report.find(";;"), std::string::npos);
}

// ---- stats json ----

TEST(StatsJson, CycleSchemaIsValidAndCarriesTheRunNumbers) {
  const TracedRun& run = mb_run();
  std::string err;
  ASSERT_TRUE(JsonChecker::valid(run.stats_json, &err)) << err;
  EXPECT_NE(run.stats_json.find("\"schema\": \"majc-stats-v1\""),
            std::string::npos);
  EXPECT_NE(run.stats_json.find("\"mode\": \"cycle\""), std::string::npos);
  EXPECT_NE(run.stats_json.find("\"cycles\": " +
                                std::to_string(run.result.cycles)),
            std::string::npos);
  EXPECT_NE(run.stats_json.find("\"packets\": " +
                                std::to_string(run.result.packets)),
            std::string::npos);
  EXPECT_NE(run.stats_json.find("\"stalls\""), std::string::npos);
  EXPECT_NE(run.stats_json.find("\"lsu\""), std::string::npos);
  EXPECT_NE(run.stats_json.find("\"dcache\""), std::string::npos);
  EXPECT_NE(run.stats_json.find("\"reason\": \"halted\""), std::string::npos);
}

TEST(StatsJson, FunctionalSchemaIsValid) {
  const auto spec = kernels::make_fir_spec();
  sim::FunctionalSim sim(masm::assemble_or_throw(spec.source));
  if (spec.setup) spec.setup(sim.memory(), sim.program().image());
  const auto res = sim.run(spec.max_packets);
  std::ostringstream os;
  trace::write_stats_json(os, sim, res);
  std::string err;
  ASSERT_TRUE(JsonChecker::valid(os.str(), &err)) << err;
  EXPECT_NE(os.str().find("\"mode\": \"functional\""), std::string::npos);
  EXPECT_NE(os.str().find("\"program_packets\""), std::string::npos);
}

TEST(StatsJson, ChipModeTracesBothCpusAndTheDte) {
  // A dual-CPU program plus a DTE descriptor: the chip trace grows a track
  // group per CPU and one for the DTE, and the chip stats dump covers both
  // CPUs and the DMA engine.
  const char* src = R"(
    getcpu g3
    addi g4, g3, 1
    halt
  )";
  const TimingConfig cfg;
  soc::Majc5200 chip(masm::assemble_or_throw(src), 2, cfg);

  std::ostringstream trace_os;
  trace::ChromeTraceWriter writer(trace_os);
  std::vector<std::unique_ptr<trace::CpuTraceRecorder>> recs;
  for (u32 c = 0; c < soc::Majc5200::kNumCpus; ++c) {
    recs.push_back(std::make_unique<trace::CpuTraceRecorder>(
        writer, chip.program(), cfg, c));
    recs.back()->attach(chip.cpu(c));
  }
  trace::DteTraceRecorder dte_rec(writer);
  dte_rec.attach(chip.dte());

  const auto res = chip.run();
  ASSERT_TRUE(res.halted);
  // One DMA descriptor after the CPUs halt (the DTE only needs `now`).
  chip.dte().submit({0x100000, 0x180000, 4096}, res.cycles);
  writer.finish();
  const std::string text = trace_os.str();

  std::string err;
  ASSERT_TRUE(JsonChecker::valid(text, &err)) << err;
  EXPECT_EQ(count_lines_with(text, "\"name\":\"cpu0\""), 1u);
  EXPECT_EQ(count_lines_with(text, "\"name\":\"cpu1\""), 1u);
  EXPECT_EQ(count_lines_with(text, "\"name\":\"dte\""), 1u);
  EXPECT_EQ(count_lines_with(text, "\"cat\":\"dma\""), 1u);

  std::ostringstream stats_os;
  trace::write_stats_json(stats_os, chip, res);
  ASSERT_TRUE(JsonChecker::valid(stats_os.str(), &err)) << err;
  EXPECT_NE(stats_os.str().find("\"mode\": \"chip\""), std::string::npos);
  EXPECT_NE(stats_os.str().find("\"id\": 0"), std::string::npos);
  EXPECT_NE(stats_os.str().find("\"id\": 1"), std::string::npos);
  EXPECT_NE(stats_os.str().find("\"dte\""), std::string::npos);
  EXPECT_NE(stats_os.str().find("\"descriptors\": 1"), std::string::npos);
}

// ---- bench table json ----

TEST(BenchTable, JsonDumpMatchesTheRows) {
  // Every bench_* binary routes through Table; smoke the schema here so a
  // regression is caught by unit tests, not only by running the benches.
  const std::string path = ::testing::TempDir() + "bench_table.json";
  std::string flag = "--json=" + path;
  char prog[] = "bench_test";
  char* argv[] = {prog, flag.data()};
  {
    bench::Table t("unit-test table", 2, argv);
    t.row("alpha", "1 cycle", "2 cycles");
    t.row("beta", "3 MB/s", "4.5 MB/s", 4.5, "MB/s");
    t.note("a note line");
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::string err;
  ASSERT_TRUE(JsonChecker::valid(text, &err)) << err << "\n" << text;
  EXPECT_NE(text.find("\"schema\": \"majc-bench-v1\""), std::string::npos);
  EXPECT_NE(text.find("\"title\": \"unit-test table\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"alpha\""), std::string::npos);
  EXPECT_NE(text.find("\"value\": 4.5"), std::string::npos);
  EXPECT_NE(text.find("\"unit\": \"MB/s\""), std::string::npos);
  EXPECT_NE(text.find("\"a note line\""), std::string::npos);
}

} // namespace
} // namespace majc
