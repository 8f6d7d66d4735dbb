// Host-throughput smoke benchmark: how many simulated packets per host
// second the interpreters sustain. Runs guest workloads (IDCT, FIR, the
// mb_decode macroblock pipeline, and a dual-CPU sum-of-products chip run)
// under the instruction-accurate and cycle-accurate models, timing the run
// loop only — sim construction (dominated by zeroing guest memory) is kept
// off the clock so the numbers track the interpreter hot path.
//
// Output: a human-readable table on stdout and BENCH_host.json (see --out).
// With --baseline=<json from a previous run>, exits 1 if any baseline
// entry's MIPS regresses by more than --tolerance (default 0.30) — this is
// the CI perf-smoke gate.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/farm/farm.h"
#include "src/kernels/fir.h"
#include "src/kernels/idct.h"
#include "src/kernels/kernel.h"
#include "src/kernels/mb_decode.h"
#include "src/kernels/table12.h"
#include "src/masm/assembler.h"
#include "src/sim/functional_sim.h"
#include "src/soc/chip.h"
#include "src/support/rng.h"
#include "src/trace/json.h"

namespace {

using namespace majc;

// Guest memory for benchmark runs: big enough for every workload (the chip
// workload's input block sits at 2 MB), small enough that the per-rep
// construction memset stays cheap.
constexpr std::size_t kMemBytes = 8u << 20;

struct Sample {
  u64 packets = 0;
  u64 instrs = 0;
  double secs = 0;  // run-loop time only
};

struct Result {
  std::string name;
  double packets_per_sec = 0;
  double mips = 0;
  u64 sim_packets = 0;  // per rep
  u64 sim_instrs = 0;
  int reps = 0;
};

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename RunOnce>
Result measure(const std::string& name, double min_secs, RunOnce run_once) {
  // Repeat whole guest runs until the accumulated *run-loop* time reaches
  // min_secs (bounded, so tiny workloads can't spin forever on
  // construction overhead).
  constexpr int kMaxReps = 2000;
  Result r;
  r.name = name;
  double secs = 0;
  u64 packets = 0;
  u64 instrs = 0;
  while (secs < min_secs && r.reps < kMaxReps) {
    const Sample s = run_once();
    secs += s.secs;
    packets += s.packets;
    instrs += s.instrs;
    r.sim_packets = s.packets;
    r.sim_instrs = s.instrs;
    ++r.reps;
  }
  if (secs > 0) {
    r.packets_per_sec = static_cast<double>(packets) / secs;
    r.mips = static_cast<double>(instrs) / secs / 1e6;
  }
  return r;
}

Sample run_functional(const sim::ProgramRef& prog,
                      const kernels::KernelSpec& spec, sim::ExecBackend be) {
  // Shared predecode (and, for the threaded backend, the per-Program
  // translation cache warmed once by the caller): construction per rep only
  // re-zeroes the arena, mirroring the farm's machine-reuse path.
  sim::FunctionalSim sim(prog, kMemBytes);
  sim.set_backend(be);
  if (spec.setup) spec.setup(sim.memory(), sim.program().image());
  const auto t0 = Clock::now();
  const sim::RunResult res = sim.run(spec.max_packets);
  return {res.packets, res.instrs, since(t0)};
}

Sample run_cycle(const masm::Image& img, const kernels::KernelSpec& spec) {
  soc::Majc5200 sim(img, 1, TimingConfig{}, kMemBytes);
  if (spec.setup) spec.setup(sim.memory(), sim.program().image());
  const auto t0 = Clock::now();
  const soc::Majc5200::Result res = sim.run(spec.max_packets);
  return {res.packets, res.instrs, since(t0)};
}

// Dual-CPU chip workload: the sum-of-products split by GETCPU (the shape
// test_dual_parallel validates), sized so both CPUs stream from DRDRAM.
constexpr u32 kSopTotal = 8192;
constexpr Addr kSopBase = 0x200000;

std::string sop_program() {
  const u32 per_cpu = kSopTotal / 2;
  std::string src = R"(
    .data
  partial: .space 8
    .code
    getcpu g20
    sethi g3, 0x20
    orlo g3, 0
  )";
  src += "    slli g21, g20, " +
         std::to_string(31 - __builtin_clz(per_cpu * 4)) + "\n";
  src += "    add g3, g3, g21\n";
  src += "    sethi g7, " + std::to_string(per_cpu >> 16) + "\n";
  src += "    orlo g7, " + std::to_string(per_cpu & 0xFFFF) + "\n";
  src += R"(
    setlo g6, 0
  lp:
    ldwi g4, g3, 0
    nop | madd g6, g4, g4
    addi g3, g3, 4
    addi g7, g7, -1
    bnz g7, lp
    sethi g8, %hi(partial)
    orlo g8, %lo(partial)
    slli g9, g20, 2
    stw g6, g8, g9
    membar
    halt
  )";
  return src;
}

Sample run_chip(const masm::Image& img) {
  soc::Majc5200 chip(img, 2, TimingConfig{}, kMemBytes);
  SplitMix64 rng(404);
  for (u32 i = 0; i < kSopTotal; ++i) {
    chip.memory().write_u32(kSopBase + 4 * i, rng.next_below(1000));
  }
  const auto t0 = Clock::now();
  const soc::Majc5200::Result res = chip.run();
  return {res.packets, res.instrs, since(t0)};
}

/// Aggregate farm throughput: one rep = a fault-free cycle-mode campaign of
/// all 16 Table 1/2 kernels on the farm engine at host hardware concurrency.
/// The engine (compiled kernels, shared predecode) is built once by the
/// caller and kept off the clock, mirroring how sim construction is excluded
/// above; the engine's own wall measurement is the sample time.
farm::Engine make_farm_soak16() {
  farm::Engine eng;
  for (const kernels::NamedKernel& nk : kernels::table12_kernels()) {
    eng.add_kernel(kernels::table12_spec(nk));
  }
  for (u32 ki = 0; ki < eng.num_kernels(); ++ki) {
    farm::Job job;
    job.kernel = ki;
    eng.submit(job);
  }
  return eng;
}

Sample run_farm(const farm::Engine& eng) {
  farm::CampaignStats stats;
  (void)eng.run(/*workers=*/0, &stats);
  return {stats.total_packets, stats.total_instrs, stats.wall_secs};
}

void write_json(const std::string& path, const std::vector<Result>& results,
                double min_secs) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "bench_host_mips: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  // The writer emits keys in call order; "name" before "mips" is load-bearing
  // for parse_baseline below (and for existing checked-in baselines).
  trace::JsonWriter j(os);
  j.begin_object();
  j.kv("min_time_s", min_secs);
  j.key("results").begin_array();
  for (const Result& r : results) {
    j.begin_object();
    j.kv("name", r.name);
    j.kv("packets_per_sec", r.packets_per_sec);
    j.kv("mips", r.mips);
    j.kv("sim_packets", r.sim_packets);
    j.kv("sim_instrs", r.sim_instrs);
    j.kv("reps", r.reps);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  os << "\n";
}

struct BaselineEntry {
  double mips = 0;
  long reps = 0;
};

/// Minimal extraction of {name -> {mips, reps}} from a previous run's JSON
/// (the emitter above always writes "name" before "mips" before "reps" in
/// each entry). A baseline entry without a positive "reps" count is not
/// self-describing — it never names how much measurement backs it — so the
/// gate rejects it outright instead of trusting it.
std::map<std::string, BaselineEntry> parse_baseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_host_mips: cannot read baseline %s\n",
                 path.c_str());
    std::exit(2);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::map<std::string, BaselineEntry> out;
  std::size_t pos = 0;
  while ((pos = text.find("\"name\":", pos)) != std::string::npos) {
    const std::size_t q1 = text.find('"', pos + 7);
    const std::size_t q2 = text.find('"', q1 + 1);
    const std::size_t m = text.find("\"mips\":", q2);
    if (q1 == std::string::npos || q2 == std::string::npos ||
        m == std::string::npos) {
      break;
    }
    const std::string name = text.substr(q1 + 1, q2 - q1 - 1);
    BaselineEntry e;
    e.mips = std::strtod(text.c_str() + m + 7, nullptr);
    // "reps" belongs to this entry only if it appears before the next entry.
    const std::size_t r = text.find("\"reps\":", m);
    const std::size_t next = text.find("\"name\":", q2);
    if (r != std::string::npos && (next == std::string::npos || r < next)) {
      e.reps = std::strtol(text.c_str() + r + 7, nullptr, 10);
    }
    if (e.reps <= 0) {
      std::fprintf(stderr,
                   "bench_host_mips: baseline entry \"%s\" has reps=%ld; a "
                   "baseline must record the rep count that produced it\n",
                   name.c_str(), e.reps);
      std::exit(2);
    }
    out[name] = e;
    pos = q2;
  }
  return out;
}

} // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_host.json";
  std::string baseline_path;
  double min_secs = 0.5;
  double tolerance = 0.30;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--json-out=", 0) == 0) {  // alias for CI recipes
      out_path = arg.substr(11);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--min-time=", 0) == 0) {
      min_secs = std::strtod(arg.c_str() + 11, nullptr);
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      tolerance = std::strtod(arg.c_str() + 12, nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: bench_host_mips [--out=FILE | --json-out=FILE] "
                   "[--baseline=FILE] [--min-time=SECS] [--tolerance=FRAC]\n");
      return 2;
    }
  }

  struct KernelCase {
    const char* name;
    kernels::KernelSpec spec;
  };
  std::vector<KernelCase> cases;
  cases.push_back({"idct", kernels::make_idct_spec()});
  cases.push_back({"fir", kernels::make_fir_spec()});
  cases.push_back({"mb_decode", kernels::make_mb_decode_spec()});

  std::vector<Result> results;
  for (const KernelCase& c : cases) {
    const masm::Image img = masm::assemble_or_throw(c.spec.source);
    const sim::ProgramRef prog = sim::make_program(img);
    prog->threaded();  // translate once, off the clock (the farm's shape)
    results.push_back(measure(
        std::string(c.name) + "/functional", min_secs,
        [&] { return run_functional(prog, c.spec, sim::ExecBackend::kInterp); }));
    results.push_back(
        measure(std::string(c.name) + "/functional-threaded", min_secs, [&] {
          return run_functional(prog, c.spec, sim::ExecBackend::kThreaded);
        }));
    results.push_back(measure(std::string(c.name) + "/cycle", min_secs,
                              [&] { return run_cycle(img, c.spec); }));
  }
  {
    const masm::Image img = masm::assemble_or_throw(sop_program());
    results.push_back(measure("dual_sop/chip", min_secs,
                              [&] { return run_chip(img); }));
  }
  {
    const farm::Engine eng = make_farm_soak16();
    results.push_back(measure("farm/soak16", min_secs,
                              [&] { return run_farm(eng); }));
  }

  std::printf("%-24s %16s %10s %12s %6s\n", "workload", "packets/s", "MIPS",
              "packets/rep", "reps");
  for (const Result& r : results) {
    std::printf("%-24s %16.0f %10.2f %12llu %6d\n", r.name.c_str(),
                r.packets_per_sec, r.mips,
                static_cast<unsigned long long>(r.sim_packets), r.reps);
  }
  write_json(out_path, results, min_secs);
  std::printf("wrote %s\n", out_path.c_str());

  if (!baseline_path.empty()) {
    const auto base = parse_baseline(baseline_path);
    bool failed = false;
    for (const Result& r : results) {
      const auto it = base.find(r.name);
      if (it == base.end()) continue;
      const double floor_mips = it->second.mips * (1.0 - tolerance);
      if (r.mips < floor_mips) {
        std::fprintf(stderr,
                     "REGRESSION %s: %.2f MIPS < %.2f (baseline %.2f - %g%%)\n",
                     r.name.c_str(), r.mips, floor_mips, it->second.mips,
                     tolerance * 100);
        failed = true;
      }
    }
    if (failed) return 1;
    std::printf("baseline check passed (tolerance %g%%)\n", tolerance * 100);
  }
  return 0;
}
