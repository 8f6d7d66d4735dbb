// majc_e2e: end-to-end campaign / serve benchmark with per-layer attribution.
//
//   majc_e2e --workload NAME --seed N --seconds S --trace 0|1
//
// One process runs one named workload for a fixed wall-clock window. The
// last line of stdout is one JSON object {correct, attempted, failed,
// metrics}; the lines before it print every metric by name and unit.
//
//   --trace 0  end-to-end metrics, measured with no instrumentation: farm
//              campaigns through farm::Engine::run + farm::campaign_json,
//              served campaigns through an in-process serve::Server.
//   --trace 1  per-layer metrics: each campaign is run untraced once and then
//              replayed through the public phase functions in the engine's
//              own order (acquire -> setup_kernel -> run slices, with
//              save/acquire/restore at forced preemptions -> finalize_kernel
//              -> campaign_json), one span per call. Spans are kept in memory
//              and written as Chrome trace-event JSON at exit, to
//              .bench_build/traces/<workload>-<seed>.json.
//
// Every output is checked: repeated campaigns must serialize byte-identically
// to the first, served payloads must equal the in-process campaign_json of
// the same request, the replay's per-job arch_digest and its serialized
// campaign must equal Engine::run's, and every job must be valid and halted.
// Any mismatch counts as a failure and makes the exit code 1.
//
// Workload rationale, metric definitions and the layer -> end-to-end map are
// in NOTES.md next to this file.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/farm/campaign.h"
#include "src/farm/farm.h"
#include "src/kernels/table12.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/support/checkpoint.h"
#include "src/trace/chrome_trace.h"

using namespace majc;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kOrigin = Clock::now();

/// Host seconds since process start.
double now() {
  return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}

// ------------------------------------------------------------- workloads

/// Every workload runs one fault-stormed cycle job per kernel (fault base
/// seed = --seed, iteration 0), plus a functional-threaded job if asked.
struct Workload {
  const char* name;
  std::vector<std::string> kernels;  // canonical table12 names
  bool functional = true;
  /// Forced checkpoint preemption at the first slice boundaries of every job.
  bool preempt = false;
  /// Closed-loop serve connections; 0 = in-process campaigns only.
  unsigned clients = 0;
  /// Pinned guest_cycles (sum of total_cycles over the cycle jobs): without
  /// faults (any seed), and with the fault storm of the default and the
  /// held-out seed. The model is deterministic, so a host-only change
  /// reproduces these exactly; a model change must re-pin them.
  u64 clean_cycles = 0;
  u64 default_cycles = 0;
  u64 held_out_cycles = 0;
};

/// The recorded seeds (NOTES.md): later claims are made on the default seed
/// and must also hold on the held-out one.
constexpr u64 kDefaultSeed = 0x5eed50a4;  // 1592610980
constexpr u64 kHeldOutSeed = 271828182;

/// Slice budget for campaign-preempt: at most a third of the shortest
/// kernel's packet count (lms, 139 packets), so every job reaches at least
/// three slices and absorbs the plan's full two preemptions.
constexpr u64 kPreemptSlice = 46;
constexpr u32 kPreemptsPerJob = 2;

/// Set-up is repeated for at least this many host seconds (and at least
/// kMinSetupReps times), before and again after the measuring window, and
/// the fastest rep is reported. One set-up takes 10-30 ms; episodes of
/// neighbour load on a shared host slow whole stretches of reps by 1.5x,
/// which moves the median but rarely the minimum of two distant windows.
constexpr double kSetupBudget = 1.0;
constexpr std::size_t kMinSetupReps = 9;

/// A replayed campaign's job spans may leave at most this share of job wall
/// time outside their phase spans (the self-time check).
constexpr double kMaxSelfFrac = 0.05;

std::vector<Workload> workloads() {
  // The two long kernels (about 1.1 M packets each) are left out: their
  // compute-bound run loop swings 1.4-1.8x with neighbour load on a shared
  // host, which no bound the benchmark can afford absorbs (NOTES.md).
  std::vector<std::string> shorts;
  for (const kernels::NamedKernel& nk : kernels::table12_kernels()) {
    const std::string_view n = nk.name;
    if (n != "convolve" && n != "color_convert") shorts.emplace_back(nk.name);
  }
  // The clean sums are the tests' cycle goldens (test_cycle_invariance)
  // added up over the workload's kernels. Slicing and preemption do not move
  // guest cycles, so campaign-preempt pins campaign-short's values.
  return {
      {"campaign-short", shorts, true, false, 0, 234773, 237455, 239000},
      {"campaign-preempt", shorts, false, true, 0, 234773, 237455, 239000},
      // Four clients on two admission slots: every request waits about one
      // service time. With three, exactly half of them wait, so the median
      // sits on the edge between two modes and flips from run to run.
      {"serve-closed", {"idct", "fir", "mb_decode"}, true, false, 4, 23001,
       23809, 24243},
  };
}

farm::MatrixSpec matrix_of(const Workload& w, u64 seed) {
  farm::MatrixSpec m;
  m.iterations = {0};
  m.base_seed = seed;
  m.mode_functional = w.functional;
  if (w.preempt) m.policy.slice_packets = kPreemptSlice;
  return m;
}

serve::CampaignRequest request_of(const Workload& w, u64 seed) {
  serve::CampaignRequest r;
  r.kernels = w.kernels;
  r.mode = w.functional ? "both" : "cycle";
  r.seed = seed;
  r.seeds = 1;
  return r;
}

// ------------------------------------------------------------ statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double minimum(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// The highest percentile (from a fixed grid) with at least ten samples
/// beyond it, by nearest rank. The lowest grid point above the median, p75,
/// needs forty samples; below that the median is reported.
struct Tail {
  double value = 0.0;
  double pct = 50.0;
  std::size_t n = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  static constexpr u64 kGridPermille[] = {999, 990, 950, 900, 750, 500};
  for (u64 p : kGridPermille) {
    const u64 rank = (p * t.n + 999) / 1000;  // 1-based nearest rank
    if (t.n - rank >= 10 || p == 500) {
      t.value = p == 500 ? median(v) : v[rank - 1];
      t.pct = static_cast<double>(p) / 10.0;
      return t;
    }
  }
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // human-readable detail (percentile, sample count)
};

// --------------------------------------------------------------- tracing

/// Track of serve client `c` in the trace file (the replay uses track 1).
constexpr u32 kServeTid = 10;

struct Span {
  const char* name;
  double t0 = 0.0;
  double t1 = 0.0;
  long parent = -1;  // index into Tracer::spans, -1 = root
  long campaign = -1;
  long job = -1;
  u32 tid = 1;

  double dur() const { return t1 - t0; }
};

class Tracer {
public:
  std::size_t begin(const char* name, long parent, long campaign, long job,
                    u32 tid = 1) {
    spans.push_back(Span{name, now(), 0.0, parent, campaign, job, tid});
    return spans.size() - 1;
  }
  double end(std::size_t i) {
    spans[i].t1 = now();
    return spans[i].dur();
  }
  void add(const Span& s) { spans.push_back(s); }

  /// Chrome trace-event JSON (Perfetto-loadable): one complete event per
  /// span, timestamps in microseconds since process start.
  void write(const std::string& path) const {
    std::ofstream os(path);
    trace::ChromeTraceWriter w(os);
    w.process_name(1, "majc_e2e");
    w.thread_name(1, 1, "farm replay");
    std::set<u32> serve_tids;
    for (const Span& s : spans) {
      if (s.tid >= kServeTid && serve_tids.insert(s.tid).second) {
        w.thread_name(1, s.tid,
                      "serve client " + std::to_string(s.tid - kServeTid));
      }
      const std::string_view name = s.name;
      const std::string_view layer = name.substr(0, name.find('.'));
      char args[128];
      std::snprintf(args, sizeof args,
                    "{\"campaign\":%ld,\"job\":%ld,\"parent\":%ld}",
                    s.campaign, s.job, s.parent);
      const auto us = [](double t) {
        return static_cast<Cycle>(std::llround(t * 1e6));
      };
      w.complete(1, s.tid, layer, name, us(s.t0), us(s.t1) - us(s.t0), args);
    }
    w.finish();
  }

  std::vector<Span> spans;
};

// ------------------------------------------------------------- the bench

struct Bench {
  const Workload& w;
  u64 seed;
  farm::Engine eng;
  farm::ChaosPlan chaos;
  std::vector<farm::JobResult> ref_results;  // first campaign's results
  std::string reference;                     // first campaign's bytes
  u64 attempted = 0;
  u64 failed = 0;

  Bench(const Workload& wl, u64 s) : w(wl), seed(s) {
    chaos.seed = s;
    chaos.preempt_rate = 1.0;
    chaos.max_preemptions_per_job = kPreemptsPerJob;
  }

  void fail(const std::string& what) {
    if (failed++ < 8) std::fprintf(stderr, "majc_e2e: FAIL %s\n", what.c_str());
  }
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }

  farm::Engine::RunOptions run_options() const {
    farm::Engine::RunOptions o;
    o.workers = 1;
    o.chaos = w.preempt ? &chaos : nullptr;
    return o;
  }

  /// Compile the workload's kernels into a fresh engine and submit its
  /// matrix; returns the compile seconds.
  double compile(Tracer* tr) {
    eng = farm::Engine{};
    const double t0 = now();
    for (const std::string& name : w.kernels) {
      const double k0 = now();
      eng.add_kernel(
          kernels::table12_spec(*kernels::find_table12_kernel(name)));
      if (tr != nullptr) tr->add(Span{"kernels.compile", k0, now()});
    }
    const double secs = now() - t0;
    farm::submit_matrix(eng, matrix_of(w, seed));
    return secs;
  }

  /// Every job of a finished campaign must be valid and halted.
  void check_jobs(const std::vector<farm::JobResult>& results) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      const farm::JobResult& r = results[i];
      check(r.done && r.run.valid && r.run.halted,
            "job " + std::to_string(i) + " (" +
                eng.kernel(eng.jobs()[i].kernel).spec.name +
                ") not valid+halted: " + r.run.message);
    }
  }

  /// The first campaign: its bytes are what every later campaign, replay
  /// and served payload must reproduce.
  void run_reference() {
    ref_results = eng.run(run_options());
    check_jobs(ref_results);
    for (const farm::JobResult& r : ref_results) {
      check(!w.preempt || r.preemptions == kPreemptsPerJob,
            "a campaign-preempt job was not preempted twice");
    }
    reference = farm::campaign_json(eng, ref_results, seed);
    check_guest_cycles();
  }

  u64 guest_cycles() const { return cycle_sum(eng, ref_results); }

  /// guest_cycles must equal its pinned value on the recorded seeds, and
  /// the same kernels run without faults must give the pinned clean sum on
  /// any seed. A mismatch means the guest model has changed.
  void check_guest_cycles() {
    const u64 got = guest_cycles();
    const u64 pinned = seed == kDefaultSeed   ? w.default_cycles
                       : seed == kHeldOutSeed ? w.held_out_cycles
                                              : got;
    check(got == pinned, "guest_cycles " + std::to_string(got) +
                             " differs from the pinned " +
                             std::to_string(pinned));

    farm::Engine clean;
    for (u32 i = 0; i < w.kernels.size(); ++i) clean.add_kernel(eng.kernel(i));
    farm::MatrixSpec m;
    m.iterations = {0};
    m.faults = false;
    farm::submit_matrix(clean, m);
    const u64 clean_got = cycle_sum(clean, clean.run(1));
    check(clean_got == w.clean_cycles,
          "fault-free guest cycles " + std::to_string(clean_got) +
              " differ from the pinned " + std::to_string(w.clean_cycles));
  }

  static u64 cycle_sum(const farm::Engine& e,
                       const std::vector<farm::JobResult>& results) {
    u64 c = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (e.jobs()[i].mode == farm::SimMode::kCycle) {
        c += results[i].run.total_cycles;
      }
    }
    return c;
  }
};

// ---------------------------------------------------- in-process campaigns

struct FarmWindow {
  std::vector<double> campaign_s;  // Engine::run wall
  std::vector<double> job_ms;      // JobResult.host_secs
  u64 instrs = 0;
  double elapsed = 0.0;
};

/// One untraced campaign, checked against the reference bytes. Returns the
/// Engine::run wall seconds.
double run_campaign(Bench& b, FarmWindow& fw) {
  const double t0 = now();
  const std::vector<farm::JobResult> results = b.eng.run(b.run_options());
  const double t1 = now();
  b.check_jobs(results);
  b.check(farm::campaign_json(b.eng, results, b.seed) == b.reference,
          "campaign bytes differ from the first campaign's");
  fw.campaign_s.push_back(t1 - t0);
  for (const farm::JobResult& r : results) {
    fw.job_ms.push_back(r.host_secs * 1e3);
    fw.instrs += r.run.instrs;
  }
  return t1 - t0;
}

void farm_window(Bench& b, double deadline, FarmWindow& fw) {
  const double t0 = now();
  do {
    run_campaign(b, fw);
  } while (now() < deadline);
  fw.elapsed = now() - t0;
}

// ------------------------------------------------------------ the replay

u64 packets_of(const cpu::CycleSim& m) { return m.cpu().stats().packets; }
u64 packets_of(const sim::FunctionalSim& m) { return m.packets_run(); }
cpu::CycleSim::Result run_to(cpu::CycleSim& m, u64 cap) { return m.run(cap); }
sim::RunResult run_to(sim::FunctionalSim& m, u64 cap) {
  return m.run(cap - m.packets_run());
}

/// One replay's machines: a fresh farm::WorkerMachines, as Engine::run
/// builds per worker per campaign.
struct Machines {
  farm::WorkerMachines wm;
  bool cycle_built = false;
  bool func_built = false;
};

struct Samples {
  std::map<std::string, std::vector<double>> by_name;
  void add(const std::string& name, double v) { by_name[name].push_back(v); }
  const std::vector<double>& get(const std::string& name) {
    return by_name[name];
  }
};

/// Replay job `ji` through the public phase functions in run_attempt's
/// order. The job span holds only the work Engine::run does for the job;
/// the digest and checkpoint probes run after it, on the finished machine.
template <typename Sim>
farm::JobResult replay_job(Bench& b, Machines& ms, Tracer& tr, long cspan,
                           long cid, u32 ji, Samples& s) {
  constexpr bool kCycle = std::is_same_v<Sim, cpu::CycleSim>;
  const farm::Job& job = b.eng.jobs()[ji];
  const kernels::CompiledKernel& k = b.eng.kernel(job.kernel);
  const kernels::KernelSpec& spec = k.spec;
  const u64 budget =
      job.policy.max_packets != 0 ? job.policy.max_packets : spec.max_packets;
  const u64 slice = job.policy.slice_packets;
  const u32 max_preempts = b.w.preempt ? b.chaos.max_preemptions_per_job : 0;
  bool& built = kCycle ? ms.cycle_built : ms.func_built;

  auto acquire = [&]() -> Sim& {
    if constexpr (kCycle) {
      return ms.wm.acquire_cycle(k.program, job.cfg);
    } else {
      return ms.wm.acquire_functional(k.program);
    }
  };
  // The machine's own reset, which run_attempt calls at the start of every
  // attempt (right after the acquire, which has already reset it) and at a
  // forced preemption.
  auto reset = [&](Sim& m) {
    if constexpr (kCycle) {
      m.reset(k.program, job.cfg);
    } else {
      m.reset(k.program);
      m.set_backend(job.backend);
    }
  };
  const long jid = static_cast<long>(ji);
  auto span = [&](const char* name, long parent) {
    return tr.begin(name, parent, cid, jid);
  };

  farm::JobResult out;
  const long js = static_cast<long>(span("farm.job", cspan));
  std::size_t sp = span(built ? "farm.acquire" : "farm.construct", js);
  Sim& m = acquire();
  built = true;
  tr.end(sp);

  sp = span("farm.reset", js);
  reset(m);
  tr.end(sp);

  sp = span("farm.setup", js);
  kernels::setup_kernel(m, spec);
  s.add("farm.setup_ms", tr.end(sp) * 1e3);

  double run_secs = 0.0;
  sp = span("sim.run", js);
  for (;;) {
    const u64 done = packets_of(m);
    const u64 cap = slice != 0 ? std::min(done + slice, budget) : budget;
    const auto res = run_to(m, cap);
    if (res.reason != TerminationReason::kPacketCap ||
        packets_of(m) >= budget) {
      run_secs += tr.end(sp);
      sp = span("farm.finalize", js);
      out.run = kernels::finalize_kernel(m, spec, res);
      s.add("farm.finalize_ms", tr.end(sp) * 1e3);
      break;
    }
    if (out.preemptions < max_preempts) {
      // Forced preemption, as the chaos plan does it: save, surrender the
      // machine (reset), restore, continue.
      run_secs += tr.end(sp);
      sp = span("ckpt.save", js);
      const std::vector<u8> bytes = ckpt::save_checkpoint(m);
      tr.end(sp);
      sp = span("farm.reset", js);
      reset(m);
      tr.end(sp);
      sp = span("ckpt.restore", js);
      ckpt::restore_checkpoint(m, bytes);
      tr.end(sp);
      s.add("ckpt.bytes", static_cast<double>(bytes.size()));
      ++out.preemptions;
      sp = span("sim.run", js);
    }
  }
  const double job_secs = tr.end(js);
  s.add("farm.job_ms", job_secs * 1e3);
  s.add("farm.run_ms", run_secs * 1e3);
  s.add(kCycle ? "sim.cycle_secs" : "sim.func_secs", run_secs);
  s.add(kCycle ? "sim.cycle_packets" : "sim.func_packets",
        static_cast<double>(out.run.packets));
  out.done = true;
  out.failure = out.run.valid && out.run.halted
                    ? farm::FailureClass::kNone
                    : farm::FailureClass::kDeterministicFatal;

  // Probes on the finished machine, outside the job span.
  sp = span("ckpt.digest", cspan);
  const u64 digest = ckpt::arch_digest(m);
  s.add("ckpt.digest_ms", tr.end(sp) * 1e3);
  const farm::JobResult& ref = b.ref_results[ji];
  b.check(digest == out.run.arch_digest &&
              out.run.arch_digest == ref.run.arch_digest,
          "replayed arch_digest of job " + std::to_string(ji) +
              " differs from Engine::run's");
  b.check(out.preemptions == ref.preemptions,
          "replayed preemptions of job " + std::to_string(ji) +
              " differ from Engine::run's");
  if (!b.w.preempt) {
    // No forced preemption in this workload: time one checkpoint round
    // trip of the finished machine instead.
    sp = span("ckpt.save", cspan);
    const std::vector<u8> bytes = ckpt::save_checkpoint(m);
    tr.end(sp);
    sp = span("probe.reset", cspan);
    reset(m);
    tr.end(sp);
    sp = span("ckpt.restore", cspan);
    ckpt::restore_checkpoint(m, bytes);
    tr.end(sp);
    s.add("ckpt.bytes", static_cast<double>(bytes.size()));
    b.check(packets_of(m) == out.run.packets,
            "checkpoint round trip lost the packet count");
  }
  return out;
}

/// Replay one campaign under spans; returns the replay's wall seconds
/// (campaign span minus the probes), comparable to Engine::run's wall.
double replay_campaign(Bench& b, Tracer& tr, long cid, Samples& s) {
  const std::size_t first = tr.spans.size();
  const long cspan = static_cast<long>(tr.begin("farm.campaign", -1, cid, -1));
  std::vector<farm::JobResult> results(b.eng.jobs().size());
  {
    Machines ms;
    for (u32 ji = 0; ji < results.size(); ++ji) {
      results[ji] =
          b.eng.jobs()[ji].mode == farm::SimMode::kCycle
              ? replay_job<cpu::CycleSim>(b, ms, tr, cspan, cid, ji, s)
              : replay_job<sim::FunctionalSim>(b, ms, tr, cspan, cid, ji, s);
    }
  }
  const double campaign_secs = tr.end(static_cast<std::size_t>(cspan));
  b.check_jobs(results);

  const std::size_t sp = tr.begin("farm.serialize", -1, cid, -1);
  const std::string json = farm::campaign_json(b.eng, results, b.seed);
  s.add("farm.serialize_ms", tr.end(sp) * 1e3);
  b.check(json == b.reference,
          "replayed campaign bytes differ from Engine::run's");

  // Per-span aggregation: phase medians, probe time, job self time.
  double probe_secs = 0.0;
  double job_secs = 0.0;
  double child_secs = 0.0;
  for (std::size_t i = first; i < tr.spans.size(); ++i) {
    const Span& x = tr.spans[i];
    const std::string_view name = x.name;
    if (name == "farm.acquire" || name == "farm.construct" ||
        name == "farm.reset" || name == "ckpt.save" ||
        name == "ckpt.restore") {
      s.add(std::string(name) + "_ms", x.dur() * 1e3);
    }
    if (x.parent == cspan) {
      if (name == "farm.job") {
        job_secs += x.dur();
      } else {
        probe_secs += x.dur();
      }
    } else if (x.parent >= 0 &&
               std::string_view(tr.spans[x.parent].name) == "farm.job") {
      child_secs += x.dur();
    }
  }
  const double self_frac = job_secs > 0 ? (job_secs - child_secs) / job_secs
                                        : 0.0;
  s.add("trace.self_frac", self_frac);
  b.check(self_frac <= kMaxSelfFrac,
          "job self time exceeds the stated share of job wall time");
  return campaign_secs - probe_secs;
}

// ---------------------------------------------------------------- serving

struct RequestRecord {
  unsigned client = 0;
  double t_send = 0.0;
  double t_ack = 0.0;
  double t_job = 0.0;
  double t_end = 0.0;
  u64 payload_bytes = 0;
  bool ok = false;
  std::string error;
};

/// Drive one campaign request through `c`, timestamping the ack, the first
/// job frame and the last payload byte; the payload must equal `expect`.
RequestRecord serve_request(serve::Client& c, const serve::CampaignRequest& req,
                            const std::string& expect) {
  RequestRecord rec;
  rec.t_send = now();
  if (!c.send(serve::campaign_request_json(req))) {
    rec.error = "send failed";
    return rec;
  }
  std::string payload;
  u64 jobs = 0;
  u64 bad_jobs = 0;
  for (;;) {
    if (!c.recv(&payload)) {
      rec.error = "recv failed";
      return rec;
    }
    serve::JValue rsp;
    std::string perr;
    if (!serve::json_parse(payload, &rsp, &perr)) {
      rec.error = "malformed response: " + perr;
      return rec;
    }
    const std::string type = rsp.member_string("type", "");
    if (type == "ack") {
      rec.t_ack = now();
    } else if (type == "job") {
      if (jobs++ == 0) rec.t_job = now();
      if (!rsp.member_bool("valid", false) ||
          !rsp.member_bool("halted", false)) {
        ++bad_jobs;
      }
    } else if (type == "campaign") {
      if (!c.recv(&payload)) {
        rec.error = "recv payload failed";
        return rec;
      }
      rec.t_end = now();
      rec.payload_bytes = payload.size();
      if (payload != expect) {
        rec.error = "served payload differs from in-process campaign_json";
      } else if (rec.t_ack == 0.0 || jobs == 0 || bad_jobs != 0) {
        rec.error = "served campaign missing its ack or has invalid jobs";
      } else {
        rec.ok = true;
      }
      return rec;
    } else {
      rec.error = "'" + type + "' frame: " + rsp.member_string("code", "") +
                  " " + rsp.member_string("message", "");
      return rec;
    }
  }
}

/// An in-process majcd: workers=1, max_concurrent=2, socket inside the
/// benchmark's build directory.
std::unique_ptr<serve::Server> start_server() {
  std::filesystem::create_directories(".bench_build");
  serve::ServerConfig cfg;
  cfg.socket_path =
      ".bench_build/majc_e2e-" + std::to_string(::getpid()) + ".sock";
  cfg.workers = 1;
  cfg.max_concurrent = 2;
  auto srv = std::make_unique<serve::Server>(cfg);
  std::string err;
  if (!srv->start(&err)) throw std::runtime_error("server start: " + err);
  return srv;
}

struct ServeWindow {
  std::vector<RequestRecord> recs;
  double elapsed = 0.0;
};

/// `clients` closed-loop connections, each sending its next request only
/// after the previous reply ended, until `deadline` (and at least
/// `min_requests` each).
ServeWindow serve_window(Bench& b, const serve::Server& srv, unsigned clients,
                         double deadline, u64 min_requests) {
  const serve::CampaignRequest base = request_of(b.w, b.seed);
  std::vector<std::vector<RequestRecord>> per(clients);
  const double t0 = now();
  std::vector<std::thread> threads;
  for (unsigned ci = 0; ci < clients; ++ci) {
    threads.emplace_back([&, ci] {
      serve::Client c;
      std::string err;
      if (!c.connect(srv.config().socket_path, &err)) {
        RequestRecord r;
        r.error = "connect: " + err;
        per[ci].push_back(r);
        return;
      }
      for (u64 n = 0; n < min_requests || now() < deadline; ++n) {
        serve::CampaignRequest r = base;
        r.id = ci * 1'000'000ull + n + 1;
        per[ci].push_back(serve_request(c, r, b.reference));
        per[ci].back().client = ci;
        if (!per[ci].back().ok) break;  // the stream may be out of step
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ServeWindow sw;
  sw.elapsed = now() - t0;
  for (unsigned ci = 0; ci < clients; ++ci) {
    for (const RequestRecord& r : per[ci]) {
      b.check(r.ok, "served request: " + r.error);
      sw.recs.push_back(r);
    }
  }
  return sw;
}

// ----------------------------------------------------------------- output

void report(const Bench& b, const std::vector<Metric>& metrics) {
  std::printf("workload %s  seed %llu\n", b.w.name,
              static_cast<unsigned long long>(b.seed));
  for (const Metric& m : metrics) {
    std::printf("  %-24s %16.6f %-12s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  const double fail_frac = b.attempted == 0
                               ? 0.0
                               : static_cast<double>(b.failed) /
                                     static_cast<double>(b.attempted);
  std::printf("  %-24s %16.6f %-12s (%llu of %llu checks)\n", "fail_frac",
              fail_frac, "frac", static_cast<unsigned long long>(b.failed),
              static_cast<unsigned long long>(b.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              b.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(b.attempted),
              static_cast<unsigned long long>(b.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::string n_note(std::size_t n) { return "(n=" + std::to_string(n) + ")"; }

void add_tail(std::vector<Metric>& out, const std::string& stem,
              const std::vector<double>& ms) {
  const Tail t = tail_of(ms);
  out.push_back({stem + "_p50", median(ms), "ms", n_note(ms.size())});
  char note[64];
  std::snprintf(note, sizeof note, "(p%g, n=%zu)", t.pct, t.n);
  out.push_back({stem + "_tail", t.value, "ms", note});
}

// ------------------------------------------------------------------- runs

/// Time set-ups (compile, plus Server::start when the workload serves) for
/// kSetupBudget seconds and at least kMinSetupReps times, appending each to
/// `out`. The last one stays: the engine compiled, `srv` running.
void time_setups(Bench& b, std::unique_ptr<serve::Server>& srv,
                 std::vector<double>& out) {
  const double end = now() + kSetupBudget;
  for (std::size_t n = 0; n < kMinSetupReps || now() < end; ++n) {
    if (srv) srv->stop();
    const double t0 = now();
    b.compile(nullptr);
    if (b.w.clients != 0) srv = start_server();
    out.push_back(now() - t0);
  }
}

/// --trace 0: end-to-end metrics.
std::vector<Metric> run_plain(Bench& b, double seconds) {
  std::vector<double> setup;
  std::unique_ptr<serve::Server> srv;
  time_setups(b, srv, setup);
  b.run_reference();

  const double t_start = now();
  FarmWindow fw;
  ServeWindow sw;
  if (b.w.clients != 0) {
    sw = serve_window(b, *srv, b.w.clients, t_start + 0.4 * seconds, 1);
    srv->stop();
  }
  farm_window(b, t_start + seconds, fw);
  // A second set-up window, a whole measuring window after the first: one
  // episode of neighbour load rarely covers both.
  time_setups(b, srv, setup);
  if (srv) srv->stop();

  std::vector<Metric> m;
  m.push_back({"setup_s", minimum(setup), "s",
               "(min of " + std::to_string(setup.size()) + ")"});
  m.push_back({"campaign_s", median(fw.campaign_s), "s",
               n_note(fw.campaign_s.size())});
  m.push_back({"sim_mips", static_cast<double>(fw.instrs) /
                               sum(fw.campaign_s) / 1e6,
               "MIPS", ""});
  add_tail(m, "job_ms", fw.job_ms);
  // Every end-to-end metric is reported on every workload. Without a server
  // a request is one in-process campaign, so there these three restate
  // campaign_s (NOTES.md).
  std::vector<double> req_ms;
  double req_window = sw.elapsed;
  for (const RequestRecord& r : sw.recs) {
    if (r.ok) req_ms.push_back((r.t_end - r.t_send) * 1e3);
  }
  if (b.w.clients == 0) {
    for (double s : fw.campaign_s) req_ms.push_back(s * 1e3);
    req_window = fw.elapsed;
  }
  add_tail(m, "req_ms", req_ms);
  m.push_back({"campaigns_per_s",
               static_cast<double>(req_ms.size()) / req_window, "1/s",
               b.w.clients != 0
                   ? std::to_string(b.w.clients) + " closed-loop clients"
                   : std::string("in-process, 1 worker")});
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB", ""});
  m.push_back({"guest_cycles", static_cast<double>(b.guest_cycles()),
               "cycles", "simulated, sum over cycle jobs"});
  return m;
}

/// --trace 1: per-layer metrics from the traced replay and serve phase.
std::vector<Metric> run_traced(Bench& b, double seconds, Tracer& tr) {
  Samples s;
  const double setup_end = now() + kSetupBudget;
  do {
    s.add("kernels.compile_ms", b.compile(&tr) * 1e3);
  } while (s.get("kernels.compile_ms").size() < kMinSetupReps ||
           now() < setup_end);
  b.run_reference();

  const double t_start = now();
  std::vector<double> overhead_ms;
  long cid = 0;
  do {
    FarmWindow fw;
    const double engine_secs = run_campaign(b, fw);
    const double replay_secs = replay_campaign(b, tr, cid++, s);
    overhead_ms.push_back((replay_secs - engine_secs) * 1e3);
  } while (now() < t_start + 0.75 * seconds);

  std::unique_ptr<serve::Server> srv = start_server();
  const unsigned clients = std::max(1u, b.w.clients);
  const ServeWindow sw = serve_window(b, *srv, clients, t_start + seconds,
                                      b.w.clients != 0 ? 1 : 2);
  serve::ServeStats st;
  {
    serve::Client c;
    std::string err;
    const bool ok = c.connect(srv->config().socket_path, &err) &&
                    serve::fetch_stats(c, 1, &st, &err);
    b.check(ok, "fetch_stats: " + err);
  }
  srv->stop();
  for (std::size_t i = 0; i < sw.recs.size(); ++i) {
    const RequestRecord& r = sw.recs[i];
    if (!r.ok) continue;
    s.add("serve.admit_ms", (r.t_ack - r.t_send) * 1e3);
    s.add("serve.exec_ms", (r.t_job - r.t_ack) * 1e3);
    s.add("serve.stream_ms", (r.t_end - r.t_job) * 1e3);
    s.add("serve.payload_kb", static_cast<double>(r.payload_bytes) / 1e3);
    const long parent = static_cast<long>(tr.spans.size());
    const u32 tid = kServeTid + r.client;
    const long rid = static_cast<long>(i);
    tr.add(Span{"serve.request", r.t_send, r.t_end, -1, rid, -1, tid});
    tr.add(Span{"serve.admit", r.t_send, r.t_ack, parent, rid, -1, tid});
    tr.add(Span{"serve.exec", r.t_ack, r.t_job, parent, rid, -1, tid});
    tr.add(Span{"serve.stream", r.t_job, r.t_end, parent, rid, -1, tid});
  }

  // Guest-model counters over the reference campaign's cycle jobs.
  u64 cyc = 0, ins = 0, mispredicts = 0, ecc = 0, parity = 0, attempts = 0,
      preempts = 0;
  cpu::StallCounters stalls;
  for (std::size_t i = 0; i < b.ref_results.size(); ++i) {
    const farm::JobResult& r = b.ref_results[i];
    attempts += r.attempts;
    preempts += r.preemptions;
    if (b.eng.jobs()[i].mode != farm::SimMode::kCycle) continue;
    cyc += r.run.total_cycles;
    ins += r.run.instrs;
    mispredicts += r.run.cpu_stats.mispredicts;
    for (u32 c = 0; c < cpu::kNumStallCauses; ++c) {
      stalls.counts[c] += r.run.cpu_stats.stalls.counts[c];
    }
    ecc += r.run.recovery.ecc_corrected;
    parity += r.run.recovery.fill_parity_retries;
  }
  u64 packets = 0, instrs = 0;
  for (const farm::JobResult& r : b.ref_results) {
    packets += r.run.packets;
    instrs += r.run.instrs;
  }
  const auto mpps = [&](const char* pk, const char* secs) {
    const double t = sum(s.get(secs));
    return t > 0 ? sum(s.get(pk)) / t / 1e6 : 0.0;
  };
  const auto med = [&](const char* name) { return median(s.get(name)); };
  const auto count = [](u64 v) { return static_cast<double>(v); };
  const std::string n_camp = n_note(overhead_ms.size()) + " campaigns";

  std::vector<Metric> m = {
      {"kernels.compile_ms", minimum(s.get("kernels.compile_ms")), "ms",
       "per set-up, min"},
      {"farm.construct_ms", med("farm.construct_ms"), "ms", "per machine"},
      {"farm.acquire_ms", med("farm.acquire_ms"), "ms", "per acquire"},
      {"farm.reset_ms", med("farm.reset_ms"), "ms", "per attempt reset"},
      {"farm.job_ms", med("farm.job_ms"), "ms", "per replayed job"},
      {"farm.setup_ms", med("farm.setup_ms"), "ms", "per job"},
      {"farm.run_ms", med("farm.run_ms"), "ms", "per job"},
      {"farm.finalize_ms", med("farm.finalize_ms"), "ms", "per job"},
      {"farm.serialize_ms", med("farm.serialize_ms"), "ms", "per campaign"},
      {"farm.run_share", sum(s.get("farm.run_ms")) / sum(s.get("farm.job_ms")),
       "ratio", "run / job wall"},
      {"farm.attempts", count(attempts), "count", "per campaign"},
      {"farm.preemptions", count(preempts), "count", "per campaign"},
      {"ckpt.digest_ms", med("ckpt.digest_ms"), "ms", "per job"},
      {"ckpt.save_ms", med("ckpt.save_ms"), "ms", "per call"},
      {"ckpt.restore_ms", med("ckpt.restore_ms"), "ms", "per call"},
      {"ckpt.bytes", med("ckpt.bytes"), "bytes", "per checkpoint"},
      {"sim.cycle_mpps", mpps("sim.cycle_packets", "sim.cycle_secs"),
       "Mpackets/s", "inside run"},
      {"sim.func_mpps", mpps("sim.func_packets", "sim.func_secs"),
       "Mpackets/s", "inside run"},
      {"sim.packets", count(packets), "count", "per campaign"},
      {"sim.instrs", count(instrs), "count", "per campaign"},
      {"serve.admit_ms", med("serve.admit_ms"), "ms", "send -> ack"},
      {"serve.exec_ms", med("serve.exec_ms"), "ms", "ack -> first job"},
      {"serve.stream_ms", med("serve.stream_ms"), "ms",
       "first job -> payload"},
      {"serve.payload_kb", med("serve.payload_kb"), "kB", "per request"},
      {"serve.cache_hits", count(st.cache_hits), "count", "fetch_stats"},
      {"serve.cache_misses", count(st.cache_misses), "count", "fetch_stats"},
      {"cpu.ipc", cyc > 0 ? count(ins) / count(cyc) : 0.0, "instr/cycle",
       "simulated"},
      {"cpu.stall_ifetch", count(stalls.get(cpu::StallCause::kIfetch)),
       "cycles", "simulated"},
      {"cpu.stall_operand", count(stalls.get(cpu::StallCause::kOperand)),
       "cycles", "simulated"},
      {"cpu.stall_fu_busy", count(stalls.get(cpu::StallCause::kFuBusy)),
       "cycles", "simulated"},
      {"cpu.stall_lsu", count(stalls.get(cpu::StallCause::kLsu)), "cycles",
       "simulated"},
      {"cpu.stall_branch", count(stalls.get(cpu::StallCause::kBranchPenalty)),
       "cycles", "simulated"},
      {"cpu.mispredicts", count(mispredicts), "count", "simulated"},
      {"mem.ecc_corrected", count(ecc), "count", "simulated"},
      {"mem.fill_parity_retries", count(parity), "count", "simulated"},
      {"trace.overhead_ms", median(overhead_ms), "ms",
       "replay - Engine::run, " + n_camp},
      {"trace.self_frac", *std::max_element(s.get("trace.self_frac").begin(),
                                            s.get("trace.self_frac").end()),
       "ratio", "max over campaigns"},
  };
  return m;
}

int usage() {
  std::fprintf(stderr,
               "usage: majc_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  std::string workload;
  u64 seed = 0x5eed50a4;
  double seconds = 10.0;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 0);
    } else if (flag == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      traced = std::string(v) == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(seconds > 0.0)) return usage();
  const std::vector<Workload> all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return workload == w.name;
  });
  if (it == all.end()) return usage();

  try {
    Bench b(*it, seed);
    if (!traced) {
      report(b, run_plain(b, seconds));
    } else {
      Tracer tr;
      const std::vector<Metric> m = run_traced(b, seconds, tr);
      std::filesystem::create_directories(".bench_build/traces");
      const std::string trace_out = ".bench_build/traces/" + workload + "-" +
                                    std::to_string(seed) + ".json";
      tr.write(trace_out);
      std::fprintf(stderr, "majc_e2e: %zu spans written to %s\n",
                   tr.spans.size(), trace_out.c_str());
      report(b, m);
    }
    return b.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "majc_e2e: %s\n", e.what());
    return 1;
  }
}
