#include "src/farm/farm.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>

#include "src/support/checkpoint.h"

namespace majc::farm {
namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

u64 splitmix64(u64& x) {
  x += 0x9e3779b97f4a7c15ull;
  u64 z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double u01(u64& x) {
  return static_cast<double>(splitmix64(x) >> 11) * 0x1.0p-53;
}

// ------------------------------------------------------------ chaos plan

// Decision tags keep the exception / kill / preempt streams independent.
constexpr u64 kChaosThrow = 0x9066c7a05;
constexpr u64 kChaosKill = 0xdead11e;
constexpr u64 kChaosPreempt = 0x94ee3;

/// Pure function of (plan seed, tag, job, attempt, slice): worker identity
/// and wall clock never enter, so the injection schedule is the same for
/// any --jobs value and any host load.
bool chaos_roll(const ChaosPlan& cp, u64 tag, u64 job, u64 attempt, u64 slice,
                double rate) {
  if (rate <= 0.0) return false;
  u64 s = cp.seed ^ (tag * 0x9e3779b97f4a7c15ull) ^
          (job * 0xbf58476d1ce4e5b9ull) ^ (attempt * 0x94d049bb133111ebull) ^
          (slice * 0x2545f4914f6cdd1dull);
  return u01(s) < rate;
}

// --------------------------------------------------------- classification

/// Classify a *concluded* guest run (exceptions are classified at the catch
/// site instead). Guest outcomes are deterministic, so everything here is
/// either success, deterministic-fatal, or a budget/deadline exhaustion.
FailureClass classify_guest(const kernels::KernelRun& run) {
  if (run.valid && run.halted) return FailureClass::kNone;
  switch (run.reason) {
    case TerminationReason::kHalted:  // halted but validate() rejected it
    case TerminationReason::kTrap:
      return FailureClass::kDeterministicFatal;
    case TerminationReason::kWatchdog:
    case TerminationReason::kPacketCap:
    case TerminationReason::kHostDeadline:
      return FailureClass::kDeadlineExceeded;
  }
  return FailureClass::kDeterministicFatal;
}

/// Failure signature for the identical-across-retries quarantine test.
struct FailSig {
  FailureClass cls = FailureClass::kNone;
  TerminationReason reason = TerminationReason::kHalted;
  bool valid = false;
  bool halted = false;
  u64 arch_digest = 0;
  std::string message;

  bool operator==(const FailSig& o) const {
    return cls == o.cls && reason == o.reason && valid == o.valid &&
           halted == o.halted && arch_digest == o.arch_digest &&
           message == o.message;
  }
};

FailSig signature_of(FailureClass cls, const kernels::KernelRun& run) {
  FailSig s;
  s.cls = cls;
  s.reason = run.reason;
  s.valid = run.valid;
  s.halted = run.halted;
  s.arch_digest = run.arch_digest;
  s.message = run.message;
  return s;
}

// ------------------------------------------------------- sliced execution

/// When a deadline is set but the caller did not pick a slice budget, slice
/// anyway — deadlines are only honored at slice boundaries, and slicing is
/// architecturally invisible (the slice-equivalence invariant).
constexpr u64 kImplicitDeadlineSlice = 65'536;

/// Thin adapters so one attempt loop drives both machines. run_to takes an
/// ABSOLUTE packet cap; reset() hands back a machine indistinguishable from
/// a newly constructed one.
struct CycleDriver {
  soc::Majc5200& m;
  const kernels::CompiledKernel& k;
  const TimingConfig& cfg;

  soc::Majc5200& machine() { return m; }
  u64 packets() const { return m.cpu().stats().packets; }
  soc::Majc5200::Result run_to(u64 cap) { return m.run(cap); }
  void reset() { m.reset(k.program, cfg); }
  std::vector<u8> save() const { return ckpt::save_checkpoint(m); }
  void restore(const std::vector<u8>& b) { ckpt::restore_checkpoint(m, b); }
};

struct FunctionalDriver {
  sim::FunctionalSim& m;
  const kernels::CompiledKernel& k;
  sim::ExecBackend backend = sim::ExecBackend::kThreaded;

  sim::FunctionalSim& machine() { return m; }
  u64 packets() const { return m.packets_run(); }
  sim::RunResult run_to(u64 cap) { return m.run(cap - m.packets_run()); }
  void reset() {
    m.reset(k.program);
    // reset() restores the default backend; re-apply the job's choice (a
    // restore() that may follow only loads guest state — the backend is a
    // host-side knob, deliberately outside the checkpoint format).
    m.set_backend(backend);
  }
  std::vector<u8> save() const { return ckpt::save_checkpoint(m); }
  void restore(const std::vector<u8>& b) { ckpt::restore_checkpoint(m, b); }
};

enum class AttemptStatus : u8 {
  kConcluded,  // the attempt produced a guest outcome (out.run filled)
  kKilled,     // chaos deadline kill: attempt discarded, retry
  kSuspended,  // drain: state parked in `suspended_out`
  kAbandoned,  // cancel: nothing saved
};

template <typename Driver>
AttemptStatus run_attempt(Driver d, const kernels::KernelSpec& spec,
                          const Job& job, u32 job_index,
                          const Engine::RunOptions& opts, u32 attempt,
                          const RunControl::Suspended* resume, JobResult& out,
                          RunControl::Suspended& suspended_out,
                          FailureClass& fail_out) {
  const JobPolicy& pol = job.policy;
  const u64 budget = pol.max_packets != 0 ? pol.max_packets : spec.max_packets;
  const u64 slice = pol.slice_packets != 0
                        ? pol.slice_packets
                        : (pol.host_deadline_secs > 0.0 ? kImplicitDeadlineSlice
                                                        : 0);
  u32 preemptions = resume != nullptr ? resume->preemptions : 0;
  double prior_secs = resume != nullptr ? resume->attempt_secs : 0.0;
  u32 slice_no = resume != nullptr ? resume->slices : 0;

  // The machine arrives freshly reset from WorkerMachines::acquire_*.
  if (resume != nullptr) {
    d.restore(resume->checkpoint);
  } else {
    kernels::setup_kernel(d.machine(), spec);
  }

  const auto t0 = Clock::now();
  for (;;) {
    const u64 done = d.packets();
    const u64 cap = slice != 0 ? std::min(done + slice, budget) : budget;
    const auto res = d.run_to(cap);
    ++slice_no;
    ++out.slices;
    if (res.reason != TerminationReason::kPacketCap || d.packets() >= budget) {
      out.run = kernels::finalize_kernel(d.machine(), spec, res);
      fail_out = classify_guest(out.run);
      return AttemptStatus::kConcluded;
    }

    // ---- slice boundary: the job is alive but unfinished ----
    RunControl* ctl = opts.control;
    if (ctl != nullptr && ctl->cancel_requested()) {
      return AttemptStatus::kAbandoned;
    }
    if (ctl != nullptr && ctl->drain_requested()) {
      suspended_out.checkpoint = d.save();
      suspended_out.attempt = attempt;
      suspended_out.slices = slice_no;
      suspended_out.preemptions = preemptions;
      suspended_out.attempt_secs = prior_secs + secs_since(t0);
      return AttemptStatus::kSuspended;
    }
    if (pol.host_deadline_secs > 0.0 &&
        prior_secs + secs_since(t0) >= pol.host_deadline_secs) {
      // Structured conversion of a hung/over-budget job: deterministic
      // message, zeroed counters (the observed packet position at kill time
      // is wall-clock dependent and must not reach the campaign JSON).
      char msg[64];
      std::snprintf(msg, sizeof msg, "host deadline exceeded (%.3fs)",
                    pol.host_deadline_secs);
      out.run = kernels::KernelRun{};
      out.run.valid = false;
      out.run.halted = false;
      out.run.reason = TerminationReason::kHostDeadline;
      out.run.message = msg;
      fail_out = FailureClass::kDeadlineExceeded;
      return AttemptStatus::kConcluded;
    }
    const ChaosPlan* cp = opts.chaos;
    if (cp != nullptr && attempt == 1 &&
        chaos_roll(*cp, kChaosKill, job_index, attempt, slice_no,
                   cp->deadline_kill_rate)) {
      return AttemptStatus::kKilled;
    }
    if (cp != nullptr && preemptions < cp->max_preemptions_per_job &&
        chaos_roll(*cp, kChaosPreempt, job_index, attempt, slice_no,
                   cp->preempt_rate)) {
      // Forced preemption: checkpoint, surrender the machine (reset wipes
      // it, as if another job had used the worker), restore, continue. The
      // resumed run is byte-identical by the PR 5 checkpoint guarantee.
      const std::vector<u8> bytes = d.save();
      d.reset();
      d.restore(bytes);
      ++preemptions;
      ++out.preemptions;
    }
  }
}

enum class JobStatus : u8 { kFinished, kSuspended, kAbandoned };

/// The per-job resilience driver: bounded retry with deterministic backoff
/// around run_attempt, identical-failure quarantine, final classification.
JobStatus run_resilient(const kernels::CompiledKernel& k, const Job& job,
                        u32 job_index, WorkerMachines& machines,
                        const Engine::RunOptions& opts,
                        const std::optional<RunControl::Suspended>& resume,
                        JobResult& out,
                        RunControl::Suspended& suspended_out) {
  const JobPolicy& pol = job.policy;
  u32 attempt = resume.has_value() ? resume->attempt : 1;
  bool resuming = resume.has_value();
  std::optional<FailSig> prev_sig;

  for (;;) {
    out.attempts = attempt;
    FailureClass fail = FailureClass::kNone;
    AttemptStatus st;
    try {
      if (opts.chaos != nullptr && attempt == 1 && !resuming &&
          chaos_roll(*opts.chaos, kChaosThrow, job_index, attempt, 0,
                     opts.chaos->exception_rate)) {
        throw std::runtime_error("chaos: injected worker exception");
      }
      const RunControl::Suspended* rs = resuming ? &*resume : nullptr;
      if (job.mode == SimMode::kCycle) {
        CycleDriver d{machines.acquire_cycle(k.program, job.cfg), k, job.cfg};
        st = run_attempt(d, k.spec, job, job_index, opts, attempt, rs, out,
                         suspended_out, fail);
      } else {
        sim::FunctionalSim& fm = machines.acquire_functional(k.program);
        fm.set_backend(job.backend);  // acquire's reset restored the default
        FunctionalDriver d{fm, k, job.backend};
        st = run_attempt(d, k.spec, job, job_index, opts, attempt, rs, out,
                         suspended_out, fail);
      }
    } catch (const std::exception& e) {
      // A job failure is a result, not an engine failure: classify it and
      // let the retry policy decide.
      out.run = kernels::KernelRun{};
      out.run.valid = false;
      out.run.halted = false;
      out.run.message = e.what();
      fail = FailureClass::kHostException;
      st = AttemptStatus::kConcluded;
    }
    resuming = false;

    if (st == AttemptStatus::kSuspended) return JobStatus::kSuspended;
    if (st == AttemptStatus::kAbandoned) return JobStatus::kAbandoned;
    if (st == AttemptStatus::kKilled) fail = FailureClass::kTransientRetryable;

    if (fail == FailureClass::kNone) {
      out.failure = FailureClass::kNone;
      out.quarantined = false;
      return JobStatus::kFinished;
    }

    // Retry only failures a re-run could plausibly change. Guest outcomes
    // are deterministic: a trap, a validate mismatch, a watchdog livelock
    // or a packet-cap overrun replays identically, so those quarantine
    // immediately instead of burning attempts.
    const bool retryable = fail == FailureClass::kHostException ||
                           fail == FailureClass::kTransientRetryable;
    const FailSig sig = signature_of(fail, out.run);
    const bool identical_repeat = prev_sig.has_value() && *prev_sig == sig;
    if (!retryable || identical_repeat || attempt >= pol.max_attempts) {
      out.failure = fail;
      out.quarantined =
          identical_repeat || fail == FailureClass::kDeterministicFatal ||
          (fail == FailureClass::kDeadlineExceeded &&
           out.run.reason != TerminationReason::kHostDeadline);
      return JobStatus::kFinished;
    }
    prev_sig = sig;
    ++attempt;
    if (const u64 us = backoff_us(pol, job_index, attempt); us != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(us));
    }
  }
}

} // namespace

u64 backoff_us(const JobPolicy& p, u64 job_index, u32 attempt) {
  if (p.backoff_base_us == 0 || attempt < 2) return 0;
  const u32 k = std::min<u32>(attempt - 2, 20);
  const u64 d = std::min(p.backoff_base_us << k, p.backoff_cap_us);
  // Deterministic jitter in [d/2, d]: seed-advancing, never wall-clock.
  u64 s = p.backoff_seed ^ (job_index * 0x9e3779b97f4a7c15ull) ^ attempt;
  return d / 2 + (d >= 2 ? splitmix64(s) % (d / 2 + 1) : 0);
}

std::size_t RunControl::num_completed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return completed_.size();
}

std::size_t RunControl::num_suspended() const {
  std::lock_guard<std::mutex> lk(mu_);
  return suspended_.size();
}

FaultConfig derive_soak_faults(u64 base_seed, u64 kernel_idx, u64 iteration) {
  u64 s = base_seed ^ (kernel_idx * 0x9e3779b97f4a7c15ull) ^
          (iteration << 32);
  FaultConfig f;
  f.seed = splitmix64(s);
  f.dram_correctable_rate = u01(s) * 0.1;
  f.dram_uncorrectable_rate = u01(s) * 0.02;
  f.fill_parity_rate = u01(s) * 0.05;
  f.xbar_delay_rate = u01(s) * 0.1;
  f.xbar_delay_cycles = 1 + static_cast<u32>(splitmix64(s) % 16);
  f.xbar_drop_rate = u01(s) * 0.02;
  f.ecc_enabled = true;
  // Both recoverable machine-check policies get coverage; kFatal/kDeliver
  // would terminate handler-less kernels on the first double-bit hit.
  f.mc_policy = iteration % 2 == 0 ? MachineCheckPolicy::kRetry
                                   : MachineCheckPolicy::kPoison;
  return f;
}

void submit_matrix(Engine& eng, const MatrixSpec& m) {
  for (u32 ki = 0; ki < eng.num_kernels(); ++ki) {
    for (u64 it : m.iterations) {
      Job job;
      job.kernel = ki;
      job.iteration = it;
      job.policy = m.policy;
      job.backend = m.backend;
      if (m.faults) {
        job.cfg.faults = derive_soak_faults(m.base_seed, ki, it);
      }
      if (m.mode_cycle) {
        job.mode = SimMode::kCycle;
        eng.submit(job);
      }
      if (m.mode_functional) {
        job.mode = SimMode::kFunctional;
        eng.submit(job);
      }
    }
  }
}

soc::Majc5200& WorkerMachines::acquire_cycle(const sim::ProgramRef& program,
                                             const TimingConfig& cfg) {
  if (!cycle_) {
    cycle_.emplace(program, /*num_cpus=*/1, cfg);
    if (built_ != nullptr) ++*built_;
  } else {
    cycle_->reset(program, cfg);
  }
  return *cycle_;
}

sim::FunctionalSim& WorkerMachines::acquire_functional(
    const sim::ProgramRef& program) {
  if (!functional_) {
    functional_.emplace(program);
    if (built_ != nullptr) ++*built_;
  } else {
    functional_->reset(program);
  }
  return *functional_;
}

MachinePool::Lease::Lease(MachinePool& pool) : pool_(pool) {
  {
    std::lock_guard<std::mutex> lk(pool_.mu_);
    if (!pool_.free_.empty()) {
      machines_ = std::move(pool_.free_.back());
      pool_.free_.pop_back();
      return;
    }
  }
  machines_ = std::make_unique<WorkerMachines>(&pool_.built_);
}

MachinePool::Lease::~Lease() {
  std::lock_guard<std::mutex> lk(pool_.mu_);
  pool_.free_.push_back(std::move(machines_));
}

void MachinePool::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  free_.clear();
}

u32 Engine::add_kernel(kernels::CompiledKernel k) {
  kernels_.push_back(std::move(k));
  return static_cast<u32>(kernels_.size() - 1);
}

u32 Engine::add_kernel(kernels::KernelSpec spec) {
  return add_kernel(kernels::compile_kernel(std::move(spec)));
}

u32 Engine::submit(Job job) {
  jobs_.push_back(std::move(job));
  return static_cast<u32>(jobs_.size() - 1);
}

std::vector<JobResult> Engine::run(const RunOptions& opts) const {
  unsigned workers = opts.workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  const std::size_t n_jobs = jobs_.size();
  const unsigned n_workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, n_jobs == 0 ? 1 : n_jobs));
  RunControl* ctl = opts.control;

  std::vector<JobResult> results(n_jobs);
  // `done` flips to true on completion (or cache hit); everything a
  // drain/cancel left untouched stays false.
  for (JobResult& r : results) r.done = false;
  std::atomic<std::size_t> cursor{0};
  const auto t0 = Clock::now();

  MachinePool run_local;
  MachinePool& pool = opts.machines != nullptr ? *opts.machines : run_local;
  auto worker_loop = [&](u32 wid) {
    MachinePool::Lease machines(pool);
    for (;;) {
      if (ctl != nullptr &&
          (ctl->cancel_requested() || ctl->drain_requested())) {
        break;
      }
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n_jobs) break;
      const Job& job = jobs_[i];
      JobResult& out = results[i];

      std::optional<RunControl::Suspended> resume;
      if (ctl != nullptr) {
        std::lock_guard<std::mutex> lk(ctl->mu_);
        if (auto it = ctl->completed_.find(static_cast<u32>(i));
            it != ctl->completed_.end()) {
          out = it->second;
          continue;
        }
        if (auto it = ctl->suspended_.find(static_cast<u32>(i));
            it != ctl->suspended_.end()) {
          resume = std::move(it->second);
          ctl->suspended_.erase(it);
        }
      }

      out.worker = wid;
      const auto j0 = Clock::now();
      RunControl::Suspended suspended;
      const JobStatus st =
          run_resilient(kernels_[job.kernel], job, static_cast<u32>(i),
                        *machines, opts, resume, out, suspended);
      out.host_secs = secs_since(j0);
      if (st == JobStatus::kFinished) {
        out.done = true;
        if (ctl != nullptr) {
          std::lock_guard<std::mutex> lk(ctl->mu_);
          ctl->completed_.emplace(static_cast<u32>(i), out);
          const std::size_t after =
              ctl->drain_after_.load(std::memory_order_relaxed);
          if (after != 0 && ctl->completed_.size() >= after) {
            ctl->drain_.store(true, std::memory_order_relaxed);
          }
        }
      } else if (st == JobStatus::kSuspended) {
        std::lock_guard<std::mutex> lk(ctl->mu_);
        ctl->suspended_.insert_or_assign(static_cast<u32>(i),
                                         std::move(suspended));
      }
      // kAbandoned: cancel drops the attempt on the floor; the job will
      // re-run from scratch on the next call.
    }
  };

  if (n_workers <= 1) {
    worker_loop(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_workers);
    for (u32 w = 0; w < n_workers; ++w) {
      pool.emplace_back(worker_loop, w);
    }
    for (auto& t : pool) t.join();
  }

  if (opts.stats != nullptr) {
    CampaignStats& stats = *opts.stats;
    stats = CampaignStats{};
    stats.workers = n_workers;
    stats.wall_secs = secs_since(t0);
    for (const JobResult& r : results) {
      stats.total_packets += r.run.packets;
      stats.total_instrs += r.run.instrs;
      if (!r.done) {
        ++stats.jobs_suspended;
        continue;
      }
      stats.total_attempts += r.attempts;
      if (r.attempts > 1) ++stats.jobs_retried;
      if (r.quarantined) ++stats.jobs_quarantined;
      stats.forced_preemptions += r.preemptions;
    }
    if (stats.wall_secs > 0) {
      stats.aggregate_pps =
          static_cast<double>(stats.total_packets) / stats.wall_secs;
      stats.aggregate_mips =
          static_cast<double>(stats.total_instrs) / stats.wall_secs / 1e6;
    }
  }
  return results;
}

} // namespace majc::farm
