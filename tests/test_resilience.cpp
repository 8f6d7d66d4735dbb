// Resilience-layer tests (DESIGN.md §12): the invariants that make the
// farm's retry / slicing / preemption machinery architecturally invisible.
//
//  * slice-equivalence — sliced execution (the unit deadlines, drains and
//    forced preemptions operate on) is byte-identical to unsliced, in both
//    sim modes, under fault injection;
//  * drain/resume — a campaign drained mid-flight via RunControl and
//    resumed from its checkpoints aggregates byte-identically to an
//    uninterrupted run;
//  * retry/quarantine — host exceptions are retried on the deterministic
//    backoff schedule, identical repeated failures quarantine, and
//    deterministic guest failures quarantine without burning attempts;
//  * hung-job conversion — a guest that spins forever (defeating the cycle
//    watchdog by storing) is converted into a structured deadline-exceeded
//    result by the JobPolicy host deadline;
//  * repeated Engine::run calls, with retries and chaos enabled, stay
//    byte-identical across calls and worker counts — on the small campaign
//    and on the full 16-kernel, both-mode storm under guest faults.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <vector>

#include "src/farm/campaign.h"
#include "src/farm/farm.h"
#include "src/kernels/bitrev.h"
#include "src/kernels/fir.h"
#include "src/kernels/kernel.h"
#include "src/kernels/max_search.h"
#include "src/kernels/table12.h"

namespace majc {
namespace {

constexpr u64 kSeed = 0x5eed;

/// The test_farm small campaign, parameterized by JobPolicy: three fast
/// kernels x two fault seeds x both sim modes.
farm::Engine make_campaign(const farm::JobPolicy& policy) {
  farm::Engine eng;
  eng.add_kernel(kernels::make_fir_spec());
  eng.add_kernel(kernels::make_bitrev_spec());
  eng.add_kernel(kernels::make_max_search_spec());
  for (u32 ki = 0; ki < eng.num_kernels(); ++ki) {
    for (u64 it = 0; it < 2; ++it) {
      farm::Job job;
      job.kernel = ki;
      job.iteration = it;
      job.policy = policy;
      job.cfg.faults = farm::derive_soak_faults(kSeed, ki, it);
      eng.submit(job);
      job.mode = farm::SimMode::kFunctional;
      eng.submit(job);
    }
  }
  return eng;
}

/// A guest that spins forever: the store keeps the watchdog seeing forward
/// progress, so only a host deadline can end the run.
kernels::KernelSpec make_spin_spec() {
  kernels::KernelSpec spec;
  spec.name = "spin_forever";
  spec.source = R"(
      .data
    buf: .space 4
      .code
      sethi g1, %hi(buf)
      orlo g1, %lo(buf)
    spin:
      stwi g0, g1, 0
      bz g0, spin
      halt
  )";
  spec.max_packets = 1ull << 62;
  return spec;
}

// ---------------------------------------------------------- slice equivalence

TEST(Resilience, SlicedRunByteIdenticalToUnslicedBothModesUnderFaults) {
  const farm::Engine plain = make_campaign(farm::JobPolicy{});
  farm::JobPolicy sliced;
  sliced.slice_packets = 257;  // odd and small: boundaries land everywhere
  const farm::Engine chunked = make_campaign(sliced);

  const std::string a = farm::campaign_json(plain, plain.run(1), kSeed);
  const std::string b = farm::campaign_json(chunked, chunked.run(1), kSeed);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  // Slicing really happened (not a vacuous comparison) and stayed out of
  // the JSON. The shortest kernels finish inside one slice; the campaign
  // overall must not have.
  const std::vector<farm::JobResult> res = chunked.run(4);
  EXPECT_EQ(farm::campaign_json(chunked, res, kSeed), a);
  u64 total_slices = 0;
  for (const farm::JobResult& r : res) {
    total_slices += r.slices;
    EXPECT_TRUE(r.run.valid) << r.run.message;
  }
  EXPECT_GT(total_slices, static_cast<u64>(res.size()));
}

// --------------------------------------------------------------- drain/resume

TEST(Resilience, DrainParksInFlightJobAndResumeMatchesUninterrupted) {
  // Job 0's setup (one-shot) requests a drain, so the worker checkpoints it
  // at the first slice boundary and stops. A rearmed second run resumes
  // from the checkpoint — skipping setup — and the final campaign is
  // byte-identical to an uninterrupted engine with the same policy.
  farm::JobPolicy sliced;
  sliced.slice_packets = 128;

  // Baseline engine with the same shape (4 registered kernels, kernel 3 a
  // plain fir copy) so the campaign headers match byte-for-byte.
  farm::Engine baseline;
  baseline.add_kernel(kernels::make_fir_spec());
  baseline.add_kernel(kernels::make_bitrev_spec());
  baseline.add_kernel(kernels::make_max_search_spec());
  baseline.add_kernel(kernels::make_fir_spec());

  farm::RunControl control;
  auto fired = std::make_shared<bool>(false);
  farm::Engine eng;
  eng.add_kernel(kernels::make_fir_spec());
  eng.add_kernel(kernels::make_bitrev_spec());
  eng.add_kernel(kernels::make_max_search_spec());
  {
    // Wrap kernel 0's setup with the drain trigger. The wrapper is
    // architecturally inert: it writes the same input data.
    kernels::KernelSpec spec = kernels::make_fir_spec();
    auto inner = spec.setup;
    spec.setup = [&control, fired, inner](sim::MemoryBus& m,
                                          const masm::Image& img) {
      if (inner) inner(m, img);
      if (!*fired) {
        *fired = true;
        control.request_drain();
      }
    };
    eng.add_kernel(std::move(spec));  // kernel index 3: the tripwire copy
  }
  for (u32 ki = 0; ki < 3; ++ki) {
    for (u64 it = 0; it < 2; ++it) {
      farm::Job job;
      // fir jobs run the tripwire copy; the one-shot flag means only the
      // first of them (job 0, the first claimed at workers=1) drains.
      job.kernel = ki == 0 ? 3 : ki;
      job.iteration = it;
      job.policy = sliced;
      job.cfg.faults = farm::derive_soak_faults(kSeed, ki, it);
      eng.submit(job);
      baseline.submit(job);
      job.mode = farm::SimMode::kFunctional;
      eng.submit(job);
      baseline.submit(job);
    }
  }

  farm::Engine::RunOptions opts;
  opts.workers = 1;
  opts.control = &control;
  const std::vector<farm::JobResult> first = eng.run(opts);
  EXPECT_EQ(control.num_suspended(), 1u);
  EXPECT_FALSE(first[0].done);  // parked mid-flight, result withheld
  u64 undone = 0;
  for (const farm::JobResult& r : first) undone += r.done ? 0 : 1;
  EXPECT_EQ(undone, eng.jobs().size());  // drain hit before anything finished

  control.rearm();
  const std::vector<farm::JobResult> second = eng.run(opts);
  EXPECT_EQ(control.num_suspended(), 0u);
  EXPECT_EQ(control.num_completed(), eng.jobs().size());
  for (const farm::JobResult& r : second) EXPECT_TRUE(r.done);

  EXPECT_EQ(farm::campaign_json(eng, second, kSeed),
            farm::campaign_json(baseline, baseline.run(1), kSeed));
}

TEST(Resilience, DrainAfterNCompletesIncrementallyAndMatchesUninterrupted) {
  farm::JobPolicy sliced;
  sliced.slice_packets = 512;
  const farm::Engine eng = make_campaign(sliced);
  const std::string uninterrupted =
      farm::campaign_json(eng, eng.run(1), kSeed);

  // Complete the campaign two jobs at a time, draining between calls; the
  // completed-result cache must hand back exactly the same aggregation.
  farm::RunControl control;
  std::vector<farm::JobResult> final_results;
  for (int round = 0; round < 64; ++round) {
    control.rearm();
    control.request_drain_after(control.num_completed() + 2);
    farm::Engine::RunOptions opts;
    opts.workers = 1;
    opts.control = &control;
    final_results = eng.run(opts);
    if (control.num_completed() == eng.jobs().size()) break;
  }
  ASSERT_EQ(control.num_completed(), eng.jobs().size());
  EXPECT_EQ(farm::campaign_json(eng, final_results, kSeed), uninterrupted);
}

TEST(Resilience, CancelAbandonsWithoutSideEffects) {
  const farm::Engine eng = make_campaign(farm::JobPolicy{});
  farm::RunControl control;
  control.request_cancel();
  farm::Engine::RunOptions opts;
  opts.workers = 2;
  opts.control = &control;
  const std::vector<farm::JobResult> res = eng.run(opts);
  for (const farm::JobResult& r : res) EXPECT_FALSE(r.done);
  EXPECT_EQ(control.num_completed(), 0u);
  EXPECT_EQ(control.num_suspended(), 0u);
  // Rearmed, the same engine+control completes normally.
  control.rearm();
  const std::vector<farm::JobResult> ok = eng.run(opts);
  EXPECT_EQ(farm::campaign_json(eng, ok, kSeed),
            farm::campaign_json(eng, eng.run(1), kSeed));
}

// ----------------------------------------------------------- hung-job rescue

TEST(Resilience, HungJobConvertsToStructuredDeadlineExceeded) {
  farm::Engine eng;
  eng.add_kernel(make_spin_spec());
  for (const farm::SimMode mode :
       {farm::SimMode::kCycle, farm::SimMode::kFunctional}) {
    farm::Job job;
    job.mode = mode;
    job.policy.host_deadline_secs = 0.2;
    job.policy.slice_packets = 4096;
    job.policy.max_attempts = 3;
    eng.submit(job);
  }
  const std::vector<farm::JobResult> res = eng.run(2);
  for (const farm::JobResult& r : res) {
    EXPECT_TRUE(r.done);
    EXPECT_FALSE(r.run.valid);
    EXPECT_EQ(r.run.reason, TerminationReason::kHostDeadline);
    EXPECT_EQ(r.failure, farm::FailureClass::kDeadlineExceeded);
    EXPECT_EQ(r.attempts, 1u);      // deadline kills must not burn retries
    EXPECT_FALSE(r.quarantined);    // says nothing about the guest
    EXPECT_EQ(r.run.packets, 0u);   // kill position is wall-clock dependent:
    EXPECT_EQ(r.run.arch_digest, 0u);  // normalized out of the result
    EXPECT_EQ(r.run.message, "host deadline exceeded (0.200s)");
  }
}

TEST(Resilience, GuestBudgetExhaustionQuarantines) {
  // A packet-cap overrun is deterministic (unlike a host deadline): rerun
  // replays it, so the job quarantines with a single attempt.
  kernels::KernelSpec spec = make_spin_spec();
  spec.max_packets = 10'000;
  farm::Engine eng;
  eng.add_kernel(std::move(spec));
  farm::Job job;
  job.policy.max_attempts = 3;
  eng.submit(job);
  const std::vector<farm::JobResult> res = eng.run(1);
  EXPECT_EQ(res[0].failure, farm::FailureClass::kDeadlineExceeded);
  EXPECT_EQ(res[0].run.reason, TerminationReason::kPacketCap);
  EXPECT_TRUE(res[0].quarantined);
  EXPECT_EQ(res[0].attempts, 1u);
}

// --------------------------------------------------------- retry / quarantine

TEST(Resilience, TransientHostExceptionIsRetriedToSuccess) {
  // Setup throws on the first attempt only: the retry completes clean and
  // the final classification is kNone — indistinguishable in the JSON from
  // a job that never failed.
  kernels::KernelSpec spec = kernels::make_fir_spec();
  auto inner = spec.setup;
  auto boom = std::make_shared<bool>(true);
  spec.setup = [inner, boom](sim::MemoryBus& m, const masm::Image& img) {
    if (*boom) {
      *boom = false;
      throw std::runtime_error("flaky host allocation");
    }
    if (inner) inner(m, img);
  };
  farm::Engine eng;
  eng.add_kernel(std::move(spec));
  farm::Job job;
  job.policy.max_attempts = 3;
  eng.submit(job);

  const std::vector<farm::JobResult> res = eng.run(1);
  EXPECT_TRUE(res[0].run.valid) << res[0].run.message;
  EXPECT_EQ(res[0].failure, farm::FailureClass::kNone);
  EXPECT_FALSE(res[0].quarantined);
  EXPECT_EQ(res[0].attempts, 2u);

  // The absorbed retry is invisible in the campaign JSON: byte-identical
  // to the undisturbed kernel's campaign.
  farm::Engine clean;
  clean.add_kernel(kernels::make_fir_spec());
  farm::Job cjob;
  cjob.policy.max_attempts = 3;
  clean.submit(cjob);
  EXPECT_EQ(farm::campaign_json(eng, res, kSeed),
            farm::campaign_json(clean, clean.run(1), kSeed));
}

TEST(Resilience, IdenticalRepeatedFailureQuarantinesEarly) {
  // Setup always throws the same exception: attempt 2 reproduces attempt
  // 1's signature exactly, so the job quarantines after two attempts even
  // though the policy allows five.
  kernels::KernelSpec spec;
  spec.name = "always_throws";
  spec.source = "start:\n  halt\n";
  spec.setup = [](sim::MemoryBus&, const masm::Image&) {
    throw std::runtime_error("same failure every time");
  };
  farm::Engine eng;
  eng.add_kernel(std::move(spec));
  farm::Job job;
  job.policy.max_attempts = 5;
  eng.submit(job);
  const std::vector<farm::JobResult> res = eng.run(1);
  EXPECT_EQ(res[0].failure, farm::FailureClass::kHostException);
  EXPECT_TRUE(res[0].quarantined);
  EXPECT_EQ(res[0].attempts, 2u);
  EXPECT_NE(res[0].run.message.find("same failure"), std::string::npos);
}

TEST(Resilience, DeterministicGuestFailureQuarantinesWithoutRetry) {
  kernels::KernelSpec spec = kernels::make_fir_spec();
  spec.validate = [](sim::MemoryBus&, const masm::Image&, std::string& msg) {
    msg = "golden mismatch";
    return false;
  };
  farm::Engine eng;
  eng.add_kernel(std::move(spec));
  farm::Job job;
  job.policy.max_attempts = 4;
  eng.submit(job);
  const std::vector<farm::JobResult> res = eng.run(1);
  EXPECT_EQ(res[0].failure, farm::FailureClass::kDeterministicFatal);
  EXPECT_TRUE(res[0].quarantined);
  EXPECT_EQ(res[0].attempts, 1u);  // guest outcomes replay identically
}

// ------------------------------------------------------------ backoff schedule

TEST(Resilience, BackoffIsDeterministicBoundedAndSeedAdvancing) {
  farm::JobPolicy p;
  p.backoff_base_us = 100;
  p.backoff_cap_us = 1'000;
  p.backoff_seed = 42;

  EXPECT_EQ(farm::backoff_us(p, 0, 1), 0u);  // first attempt never waits
  EXPECT_EQ(farm::backoff_us(farm::JobPolicy{}, 0, 3), 0u);  // base 0 = off

  for (u32 attempt = 2; attempt <= 6; ++attempt) {
    const u64 expect_full =
        std::min<u64>(p.backoff_base_us << (attempt - 2), p.backoff_cap_us);
    const u64 a = farm::backoff_us(p, 7, attempt);
    EXPECT_EQ(a, farm::backoff_us(p, 7, attempt));  // pure function
    EXPECT_GE(a, expect_full / 2);                  // jitter in [d/2, d]
    EXPECT_LE(a, expect_full);
  }
  // Different jobs / seeds draw different jitter (statistically: at least
  // one of these differs from job 7's draw).
  bool any_diff = false;
  for (u64 job = 0; job < 8; ++job) {
    any_diff |= farm::backoff_us(p, job, 4) != farm::backoff_us(p, 7, 4);
  }
  EXPECT_TRUE(any_diff);
}

// ----------------------------------- repeated runs, chaos, and worker counts

/// Run `eng` under `chaos` at each worker count and require every campaign
/// JSON to equal the undisturbed -j1 baseline; the storm must strike.
void expect_chaos_invisible(const farm::Engine& eng,
                            const farm::ChaosPlan& chaos,
                            std::initializer_list<unsigned> worker_counts) {
  const std::string baseline = farm::campaign_json(eng, eng.run(1), kSeed);
  u64 disturbed = 0;
  for (const unsigned workers : worker_counts) {
    farm::CampaignStats stats;
    farm::Engine::RunOptions opts;
    opts.workers = workers;
    opts.stats = &stats;
    opts.chaos = &chaos;
    EXPECT_EQ(farm::campaign_json(eng, eng.run(opts), kSeed), baseline)
        << "workers=" << workers;
    disturbed += stats.jobs_retried + stats.forced_preemptions;
  }
  EXPECT_GT(disturbed, 0u);  // the storm actually struck
}

TEST(Resilience, RepeatedRunsWithRetriesAndChaosStayByteIdentical) {
  farm::JobPolicy policy;
  policy.slice_packets = 300;
  policy.max_attempts = 3;
  farm::ChaosPlan chaos;
  chaos.seed = 0xc4a05;
  chaos.exception_rate = 0.5;
  chaos.deadline_kill_rate = 0.3;
  chaos.preempt_rate = 0.4;
  expect_chaos_invisible(make_campaign(policy), chaos, {1u, 4u, 1u, 3u});
}

// The full storm: every Table 1/2 kernel in both modes under guest faults,
// with the deterministic backoff path exercised between retries. ctest runs
// it as its own entry (resilience_chaos_storm) with its own time budget.
TEST(Resilience, ChaosStormOverAllKernelsStaysByteIdentical) {
  farm::Engine eng;
  for (const kernels::NamedKernel& nk : kernels::table12_kernels()) {
    eng.add_kernel(kernels::table12_spec(nk));
  }
  farm::MatrixSpec m;
  m.iterations = {0};
  m.base_seed = kSeed;
  m.mode_functional = true;
  m.policy.slice_packets = 4096;
  m.policy.max_attempts = 3;
  m.policy.backoff_base_us = 50;
  m.policy.backoff_seed = 0xc4a05;
  farm::submit_matrix(eng, m);
  farm::ChaosPlan chaos;
  chaos.seed = 0xc4a05;
  chaos.exception_rate = 0.4;
  chaos.deadline_kill_rate = 0.25;
  chaos.preempt_rate = 0.35;
  chaos.max_preemptions_per_job = 2;
  expect_chaos_invisible(eng, chaos, {4u});
}

} // namespace
} // namespace majc
