// Chaos suite for the fault-tolerance layer (core/server.hpp subsystem 7):
// seeded fault schedules x device counts x pool sizes, plus directed tests
// for each mechanism — cancellation, deadlines (shed / queued-expiry /
// running-cancel), retry, and quarantine-then-reinstate.
//
// The load-bearing invariants, in test form:
//
//  * No hang, ever: every submitted job reaches a terminal status within a
//    generous wall-clock bound, at every device count and pool size
//    including the 1-device / 1-worker cell where the whole service funnels
//    through one thread.
//  * Faults never corrupt: a job that completes — first try or after
//    transient-fault retries — produces output bit-identical to a fault-free
//    direct run (goldens are computed with the injector disarmed, before the
//    chaos plan is armed).
//  * Failures are honest: a job that exhausts its attempts reports kFailed
//    with the full per-attempt fault trail, nothing is silently dropped.
//
// Thread interleavings decide which job absorbs which fault draw, so the
// matrix asserts properties (terminal, bit-identical-or-honestly-failed),
// while the directed tests pin deterministic schedules (rate-1.0 sites,
// device-filtered plans, probed seeds) and assert exact outcomes.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/grid.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/faultinject.hpp"
#include "core/job.hpp"
#include "core/server.hpp"
#include "core/stencil_shape.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/device.hpp"
#include "test_util.hpp"

namespace {

using namespace ssam;

// Arms the global injector for one test scope; always disarms on exit so a
// failing assertion cannot leak a chaos plan into later tests.
struct ArmedPlan {
  explicit ArmedPlan(const core::FaultPlan& plan) {
    core::FaultInjector::global().set_plan(plan);
  }
  ~ArmedPlan() { core::FaultInjector::global().disarm(); }
  ArmedPlan(const ArmedPlan&) = delete;
  ArmedPlan& operator=(const ArmedPlan&) = delete;
};

std::vector<sim::DeviceOptions> device_opts(int devices, int workers) {
  std::vector<sim::DeviceOptions> opts;
  for (int i = 0; i < devices; ++i) {
    opts.push_back(sim::DeviceOptions{workers, {}, "chaos" + std::to_string(i)});
  }
  return opts;
}

// Generous terminal-status bound: sanitizer builds are ~10x slower and the
// suite must distinguish "slow" from "hung".
constexpr double kTerminalBoundMs = 120000.0;

// ---------------------------------------------------------------------------
// Chaos workload: small mixed jobs, each owning its grids, the golden
// output captured from a direct fault-free run before the plan is armed.
// ---------------------------------------------------------------------------

struct ChaosCase {
  core::JobKind kind = core::JobKind::kStencil2D;
  Grid2D<float> a2{1, 1}, b2{1, 1}, gold2{1, 1};
  Grid3D<float> a3{1, 1, 1}, b3{1, 1, 1}, gold3{1, 1, 1};
  core::StencilShape<float> shape;
  std::vector<float> filter;
  int steps = 1;

  [[nodiscard]] core::SimJob job() {
    switch (kind) {
      case core::JobKind::kStencil2D:
        return core::SimJob::stencil2d(a2, b2, shape, steps);
      case core::JobKind::kStencil3D:
        return core::SimJob::stencil3d(a3, b3, shape, steps);
      case core::JobKind::kConv2D:
        return core::SimJob::conv2d(a2, b2, filter, 3, 3);
      case core::JobKind::kChain:
        break;
    }
    throw std::logic_error("the chaos rig builds no chain jobs");
  }

  [[nodiscard]] bool matches_golden() const {
    if (kind == core::JobKind::kStencil3D) {
      return ssam::testing::bits_equal(a3.data(), gold3.data(),
                                 static_cast<std::size_t>(a3.size()));
    }
    const Grid2D<float>& out = kind == core::JobKind::kConv2D ? b2 : a2;
    return ssam::testing::bits_equal(out.data(), gold2.data(),
                               static_cast<std::size_t>(out.size()));
  }
};

// Builds the mixed job set AND its goldens; must run with the injector
// disarmed (direct run_job calls would otherwise absorb fault draws).
std::vector<ChaosCase> build_chaos_cases(unsigned seed) {
  EXPECT_FALSE(core::FaultInjector::global().enabled())
      << "goldens must be computed fault-free";
  std::vector<ChaosCase> cases;
  for (int i = 0; i < 12; ++i) {
    ChaosCase c;
    const unsigned s = seed * 1000u + static_cast<unsigned>(i) * 17u;
    switch (i % 3) {
      case 0: {
        c.kind = core::JobKind::kStencil2D;
        c.a2 = Grid2D<float>(96, 64);
        c.b2 = Grid2D<float>(96, 64);
        c.shape = core::star2d<float>(1);
        c.steps = 3;
        fill_random(c.a2, s);
        Grid2D<float> ga = c.a2, gb = c.b2;
        (void)core::run_job(sim::tesla_v100(), core::SimJob::stencil2d(ga, gb, c.shape, c.steps));
        c.gold2 = ga;
        break;
      }
      case 1: {
        c.kind = core::JobKind::kStencil3D;
        c.a3 = Grid3D<float>(32, 24, 16);
        c.b3 = Grid3D<float>(32, 24, 16);
        c.shape = core::star3d<float>(1);
        c.steps = 2;
        fill_random(c.a3, s);
        Grid3D<float> ga = c.a3, gb = c.b3;
        (void)core::run_job(sim::tesla_v100(), core::SimJob::stencil3d(ga, gb, c.shape, c.steps));
        c.gold3 = ga;
        break;
      }
      default: {
        c.kind = core::JobKind::kConv2D;
        c.a2 = Grid2D<float>(80, 48);
        c.b2 = Grid2D<float>(80, 48);
        c.filter.assign(9, 1.0f / 9.0f);
        fill_random(c.a2, s);
        Grid2D<float> ga = c.a2, gb = c.b2;
        (void)core::run_job(sim::tesla_v100(),
                            core::SimJob::conv2d(ga, gb, c.filter, 3, 3));
        c.gold2 = gb;
        break;
      }
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

// ---------------------------------------------------------------------------
// The matrix: >= 5% transient faults at every site, across device counts
// (incl. the degenerate single device) and pool sizes (incl. 1 worker).
// ---------------------------------------------------------------------------

TEST(ChaosSuite, EveryJobTerminalAndCompletedJobsBitIdentical) {
  struct Cell {
    int devices;
    int workers;
  };
  const Cell cells[] = {{1, 1}, {2, 1}, {4, 1}, {2, 2}};
  const std::uint64_t plan_seeds[] = {4242, 90210};

  for (const Cell& cell : cells) {
    for (const std::uint64_t plan_seed : plan_seeds) {
      SCOPED_TRACE("devices=" + std::to_string(cell.devices) +
                   " workers=" + std::to_string(cell.workers) +
                   " seed=" + std::to_string(plan_seed));
      std::vector<ChaosCase> cases =
          build_chaos_cases(static_cast<unsigned>(plan_seed % 1000));

      sim::DeviceGroup group(device_opts(cell.devices, cell.workers));
      core::ServerOptions so;
      so.group = &group;
      so.max_attempts = 8;
      so.retry_backoff_ms = 0.2;
      so.watchdog_period_ms = 2.0;
      core::SimServer server(so);

      core::FaultPlan plan;
      plan.seed = plan_seed;
      plan.site(core::FaultSite::kWorkspaceLease) = {0.05, true};
      plan.site(core::FaultSite::kKernelSweep) = {0.05, true};
      plan.site(core::FaultSite::kHaloSend) = {0.05, true};
      plan.site(core::FaultSite::kDeviceDispatch) = {0.05, true};
      ArmedPlan armed(plan);

      std::vector<core::JobFuture> futs;
      futs.reserve(cases.size());
      for (ChaosCase& c : cases) futs.push_back(server.submit(c.job()));

      for (std::size_t i = 0; i < futs.size(); ++i) {
        ASSERT_TRUE(futs[i].wait_for(kTerminalBoundMs))
            << "job " << i << " never reached a terminal status (hang)";
        const core::JobResult& r = futs[i].wait();
        ASSERT_TRUE(r.status == core::JobStatus::kCompleted ||
                    r.status == core::JobStatus::kFailed)
            << "job " << i << " unexpected status";
        // Every failed attempt in the trail must be an injected transient
        // fault — nothing else is in play in this test.
        for (const JobError& e : r.attempt_errors) {
          EXPECT_EQ(e.code, ErrorCode::kFaultInjected);
          EXPECT_TRUE(e.transient);
        }
        if (r.status == core::JobStatus::kCompleted) {
          EXPECT_GE(r.attempts, 1);
          EXPECT_EQ(static_cast<std::size_t>(r.attempts - 1), r.attempt_errors.size());
          EXPECT_TRUE(cases[i].matches_golden())
              << "job " << i << " completed (after " << r.attempts
              << " attempts) but its output differs from the fault-free run";
        } else {
          EXPECT_EQ(r.attempts, so.max_attempts)
              << "a job may only fail after exhausting its attempts";
          EXPECT_EQ(r.error.code, ErrorCode::kFaultInjected);
        }
      }
      server.drain();
      const core::SimServer::Stats st = server.stats();
      EXPECT_EQ(st.submitted, cases.size());
      EXPECT_EQ(st.completed, cases.size());  // dispatched jobs, terminal
      EXPECT_EQ(st.cancelled, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Retry: a probed seed pins fault-then-success at the dispatch site, so the
// exact attempt count and the bit-identity of the retried output are
// deterministic, not probabilistic.
// ---------------------------------------------------------------------------

TEST(ChaosRetry, TransientFaultRetriesAndMatchesFaultFreeOutput) {
  // Find a seed whose dispatch-site decision stream is [inject, pass]:
  // attempt 1 dies at dispatch, attempt 2 runs clean.
  core::FaultInjector& fi = core::FaultInjector::global();
  core::FaultPlan plan;
  plan.site(core::FaultSite::kDeviceDispatch) = {0.6, true};
  std::uint64_t good_seed = 0;
  for (std::uint64_t s = 1; s < 200; ++s) {
    plan.seed = s;
    fi.set_plan(plan);
    const bool first = fi.should_inject(core::FaultSite::kDeviceDispatch, 0);
    const bool second = fi.should_inject(core::FaultSite::kDeviceDispatch, 0);
    if (first && !second) {
      good_seed = s;
      break;
    }
  }
  fi.disarm();
  ASSERT_NE(good_seed, 0u) << "no [inject, pass] seed in 1..199 at rate 0.6";

  Grid2D<float> a(64, 48), b(64, 48);
  fill_random(a, 31);
  const core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> ga = a, gb = b;
  (void)core::run_job(sim::tesla_v100(), core::SimJob::stencil2d(ga, gb, shape, 3));

  sim::DeviceGroup group(device_opts(1, 1));
  core::ServerOptions so;
  so.group = &group;
  so.max_attempts = 4;
  so.retry_backoff_ms = 0.2;
  so.watchdog_period_ms = 2.0;
  core::SimServer server(so);

  plan.seed = good_seed;
  ArmedPlan armed(plan);
  core::JobFuture fut = server.submit(core::SimJob::stencil2d(a, b, shape, 3));
  const core::JobResult& r = fut.wait();
  EXPECT_EQ(r.status, core::JobStatus::kCompleted);
  EXPECT_EQ(r.attempts, 2);
  ASSERT_EQ(r.attempt_errors.size(), 1u);
  EXPECT_EQ(r.attempt_errors[0].code, ErrorCode::kFaultInjected);
  EXPECT_TRUE(r.attempt_errors[0].transient);
  EXPECT_TRUE(ssam::testing::bits_equal(a.data(), ga.data(),
                                  static_cast<std::size_t>(a.size())));
  server.drain();
  const core::SimServer::Stats st = server.stats();
  EXPECT_EQ(st.retries, 1u);
  EXPECT_EQ(st.faulted_attempts, 1u);
  EXPECT_EQ(st.failed, 0u);
}

TEST(ChaosRetry, PermanentFaultFailsWithoutRetry) {
  sim::DeviceGroup group(device_opts(1, 1));
  core::ServerOptions so;
  so.group = &group;
  so.max_attempts = 5;
  core::SimServer server(so);

  Grid2D<float> a(64, 48), b(64, 48);
  fill_random(a, 7);
  core::FaultPlan plan;
  plan.seed = 1;
  plan.site(core::FaultSite::kKernelSweep) = {1.0, false};  // always, permanent
  ArmedPlan armed(plan);

  core::JobFuture fut =
      server.submit(core::SimJob::stencil2d(a, b, core::star2d<float>(1), 2));
  const core::JobResult& r = fut.wait();
  EXPECT_EQ(r.status, core::JobStatus::kFailed);
  EXPECT_EQ(r.attempts, 1) << "a permanent fault must not be retried";
  EXPECT_EQ(r.error.code, ErrorCode::kFaultInjected);
  EXPECT_FALSE(r.error.transient);
  server.drain();
  EXPECT_EQ(server.stats().retries, 0u);
  EXPECT_EQ(server.stats().failed, 1u);
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(ChaosCancel, QueuedJobCancelledBeforeDispatch) {
  sim::DeviceGroup group(device_opts(1, 1));
  core::ServerOptions so;
  so.group = &group;
  so.start_paused = true;
  core::SimServer server(so);

  const core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> a0(64, 32), b0(64, 32), a1(64, 32), b1(64, 32), a2(64, 32), b2(64, 32);
  fill_random(a0, 1);
  fill_random(a1, 2);
  fill_random(a2, 3);
  core::JobFuture f0 = server.submit(core::SimJob::stencil2d(a0, b0, shape, 2));
  core::JobFuture f1 = server.submit(core::SimJob::stencil2d(a1, b1, shape, 2));
  core::JobFuture f2 = server.submit(core::SimJob::stencil2d(a2, b2, shape, 2));
  f1.cancel();  // while everything is still parked behind start_paused
  server.resume();
  server.drain();

  EXPECT_EQ(f0.wait().status, core::JobStatus::kCompleted);
  const core::JobResult& r1 = f1.wait();
  EXPECT_EQ(r1.status, core::JobStatus::kCancelled);
  EXPECT_EQ(r1.error.code, ErrorCode::kCancelled);
  EXPECT_EQ(r1.attempts, 0) << "a queue-cancelled job never ran";
  EXPECT_EQ(f2.wait().status, core::JobStatus::kCompleted);
  const core::SimServer::Stats st = server.stats();
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.completed, 2u);
}

TEST(ChaosCancel, ChainRunHonoursPreCancelledToken) {
  // The fused chain engine shares the engine-wide sweep gates: a token
  // cancelled before the run starts must unwind before any stage executes,
  // on both the fused and the staged path.
  core::StencilShape<float> s = core::star2d<float>(1);
  const std::vector<core::ChainStage<float>> stages = {
      core::ChainStage<float>::stencil(s), core::ChainStage<float>::stencil(s),
      core::ChainStage<float>::stencil(s)};
  Grid2D<float> a(96, 80), b(96, 80);
  fill_random(a, 4);
  for (const auto policy :
       {core::IterationPolicy::kPersistent, core::IterationPolicy::kRelaunch}) {
    core::PersistentOptions opt;
    opt.policy = policy;
    opt.cancel = CancelToken::make();
    opt.cancel.cancel(static_cast<int>(ErrorCode::kCancelled));
    EXPECT_THROW((void)core::run_chain2d<float>(sim::tesla_v100(), a, b, stages, opt),
                 CancelledError);
  }
}

TEST(ChaosCancel, ChainJobsCancelledMidRunLeaveEveryJobTerminal) {
  // A backlog of deep fused chains, half cancelled while the server drains:
  // every future must settle (kCancelled at a mid-chain sweep boundary, or
  // kCompleted when the cancel lost the race), and completed chains must be
  // bit-identical to an undisturbed reference.
  sim::DeviceGroup group(device_opts(2, 1));
  core::ServerOptions so;
  so.group = &group;
  core::SimServer server(so);

  core::StencilShape<float> s = core::star2d<float>(1);
  std::vector<core::ChainStage<float>> stages;
  for (int i = 0; i < 8; ++i) stages.push_back(core::ChainStage<float>::stencil(s));
  core::JobHints hints;
  hints.policy = core::IterationPolicy::kPersistent;

  Grid2D<float> ref_in(128, 96), golden(128, 96);
  fill_random(ref_in, 99);
  (void)core::run_job(sim::tesla_v100(),
                      core::SimJob::chain2d(ref_in, golden, stages, hints));

  constexpr int kJobs = 8;
  std::vector<Grid2D<float>> ins, outs;
  ins.reserve(kJobs);
  outs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    ins.emplace_back(128, 96);
    outs.emplace_back(128, 96);
    fill_random(ins.back(), 99);
  }
  std::vector<core::JobFuture> futs;
  futs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    futs.push_back(server.submit(core::SimJob::chain2d(
        ins[static_cast<std::size_t>(i)], outs[static_cast<std::size_t>(i)], stages,
        hints)));
  }
  std::thread drainer([&] { server.drain(); });
  for (int i = 0; i < kJobs; i += 2) futs[static_cast<std::size_t>(i)].cancel();
  drainer.join();
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(futs[static_cast<std::size_t>(i)].wait_for(kTerminalBoundMs))
        << "chain job " << i << " never reached a terminal status (hang)";
    const core::JobResult& r = futs[static_cast<std::size_t>(i)].wait();
    if (i % 2 == 0) {
      EXPECT_TRUE(r.status == core::JobStatus::kCancelled ||
                  r.status == core::JobStatus::kCompleted);
    } else {
      EXPECT_EQ(r.status, core::JobStatus::kCompleted);
    }
    if (r.status == core::JobStatus::kCompleted) {
      EXPECT_TRUE(ssam::testing::bits_equal(
          outs[static_cast<std::size_t>(i)].data(), golden.data(),
          static_cast<std::size_t>(golden.size())))
          << "chain job " << i << " completed with corrupted output";
    }
  }
}

TEST(ChaosCancel, CancelDuringDrainLeavesEveryJobTerminal) {
  sim::DeviceGroup group(device_opts(2, 1));
  core::ServerOptions so;
  so.group = &group;
  core::SimServer server(so);

  const core::StencilShape<float> shape = core::star2d<float>(1);
  constexpr int kJobs = 8;
  std::vector<Grid2D<float>> as, bs;
  as.reserve(kJobs);
  bs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    as.emplace_back(128, 96);
    bs.emplace_back(128, 96);
    fill_random(as.back(), 100u + static_cast<unsigned>(i));
  }
  std::vector<core::JobFuture> futs;
  futs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    futs.push_back(server.submit(
        core::SimJob::stencil2d(as[static_cast<std::size_t>(i)],
                                bs[static_cast<std::size_t>(i)], shape, 6)));
  }
  // Drain on one thread while another cancels half the backlog mid-flight:
  // drain must still return, and every future must settle (the cancelled
  // ones either kCancelled, or kCompleted when the cancel lost the race —
  // results are never retracted).
  std::thread drainer([&] { server.drain(); });
  for (int i = 0; i < kJobs; i += 2) futs[static_cast<std::size_t>(i)].cancel();
  drainer.join();
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(futs[static_cast<std::size_t>(i)].wait_for(kTerminalBoundMs));
    const core::JobResult& r = futs[static_cast<std::size_t>(i)].wait();
    if (i % 2 == 0) {
      EXPECT_TRUE(r.status == core::JobStatus::kCancelled ||
                  r.status == core::JobStatus::kCompleted);
      if (r.status == core::JobStatus::kCancelled) {
        EXPECT_EQ(r.error.code, ErrorCode::kCancelled);
      }
    } else {
      EXPECT_EQ(r.status, core::JobStatus::kCompleted);
    }
  }
}

// ---------------------------------------------------------------------------
// Deadlines: shed at admission, expire while queued, cancel while running.
// ---------------------------------------------------------------------------

TEST(ChaosDeadline, PredictedMissShedsAtAdmission) {
  sim::DeviceGroup group(device_opts(1, 1));
  core::ServerOptions so;
  so.group = &group;
  so.shed_on_deadline = true;
  // Pinned calibration makes the shed decision pure arithmetic: any real
  // job's model units x 1.0 ms/unit dwarfs a 5 ms deadline.
  so.shed_calibration_ms_per_unit = 1.0;
  core::SimServer server(so);

  const core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> a(128, 64), b(128, 64);
  fill_random(a, 11);

  core::SimJob doomed = core::SimJob::stencil2d(a, b, shape, 2);
  doomed.deadline_ms = 5.0;
  core::JobFuture shed_fut = server.submit(std::move(doomed));
  const core::JobResult& r = shed_fut.wait();
  EXPECT_EQ(r.status, core::JobStatus::kRejected);
  EXPECT_EQ(r.error.code, ErrorCode::kDeadlineUnmeetable);

  // Deadline-free jobs are never sheddable, whatever the calibration says.
  core::JobFuture free_fut = server.submit(core::SimJob::stencil2d(a, b, shape, 2));
  EXPECT_EQ(free_fut.wait().status, core::JobStatus::kCompleted);
  server.drain();
  const core::SimServer::Stats st = server.stats();
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.rejected, 1u);
}

TEST(ChaosDeadline, LearnedCalibrationShedsDoomedJobs) {
  sim::DeviceGroup group(device_opts(1, 1));
  core::ServerOptions so;
  so.group = &group;
  so.shed_on_deadline = true;  // calibration 0: learned from completed jobs
  core::SimServer server(so);

  const core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> big_a(512, 256), big_b(512, 256);
  fill_random(big_a, 23);
  // Deadline-free large jobs are never shed; their timings teach the
  // ms-per-unit EWMA. The EWMA is a convex mix of these jobs' samples, so a
  // job of the same size is predicted to take at least the fastest of them.
  double fastest_ms = 0.0;
  for (int i = 0; i < 3; ++i) {
    core::JobFuture f = server.submit(core::SimJob::stencil2d(big_a, big_b, shape, 4));
    const core::JobResult& r = f.wait();
    ASSERT_EQ(r.status, core::JobStatus::kCompleted);
    ASSERT_GT(r.exec_ms, 0.0);
    fastest_ms = i == 0 ? r.exec_ms : std::min(fastest_ms, r.exec_ms);
  }

  // All doomed jobs are admitted (or not) before any small job completes and
  // moves the EWMA.
  std::vector<core::JobFuture> doomed, feasible;
  for (int i = 0; i < 4; ++i) {
    core::SimJob j = core::SimJob::stencil2d(big_a, big_b, shape, 4);
    j.deadline_ms = fastest_ms / 10.0;
    doomed.push_back(server.submit(std::move(j)));
  }
  std::vector<Grid2D<float>> small;
  for (int i = 0; i < 8; ++i) small.emplace_back(64, 32);
  for (int i = 0; i < 4; ++i) {
    fill_random(small[2 * i], 31 + static_cast<unsigned>(i));
    core::SimJob s = core::SimJob::stencil2d(small[2 * i], small[2 * i + 1], shape, 2);
    s.deadline_ms = 60000.0;
    feasible.push_back(server.submit(std::move(s)));
  }
  for (core::JobFuture& f : doomed) {
    const core::JobResult& r = f.wait();
    EXPECT_EQ(r.status, core::JobStatus::kRejected);
    EXPECT_EQ(r.error.code, ErrorCode::kDeadlineUnmeetable);
  }
  for (core::JobFuture& f : feasible) {
    ASSERT_TRUE(f.wait_for(kTerminalBoundMs));
    EXPECT_EQ(f.wait().status, core::JobStatus::kCompleted);
  }
  server.drain();
  EXPECT_EQ(server.stats().shed, doomed.size());
  EXPECT_GT(server.stats().shed, 0u);
}

TEST(ChaosDeadline, NoCalibrationNoHistoryMeansNoShedding) {
  sim::DeviceGroup group(device_opts(1, 1));
  core::ServerOptions so;
  so.group = &group;
  so.shed_on_deadline = true;  // calibration 0 and no completed jobs yet
  core::SimServer server(so);

  Grid2D<float> a(64, 32), b(64, 32);
  fill_random(a, 13);
  core::SimJob j = core::SimJob::stencil2d(a, b, core::star2d<float>(1), 2);
  j.deadline_ms = 60000.0;
  core::JobFuture fut = server.submit(std::move(j));
  EXPECT_EQ(fut.wait().status, core::JobStatus::kCompleted);
  server.drain();
  EXPECT_EQ(server.stats().shed, 0u);
}

TEST(ChaosDeadline, QueuedJobExpiresViaWatchdog) {
  sim::DeviceGroup group(device_opts(1, 1));
  core::ServerOptions so;
  so.group = &group;
  so.start_paused = true;  // the job can never dispatch
  so.watchdog_period_ms = 2.0;
  core::SimServer server(so);

  Grid2D<float> a(64, 32), b(64, 32);
  fill_random(a, 17);
  core::SimJob j = core::SimJob::stencil2d(a, b, core::star2d<float>(1), 2);
  j.deadline_ms = 1.0;
  core::JobFuture fut = server.submit(std::move(j));
  ASSERT_TRUE(fut.wait_for(kTerminalBoundMs))
      << "watchdog never expired a queued overdue job";
  const core::JobResult& r = fut.wait();
  EXPECT_EQ(r.status, core::JobStatus::kCancelled);
  EXPECT_EQ(r.error.code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(r.attempts, 0);
  server.drain();
  EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST(ChaosDeadline, RunningJobCancelledAtSweepBoundary) {
  sim::DeviceGroup group(device_opts(1, 1));
  core::ServerOptions so;
  so.group = &group;
  so.watchdog_period_ms = 2.0;
  core::SimServer server(so);

  // Big enough that a 1-worker device cannot finish inside the deadline
  // even on a fast host (~100 ms of work vs a 10 ms deadline): the
  // watchdog must cancel it mid-run and the engine unwind at a sweep
  // boundary instead of running to completion. The cancelled run never
  // executes most of those steps, so the test stays fast.
  Grid2D<float> a(384, 384), b(384, 384);
  fill_random(a, 19);
  core::SimJob j = core::SimJob::stencil2d(a, b, core::star2d<float>(1), 600);
  j.deadline_ms = 10.0;
  core::JobFuture fut = server.submit(std::move(j));
  ASSERT_TRUE(fut.wait_for(kTerminalBoundMs));
  const core::JobResult& r = fut.wait();
  EXPECT_EQ(r.status, core::JobStatus::kCancelled);
  EXPECT_EQ(r.error.code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(r.attempts, 1) << "the cancelled attempt was dispatched";
  server.drain();
}

// ---------------------------------------------------------------------------
// Quarantine: a device-filtered plan makes one device reliably sick; its
// work migrates, the device is quarantined, and a clean probe (after the
// plan is disarmed) reinstates it.
// ---------------------------------------------------------------------------

TEST(ChaosQuarantine, SickDeviceQuarantinedJobsMigrateProbeReinstates) {
  sim::DeviceGroup group(device_opts(4, 1));
  core::ServerOptions so;
  so.group = &group;
  so.max_attempts = 6;
  so.quarantine_after = 2;
  so.retry_backoff_ms = 0.2;
  so.probe_interval_ms = 5.0;
  so.watchdog_period_ms = 2.0;
  core::SimServer server(so);

  const core::StencilShape<float> shape = core::star2d<float>(1);
  constexpr int kJobs = 8;
  std::vector<Grid2D<float>> as, bs, golds;
  for (int i = 0; i < kJobs; ++i) {
    as.emplace_back(96, 64);
    bs.emplace_back(96, 64);
    fill_random(as.back(), 500u + static_cast<unsigned>(i));
    Grid2D<float> ga = as.back(), gb = bs.back();
    (void)core::run_job(sim::tesla_v100(), core::SimJob::stencil2d(ga, gb, shape, 3));
    golds.push_back(std::move(ga));
  }

  // Device 0 faults on EVERY workspace lease; devices 1-3 stay clean.
  core::FaultPlan plan;
  plan.seed = 77;
  plan.device = 0;
  plan.site(core::FaultSite::kWorkspaceLease) = {1.0, true};
  core::FaultInjector::global().set_plan(plan);

  std::vector<core::JobFuture> futs;
  for (int i = 0; i < kJobs; ++i) {
    futs.push_back(server.submit(
        core::SimJob::stencil2d(as[static_cast<std::size_t>(i)],
                                bs[static_cast<std::size_t>(i)], shape, 3)));
  }
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(futs[static_cast<std::size_t>(i)].wait_for(kTerminalBoundMs));
    const core::JobResult& r = futs[static_cast<std::size_t>(i)].wait();
    EXPECT_EQ(r.status, core::JobStatus::kCompleted)
        << "job " << i << " must migrate off the sick device and complete";
    EXPECT_NE(r.device, 0) << "a completed job cannot have finished on the sick device";
    EXPECT_TRUE(ssam::testing::bits_equal(as[static_cast<std::size_t>(i)].data(),
                                    golds[static_cast<std::size_t>(i)].data(),
                                    static_cast<std::size_t>(as[0].size())));
  }
  server.drain();
  {
    const core::SimServer::Stats st = server.stats();
    EXPECT_GE(st.quarantines, 1u);
    EXPECT_GE(st.faulted_attempts, 2u);
    const core::SimServer::DeviceHealth h = server.device_health(0);
    EXPECT_TRUE(h.quarantined) << "probes keep failing while the plan is armed";
    EXPECT_GE(h.faults, 2u);
  }

  // Heal the device: with the plan disarmed the next probe passes and the
  // watchdog reinstates it.
  core::FaultInjector::global().disarm();
  const auto t0 = std::chrono::steady_clock::now();
  while (server.device_health(0).quarantined &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(30)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(server.device_health(0).quarantined)
      << "clean probe never reinstated the device";
  server.drain();
  const core::SimServer::Stats st = server.stats();
  EXPECT_GE(st.probes, 1u);
  EXPECT_GE(st.reinstated, 1u);

  // The reinstated device serves again (single-device packing target when
  // it is the least loaded — just verify a post-reinstate job completes).
  Grid2D<float> a(64, 32), b(64, 32);
  fill_random(a, 999);
  core::JobFuture after = server.submit(core::SimJob::stencil2d(a, b, shape, 2));
  EXPECT_EQ(after.wait().status, core::JobStatus::kCompleted);
}

TEST(ChaosQuarantine, LastHealthyDeviceIsNeverQuarantined) {
  sim::DeviceGroup group(device_opts(1, 1));
  core::ServerOptions so;
  so.group = &group;
  so.max_attempts = 3;
  so.quarantine_after = 1;
  core::SimServer server(so);

  core::FaultPlan plan;
  plan.seed = 5;
  plan.site(core::FaultSite::kWorkspaceLease) = {1.0, true};
  ArmedPlan armed(plan);

  Grid2D<float> a(64, 32), b(64, 32);
  fill_random(a, 23);
  core::JobFuture fut =
      server.submit(core::SimJob::stencil2d(a, b, core::star2d<float>(1), 2));
  const core::JobResult& r = fut.wait();
  EXPECT_EQ(r.status, core::JobStatus::kFailed);  // every attempt faults
  EXPECT_EQ(r.attempts, 3);
  server.drain();
  EXPECT_EQ(server.stats().quarantines, 0u)
      << "quarantining the only device would refuse all service";
  EXPECT_FALSE(server.device_health(0).quarantined);
}

// ---------------------------------------------------------------------------
// The SSAM_FAULT_SPEC mini-language and the error taxonomy plumbing.
// ---------------------------------------------------------------------------

TEST(FaultPlanSpec, ParsesSitesRatesClassesAndFilters) {
  const core::FaultPlan p = core::FaultPlan::parse(
      "seed=42,device=2,sweep=0.05t,lease=0.02,dispatch=0.01p");
  EXPECT_EQ(p.seed, 42u);
  EXPECT_EQ(p.device, 2);
  EXPECT_DOUBLE_EQ(p.site(core::FaultSite::kKernelSweep).rate, 0.05);
  EXPECT_TRUE(p.site(core::FaultSite::kKernelSweep).transient);
  EXPECT_DOUBLE_EQ(p.site(core::FaultSite::kWorkspaceLease).rate, 0.02);
  EXPECT_TRUE(p.site(core::FaultSite::kWorkspaceLease).transient)
      << "transient is the default class";
  EXPECT_DOUBLE_EQ(p.site(core::FaultSite::kDeviceDispatch).rate, 0.01);
  EXPECT_FALSE(p.site(core::FaultSite::kDeviceDispatch).transient);
  EXPECT_DOUBLE_EQ(p.site(core::FaultSite::kHaloSend).rate, 0.0);
  EXPECT_TRUE(p.any());
  // describe() round-trips through parse().
  const core::FaultPlan rt = core::FaultPlan::parse(p.describe());
  EXPECT_EQ(rt.seed, p.seed);
  EXPECT_EQ(rt.device, p.device);
  for (int i = 0; i < core::kFaultSiteCount; ++i) {
    const auto s = static_cast<core::FaultSite>(i);
    EXPECT_DOUBLE_EQ(rt.site(s).rate, p.site(s).rate);
    EXPECT_EQ(rt.site(s).transient, p.site(s).transient);
  }
}

TEST(FaultPlanSpec, EmptyAndMalformedSpecs) {
  EXPECT_FALSE(core::FaultPlan::parse("").any());
  EXPECT_EQ(core::FaultPlan{}.describe(), "off");
  EXPECT_THROW((void)core::FaultPlan::parse("cosmic=0.5"), PreconditionError);
  EXPECT_THROW((void)core::FaultPlan::parse("sweep=1.5"), PreconditionError);
  EXPECT_THROW((void)core::FaultPlan::parse("sweep"), PreconditionError);
}

TEST(FaultPlanSpec, DecisionStreamIsSeedDeterministic) {
  core::FaultInjector& fi = core::FaultInjector::global();
  core::FaultPlan plan;
  plan.seed = 1234;
  plan.site(core::FaultSite::kKernelSweep) = {0.3, true};
  auto draw_n = [&](int n) {
    std::vector<bool> v;
    for (int i = 0; i < n; ++i) v.push_back(fi.should_inject(core::FaultSite::kKernelSweep));
    return v;
  };
  fi.set_plan(plan);
  const std::vector<bool> first = draw_n(64);
  fi.set_plan(plan);  // resets the draw counters
  const std::vector<bool> second = draw_n(64);
  fi.disarm();
  EXPECT_EQ(first, second);
  int fired = 0;
  for (bool b : first) fired += b ? 1 : 0;
  EXPECT_GT(fired, 0) << "a 30% rate that never fires in 64 draws is broken";
  EXPECT_LT(fired, 64);
}

TEST(JobErrorTaxonomy, CodesNamesAndDescribe) {
  const JobError e{ErrorCode::kFaultInjected, true, "boom"};
  EXPECT_FALSE(e.ok());
  EXPECT_TRUE(JobError{}.ok());
  const std::string d = e.describe();
  EXPECT_NE(d.find("boom"), std::string::npos);
  EXPECT_NE(d.find(error_code_name(ErrorCode::kFaultInjected)), std::string::npos);
}

TEST(LogRateLimiterTest, FirstMessagePassesStormIsSuppressedAndCounted) {
  LogRateLimiter limiter(std::chrono::milliseconds(60000));
  EXPECT_TRUE(limiter.allow()) << "the first message must always pass";
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(limiter.allow());
  }
  EXPECT_EQ(limiter.take_suppressed(), 10u);
  EXPECT_EQ(limiter.take_suppressed(), 0u) << "reading resets the count";
}

}  // namespace
