// The multi-tenant simulation service (core/server.hpp).
//
// Pins the service contracts:
//  * results through the server are bit-identical to direct run_job calls
//    (FNV goldens), under concurrent submission from several client
//    threads at 1, 2, and 4 devices;
//  * per-tenant weighted fair queuing: with weights 3:1 neither tenant is
//    starved beyond its share in any completion prefix;
//  * admission control rejects beyond max_pending and keeps the accepted
//    backlog intact;
//  * a 1-device x 1-worker x 1-slot server cannot deadlock, including
//    persistent-engine jobs (cooperative scheduling from the worker that
//    runs the job);
//  * workspace leases come back warm (a device never holds more arenas
//    than it runs jobs at once);
//  * invalid jobs fail their future with an error instead of killing the
//    server; the resolved SimConfig is printable;
//  * the shed predictor's job cost prices a chain stage by stage and a
//    stencil by its temporal depth.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/grid.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/job.hpp"
#include "core/server.hpp"
#include "core/stencil_shape.hpp"
#include "gpusim/arch.hpp"
#include "test_util.hpp"

namespace {

using namespace ssam;
using ssam::testing::fnv1a;

// One request plus an identical private pair of grids for the direct-call
// golden. deque keeps grid addresses stable while cases accumulate.
struct Case {
  core::JobKind kind = core::JobKind::kStencil2D;
  Grid2D<float> a2{1, 1}, b2{1, 1}, ga2{1, 1}, gb2{1, 1};
  Grid3D<float> a3{1, 1, 1}, b3{1, 1, 1}, ga3{1, 1, 1}, gb3{1, 1, 1};
  core::StencilShape<float> shape;
  std::vector<float> filter;
  int steps = 1;
  core::JobHints hints;
  std::uint64_t golden = 0;

  [[nodiscard]] core::SimJob job(int tenant) {
    core::SimJob j;
    switch (kind) {
      case core::JobKind::kStencil2D:
        j = core::SimJob::stencil2d(a2, b2, shape, steps, hints);
        break;
      case core::JobKind::kStencil3D:
        j = core::SimJob::stencil3d(a3, b3, shape, steps, hints);
        break;
      case core::JobKind::kConv2D:
        j = core::SimJob::conv2d(a2, b2, filter, 3, 3, hints);
        break;
      case core::JobKind::kChain:
        throw std::logic_error("the server rig builds no chain jobs");
    }
    j.tenant = tenant;
    return j;
  }

  /// Hash of the job's output grid after it ran.
  [[nodiscard]] std::uint64_t output_hash() const {
    switch (kind) {
      case core::JobKind::kStencil2D:
        return fnv1a(a2.data(), static_cast<std::size_t>(a2.size()) * sizeof(float));
      case core::JobKind::kStencil3D:
        return fnv1a(a3.data(), static_cast<std::size_t>(a3.size()) * sizeof(float));
      case core::JobKind::kConv2D:
        return fnv1a(b2.data(), static_cast<std::size_t>(b2.size()) * sizeof(float));
      case core::JobKind::kChain:
        break;
    }
    throw std::logic_error("the server rig builds no chain jobs");
  }
};

/// A deterministic mixed-kind, mixed-size case set with direct-call goldens
/// already computed (on the global pool — the server must match bit for bit
/// from its device pools).
std::deque<Case> build_cases(int count, std::uint64_t seed) {
  const auto& arch = sim::tesla_v100();
  std::deque<Case> cases;
  for (int i = 0; i < count; ++i) {
    Case c;
    const int pick = i % 3;
    const std::uint64_t s = seed + static_cast<std::uint64_t>(i);
    if (pick == 0) {
      c.kind = core::JobKind::kStencil2D;
      const Index w = 48 + static_cast<Index>(s % 5) * 17;
      const Index h = 30 + static_cast<Index>(s % 3) * 23;
      c.a2 = Grid2D<float>(w, h);
      fill_random(c.a2, 100 + static_cast<int>(s));
      c.b2 = Grid2D<float>(w, h);
      c.shape = core::star2d<float>(1 + static_cast<int>(s % 2));
      c.steps = 1 + static_cast<int>(s % 4);
      if (s % 2 == 0) c.hints.policy = core::IterationPolicy::kPersistent;
      c.ga2 = c.a2;
      c.gb2 = c.b2;
      core::SimJob g = core::SimJob::stencil2d(c.ga2, c.gb2, c.shape, c.steps, c.hints);
      (void)core::run_job(arch, g);
      c.golden = fnv1a(c.ga2.data(), static_cast<std::size_t>(c.ga2.size()) * sizeof(float));
    } else if (pick == 1) {
      c.kind = core::JobKind::kStencil3D;
      const Index n = 12 + static_cast<Index>(s % 3) * 5;
      c.a3 = Grid3D<float>(n, n + 2, n + 4);
      fill_random(c.a3, 200 + static_cast<int>(s));
      c.b3 = Grid3D<float>(n, n + 2, n + 4);
      c.shape = core::star3d<float>(1);
      c.steps = 1 + static_cast<int>(s % 3);
      c.ga3 = c.a3;
      c.gb3 = c.b3;
      core::SimJob g = core::SimJob::stencil3d(c.ga3, c.gb3, c.shape, c.steps, c.hints);
      (void)core::run_job(arch, g);
      c.golden = fnv1a(c.ga3.data(), static_cast<std::size_t>(c.ga3.size()) * sizeof(float));
    } else {
      c.kind = core::JobKind::kConv2D;
      const Index w = 60 + static_cast<Index>(s % 4) * 13;
      c.a2 = Grid2D<float>(w, 41);
      fill_random(c.a2, 300 + static_cast<int>(s));
      c.b2 = Grid2D<float>(w, 41);
      c.filter.assign(9, 0.0f);
      for (std::size_t k = 0; k < 9; ++k) {
        c.filter[k] = 0.05f + 0.01f * static_cast<float>((s + k) % 7);
      }
      c.ga2 = c.a2;
      c.gb2 = c.b2;
      core::SimJob g = core::SimJob::conv2d(c.ga2, c.gb2, c.filter, 3, 3, c.hints);
      (void)core::run_job(arch, g);
      c.golden = fnv1a(c.gb2.data(), static_cast<std::size_t>(c.gb2.size()) * sizeof(float));
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

// ------------------------------------------------- determinism + concurrency

TEST(SimServerTest, ConcurrentSubmissionMatchesDirectCalls) {
  for (int ndev : {1, 2, 4}) {
    sim::DeviceGroup group(sim::DeviceGroup::even_slices(ndev));
    core::ServerOptions so;
    so.group = &group;
    core::SimServer server(so);
    EXPECT_EQ(server.stats().devices, ndev);

    const int kClients = 4;
    const int kJobsPerClient = 6;
    std::deque<Case> cases = build_cases(kClients * kJobsPerClient,
                                         1000 + static_cast<std::uint64_t>(ndev));
    std::vector<core::JobFuture> futures(cases.size());
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        for (int k = 0; k < kJobsPerClient; ++k) {
          const int idx = t * kJobsPerClient + k;
          futures[static_cast<std::size_t>(idx)] =
              server.submit(cases[static_cast<std::size_t>(idx)].job(t));
        }
      });
    }
    for (auto& c : clients) c.join();

    for (std::size_t i = 0; i < cases.size(); ++i) {
      const core::JobResult& r = futures[i].wait();
      ASSERT_EQ(r.status, core::JobStatus::kCompleted)
          << "ndev=" << ndev << " job " << i << ": " << r.error;
      EXPECT_GE(r.device, 0);
      EXPECT_LT(r.device, ndev);
      EXPECT_EQ(cases[i].output_hash(), cases[i].golden)
          << "ndev=" << ndev << " job " << i << " differs from the direct call";
    }
    server.drain();  // futures resolve before the completion accounting runs
    const core::SimServer::Stats st = server.stats();
    EXPECT_EQ(st.submitted, cases.size());
    EXPECT_EQ(st.completed, cases.size());
    EXPECT_EQ(st.rejected, 0u);
    EXPECT_EQ(st.failed, 0u);
  }
}

// --------------------------------------------------------------- fair queuing

TEST(SimServerTest, WeightedFairQueuingStarvesNoTenant) {
  // One device, one worker, one slot: completion order == dispatch order,
  // so JobResult::seq exposes the scheduler's choices exactly. Tenant 0
  // has weight 3, tenant 1 weight 1; with equal-cost jobs every completion
  // prefix must hold close to a 3:1 split — neither tenant starved.
  sim::DeviceGroup group({sim::DeviceOptions{1, {}, "fair0"}});
  core::ServerOptions so;
  so.group = &group;
  so.max_in_flight_per_device = 1;
  so.start_paused = true;
  core::SimServer server(so);
  server.set_tenant_weight(0, 3.0);
  server.set_tenant_weight(1, 1.0);

  const int kPerTenant = 16;
  const core::StencilShape<float> shape = core::star2d<float>(1);
  std::deque<Grid2D<float>> grids;
  std::vector<core::JobFuture> fut0, fut1;
  for (int tenant : {0, 1}) {
    for (int i = 0; i < kPerTenant; ++i) {
      grids.emplace_back(64, 32);
      fill_random(grids.back(), 40 + i);
      Grid2D<float>& a = grids.back();
      grids.emplace_back(64, 32);
      Grid2D<float>& b = grids.back();
      core::SimJob j = core::SimJob::stencil2d(a, b, shape, 2);
      j.tenant = tenant;
      (tenant == 0 ? fut0 : fut1).push_back(server.submit(j));
    }
  }
  server.drain();

  // Completion sequence numbers of each tenant, in order.
  std::vector<std::uint64_t> seq0, seq1;
  for (const auto& f : fut0) seq0.push_back(f.wait().seq);
  for (const auto& f : fut1) seq1.push_back(f.wait().seq);
  for (int k = 4; k <= 2 * kPerTenant; ++k) {
    const auto upto = static_cast<std::uint64_t>(k);
    const long c0 = std::count_if(seq0.begin(), seq0.end(),
                                  [&](std::uint64_t s) { return s <= upto; });
    const long c1 = std::count_if(seq1.begin(), seq1.end(),
                                  [&](std::uint64_t s) { return s <= upto; });
    EXPECT_GE(c0, std::min<long>(kPerTenant, 3 * k / 4 - 2)) << "prefix " << k;
    EXPECT_GE(c1, std::min<long>(kPerTenant, k / 4 - 2)) << "prefix " << k;
  }
}

// ---------------------------------------------------------- admission control

TEST(SimServerTest, AdmissionControlRejectsBeyondMaxPending) {
  sim::DeviceGroup group({sim::DeviceOptions{1, {}, "adm0"}});
  core::ServerOptions so;
  so.group = &group;
  so.max_pending = 4;
  so.start_paused = true;  // nothing dispatches, so the queue really fills
  core::SimServer server(so);

  const core::StencilShape<float> shape = core::star2d<float>(1);
  std::deque<Grid2D<float>> grids;
  std::vector<core::JobFuture> futures;
  for (int i = 0; i < 10; ++i) {
    grids.emplace_back(48, 24);
    fill_random(grids.back(), i);
    Grid2D<float>& a = grids.back();
    grids.emplace_back(48, 24);
    futures.push_back(server.submit(core::SimJob::stencil2d(a, grids.back(), shape, 1)));
  }
  int rejected = 0;
  for (const auto& f : futures) {
    if (f.ready() && f.wait().status == core::JobStatus::kRejected) ++rejected;
  }
  EXPECT_EQ(rejected, 6);  // 4 admitted, 6 turned away, all before resume
  server.drain();
  for (const auto& f : futures) {
    const core::JobResult& r = f.wait();
    EXPECT_TRUE(r.status == core::JobStatus::kCompleted ||
                r.status == core::JobStatus::kRejected);
  }
  const core::SimServer::Stats st = server.stats();
  EXPECT_EQ(st.submitted, 10u);
  EXPECT_EQ(st.rejected, 6u);
  EXPECT_EQ(st.completed, 4u);
}

// ----------------------------------------------------------- deadlock freedom

TEST(SimServerTest, OneWorkerOneSlotServerCannotDeadlock) {
  // The tightest configuration: every job attempt, kernel fan-out, and
  // persistent tile schedule shares ONE worker thread. The persistent
  // engine's cooperative scheduler and the pool's caller participation
  // must compose with the pool task running the job, or this hangs.
  sim::DeviceGroup group({sim::DeviceOptions{1, {}, "solo"}});
  core::ServerOptions so;
  so.group = &group;
  so.max_in_flight_per_device = 1;
  core::SimServer server(so);

  std::deque<Case> cases = build_cases(12, 7000);
  for (auto& c : cases) {
    if (c.kind == core::JobKind::kStencil2D) {
      c.hints.policy = core::IterationPolicy::kPersistent;  // force resident tiles
    }
  }
  // Goldens were computed before the hint flip; persistent vs relaunch is
  // bit-identical by the engine's core invariant, so they still hold.
  std::vector<core::JobFuture> futures;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    futures.push_back(server.submit(cases[i].job(static_cast<int>(i % 3))));
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const core::JobResult& r = futures[i].wait();
    ASSERT_EQ(r.status, core::JobStatus::kCompleted) << r.error;
    EXPECT_EQ(cases[i].output_hash(), cases[i].golden) << "job " << i;
  }
}

// ----------------------------------------------------------- shutdown churn

TEST(SimServerTest, DestructionDrainRacesCompletionCallbacks) {
  // Regression for a shutdown use-after-free: ~SimServer drains, and the
  // wait used to be satisfiable while the last completion callbacks were
  // still between their slot decrement and their re-pump — two tiny jobs
  // finishing near-simultaneously on different devices could destroy the
  // server under one of them. Churn tiny near-instant jobs through a
  // short-lived server so the final completions keep racing the
  // destructor; ASan/TSan turn any re-opened window into a hard failure.
  for (int iter = 0; iter < 150; ++iter) {
    std::deque<Grid2D<float>> grids;  // outlive the server below
    core::StencilShape<float> shape = core::star2d<float>(1);
    sim::DeviceGroup group(sim::DeviceGroup::even_slices(2));
    core::ServerOptions so;
    so.group = &group;
    core::SimServer server(so);
    std::vector<core::JobFuture> futures;
    for (int j = 0; j < 6; ++j) {
      Grid2D<float>& a = grids.emplace_back(8, 6);
      fill_random(a, 11000 + iter * 8 + j);
      Grid2D<float>& b = grids.emplace_back(8, 6);
      futures.push_back(server.submit(core::SimJob::stencil2d(a, b, shape, 1)));
    }
    // No explicit drain: destruction drains, racing the last callbacks.
  }
}

// ------------------------------------------------------------ workspace reuse

TEST(SimServerTest, WorkspaceLeasesComeBackWarm) {
  // The lease pool's contract: a lease returns its arena to the device's
  // warm pool, so a device never creates more arenas than it runs jobs at
  // once (`max_in_flight_per_device`), however many waves go through it.
  sim::DeviceGroup group(sim::DeviceGroup::even_slices(2));
  core::ServerOptions so;
  so.group = &group;
  core::SimServer server(so);

  constexpr int kWaves = 4;
  constexpr int kJobsPerWave = 8;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::deque<Case> cases = build_cases(kJobsPerWave, 9100 + 100 * wave);
    std::vector<core::JobFuture> futures;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      futures.push_back(server.submit(cases[i].job(0)));
    }
    for (auto& f : futures) EXPECT_EQ(f.wait().status, core::JobStatus::kCompleted);
    server.drain();
  }
  std::uint64_t created = 0;
  for (int d = 0; d < group.size(); ++d) {
    const std::uint64_t dev_created = group.device(d).workspaces_created();
    EXPECT_LE(dev_created, static_cast<std::uint64_t>(so.max_in_flight_per_device))
        << "device " << d << " carved more arenas than it runs jobs at once";
    created += dev_created;
  }
  EXPECT_GT(created, 0u);
  EXPECT_LT(created, static_cast<std::uint64_t>(kWaves * kJobsPerWave))
      << "leased arenas should come back warm, not be carved per job";
}

// ------------------------------------------------------------- failure path

TEST(SimServerTest, InvalidJobFailsItsFutureNotTheServer) {
  sim::DeviceGroup group({sim::DeviceOptions{1, {}, "err0"}});
  core::ServerOptions so;
  so.group = &group;
  core::SimServer server(so);

  Grid2D<float> a(32, 16), b(32, 16);
  fill_random(a, 5);
  core::SimJob bad = core::SimJob::stencil2d(a, b, core::StencilShape<float>{}, 2);
  // Named futures: wait()'s reference lives only as long as some copy of
  // the future does — a temporary dies at the end of the full expression.
  core::JobFuture bad_fut = server.submit(bad);
  const core::JobResult& r = bad_fut.wait();
  EXPECT_EQ(r.status, core::JobStatus::kFailed);
  EXPECT_FALSE(r.error.ok());
  EXPECT_EQ(r.error.code, ErrorCode::kInvalidJob);
  EXPECT_FALSE(r.error.message.empty());

  // The server keeps serving after a failed job.
  Grid2D<float> ga = a, gb = b;
  const core::StencilShape<float> shape = core::star2d<float>(1);
  (void)core::run_job(sim::tesla_v100(), core::SimJob::stencil2d(ga, gb, shape, 2));
  core::JobFuture ok_fut = server.submit(core::SimJob::stencil2d(a, b, shape, 2));
  const core::JobResult& ok = ok_fut.wait();
  EXPECT_EQ(ok.status, core::JobStatus::kCompleted);
  EXPECT_TRUE(ssam::testing::bits_equal(a.data(), ga.data(),
                                        static_cast<std::size_t>(a.size())));
  server.drain();
  const core::SimServer::Stats st = server.stats();
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.completed, 2u);
}

// ------------------------------------------------------------ job cost model

TEST(JobCost, ChainCostsTheSumOfItsStages) {
  // The shed predictor prices a chain stage by stage, not as its first
  // stage times its depth.
  const perf::MicroLatencies lat = perf::from_arch(sim::tesla_v100());
  Grid2D<float> a(64, 48), b(64, 48);
  const double star =
      core::model_units(core::SimJob::stencil2d(a, b, core::star2d<float>(1), 1), lat);
  const double box =
      core::model_units(core::SimJob::stencil2d(a, b, core::box2d<float>(3, 3), 1), lat);
  const double chain = core::model_units(
      core::SimJob::chain2d(a, b,
                            {core::ChainStage<float>::stencil(core::star2d<float>(1)),
                             core::ChainStage<float>::stencil(core::box2d<float>(3, 3))}),
      lat);
  EXPECT_DOUBLE_EQ(chain, star + box);
  EXPECT_GT(chain, 2.0 * star);
}

TEST(JobCost, TemporalDepthScalesStencilCost) {
  const perf::MicroLatencies lat = perf::from_arch(sim::tesla_v100());
  Grid2D<float> a(64, 48), b(64, 48);
  core::JobHints t2;
  t2.t = 2;
  const double one =
      core::model_units(core::SimJob::stencil2d(a, b, core::star2d<float>(1), 3), lat);
  const double two =
      core::model_units(core::SimJob::stencil2d(a, b, core::star2d<float>(1), 3, t2), lat);
  EXPECT_DOUBLE_EQ(two, 2.0 * one);
}

// ----------------------------------------------------------------- SimConfig

TEST(SimConfigTest, ResolvedConfigIsPrintable) {
  const core::SimConfig c = core::config_from_env();
  EXPECT_GE(c.threads, 1);
  EXPECT_GE(c.devices, 1);
  const std::string d = c.describe();
  EXPECT_NE(d.find("threads="), std::string::npos);
  EXPECT_NE(d.find("devices="), std::string::npos);
  EXPECT_NE(d.find("simd="), std::string::npos);
  // The cached process config is the one the server reports.
  sim::DeviceGroup group({sim::DeviceOptions{1, {}, "cfg0"}});
  core::ServerOptions so;
  so.group = &group;
  core::SimServer server(so);
  EXPECT_EQ(server.config().describe(), core::config().describe());
}

}  // namespace
