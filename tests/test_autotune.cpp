// Subsystem 9 (core/autotune.hpp): the model-decided pick is golden and
// pure (no measurement, no file), and a tuned run is bit-identical to the
// default schedule's.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/autotune.hpp"
#include "core/job.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/device.hpp"
#include "test_util.hpp"

namespace {

using namespace ssam;
using ssam::testing::ScopedEnv;

/// The tunable job templates of perfbench's serving workloads: 256² grids
/// in 2D, 64×64×32 in 3D.
struct ServeRig {
  Grid2D<float> a2{256, 256}, b2{256, 256};
  Grid3D<float> a3{64, 64, 32}, b3{64, 64, 32};

  [[nodiscard]] std::vector<core::SimJob> tunable_jobs() {
    core::JobHints h;
    h.auto_tune = true;
    const auto stages = [](std::vector<core::StencilShape<float>> shapes) {
      std::vector<core::ChainStage<float>> out;
      for (auto& s : shapes) out.push_back(core::ChainStage<float>::stencil(std::move(s)));
      return out;
    };
    return {
        core::SimJob::stencil2d(a2, b2, core::star2d<float>(1), 8, h),   // 2d5pt
        core::SimJob::stencil2d(a2, b2, core::star2d<float>(2), 8, h),   // 2d9pt
        core::SimJob::stencil2d(a2, b2, core::box2d<float>(5, 5), 4, h),  // 2d25pt
        core::SimJob::stencil3d(a3, b3, core::star3d<float>(1), 2, h),   // 3d7pt
        core::SimJob::chain2d(a2, b2,
                              stages({core::star2d<float>(1), core::star2d<float>(1),
                                      core::star2d<float>(1), core::star2d<float>(1)}),
                              h),  // chain4_star
        core::SimJob::chain2d(a2, b2,
                              stages({core::star2d<float>(1), core::star2d<float>(2),
                                      core::box2d<float>(3, 3), core::star2d<float>(1)}),
                              h),  // chain4_mixed
        core::SimJob::stencil3d(a3, b3, core::box3d<float>(1), 1, h),  // 3d27pt, one sweep
    };
  }
};

TEST(AutotuneModel, PinnedPicksAreGolden) {
  // A one-worker device, as every serving device is. Multi-sweep jobs go
  // persistent on one tile (w = 1); the one-sweep 3d27pt has nothing to
  // keep resident and relaunches.
  sim::DeviceGroup group({sim::DeviceOptions{1, {}, "tune0"}});
  ServeRig rig;
  const std::vector<core::SimJob> jobs = rig.tunable_jobs();
  const core::Schedule persistent1{core::IterationPolicy::kPersistent, 1};
  const core::Schedule relaunch{core::IterationPolicy::kRelaunch, 0};
  core::AutoTuner t1, t2;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const core::Schedule a = t1.resolve(sim::tesla_v100(), jobs[i], &group.device(0));
    const core::Schedule b = t2.resolve(sim::tesla_v100(), jobs[i], &group.device(0));
    EXPECT_TRUE(a == (i + 1 < jobs.size() ? persistent1 : relaunch))
        << "template " << i << ": " << a.describe();
    EXPECT_TRUE(a == b) << "template " << i;
  }
  EXPECT_EQ(t1.stats().measurements, 0u);
  EXPECT_EQ(t2.stats().measurements, 0u);
}

TEST(AutotuneModel, ChainHaloPricedByDeepestStage) {
  // A chain's band layout is sized to its deepest stage, so its halo is
  // priced by the largest stage rows times that stage's t, not by the first
  // stage's shape (which SimJob::chain2d copies into job.shape).
  Grid2D<float> a(64, 64), b(64, 64);
  using Stage = core::ChainStage<float>;
  const core::SimJob shallow_first = core::SimJob::chain2d(
      a, b, {Stage::stencil(core::star2d<float>(1)), Stage::stencil(core::star2d<float>(3)),
             Stage::stencil(core::star2d<float>(2))});
  EXPECT_EQ(core::detail::halo_rows(shallow_first), 7);  // star2d(3): 7 rows

  const core::SimJob fused = core::SimJob::chain2d(
      a, b, {Stage::stencil(core::star2d<float>(2)), Stage::stencil(core::star2d<float>(1), 3)});
  EXPECT_EQ(core::detail::halo_rows(fused), 9);  // star2d(1) at t = 3: 3 rows x 3

  // A stencil job keeps its own rows times hints.t.
  core::JobHints h;
  h.t = 2;
  EXPECT_EQ(core::detail::halo_rows(core::SimJob::stencil2d(a, b, core::star2d<float>(1), 4, h)),
            6);
}

TEST(AutotuneModel, ResolveCreatesNoFile) {
  const std::filesystem::path home =
      std::filesystem::temp_directory_path() / "ssam_autotune_no_file";
  std::filesystem::remove_all(home);
  std::filesystem::create_directories(home);
  {
    ScopedEnv h("HOME", home.c_str());
    ScopedEnv x("XDG_CACHE_HOME", home.c_str());
    sim::DeviceGroup group({sim::DeviceOptions{1, {}, "tune0"}});
    ServeRig rig;
    for (const core::SimJob& job : rig.tunable_jobs()) {
      (void)core::AutoTuner::resolve(sim::tesla_v100(), job);
      (void)core::AutoTuner::resolve(sim::tesla_v100(), job, &group.device(0));
      (void)core::run_job(sim::tesla_v100(), job);
    }
  }
  EXPECT_TRUE(std::filesystem::is_empty(home));
  std::filesystem::remove_all(home);
}

TEST(AutotuneRun, TunedOutputBitIdenticalToDefault) {
  // The tuner only moves bit-safe knobs (policy, tiles), so a tuned job
  // must produce byte-for-byte the output of the default schedule. This
  // goes through run_job + JobHints::auto_tune — the real wiring.
  const sim::ArchSpec arch = sim::tesla_v100();
  const auto shape = core::star2d<float>(2);
  Grid2D<float> da(320, 240), db(320, 240);
  Grid2D<float> ta(320, 240), tb(320, 240);
  fill_random(da, 16);
  fill_random(ta, 16);

  core::SimJob def = core::SimJob::stencil2d(da, db, shape, 7);
  (void)core::run_job(arch, def);

  core::JobHints hints;
  hints.auto_tune = true;
  core::SimJob tuned = core::SimJob::stencil2d(ta, tb, shape, 7, hints);
  (void)core::run_job(arch, tuned);

  ASSERT_EQ(da.size(), ta.size());
  EXPECT_EQ(std::memcmp(da.data(), ta.data(),
                        static_cast<std::size_t>(da.size()) * sizeof(float)),
            0);
}

TEST(AutotuneRun, ConvJobsResolveDefaultWithoutMeasurement) {
  const sim::ArchSpec arch = sim::tesla_v100();
  Grid2D<float> in(96, 96), out(96, 96);
  fill_random(in, 17);
  std::vector<float> filter(9, 1.0f / 9.0f);
  core::JobHints hints;
  hints.policy = core::IterationPolicy::kPersistent;
  hints.tiles = 3;
  const core::SimJob job = core::SimJob::conv2d(in, out, filter, 3, 3, hints);
  const core::Schedule s = core::AutoTuner::resolve(arch, job);
  EXPECT_TRUE(s == (core::Schedule{core::IterationPolicy::kPersistent, 3})) << s.describe();
  EXPECT_EQ(core::AutoTuner::stats().measurements, 0u);
}

TEST(AutotuneSchedule, DescribeNamesEveryKnob) {
  const core::Schedule s{core::IterationPolicy::kPersistent, 8};
  EXPECT_EQ(s.describe(), "policy=persistent tiles=8");
}

}  // namespace
