// Common utilities: grids/views/border policy, RNG determinism, stats,
// tables, paper-data registry consistency.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/grid.hpp"
#include "core/config.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/stencil_suite.hpp"
#include "paperdata/paper_values.hpp"
#include "test_util.hpp"

namespace {

using namespace ssam;
using ssam::testing::env_positive_int;
using ssam::testing::ScopedEnv;

TEST(Grid2D, RowMajorLayoutAndViews) {
  Grid2D<int> g(4, 3);
  int v = 0;
  for (Index y = 0; y < 3; ++y) {
    for (Index x = 0; x < 4; ++x) g.at(x, y) = v++;
  }
  EXPECT_EQ(g.data()[5], g.at(1, 1));
  const GridView2D<const int> view = g.cview();
  EXPECT_EQ(view.at(3, 2), 11);
  EXPECT_EQ(view.pitch(), 4);
}

TEST(Grid2D, BorderPolicies) {
  Grid2D<int> g(3, 2);
  g.at(0, 0) = 7;
  g.at(2, 1) = 9;
  const auto view = g.cview();
  EXPECT_EQ(view.read(-5, -5, Border::kClamp), 7);
  EXPECT_EQ(view.read(10, 10, Border::kClamp), 9);
  EXPECT_EQ(view.read(-1, 0, Border::kZero), 0);
  EXPECT_EQ(view.read(0, 0, Border::kZero), 7);
}

TEST(Grid3D, SliceSharesStorage) {
  Grid3D<float> g(4, 3, 2);
  g.at(1, 2, 1) = 5.0f;
  const GridView2D<float> slice = g.view().slice(1);
  EXPECT_EQ(slice.at(1, 2), 5.0f);
  slice.at(0, 0) = 3.0f;
  EXPECT_EQ(g.at(0, 0, 1), 3.0f);
}

TEST(Grid, RejectsEmptyExtents) {
  EXPECT_THROW(Grid2D<int>(0, 5), PreconditionError);
  EXPECT_THROW((Grid3D<int>(4, 0, 4)), PreconditionError);
}

TEST(Rng, DeterministicAcrossRuns) {
  std::vector<double> a(100), b(100);
  fill_random(a, 123);
  fill_random(b, 123);
  EXPECT_EQ(a, b);
  fill_random(b, 124);
  EXPECT_NE(a, b);
}

TEST(Rng, RangeRespected) {
  std::vector<float> v(10000);
  fill_random(v, 9, 2.0, 3.0);
  for (float x : v) {
    ASSERT_GE(x, 2.0f);
    ASSERT_LT(x, 3.0f);
  }
}

TEST(Stats, DiffMetrics) {
  std::vector<float> a = {1.0f, 2.0f, 3.0f};
  std::vector<float> b = {1.0f, 2.5f, 3.0f};
  EXPECT_FLOAT_EQ(max_abs_diff<float>(a, b), 0.5f);
  EXPECT_NEAR(normalized_max_diff<float>(a, b), 0.5 / 3.0, 1e-7);
  EXPECT_THROW((void)max_abs_diff<float>(a, std::vector<float>{1.0f}), PreconditionError);
}

TEST(Stats, RunningStats) {
  RunningStats s;
  for (double v : {2.0, 4.0, 6.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
}

TEST(Table, AlignsColumns) {
  ConsoleTable t({"a", "long-header"});
  t.add_row({"x"});
  t.add_row({"longer-cell", "y"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| a           | long-header |"), std::string::npos);
  EXPECT_NE(s.find("| longer-cell | y           |"), std::string::npos);
}

TEST(PaperData, Table3MatchesSuiteRegistry) {
  // Every Table 3 row must have a suite shape with the same order; fpp is
  // recorded verbatim in the shape metadata.
  for (const auto& row : paper::table3()) {
    const auto shape = core::suite_stencil<float>(row.benchmark);
    EXPECT_EQ(shape.order, row.k) << row.benchmark;
    EXPECT_EQ(shape.fpp_paper, row.fpp) << row.benchmark;
  }
}

TEST(PaperData, QuotedResultsSane) {
  EXPECT_EQ(paper::table1().size(), 4u);
  EXPECT_EQ(paper::table2().size(), 2u);
  EXPECT_EQ(paper::table3().size(), 15u);
  for (const auto& q : paper::quoted_temporal_results()) EXPECT_GT(q.gcells_per_s, 0.0);
  EXPECT_EQ(paper::cufft_runtimes().size(), 2u);
}

TEST(CeilDiv, Basics) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 100), 1);
}

TEST(Config, MalformedThreadsThrowsInsteadOfSilentFallback) {
  // std::atoi would have turned "four" into 0 and silently used the
  // hardware default; strict from_chars parsing must refuse it, naming the
  // variable like the SSAM_FAULT_SPEC grammar does.
  for (const char* bad : {"four", "2x", "0", "-3", " 4", "4 "}) {
    ScopedEnv env("SSAM_THREADS", bad);
    EXPECT_THROW((void)core::config_from_env(), PreconditionError) << bad;
    try {
      (void)core::config_from_env();
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("SSAM_THREADS"), std::string::npos);
    }
  }
}

TEST(Config, MalformedDevicesThrows) {
  for (const char* bad : {"2x", "two", "0", "-1", "1.5"}) {
    ScopedEnv env("SSAM_DEVICES", bad);
    EXPECT_THROW((void)core::config_from_env(), PreconditionError) << bad;
  }
}

TEST(Config, MalformedDevicePinThrows) {
  // std::atoi(v) > 0 read "yes" and "true" as off and "1x" as on; the flag
  // now takes exactly 0 or 1.
  for (const char* bad : {"yes", "true", "on", "1x", "2", "-1", " 1"}) {
    ScopedEnv env("SSAM_DEVICE_PIN", bad);
    EXPECT_THROW((void)core::config_from_env(), PreconditionError) << bad;
    try {
      (void)core::config_from_env();
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("SSAM_DEVICE_PIN"), std::string::npos);
    }
  }
  {
    ScopedEnv env("SSAM_DEVICE_PIN", "1");
    EXPECT_TRUE(core::config_from_env().device_pin);
  }
  for (const char* off : {"0", ""}) {
    ScopedEnv env("SSAM_DEVICE_PIN", off);
    EXPECT_FALSE(core::config_from_env().device_pin) << off;
  }
}

TEST(Config, WellFormedEnvValuesParse) {
  ScopedEnv threads("SSAM_THREADS", "3");
  ScopedEnv devices("SSAM_DEVICES", "5");
  const core::SimConfig c = core::config_from_env();
  EXPECT_EQ(c.threads, 3);
  EXPECT_EQ(c.devices, 5);
}

TEST(Config, EmptyEnvValueFallsBackToDefault) {
  // An empty assignment (SSAM_THREADS= ./run) means "unset" by shell
  // convention, not "malformed".
  ScopedEnv threads("SSAM_THREADS", "");
  ScopedEnv devices("SSAM_DEVICES", "");
  const core::SimConfig c = core::config_from_env();
  EXPECT_GE(c.threads, 1);
  EXPECT_EQ(c.devices, 2);
}

TEST(TestKnobs, MalformedCaseCountsFailLoudly) {
  // The differential suites read SSAM_SHARD_CASES / SSAM_CHAIN_CASES through
  // this helper. std::atoi read "4O" as 4 and "0" as the fallback, so a
  // typo in a sanitizer leg that pins 40 cases silently ran 200.
  for (const char* name : {"SSAM_SHARD_CASES", "SSAM_CHAIN_CASES"}) {
    for (const char* bad : {"4O", "0"}) {
      ScopedEnv env(name, bad);
      try {
        (void)env_positive_int(name, 200);
        ADD_FAILURE() << name << "=" << bad << " was accepted";
      } catch (const PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
      }
    }
    {
      ScopedEnv env(name, "40");
      EXPECT_EQ(env_positive_int(name, 200), 40);
    }
    {
      ScopedEnv env(name, "");
      EXPECT_EQ(env_positive_int(name, 200), 200);
    }
  }
}

}  // namespace
