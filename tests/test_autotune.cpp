// Subsystem 9 (core/autotune.hpp): cache round-trips, host-fingerprint
// invalidation, the bit-identity guarantee of tuned schedules, and the
// determinism of the model-ranked candidate search.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/autotune.hpp"
#include "core/job.hpp"
#include "gpusim/arch.hpp"

namespace {

using namespace ssam;

// The global tuner (reached through JobHints::auto_tune) resolves its cache
// file from SSAM_TUNE_CACHE at first config() use. Point it at a scratch
// file BEFORE anything touches the config so the suite never writes the
// developer's real ~/.cache — unless the caller (the CI cold/warm legs) set
// a path on purpose.
const bool kTuneCacheEnvPinned = [] {
  if (std::getenv("SSAM_TUNE_CACHE") == nullptr) {
    static std::string path =
        (std::filesystem::temp_directory_path() / "ssam_test_global_tune.json")
            .string();
    std::remove(path.c_str());
    ::setenv("SSAM_TUNE_CACHE", path.c_str(), 1);
  }
  return true;
}();

[[nodiscard]] std::string scratch_cache(const char* name) {
  const std::string p =
      (std::filesystem::temp_directory_path() / name).string();
  std::remove(p.c_str());
  return p;
}

[[nodiscard]] core::SimJob star_job(Grid2D<float>& a, Grid2D<float>& b,
                                    int steps) {
  return core::SimJob::stencil2d(a, b, core::star2d<float>(1), steps);
}

TEST(AutotuneCache, RoundTripWriteReloadHit) {
  core::TunerOptions topt;
  topt.cache_path = scratch_cache("ssam_tune_roundtrip.json");
  topt.top_k = 0;  // model-only: fast and fully deterministic
  const sim::ArchSpec arch = sim::tesla_v100();
  Grid2D<float> a(192, 192), b(192, 192);
  fill_random(a, 11);
  const core::SimJob job = star_job(a, b, 8);

  core::AutoTuner tuner(topt);
  const core::TuneResult first = tuner.resolve(arch, job);
  EXPECT_EQ(first.origin, core::TuneOrigin::kModelOnly);
  EXPECT_EQ(tuner.stats().tunes, 1u);

  const core::TuneResult again = tuner.resolve(arch, job);
  EXPECT_EQ(again.origin, core::TuneOrigin::kCacheHit);
  EXPECT_TRUE(again.schedule == first.schedule);

  // A fresh tuner over the same file simulates a new process: the schedule
  // must come back from disk, identical, without re-tuning.
  core::AutoTuner fresh(topt);
  const core::TuneResult reloaded = fresh.resolve(arch, job);
  EXPECT_EQ(reloaded.origin, core::TuneOrigin::kCacheHit);
  EXPECT_TRUE(reloaded.schedule == first.schedule);
  EXPECT_EQ(fresh.stats().tunes, 0u);
  EXPECT_EQ(fresh.stats().measurements, 0u);
}

TEST(AutotuneCache, WarmHitPerformsZeroMeasurements) {
  core::TunerOptions topt;
  topt.cache_path = scratch_cache("ssam_tune_warm.json");
  topt.top_k = 2;
  topt.reps = 1;
  topt.proxy_sweeps = 2;
  const sim::ArchSpec arch = sim::tesla_v100();
  Grid2D<float> a(160, 160), b(160, 160);
  fill_random(a, 12);
  const core::SimJob job = star_job(a, b, 6);

  core::AutoTuner tuner(topt);
  const core::TuneResult cold = tuner.resolve(arch, job);
  EXPECT_EQ(cold.origin, core::TuneOrigin::kMeasured);
  const std::uint64_t measured_after_cold = tuner.stats().measurements;
  EXPECT_GT(measured_after_cold, 0u);

  // The serving-path guarantee: a warm hit never measures.
  const core::TuneResult warm = tuner.resolve(arch, job);
  EXPECT_EQ(warm.origin, core::TuneOrigin::kCacheHit);
  EXPECT_EQ(tuner.stats().measurements, measured_after_cold);
  EXPECT_EQ(tuner.stats().hits, 1u);
}

TEST(AutotuneCache, FingerprintMismatchForcesRetune) {
  const std::string path = scratch_cache("ssam_tune_fingerprint.json");
  const sim::ArchSpec arch = sim::tesla_v100();
  Grid2D<float> a(128, 128), b(128, 128);
  fill_random(a, 13);
  const core::SimJob job = star_job(a, b, 5);

  core::TunerOptions host_a;
  host_a.cache_path = path;
  host_a.top_k = 0;
  host_a.fingerprint_override = "threads=4 devices=2 pin=off simd=avx2 hw=8";
  core::AutoTuner tuner_a(host_a);
  (void)tuner_a.resolve(arch, job);
  EXPECT_EQ(tuner_a.stats().tunes, 1u);

  // Same cache file read on a "different host": the entry must be ignored
  // and re-tuned, not trusted.
  core::TunerOptions host_b = host_a;
  host_b.fingerprint_override = "threads=64 devices=8 pin=on simd=neon hw=64";
  core::AutoTuner tuner_b(host_b);
  const core::TuneResult rb = tuner_b.resolve(arch, job);
  EXPECT_NE(rb.origin, core::TuneOrigin::kCacheHit);
  EXPECT_EQ(tuner_b.stats().hits, 0u);
  EXPECT_EQ(tuner_b.stats().tunes, 1u);

  // And the re-tuned entry now serves host B.
  core::AutoTuner tuner_b2(host_b);
  EXPECT_EQ(tuner_b2.resolve(arch, job).origin, core::TuneOrigin::kCacheHit);
}

TEST(AutotuneSearch, SeededCandidateRankingIsDeterministic) {
  core::TunerOptions topt;
  topt.cache_path = "off";
  const sim::ArchSpec arch = sim::tesla_v100();
  Grid2D<float> a(256, 200), b(256, 200);
  fill_random(a, 14);
  const core::SimJob job = star_job(a, b, 12);

  core::AutoTuner tuner(topt);
  const auto first = tuner.candidates(arch, job, /*allow_shards=*/true);
  const auto second = tuner.candidates(arch, job, /*allow_shards=*/true);
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(first[i].schedule == second[i].schedule) << "rank " << i;
    EXPECT_EQ(first[i].predicted_ms, second[i].predicted_ms) << "rank " << i;
  }
  // Ranked best-first, and every predicted cost is positive and finite.
  for (std::size_t i = 1; i < first.size(); ++i) {
    EXPECT_LE(first[i - 1].predicted_ms, first[i].predicted_ms);
  }
  for (const auto& c : first) EXPECT_GT(c.predicted_ms, 0.0);
  // Relaunch runs on one pool whatever the shard count: a single candidate.
  for (const auto& c : first) {
    EXPECT_FALSE(c.schedule.policy == core::IterationPolicy::kRelaunch &&
                 c.schedule.shards > 0)
        << c.schedule.describe();
  }

  // Two independently constructed tuners (same seed) pick the same winner
  // in model-only mode — the search itself carries no hidden state.
  core::TunerOptions model_only = topt;
  model_only.top_k = 0;
  core::AutoTuner t1(model_only), t2(model_only);
  EXPECT_TRUE(t1.resolve(arch, job).schedule == t2.resolve(arch, job).schedule);
}

TEST(AutotuneSearch, PinnedScopeNeverShards) {
  core::TunerOptions topt;
  topt.cache_path = "off";
  core::AutoTuner tuner(topt);
  const sim::ArchSpec arch = sim::tesla_v100();
  Grid2D<float> a(128, 128), b(128, 128);
  fill_random(a, 15);
  const core::SimJob job = star_job(a, b, 4);
  for (const auto& c : tuner.candidates(arch, job, /*allow_shards=*/false)) {
    EXPECT_EQ(c.schedule.shards, 0);
  }
}

TEST(AutotuneRun, TunedOutputBitIdenticalToDefault) {
  // The tuner only moves bit-safe knobs (policy, tiles, shards), so a tuned
  // job must produce byte-for-byte the output of the default schedule. This
  // goes through run_job + JobHints::auto_tune — the real wiring, global
  // tuner included (its cache is pinned to a scratch file above).
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
  core::TunerOptions topt;
  topt.cache_path = "off";
  core::AutoTuner tuner(topt);
  const sim::ArchSpec arch = sim::tesla_v100();
  Grid2D<float> in(96, 96), out(96, 96);
  fill_random(in, 17);
  std::vector<float> filter(9, 1.0f / 9.0f);
  const core::SimJob job = core::SimJob::conv2d(in, out, filter, 3, 3);
  const core::TuneResult r = tuner.resolve(arch, job);
  EXPECT_EQ(r.origin, core::TuneOrigin::kDefault);
  EXPECT_EQ(tuner.stats().measurements, 0u);
  EXPECT_EQ(tuner.stats().tunes, 0u);
}

TEST(AutotuneCache, MalformedCacheFileStartsEmptyAndRecovers) {
  core::TunerOptions topt;
  topt.cache_path = scratch_cache("ssam_tune_corrupt.json");
  topt.top_k = 0;
  {
    std::ofstream out(topt.cache_path);
    out << "this is not json {{{";
  }
  const sim::ArchSpec arch = sim::tesla_v100();
  Grid2D<float> a(96, 96), b(96, 96);
  fill_random(a, 18);
  const core::SimJob job = star_job(a, b, 3);

  core::AutoTuner tuner(topt);
  const core::TuneResult r = tuner.resolve(arch, job);
  EXPECT_EQ(r.origin, core::TuneOrigin::kModelOnly);  // tuned, didn't crash

  // The rewritten file must now parse as a valid cache.
  core::AutoTuner fresh(topt);
  EXPECT_EQ(fresh.resolve(arch, job).origin, core::TuneOrigin::kCacheHit);
}

/// The whole file, or "" when it cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// True when `body` is one complete cache file as save_locked writes it.
[[nodiscard]] bool complete_cache_file(const std::string& body) {
  const std::string head = "{\n  \"version\": 1,";
  const std::string tail = "\n  ]\n}\n";
  return body.size() >= head.size() + tail.size() && body.rfind(head, 0) == 0 &&
         body.compare(body.size() - tail.size(), tail.size(), tail) == 0;
}

TEST(AutotuneCache, ConcurrentTunersSharingOnePathNeverPublishTornFiles) {
  // Several tuners on one cache path resolve disjoint jobs from their own
  // threads; every miss rewrites the file. Each write goes through its own
  // temp file, so the file a reader sees is always one writer's complete
  // cache, and afterwards a fresh tuner finds every entry of the writer
  // that renamed last (its final write holds all of its own jobs).
  const std::string path = scratch_cache("ssam_tune_concurrent.json");
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  const auto is_temp = [](const std::filesystem::directory_entry& e) {
    return e.path().filename().string().rfind("ssam_tune_concurrent.json.tmp", 0) == 0;
  };
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (is_temp(entry)) std::filesystem::remove(entry.path());
  }
  constexpr std::size_t kTuners = 4;
  constexpr int kRounds = 48;
  core::TunerOptions topt;
  topt.cache_path = path;
  topt.top_k = 0;
  const sim::ArchSpec arch = sim::tesla_v100();

  // One grid pair per tuner: the job key carries the grid shape, so the
  // tuners' keys are disjoint; step count r + 1 makes every round a miss.
  std::vector<std::unique_ptr<Grid2D<float>>> grids;
  std::vector<std::unique_ptr<core::AutoTuner>> tuners;
  for (std::size_t i = 0; i < kTuners; ++i) {
    for (int k = 0; k < 2; ++k) {
      grids.push_back(std::make_unique<Grid2D<float>>(64 + 16 * static_cast<Index>(i), 64));
    }
    tuners.push_back(std::make_unique<core::AutoTuner>(topt));
    (void)tuners.back()->model(arch);  // calibrate serially, off the race
  }
  const auto job = [&](std::size_t i, int r) {
    return star_job(*grids[2 * i], *grids[2 * i + 1], r + 1);
  };

  std::atomic<bool> writing{true};
  int torn_reads = 0;
  std::thread reader([&] {
    while (writing.load()) {
      const std::string body = read_file(path);
      if (!body.empty() && !complete_cache_file(body)) ++torn_reads;
    }
  });
  std::vector<std::thread> writers;
  for (std::size_t i = 0; i < kTuners; ++i) {
    writers.emplace_back([&, i] {
      for (int r = 0; r < kRounds; ++r) (void)tuners[i]->resolve(arch, job(i, r));
    });
  }
  for (std::thread& t : writers) t.join();
  writing.store(false);
  reader.join();

  EXPECT_EQ(torn_reads, 0);
  EXPECT_TRUE(complete_cache_file(read_file(path)));
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_FALSE(is_temp(entry)) << "leftover temp file " << entry.path();
  }
  core::AutoTuner fresh(topt);
  int complete_writers = 0;
  for (std::size_t i = 0; i < kTuners; ++i) {
    int hits = 0;
    for (int r = 0; r < kRounds; ++r) {
      if (fresh.resolve(arch, job(i, r)).origin == core::TuneOrigin::kCacheHit) ++hits;
    }
    if (hits == kRounds) ++complete_writers;
  }
  EXPECT_GE(complete_writers, 1);
}

TEST(AutotuneSchedule, DescribeNamesEveryKnob) {
  core::Schedule s;
  s.policy = core::IterationPolicy::kPersistent;
  s.tiles = 8;
  s.shards = 2;
  s.t = 3;
  s.threads = 4;
  const std::string d = s.describe();
  EXPECT_NE(d.find("policy=persistent"), std::string::npos);
  EXPECT_NE(d.find("tiles=8"), std::string::npos);
  EXPECT_NE(d.find("shards=2"), std::string::npos);
  EXPECT_NE(d.find("t=3"), std::string::npos);
  EXPECT_NE(d.find("threads=4"), std::string::npos);
}

}  // namespace
