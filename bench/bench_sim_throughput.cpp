// Host-side functional-mode simulator throughput: blocks/sec and lane-ops/sec
// per kernel, written to BENCH_sim_throughput.json so the throughput is tracked
// across PRs.
//
// Simulation throughput is the binding constraint on how large a grid, how
// many filter shapes, and how many architectures the harness can sweep, so
// this bench measures the *simulator's own* speed (not the simulated GPU's).
// The *persistent_vs_relaunch* scenario compares the two iteration models
// for temporal stencils over the same 32 plain time steps (at 1 worker and
// at >= 4 workers): the per-step relaunch path must fuse t=4 steps with the
// ghost-zone temporal kernel to amortize the per-step global-array
// round-trip, paying its halo redundancy (3x row reload, 8 dead lanes per
// warp); the persistent engine (core/iterate_persistent.hpp) keeps tiles
// resident across steps and exchanges exact halos through lock-free
// channels, so it advances step by step with no ghost zones. The scenario
// also runs the persistent engine at the *same* t as the relaunch path and
// checks both models produce bit-identical outputs (the same-t speedup is
// reported alongside the headline one, and the exact-exchange result is
// verified against a plain per-step reference).
// The *sharded_vs_single* scenario runs the persistent engine sharded
// across a virtual device group (core/shard.hpp + gpusim/device.hpp) at 2
// and 4 devices against the one-pool run, and gates on the sharded outputs
// being bit-identical to the single-device ones under both policies.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/autotune.hpp"
#include "core/chain.hpp"
#include "core/job.hpp"
#include "core/conv2d.hpp"
#include "core/gemm.hpp"
#include "core/iterate_persistent.hpp"
#include "core/scan.hpp"
#include "core/shard.hpp"
#include "core/stencil2d.hpp"
#include "core/stencil2d_temporal.hpp"
#include "core/stencil3d.hpp"
#include "core/stencil_shape.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/simd/simd.hpp"

namespace {

using namespace ssam;

// ===========================================================================
// Measurement harness
// ===========================================================================

struct KernelResult {
  std::string name;
  long long blocks = 0;
  double cells = 0.0;
  double flops_per_cell = 0.0;
  double seconds = 0.0;     ///< best-of per-rep wall time
  int host_threads = 0;     ///< per-row override (the persistent rows run wider)

  // persistent_vs_relaunch scenario only.
  int steps = 0;                    ///< plain time steps advanced per rep
  int tiles = 0;                    ///< resident tiles of the persistent run
  double relaunch_seconds = 0.0;    ///< ghost-zone temporal relaunch (t=4)
  double same_t_seconds = 0.0;      ///< persistent at the relaunch path's t
  double relaunch_t1_seconds = 0.0; ///< plain per-step relaunch reference
  int bit_identical = -1;           ///< 1 when every parity memcmp held

  // sharded_vs_single scenario only.
  int shard_devices = 0;            ///< virtual devices of the sharded run
  double single_seconds = 0.0;      ///< same run on one pool (the baseline)

  // chain_fused_vs_staged scenario only.
  double staged_seconds = 0.0;      ///< one launch per stage (the reference)

  // autotuned_vs_default scenario only.
  double default_seconds = 0.0;     ///< default schedule (run_job, no hints)
  double best_seconds = 0.0;        ///< best hand-tuned schedule of the sweep
  int tune_measurements = 0;        ///< measurements spent by the cold tune
  int warm_zero_measure = -1;       ///< 1 when the warm cache hit measured nothing

  [[nodiscard]] double blocks_per_sec() const {
    return static_cast<double>(blocks) / seconds;
  }
  [[nodiscard]] double cells_per_sec() const { return cells / seconds; }
  [[nodiscard]] double lane_ops_per_sec() const {
    return cells * flops_per_cell / seconds;
  }
  [[nodiscard]] double steps_per_sec() const {
    return steps > 0 ? steps / seconds : 0.0;
  }
  [[nodiscard]] double persistent_speedup() const {
    return relaunch_seconds > 0.0 ? relaunch_seconds / seconds : 0.0;
  }
  [[nodiscard]] double same_t_speedup() const {
    return same_t_seconds > 0.0 ? relaunch_seconds / same_t_seconds : 0.0;
  }
  [[nodiscard]] double sharded_speedup() const {
    return single_seconds > 0.0 ? single_seconds / seconds : 0.0;
  }
  [[nodiscard]] double fused_speedup() const {
    return staged_seconds > 0.0 ? staged_seconds / seconds : 0.0;
  }
  /// >= 1: the tuned schedule is at least as fast as the default one.
  [[nodiscard]] double autotuned_vs_default() const {
    return default_seconds > 0.0 ? default_seconds / seconds : 0.0;
  }
  /// <= 1 by construction (best is the sweep winner); ~0.9 means the tuner
  /// landed within 10% of the best hand-tuned schedule.
  [[nodiscard]] double autotuned_vs_best() const {
    return best_seconds > 0.0 ? best_seconds / seconds : 0.0;
  }
};

/// Runs fn repeatedly and returns the best per-rep wall time (seconds).
template <typename Fn>
double best_time(Fn&& fn, int reps = 3) {
  double best = 1e100;
  fn();  // warm-up
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// Times two alternatives with interleaved reps (A B A B ...) so host load
/// drift hits both equally, and returns their best per-rep times. The
/// speedup quoted from these is robust against slow monotone noise.
template <typename FnA, typename FnB>
std::pair<double, double> best_time_interleaved(FnA&& a, FnB&& b, int reps = 5) {
  double best_a = 1e100;
  double best_b = 1e100;
  a();  // warm-up both
  b();
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    a();
    auto t1 = std::chrono::steady_clock::now();
    b();
    auto t2 = std::chrono::steady_clock::now();
    best_a = std::min(best_a, std::chrono::duration<double>(t1 - t0).count());
    best_b = std::min(best_b, std::chrono::duration<double>(t2 - t1).count());
  }
  return {best_a, best_b};
}

/// Writes the results as JSON; false (after reporting on stderr) when the
/// file cannot be opened or written.
bool write_json(const std::vector<KernelResult>& results, int kernel_threads,
                int overlap_threads, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"sim_throughput\",\n  \"mode\": \"functional\",\n");
  std::fprintf(f, "  \"simd_backend\": \"%s\",\n", ssam::sim::simd::kBackendName);
  // Per-kernel numbers are pinned to one worker for regression stability;
  // the wider persistent, chain and autotuner rows run at
  // overlap_host_threads workers.
  std::fprintf(f, "  \"host_threads\": %d,\n  \"overlap_host_threads\": %d,\n  \"kernels\": [\n",
               kernel_threads, overlap_threads);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"blocks\": %lld, \"seconds\": %.6f, "
                 "\"blocks_per_sec\": %.1f, \"cells_per_sec\": %.1f, "
                 "\"lane_ops_per_sec\": %.1f",
                 r.name.c_str(), r.blocks, r.seconds, r.blocks_per_sec(),
                 r.cells_per_sec(), r.lane_ops_per_sec());
    if (r.host_threads > 0) {
      std::fprintf(f, ", \"host_threads\": %d", r.host_threads);
    }
    if (r.steps > 0) {
      std::fprintf(f, ", \"steps\": %d, \"steps_per_sec\": %.2f, \"tiles\": %d", r.steps,
                   r.steps_per_sec(), r.tiles);
      if (r.relaunch_seconds > 0.0) {
        std::fprintf(f,
                     ", \"relaunch_seconds\": %.6f, \"relaunch_steps_per_sec\": %.2f, "
                     "\"persistent_speedup\": %.2f",
                     r.relaunch_seconds, r.steps / r.relaunch_seconds,
                     r.persistent_speedup());
      }
      if (r.same_t_seconds > 0.0) {
        std::fprintf(f, ", \"same_t_seconds\": %.6f, \"same_t_speedup\": %.2f",
                     r.same_t_seconds, r.same_t_speedup());
      }
      if (r.relaunch_t1_seconds > 0.0) {
        std::fprintf(f, ", \"relaunch_t1_seconds\": %.6f", r.relaunch_t1_seconds);
      }
    }
    if (r.shard_devices > 0) {
      std::fprintf(f,
                   ", \"shard_devices\": %d, \"single_seconds\": %.6f, "
                   "\"sharded_speedup\": %.2f",
                   r.shard_devices, r.single_seconds, r.sharded_speedup());
    }
    if (r.default_seconds > 0.0) {
      std::fprintf(f,
                   ", \"default_seconds\": %.6f, \"best_seconds\": %.6f, "
                   "\"autotuned_vs_default\": %.2f, \"autotuned_vs_best\": %.2f, "
                   "\"tune_measurements\": %d, "
                   "\"warm_cache_zero_measurements\": %s",
                   r.default_seconds, r.best_seconds, r.autotuned_vs_default(),
                   r.autotuned_vs_best(), r.tune_measurements,
                   r.warm_zero_measure != 0 ? "true" : "false");
    }
    if (r.staged_seconds > 0.0) {
      std::fprintf(f,
                   ", \"staged_seconds\": %.6f, \"staged_steps_per_sec\": %.2f, "
                   "\"fused_speedup\": %.2f",
                   r.staged_seconds, r.steps / r.staged_seconds, r.fused_speedup());
    }
    if (r.bit_identical >= 0) {
      std::fprintf(f, ", \"bit_identical\": %s", r.bit_identical != 0 ? "true" : "false");
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::printf("wrote %s\n", path);
  return true;
}

/// One single-kernel row: `run` executes the kernel once and returns its
/// block count; the row records the best of 5 reps.
template <typename Run>
KernelResult kernel_row(const char* name, double cells, double flops_per_cell, Run&& run) {
  KernelResult r;
  r.name = name;
  r.cells = cells;
  r.flops_per_cell = flops_per_cell;
  r.seconds = best_time([&] { r.blocks = run(); }, 5);
  std::printf("%-24s %10.3f ms\n", r.name.c_str(), r.seconds * 1e3);
  return r;
}

// ---------------------------------------------------------------------------
// persistent_vs_relaunch: same 32 plain time steps of the star-1 stencil on
// a 2048^2 grid under both iteration models, at the current pool size.
//  * relaunch   — the per-step path for temporal stencils: one launch of the
//    t=4 ghost-zone kernel per fused sweep, full global-array round trip
//    between sweeps (headline baseline, `relaunch_seconds`).
//  * persistent — resident tiles with exact per-step halo exchange (t=1,
//    `seconds`), plus the same-t=4 configuration whose output must be
//    bit-identical to the relaunch path (`same_t_seconds`).
// A plain per-step relaunch reference (`relaunch_t1_seconds`) is recorded
// for completeness, and the exact-exchange persistent result is verified
// bit-for-bit against it. Returns bit_identical = 0 on any mismatch (the
// caller exits nonzero, failing the CI gate).
KernelResult persistent_vs_relaunch(const sim::ArchSpec& arch, const char* name) {
  using namespace ssam;
  const Index n = 2048;
  const int t = 4;
  const int sweeps = 8;  // 32 plain steps per rep
  const core::StencilShape<float> shape = core::star2d<float>(1);
  const core::SystolicPlan<float> plan = core::build_plan(shape.taps);
  Grid2D<float> src(n, n);
  fill_random(src, 21);

  core::TemporalSsamOptions topt;
  topt.t = t;
  Grid2D<float> ra = src, rb(n, n);
  auto relaunch_t4 = [&] {
    for (int s = 0; s < sweeps; ++s) {
      (void)core::stencil2d_ssam_temporal<float>(arch, ra.cview(), plan, rb.view(), topt);
      std::swap(ra, rb);
    }
  };
  Grid2D<float> pa = src, pb(n, n);
  core::PersistentOptions popt;
  popt.policy = core::IterationPolicy::kPersistent;
  core::PersistentRunStats pstats;
  auto persistent_t1 = [&] {
    pstats = core::iterate_stencil2d_persistent<float>(arch, pa, pb, shape, t * sweeps,
                                                       popt);
  };

  KernelResult r;
  r.name = name;
  r.steps = t * sweeps;
  r.cells = static_cast<double>(n) * n * r.steps;
  r.flops_per_cell = 2.0 * static_cast<double>(shape.taps.size()) - 1.0;
  const auto [pers, relaunch] = best_time_interleaved(persistent_t1, relaunch_t4, 5);
  r.seconds = pers;
  r.relaunch_seconds = relaunch;
  r.tiles = pstats.tiles;
  // Blocks of the equivalent plain sweeps, so blocks_per_sec tracks the
  // persistent path's throughput in the regression gate.
  const core::StencilOptions plain_opt;
  const auto s1 = core::detail::stencil2d_setup(src.cview(), plan, plain_opt);
  r.blocks = static_cast<long long>(s1.cfg.grid.count()) * r.steps;

  // Same-t persistent run: must match the relaunch output bit for bit.
  core::PersistentOptions popt4 = popt;
  popt4.t = t;
  Grid2D<float> qa = src, qb(n, n);
  r.same_t_seconds = best_time(
      [&] {
        (void)core::iterate_stencil2d_persistent<float>(arch, qa, qb, shape, sweeps,
                                                        popt4);
      },
      3);

  // Plain per-step relaunch reference; the exact-exchange persistent result
  // must match it bit for bit.
  Grid2D<float> ta = src, tb(n, n);
  r.relaunch_t1_seconds = best_time(
      [&] {
        for (int s = 0; s < t * sweeps; ++s) {
          (void)core::stencil2d_ssam<float>(arch, ta.cview(), plan, tb.view(), plain_opt);
          std::swap(ta, tb);
        }
      },
      3);

  // Parity checks on fresh single runs from the same source state.
  const std::size_t bytes = static_cast<std::size_t>(src.size()) * sizeof(float);
  Grid2D<float> ca = src, cb(n, n), da = src, db(n, n);
  for (int s = 0; s < sweeps; ++s) {
    (void)core::stencil2d_ssam_temporal<float>(arch, ca.cview(), plan, cb.view(), topt);
    std::swap(ca, cb);
  }
  (void)core::iterate_stencil2d_persistent<float>(arch, da, db, shape, sweeps, popt4);
  const bool same_t_ok = 0 == std::memcmp(ca.data(), da.data(), bytes);

  Grid2D<float> ea = src, eb(n, n), fa = src, fb(n, n);
  for (int s = 0; s < t * sweeps; ++s) {
    (void)core::stencil2d_ssam<float>(arch, ea.cview(), plan, eb.view(), plain_opt);
    std::swap(ea, eb);
  }
  (void)core::iterate_stencil2d_persistent<float>(arch, fa, fb, shape, t * sweeps, popt);
  const bool exact_ok = 0 == std::memcmp(ea.data(), fa.data(), bytes);
  r.bit_identical = (same_t_ok && exact_ok) ? 1 : 0;

  std::printf(
      "%-24s %10.3f ms  (relaunch t4 %10.3f ms, speedup %.2fx; same-t %.2fx, "
      "bit-identical %s; %d tiles, %d workers)\n",
      r.name.c_str(), r.seconds * 1e3, r.relaunch_seconds * 1e3, r.persistent_speedup(),
      r.same_t_speedup(), r.bit_identical != 0 ? "yes" : "NO", r.tiles,
      ThreadPool::global().size());
  return r;
}

// ---------------------------------------------------------------------------
// sharded_vs_single: the same 32 plain steps of the star-1 stencil on a
// 2048^2 grid, run by the persistent engine on one pool ("single",
// `single_seconds`) and sharded across a virtual device group of `devices`
// pool slices with peer halo channels at the seams (`seconds`). On a
// many-core host the shards advance concurrently; on the 1-core baseline
// box the number worth recording is that sharding costs ~nothing — and the
// number the CI gate asserts is the parity memcmp: sharded output must be
// bit-identical to the single-device run (bit_identical = 0 fails the
// bench's exit code).
KernelResult sharded_vs_single(const sim::ArchSpec& arch, int devices, const char* name) {
  using namespace ssam;
  const Index n = 2048;
  const int steps = 32;
  const core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> src(n, n);
  fill_random(src, 23);

  core::PersistentOptions single_opt;
  single_opt.policy = core::IterationPolicy::kPersistent;
  core::PersistentOptions shard_opt = single_opt;
  shard_opt.shard = core::ShardPolicy::sharded(devices);

  Grid2D<float> sa = src, sb(n, n), ha = src, hb(n, n);
  core::PersistentRunStats sstats, hstats;
  auto single_run = [&] {
    sstats = core::iterate_stencil2d_persistent<float>(arch, sa, sb, shape, steps,
                                                       single_opt);
  };
  auto sharded_run = [&] {
    hstats = core::iterate_stencil2d_persistent<float>(arch, ha, hb, shape, steps,
                                                       shard_opt);
  };

  KernelResult r;
  r.name = name;
  r.steps = steps;
  r.cells = static_cast<double>(n) * n * steps;
  r.flops_per_cell = 2.0 * static_cast<double>(shape.taps.size()) - 1.0;
  const auto [sharded_t, single_t] = best_time_interleaved(sharded_run, single_run, 3);
  r.seconds = sharded_t;
  r.single_seconds = single_t;
  r.tiles = hstats.tiles;
  r.shard_devices = hstats.devices;
  const core::StencilOptions plain_opt;
  const auto s1 = core::detail::stencil2d_setup(src.cview(), core::build_plan(shape.taps),
                                                plain_opt);
  r.blocks = static_cast<long long>(s1.cfg.grid.count()) * r.steps;

  // Parity on fresh runs from the same source state (sharding places
  // persistent tiles only; relaunch runs always use one pool).
  const std::size_t bytes = static_cast<std::size_t>(src.size()) * sizeof(float);
  Grid2D<float> pa = src, pb(n, n), qa = src, qb(n, n);
  (void)core::iterate_stencil2d_persistent<float>(arch, pa, pb, shape, steps, single_opt);
  (void)core::iterate_stencil2d_persistent<float>(arch, qa, qb, shape, steps, shard_opt);
  r.bit_identical = 0 == std::memcmp(pa.data(), qa.data(), bytes) ? 1 : 0;

  std::printf(
      "%-24s %10.3f ms  (single %10.3f ms, sharded %.2fx; %d devices, %d tiles, "
      "bit-identical %s)\n",
      r.name.c_str(), r.seconds * 1e3, r.single_seconds * 1e3, r.sharded_speedup(),
      r.shard_devices, r.tiles, r.bit_identical != 0 ? "yes" : "NO");
  return r;
}

// ---------------------------------------------------------------------------
// chain_fused_vs_staged: a depth-k chain of distinct star-1 stencil stages
// over a 4096x3072 grid — large enough that the staged reference's per-stage
// global round-trips are real DRAM traffic. The fused path (core/chain.hpp)
// compiles the whole
// chain into ONE persistent launch — stage N's tile output feeds stage N+1
// in-resident through the epoch-counted halo channels (`seconds`); the
// staged reference runs one launch per stage, round-tripping every
// intermediate through a global-sized scratch array (`staged_seconds`).
// Both paths share one warm workspace so neither pays allocation churn, and
// the parity memcmp gates the bench's exit code: fused must be
// bit-identical to staged at every depth.
KernelResult chain_fused_vs_staged(const sim::ArchSpec& arch, int depth,
                                   sim::PersistentWorkspace& ws, const char* name) {
  using namespace ssam;
  const Index w = 4096;
  const Index h = 3072;
  const core::StencilShape<float> shape = core::star2d<float>(1);
  std::vector<core::ChainStage<float>> stages;
  stages.reserve(static_cast<std::size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    core::StencilShape<float> s = shape;
    // Distinct per-stage weights so no stage is a repeat of its neighbour.
    for (auto& tap : s.taps) tap.coeff *= 1.0f + 0.01f * static_cast<float>(i);
    stages.push_back(core::ChainStage<float>::stencil(std::move(s)));
  }
  Grid2D<float> src(w, h);
  fill_random(src, 29);

  Grid2D<float> staged_out(w, h), fused_out(w, h);
  core::PersistentOptions staged_opt;
  staged_opt.policy = core::IterationPolicy::kRelaunch;
  core::PersistentOptions fused_opt;
  fused_opt.policy = core::IterationPolicy::kPersistent;
  core::PersistentRunStats fstats;
  auto staged_run = [&] {
    (void)core::run_chain2d<float>(arch, src, staged_out, stages, staged_opt, &ws);
  };
  auto fused_run = [&] {
    fstats = core::run_chain2d<float>(arch, src, fused_out, stages, fused_opt, &ws);
  };

  KernelResult r;
  r.name = name;
  r.steps = depth;  // one "step" per stage of the chain
  r.cells = static_cast<double>(w) * h * depth;
  r.flops_per_cell = 2.0 * static_cast<double>(shape.taps.size()) - 1.0;
  // Each path is timed in its own contiguous best-of block rather than
  // interleaved: the fused path's advantage is band-buffer cache residency,
  // and alternating with the staged path — whose ping-pong scratch streams
  // ~2x the grid through the cache every rep — would measure a cold-cache
  // state no repeated caller of either path actually sees.
  r.staged_seconds = best_time(staged_run, 7);
  r.seconds = best_time(fused_run, 7);
  r.tiles = fstats.tiles;
  const core::StencilOptions plain_opt;
  const auto s1 = core::detail::stencil2d_setup(src.cview(), core::build_plan(shape.taps),
                                                plain_opt);
  r.blocks = static_cast<long long>(s1.cfg.grid.count()) * depth;
  r.bit_identical =
      0 == std::memcmp(staged_out.data(), fused_out.data(),
                       static_cast<std::size_t>(src.size()) * sizeof(float))
          ? 1
          : 0;

  std::printf(
      "%-24s %10.3f ms  (staged %10.3f ms, fused %.2fx; depth %d, %d tiles, "
      "bit-identical %s)\n",
      r.name.c_str(), r.seconds * 1e3, r.staged_seconds * 1e3, r.fused_speedup(), depth,
      r.tiles, r.bit_identical != 0 ? "yes" : "NO");
  return r;
}

// ---------------------------------------------------------------------------
// autotuned_vs_default: the autotuner (core/autotune.hpp) against the default
// schedule AND the best hand-tuned one, on 32 plain steps of the star-1
// stencil over a 1024^2 grid.
//  * `default_seconds` — run_job with untouched hints (kAuto policy, auto
//    tiles, no sharding): what every caller gets for free.
//  * `best_seconds` — every schedule in the tuner's candidate space measured
//    exhaustively on the full workload; the sweep winner is the "best
//    hand-tuned" reference the acceptance bar is phrased against.
//  * `seconds` — the schedule a cold tune picks, run on the same workload.
// The JSON reports autotuned_vs_default (>= ~1: tuning never hurts; the
// tuner always measures the default schedule too, so it can only lose to
// timer noise) and autotuned_vs_best (>= ~0.9: within 10% of the sweep
// winner). The cold tune runs against a scratch cache file — never the
// developer's ~/.cache — and the immediate re-resolve must be a cache hit
// with ZERO additional measurements (`warm_cache_zero_measurements`, gated
// like the parity memcmps). bit_identical asserts the tuned schedule's
// output is byte-for-byte the default schedule's.
KernelResult autotuned_vs_default_row(const sim::ArchSpec& arch, const char* name) {
  using namespace ssam;
  const Index n = 1024;
  const int steps = 32;
  const core::StencilShape<float> shape = core::star2d<float>(1);
  Grid2D<float> src(n, n);
  fill_random(src, 31);

  core::TunerOptions topt;
  topt.cache_path =
      (std::filesystem::temp_directory_path() / "ssam_bench_tune.json").string();
  std::remove(topt.cache_path.c_str());
  core::AutoTuner tuner(topt);

  Grid2D<float> pa = src, pb(n, n);
  const core::SimJob probe = core::SimJob::stencil2d(pa, pb, shape, steps);

  const core::TuneResult cold = tuner.resolve(arch, probe);
  const int tune_measurements = static_cast<int>(tuner.stats().measurements);
  const core::TuneResult warm = tuner.resolve(arch, probe);
  const bool warm_ok =
      warm.origin == core::TuneOrigin::kCacheHit &&
      tuner.stats().measurements == static_cast<std::uint64_t>(tune_measurements);

  // Every contender runs through the same engine knobs autotune_apply moves
  // (policy, tiles, sharding) — nothing else differs between the runs.
  auto run_with = [&](const core::Schedule& s, Grid2D<float>& a, Grid2D<float>& b) {
    core::PersistentOptions p;
    p.policy = s.policy;
    p.tiles = s.tiles;
    if (s.shards > 1) p.shard = core::ShardPolicy::sharded(s.shards);
    (void)core::iterate_stencil2d_persistent<float>(arch, a, b, shape, steps, p);
  };

  // Tuned vs default, interleaved so host-load drift hits both equally.
  Grid2D<float> ta = src, tb(n, n), fa = src, fb(n, n);
  core::SimJob def_job = core::SimJob::stencil2d(fa, fb, shape, steps);
  const auto [tuned_t, default_t] = best_time_interleaved(
      [&] { run_with(cold.schedule, ta, tb); },
      [&] { (void)core::run_job(arch, def_job); }, 5);

  // The hand-tuned sweep: the tuner's whole candidate space, measured
  // exhaustively on the full workload (what a patient human would do).
  double best_seconds = 1e100;
  core::Schedule best_schedule;
  Grid2D<float> ca = src, cb(n, n);
  for (const core::Candidate& c :
       tuner.candidates(arch, probe, /*allow_shards=*/true)) {
    const double t = best_time([&] { run_with(c.schedule, ca, cb); }, 3);
    if (t < best_seconds) {
      best_seconds = t;
      best_schedule = c.schedule;
    }
  }

  KernelResult r;
  r.name = name;
  r.steps = steps;
  r.cells = static_cast<double>(n) * n * steps;
  r.flops_per_cell = 2.0 * static_cast<double>(shape.taps.size()) - 1.0;
  r.seconds = tuned_t;
  r.default_seconds = default_t;
  r.best_seconds = best_seconds;
  r.tune_measurements = tune_measurements;
  r.warm_zero_measure = warm_ok ? 1 : 0;
  const core::StencilOptions plain_opt;
  const auto s1 = core::detail::stencil2d_setup(src.cview(), core::build_plan(shape.taps),
                                                plain_opt);
  r.blocks = static_cast<long long>(s1.cfg.grid.count()) * steps;

  // Bit-identity on fresh runs: the tuner only moves bit-safe knobs, so the
  // tuned output must be byte-for-byte the default one.
  Grid2D<float> xa = src, xb(n, n), ya = src, yb(n, n);
  core::SimJob xjob = core::SimJob::stencil2d(xa, xb, shape, steps);
  (void)core::run_job(arch, xjob);
  run_with(cold.schedule, ya, yb);
  r.bit_identical =
      0 == std::memcmp(xa.data(), ya.data(),
                       static_cast<std::size_t>(src.size()) * sizeof(float))
          ? 1
          : 0;
  if (!warm_ok) {
    std::fprintf(stderr, "FAIL: %s warm cache hit was not measurement-free\n", name);
  }

  std::printf(
      "%-24s %10.3f ms  (default %10.3f ms = %.2fx, best [%s] %10.3f ms = %.2fx; "
      "%d cold measurements, warm hit measured %s, bit-identical %s)\n",
      r.name.c_str(), r.seconds * 1e3, r.default_seconds * 1e3, r.autotuned_vs_default(),
      best_schedule.describe().c_str(), r.best_seconds * 1e3, r.autotuned_vs_best(),
      r.tune_measurements, warm_ok ? "nothing" : "SOMETHING",
      r.bit_identical != 0 ? "yes" : "NO");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_sim_throughput.json";
  const auto& arch = sim::tesla_v100();
  std::vector<KernelResult> results;

  std::printf("SIMD lane backend: %s\n", sim::simd::kBackendName);

  // Per-kernel throughput is pinned to a single worker so the committed
  // numbers stay comparable across machines and across PRs regardless of
  // SSAM_THREADS or core count; the persistent, chain and autotuner rows
  // below widen the pool to >= 4 workers.
  ThreadPool::reset_global(1);
  const int kernel_threads = ThreadPool::global().size();

  const Index w2d = 2048, h2d = 2048;
  Grid2D<float> in2d(w2d, h2d);
  fill_random(in2d, 1);
  Grid2D<float> out2d(w2d, h2d);

  // --- single-kernel rows ---------------------------------------------------
  {
    const int m = 5, n = 5;
    std::vector<float> weights(static_cast<std::size_t>(m * n), 0.04f);
    results.push_back(kernel_row(
        "conv2d_5x5", static_cast<double>(w2d) * static_cast<double>(h2d), 2.0 * m * n, [&] {
          return core::conv2d_ssam<float>(arch, in2d.cview(), weights, m, n, out2d.view())
              .blocks_total;
        }));
  }
  {
    const core::StencilShape<float> shape = core::star2d<float>(1);
    const core::SystolicPlan<float> plan = core::build_plan(shape.taps);
    results.push_back(kernel_row(
        "stencil2d_star1", static_cast<double>(w2d) * static_cast<double>(h2d),
        2.0 * static_cast<double>(shape.taps.size()) - 1.0, [&] {
          return core::stencil2d_ssam<float>(arch, in2d.cview(), plan, out2d.view())
              .blocks_total;
        }));
  }
  {
    const core::StencilShape<float> shape = core::star2d<float>(1);
    const core::SystolicPlan<float> plan = core::build_plan(shape.taps);
    core::TemporalSsamOptions opt;
    opt.t = 4;
    results.push_back(kernel_row(
        "stencil2d_temporal_t4", static_cast<double>(w2d) * static_cast<double>(h2d) * opt.t,
        2.0 * static_cast<double>(shape.taps.size()) - 1.0, [&] {
          return core::stencil2d_ssam_temporal<float>(arch, in2d.cview(), plan,
                                                      out2d.view(), opt)
              .blocks_total;
        }));
  }
  {
    const Index n3 = 192;
    Grid3D<float> in3d(n3, n3, n3);
    fill_random(in3d, 2);
    Grid3D<float> out3d(n3, n3, n3);
    const core::StencilShape<float> shape = core::star3d<float>(1);
    const core::SystolicPlan<float> plan = core::build_plan(shape.taps);
    results.push_back(kernel_row(
        "stencil3d_star1", static_cast<double>(n3) * n3 * n3,
        2.0 * static_cast<double>(shape.taps.size()) - 1.0, [&] {
          return core::stencil3d_ssam<float>(arch, in3d.cview(), plan, out3d.view())
              .blocks_total;
        }));
  }
  {
    std::vector<float> in(static_cast<std::size_t>(4) << 20);
    SplitMix64 rng(3);
    for (auto& v : in) v = static_cast<float>(rng.next_in(-1.0, 1.0));
    std::vector<float> out(in.size());
    // 5 = log2(warp) Kogge-Stone adds per element.
    results.push_back(kernel_row("scan_4m", static_cast<double>(in.size()), 5.0, [&] {
      long long blocks = 0;
      for (const auto& s : core::scan_inclusive<float>(arch, in, out)) {
        blocks += s.blocks_total;
      }
      return blocks;
    }));
  }
  {
    const Index n = 512;
    Grid2D<float> a(n, n), b(n, n), c(n, n);
    fill_random(a, 4);
    fill_random(b, 5);
    results.push_back(kernel_row(
        "gemm_512", static_cast<double>(n) * n, 2.0 * static_cast<double>(n), [&] {
          return core::gemm_ssam<float>(arch, a.cview(), b.cview(), c.view()).blocks_total;
        }));
  }

  // --- persistent iteration engine vs per-step relaunch, 1 worker -----------
  results.push_back(persistent_vs_relaunch(arch, "persistent_vs_relaunch_t4_1w"));

  // --- virtual multi-device sharding vs one pool, 2 and 4 devices -----------
  // The single baseline inside each row runs on the 1-worker global pool;
  // the sharded runs use the shared device groups (each device a slice of
  // the host). The parity memcmps gate the exit code.
  results.push_back(sharded_vs_single(arch, 2, "sharded_vs_single_d2"));
  results.push_back(sharded_vs_single(arch, 4, "sharded_vs_single_d4"));

  // --- persistent iteration engine vs per-step relaunch, >= 4 workers -------
  // The rows from here on need a pool: they run at >= 4 workers (honoring a
  // larger SSAM_THREADS), while the per-kernel numbers above stay pinned to
  // one. Both counts land in the JSON.
  const int overlap_threads = std::max(4, ssam::hardware_concurrency());
  ThreadPool::reset_global(overlap_threads);
  {
    KernelResult r = persistent_vs_relaunch(arch, "persistent_vs_relaunch_t4");
    r.host_threads = ThreadPool::global().size();
    results.push_back(r);
  }

  // --- stencil-chain fusion: one persistent launch vs one per stage ---------
  // Depth sweep after the Halide stencil_chain workload shape; all three
  // rows share one warm workspace, and every row's parity memcmp gates the
  // exit code.
  {
    sim::PersistentWorkspace chain_ws;
    for (const int depth : {2, 8, 32}) {
      const std::string name = "chain_fused_vs_staged_d" + std::to_string(depth);
      KernelResult r = chain_fused_vs_staged(arch, depth, chain_ws, name.c_str());
      r.host_threads = ThreadPool::global().size();
      results.push_back(r);
    }
  }

  // --- autotuner vs default vs best hand-tuned schedule ---------------------
  {
    KernelResult r = autotuned_vs_default_row(arch, "autotuned_vs_default");
    r.host_threads = ThreadPool::global().size();
    results.push_back(r);
  }

  if (!write_json(results, kernel_threads, overlap_threads, out_path)) return 1;

  for (const KernelResult& r : results) {
    if (r.bit_identical == 0) {
      std::fprintf(stderr, "FAIL: %s outputs not bit-identical\n", r.name.c_str());
      return 1;
    }
    if (r.warm_zero_measure == 0) {
      std::fprintf(stderr, "FAIL: %s warm cache hit measured\n", r.name.c_str());
      return 1;
    }
  }
  return 0;
}
