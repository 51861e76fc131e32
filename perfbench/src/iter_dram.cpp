// iter_dram: one caller running large iterative jobs back to back.
//
// Every array is at least 4x the host's last-level cache, so each sweep
// streams DRAM: bytes moved, tile residency, halo exchange, chain fusion
// and shard seams decide throughput, and the job server is bypassed. The
// closed loop cycles through four job kinds in a seeded order, each kind
// once per cycle. All kinds keep the same number of threads busy: the
// global pool has nproc-1 workers plus the participating caller, and the
// sharded job runs on an explicit two-device group whose device pools add
// up to nproc workers while the caller waits.
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/job.hpp"
#include "core/stencil2d.hpp"
#include "core/stencil3d.hpp"
#include "gpusim/device.hpp"
#include "gpusim/timing.hpp"
#include "host.hpp"
#include "json.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using ssam::Grid2D;
using ssam::Grid3D;
using ssam::Index;
namespace core = ssam::core;
namespace sim = ssam::sim;

// 10752 x 10240 floats = 440 MB; 512 x 512 x 448 floats = 470 MB.
constexpr Index kW = 10752;
constexpr Index kH = 10240;
constexpr Index kNx = 512;
constexpr Index kNy = 512;
constexpr Index kNz = 448;
constexpr int kSteps2D = 16;
constexpr int kSteps3D = 8;
constexpr int kChainDepth = 8;

enum Kind { kStencil2D, kStencil3D, kChain, kSharded2D, kKinds };
constexpr std::array<const char*, kKinds> kKindName = {"stencil2d", "stencil3d", "chain",
                                                        "sharded2d"};

[[nodiscard]] double kind_cells(int k) {
  const double c2 = static_cast<double>(kW) * static_cast<double>(kH);
  switch (k) {
    case kStencil2D:
    case kSharded2D:
      return c2 * kSteps2D;
    case kStencil3D:
      return static_cast<double>(kNx) * kNy * kNz * kSteps3D;
    default:
      return c2 * kChainDepth;
  }
}

class IterDram final : public Workload {
 public:
  explicit IterDram(const RunContext& ctx) : ctx_(ctx) {}

  [[nodiscard]] int busy_threads() const override { return ctx_.nproc; }
  // Each set-up streams about 2 GB and runs three oracle jobs (~10 s).
  [[nodiscard]] int setups() const override { return 3; }

  void setup() override {
    teardown();
    st_ = std::make_unique<State>();
    State& s = *st_;
    s.a2 = Grid2D<float>(kW, kH);
    s.b2 = Grid2D<float>(kW, kH);
    s.a3 = Grid3D<float>(kNx, kNy, kNz);
    s.b3 = Grid3D<float>(kNx, kNy, kNz);
    for (int i = 0; i < kChainDepth; ++i) {
      core::StencilShape<float> sh = core::star2d<float>(1);
      // Distinct per-stage weights so no stage repeats its neighbour.
      for (auto& tap : sh.taps) tap.coeff *= 1.0f + 0.01f * static_cast<float>(i);
      s.stages.push_back(core::ChainStage<float>::stencil(std::move(sh)));
    }
    // Two devices whose pools add up to the same busy-thread count as the
    // global pool plus its participating caller.
    const int d0 = std::max(1, ctx_.nproc / 2);
    const int d1 = std::max(1, ctx_.nproc - d0);
    s.group = std::make_unique<sim::DeviceGroup>(std::vector<sim::DeviceOptions>{
        sim::DeviceOptions{d0, {}, "shard0"}, sim::DeviceOptions{d1, {}, "shard1"}});

    // Oracles: the relaunch policy, the staged chain, the single-device run.
    core::JobHints relaunch;
    relaunch.policy = core::IterationPolicy::kRelaunch;
    restore(kStencil2D);
    (void)core::run_job(arch(), core::SimJob::stencil2d(s.a2, s.b2, core::star2d<float>(2),
                                                        kSteps2D, relaunch));
    s.oracle[kStencil2D] = grid_hash(s.a2);
    restore(kStencil3D);
    (void)core::run_job(arch(), core::SimJob::stencil3d(s.a3, s.b3, core::star3d<float>(1),
                                                        kSteps3D, relaunch));
    s.oracle[kStencil3D] = grid_hash(s.a3);
    restore(kChain);
    (void)core::run_job(arch(), core::SimJob::chain2d(s.a2, s.b2, s.stages, relaunch));
    s.oracle[kChain] = grid_hash(s.b2);

    // Warm-up: one run of every kind through the measured path, checked.
    // The single-device 2D run goes first: its output is the sharded
    // job's oracle.
    for (int k = 0; k < kKinds; ++k) {
      const Run r = run_kind(k, nullptr, -1);
      if (k == kStencil2D) s.oracle[kSharded2D] = r.hash;
      ++smp_.attempted;
      if (!r.ok) ++smp_.failed;
    }
  }

  void measure(double seconds, Tracer* tracer) override {
    Samples& m = smp_;
    std::uint64_t halo0 = 0;
    std::uint64_t seam0 = 0;
    group_bytes(halo0, seam0);
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    for (bool first = true; first || ms_since(t0) < seconds * 1e3; first = false) {
      ScopedSpan span(tracer, "cycle");
      double this_cycle = 0.0;
      for (const int k : cycle_order(ctx_.seed, m.cycles++, kKinds)) {
        const Run r = run_kind(k, tracer, m.jobs++);
        ++m.attempted;
        if (!r.ok) ++m.failed;
        m.kind_ms[static_cast<std::size_t>(k)].push_back(r.ms);
        m.job_ms.push_back(r.ms);
        m.tiles[static_cast<std::size_t>(k)] = r.tiles;
        m.cells += kind_cells(k);
        this_cycle += r.ms;
      }
      m.cycle_ms.push_back(this_cycle);
    }
    m.cpu_s += cpu_seconds() - cpu0;
    std::uint64_t halo1 = 0;
    std::uint64_t seam1 = 0;
    group_bytes(halo1, seam1);
    m.halo += halo1 - halo0;
    m.seam += seam1 - seam0;
    m.sim_gcells = sim_gcells();
  }

  void finish(Result& out) override {
    const Samples m = std::exchange(smp_, Samples{});
    // Other guests of the host only ever add time to a job, mostly by
    // taking memory bandwidth. Rates are over one cycle of per-kind
    // 10th-percentile job times (the fastest, with a few jobs per kind),
    // so jobs slowed by a neighbour's burst do not move them.
    double cycle_cells = 0.0;
    double cycle_ms = 0.0;
    std::vector<double> kind_p10;
    for (int k = 0; k < kKinds; ++k) {
      cycle_cells += kind_cells(k);
      kind_p10.push_back(percentile(m.kind_ms[static_cast<std::size_t>(k)], 10));
      cycle_ms += kind_p10.back();
    }
    out.attempted += m.attempted;
    out.failed += m.failed;
    out.e2e["cells_per_s"] = {cycle_cells / (cycle_ms * 1e-3), "cells/s"};
    out.e2e["jobs_per_s"] = {static_cast<double>(kKinds) / (cycle_ms * 1e-3), "1/s"};
    // Closed loop: each job is due when the previous one returns, so its
    // sojourn is its own run time: the median over the kinds, each at its
    // 10th percentile. A run holds too few jobs for a p99 (see README), so
    // the tail is the slowest kind at its 10th percentile.
    out.e2e["sojourn_p50_ms"] = {median(kind_p10), "ms"};
    const Tail tail = tail_percentile(m.job_ms, 99);
    out.e2e["sojourn_p99_ms"] = {
        tail.supported ? tail.value : *std::max_element(kind_p10.begin(), kind_p10.end()), "ms"};
    // Other guests of the host only ever add time to a cycle: the fast
    // cycles show the program.
    out.layer["suite_p10_ms"] = {percentile(m.cycle_ms, 10), "ms"};
    out.e2e["sim_gcells_geomean"] = {m.sim_gcells, "GCells/s"};
    out.headline = out.e2e["cells_per_s"].value;
    out.headline_higher_is_better = true;

    for (int k = 0; k < kKinds; ++k) {
      const double v = median(m.kind_ms[static_cast<std::size_t>(k)]);
      job_ms_[static_cast<std::size_t>(k)] = v;
      out.layer[std::string("job.ms.") + kKindName[static_cast<std::size_t>(k)]] = {v, "ms"};
    }
    out.layer["job.tiles.2d"] = {static_cast<double>(m.tiles[kStencil2D]), "count"};
    out.layer["job.tiles.3d"] = {static_cast<double>(m.tiles[kStencil3D]), "count"};
    out.layer["job.tiles.chain"] = {static_cast<double>(m.tiles[kChain]), "count"};
    const double sharded_sweeps =
        static_cast<double>(m.kind_ms[kSharded2D].size()) * kSteps2D;
    out.layer["device.halo_bytes_per_sweep"] = {static_cast<double>(m.halo) / sharded_sweeps,
                                                "bytes"};
    out.layer["device.seam_bytes_per_sweep"] = {static_cast<double>(m.seam) / sharded_sweeps,
                                                "bytes"};
    out.layer["host.cpu_s_per_gcell"] = {m.cpu_s / (m.cells * 1e-9), "s/GCell"};

    const double array_bytes = static_cast<double>(kW) * kH * sizeof(float);
    const double array3_bytes = static_cast<double>(kNx) * kNy * kNz * sizeof(float);
    const double llc = static_cast<double>(llc_bytes());
    out.notes["array_bytes_2d"] = json_number(array_bytes);
    out.notes["array_bytes_3d"] = json_number(array3_bytes);
    out.notes["llc_bytes"] = json_number(llc);
    out.notes["arrays_under_4x_llc"] =
        std::min(array_bytes, array3_bytes) < 4.0 * llc ? "true" : "false";
    out.notes["jobs"] = json_number(static_cast<double>(m.job_ms.size()));
    out.notes["cycles"] = json_number(static_cast<double>(m.cycle_ms.size()));
    out.notes["sojourn_p99_supported"] = tail.supported ? "true" : "false";
  }

  void probe_layers(Tracer* tracer, Result& out) override {
    State& s = *st_;
    restore(kStencil2D);
    restore(kStencil3D);
    // One standalone launch per sweep kernel, over the same grid, on the
    // same pool: what a sweep costs without the engine around it.
    auto sweep_ms = [&](const char* name, auto&& launch) {
      std::vector<double> v;
      for (int i = 0; i < 3; ++i) {
        ScopedSpan span(tracer, std::string("probe.sweep.") + name);
        const Clock::time_point t = Clock::now();
        launch();
        v.push_back(ms_since(t));
      }
      return median(v);
    };
    const double sw9 = sweep_ms("2d9pt", [&] {
      (void)core::stencil2d_ssam<float>(arch(), s.a2.cview(), core::star2d<float>(2),
                                        s.b2.view());
    });
    const double sw3 = sweep_ms("3d7pt", [&] {
      (void)core::stencil3d_ssam<float>(arch(), s.a3.cview(), core::star3d<float>(1),
                                        s.b3.view());
    });
    const double sw5 = sweep_ms("2d5pt", [&] {
      (void)core::stencil2d_ssam<float>(arch(), s.a2.cview(), s.stages.front().shape,
                                        s.b2.view());
    });
    out.layer["kernel.sweep_ms.2d9pt"] = {sw9, "ms"};
    out.layer["kernel.sweep_ms.3d7pt"] = {sw3, "ms"};
    out.layer["kernel.sweep_ms.2d5pt"] = {sw5, "ms"};
    // Residency + halo + scheduler self time of the engine, as a share of
    // the job (negative when the engine beats back-to-back sweeps).
    auto self_frac = [&](int steps, double sweep, Kind k) {
      return 1.0 - steps * sweep / job_ms_[static_cast<std::size_t>(k)];
    };
    out.layer["engine.self_frac.2d"] = {self_frac(kSteps2D, sw9, kStencil2D), "fraction"};
    out.layer["engine.self_frac.3d"] = {self_frac(kSteps3D, sw3, kStencil3D), "fraction"};
    out.layer["engine.self_frac.chain"] = {self_frac(kChainDepth, sw5, kChain), "fraction"};
    out.layer["engine.self_frac.sharded"] = {self_frac(kSteps2D, sw9, kSharded2D),
                                             "fraction"};

    // STREAM-style copy over a 4x-LLC array with the same busy threads.
    std::vector<double> copy_ms;
    for (int i = 0; i < 5; ++i) {
      ScopedSpan span(tracer, "probe.stream_copy");
      const Clock::time_point t = Clock::now();
      grid_copy(s.b2, s.a2);
      copy_ms.push_back(ms_since(t));
    }
    const double bytes2 = static_cast<double>(kW) * kH * sizeof(float);
    const double stream_gbps = 2.0 * bytes2 / (median(copy_ms) * 1e-3) / 1e9;
    out.layer["mem.stream_gbps"] = {stream_gbps, "GB/s"};
    // Computed bytes per sweep: every cell read once and written once.
    const double bytes3 = static_cast<double>(kNx) * kNy * kNz * sizeof(float);
    out.layer["kernel.bw_frac.2d"] = {2.0 * bytes2 / (sw9 * 1e-3) / 1e9 / stream_gbps,
                                      "fraction"};
    out.layer["kernel.bw_frac.3d"] = {2.0 * bytes3 / (sw3 * 1e-3) / 1e9 / stream_gbps,
                                      "fraction"};

    // Strong scaling: the 2D job on one worker vs all busy threads.
    sim::Device solo(0, sim::DeviceOptions{1, {}, "solo"});
    restore(kStencil2D);
    double solo_ms = 0.0;
    {
      ScopedSpan span(tracer, "probe.scaling.1worker");
      const Clock::time_point t = Clock::now();
      (void)core::run_job(arch(),
                          core::SimJob::stencil2d(s.a2, s.b2, core::star2d<float>(2), kSteps2D),
                          &solo);
      solo_ms = ms_since(t);
    }
    ++out.attempted;
    if (grid_hash(s.a2) != s.oracle[kStencil2D]) ++out.failed;
    out.layer["scaling.eff.2d"] = {
        solo_ms / (static_cast<double>(busy_threads()) * job_ms_[kStencil2D]), "fraction"};
  }

  void teardown() override { st_.reset(); }

 private:
  struct State {
    Grid2D<float> a2, b2;
    Grid3D<float> a3, b3;
    std::vector<core::ChainStage<float>> stages;
    std::unique_ptr<sim::DeviceGroup> group;
    std::array<std::uint64_t, kKinds> oracle{};
  };

  /// What measure() gathers across set-ups until finish().
  struct Samples {
    std::array<std::vector<double>, kKinds> kind_ms;
    std::vector<double> job_ms;
    std::vector<double> cycle_ms;
    std::array<int, kKinds> tiles{};
    double cells = 0.0;
    double cpu_s = 0.0;
    std::uint64_t halo = 0;
    std::uint64_t seam = 0;
    int cycles = 0;
    std::int64_t jobs = 0;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    double sim_gcells = 0.0;
  };

  struct Run {
    double ms = 0.0;
    int tiles = 0;
    std::uint64_t hash = 0;
    bool ok = false;
  };

  [[nodiscard]] static const sim::ArchSpec& arch() { return sim::tesla_v100(); }

  Run run_kind(int k, Tracer* tracer, std::int64_t job) {
    State& s = *st_;
    const std::string kind = kKindName[static_cast<std::size_t>(k)];
    {
      ScopedSpan span(tracer, "restore." + kind, job);
      restore(k);
    }
    Run r;
    core::PersistentRunStats stats;
    {
      ScopedSpan span(tracer, "job." + kind, job);
      const Clock::time_point t = Clock::now();
      switch (k) {
        case kStencil2D:
          stats = core::run_job(
              arch(), core::SimJob::stencil2d(s.a2, s.b2, core::star2d<float>(2), kSteps2D));
          break;
        case kStencil3D:
          stats = core::run_job(
              arch(), core::SimJob::stencil3d(s.a3, s.b3, core::star3d<float>(1), kSteps3D));
          break;
        case kChain:
          stats = core::run_job(arch(), core::SimJob::chain2d(s.a2, s.b2, s.stages));
          break;
        default: {
          core::PersistentOptions popt;
          popt.shard = core::ShardPolicy::sharded(2, s.group.get());
          stats = core::iterate_stencil2d_persistent<float>(
              arch(), s.a2, s.b2, core::star2d<float>(2), kSteps2D, popt);
        }
      }
      r.ms = ms_since(t);
    }
    r.tiles = stats.tiles;
    ScopedSpan span(tracer, "verify." + kind, job);
    r.hash = k == kStencil3D ? grid_hash(s.a3) : k == kChain ? grid_hash(s.b2) : grid_hash(s.a2);
    r.ok = r.hash == s.oracle[static_cast<std::size_t>(k)];
    if (!r.ok) std::fprintf(stderr, "iter_dram: %s output differs from its oracle\n", kind.c_str());
    return r;
  }

  /// Regenerates kind k's input from the seed (in a2 or a3): cheaper in
  /// memory than keeping a pristine copy of each 4x-LLC array.
  void restore(int k) {
    State& s = *st_;
    if (k == kStencil3D) {
      fill_seeded(s.a3.data(), static_cast<std::size_t>(s.a3.size()), ctx_.seed * 3 + 2);
    } else {
      fill_seeded(s.a2.data(), static_cast<std::size_t>(s.a2.size()), ctx_.seed * 3 + 1);
    }
  }

  void group_bytes(std::uint64_t& halo, std::uint64_t& seam) const {
    halo = 0;
    seam = 0;
    for (int d = 0; d < st_->group->size(); ++d) {
      const sim::DeviceCounters& c = st_->group->device(d).counters();
      halo += c.halo_bytes_out.load(std::memory_order_relaxed);
      seam += c.seam_bytes_out.load(std::memory_order_relaxed);
    }
  }

  /// Simulated V100 GCells/s of one sweep of each kind's kernel (timing
  /// mode, the paper's figure of merit), geomean over the four kinds.
  double sim_gcells() {
    State& s = *st_;
    const double c2 = static_cast<double>(kW) * kH;
    const double c3 = static_cast<double>(kNx) * kNy * kNz;
    auto g = [&](const sim::KernelStats& st, double cells) {
      return sim::gcells_per_s(cells, sim::estimate_runtime(arch(), st));
    };
    const double g9 = g(core::stencil2d_ssam<float>(arch(), s.a2.cview(), core::star2d<float>(2),
                                                    s.b2.view(), {}, sim::ExecMode::kTiming),
                        c2);
    const double g3 = g(core::stencil3d_ssam<float>(arch(), s.a3.cview(), core::star3d<float>(1),
                                                    s.b3.view(), {}, sim::ExecMode::kTiming),
                        c3);
    const double g5 = g(core::stencil2d_ssam<float>(arch(), s.a2.cview(), s.stages.front().shape,
                                                    s.b2.view(), {}, sim::ExecMode::kTiming),
                        c2);
    return geomean({g9, g3, g5, g9});
  }

  RunContext ctx_;
  std::unique_ptr<State> st_;
  Samples smp_;
  std::array<double, kKinds> job_ms_{};  // per-kind medians of the last finish()
};

}  // namespace

std::unique_ptr<Workload> make_iter_dram(const RunContext& ctx) {
  return std::make_unique<IterDram>(ctx);
}

}  // namespace perfbench
