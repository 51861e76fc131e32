// serve_mixed and serve_light: an open loop of small paper-shape jobs into
// a SimServer, at two fixed rates.
//
// Kernel work per job is sub-millisecond (every grid fits in a core's L2),
// so admission, fair queuing, packing, workspace leases, stream dispatch
// and the tile scheduler under one-worker contention decide latency. It
// uses the persistent engine the opposite way to iter_dram: many tiny
// concurrent jobs instead of one huge one. One generator thread sends
// seeded Poisson arrivals at a fixed rate into nproc-1 devices of one
// worker each; the calling thread collects and verifies results. A share
// of jobs resolves through the autotuner against a private cache file that
// set-up tunes cold. serve_light sends the same mix at half the rate, so
// queueing, fair sharing and packing barely act and latency is mostly
// dispatch and execution: the counterpart on which a change to those
// mechanisms should move nothing.
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/autotune.hpp"
#include "core/conv2d.hpp"
#include "core/job.hpp"
#include "core/server.hpp"
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

/// Arrival rates: about half (serve_mixed) and a quarter (serve_light) of
/// the mix's closed-loop capacity on a 4-core host (the burst phase reports
/// that capacity as `capacity_jobs_per_s`).
constexpr double kMixedRatePerS = 1250.0;
constexpr double kLightRatePerS = 625.0;
/// Jobs per open-loop window: enough that ten lie beyond its p99.
constexpr double kJobsPerWindow = 1250.0;
constexpr double kTuneShare = 0.25;
constexpr int kTenants = 3;
constexpr double kTenantWeight[kTenants] = {1.0, 2.0, 4.0};
constexpr int kProbeBursts = 20;
constexpr int kBurstRounds = 16;  // copies of every template per burst
constexpr Index kSide2D = 256;  // 256 KB per grid
constexpr Index kNx3 = 64;
constexpr Index kNy3 = 64;
constexpr Index kNz3 = 32;  // 512 KB per grid

struct Template {
  std::string name;
  core::JobKind kind = core::JobKind::kStencil2D;
  core::StencilShape<float> shape;
  int steps = 1;
  int filter = 0;  // conv: filter side
  std::vector<core::ChainStage<float>> stages;

  [[nodiscard]] bool tunable() const { return kind != core::JobKind::kConv2D; }
  [[nodiscard]] double cells() const {
    if (kind == core::JobKind::kStencil3D) {
      return static_cast<double>(kNx3) * kNy3 * kNz3 * steps;
    }
    return static_cast<double>(kSide2D) * kSide2D * steps;
  }
};

[[nodiscard]] const char* kind_class(core::JobKind k) {
  switch (k) {
    case core::JobKind::kStencil2D: return "stencil2d";
    case core::JobKind::kStencil3D: return "stencil3d";
    case core::JobKind::kConv2D: return "conv2d";
    case core::JobKind::kChain: return "chain";
  }
  return "?";
}

[[nodiscard]] std::vector<Template> make_templates() {
  std::vector<Template> t;
  auto stencil = [&](const char* name, core::JobKind kind, core::StencilShape<float> s,
                     int steps) {
    Template x;
    x.name = name;
    x.kind = kind;
    x.shape = std::move(s);
    x.steps = steps;
    t.push_back(std::move(x));
  };
  stencil("2d5pt", core::JobKind::kStencil2D, core::star2d<float>(1), 8);
  stencil("2d9pt", core::JobKind::kStencil2D, core::star2d<float>(2), 8);
  stencil("2d25pt", core::JobKind::kStencil2D, core::box2d<float>(5, 5), 4);
  stencil("3d7pt", core::JobKind::kStencil3D, core::star3d<float>(1), 2);
  stencil("3d27pt", core::JobKind::kStencil3D, core::box3d<float>(1), 1);
  for (int f : {3, 5, 7, 9}) {
    Template x;
    x.name = "conv" + std::to_string(f) + "x" + std::to_string(f);
    x.kind = core::JobKind::kConv2D;
    x.filter = f;
    t.push_back(std::move(x));
  }
  auto chain = [&](const char* name, std::vector<core::StencilShape<float>> shapes) {
    Template x;
    x.name = name;
    x.kind = core::JobKind::kChain;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      for (auto& tap : shapes[i].taps) tap.coeff *= 1.0f + 0.02f * static_cast<float>(i);
      x.stages.push_back(core::ChainStage<float>::stencil(std::move(shapes[i])));
    }
    x.steps = static_cast<int>(x.stages.size());
    x.shape = x.stages.front().shape;
    t.push_back(std::move(x));
  };
  chain("chain4_star",
        {core::star2d<float>(1), core::star2d<float>(1), core::star2d<float>(1),
         core::star2d<float>(1)});
  chain("chain4_mixed",
        {core::star2d<float>(1), core::star2d<float>(2), core::box2d<float>(3, 3),
         core::star2d<float>(1)});
  return t;
}

/// One template instance: the grids a single in-flight job owns.
struct Rig {
  int tmpl = 0;
  Grid2D<float> a2, b2;
  Grid3D<float> a3, b3;
};

class ServeMixed final : public Workload {
 public:
  ServeMixed(const RunContext& ctx, double rate_per_s)
      : ctx_(ctx), rate_per_s_(rate_per_s), templates_(make_templates()) {}

  [[nodiscard]] int busy_threads() const override { return ctx_.nproc; }

  void setup() override {
    teardown();
    st_ = std::make_unique<State>();
    State& s = *st_;
    const std::size_t n = templates_.size();
    s.src2 = Grid2D<float>(kSide2D, kSide2D);
    s.src3 = Grid3D<float>(kNx3, kNy3, kNz3);
    fill_seeded(s.src2.data(), static_cast<std::size_t>(s.src2.size()), ctx_.seed * 5 + 1);
    fill_seeded(s.src3.data(), static_cast<std::size_t>(s.src3.size()), ctx_.seed * 5 + 2);
    s.filter.resize(9 * 9);
    fill_seeded(s.filter.data(), s.filter.size(), ctx_.seed * 5 + 3);
    // Enough rigs for a burst of the layer probe, which holds more jobs in
    // flight than the open loop does, so no rig is allocated while
    // measuring and peak memory does not depend on timing.
    s.free.resize(n);
    for (std::size_t t = 0; t < n; ++t) {
      for (int i = 0; i < kBurstRounds + 4; ++i) {
        s.free[t].push_back(new_rig(static_cast<int>(t)));
      }
    }
    // Goldens: each template run directly through run_job on the global pool.
    s.golden.resize(n);
    for (std::size_t t = 0; t < n; ++t) {
      std::unique_ptr<Rig> rig = new_rig(static_cast<int>(t));
      (void)core::run_job(sim::tesla_v100(), make_job(*rig, false, 0));
      s.golden[t] = output_hash(*rig);
    }

    // Device d's worker is pinned to core d+1, leaving core 0 to the
    // generator and the collector, so thread placement is the same in
    // every run.
    const int devices = std::max(1, ctx_.nproc - 1);
    std::vector<sim::DeviceOptions> dev(static_cast<std::size_t>(devices));
    for (int d = 0; d < devices; ++d) {
      dev[static_cast<std::size_t>(d)] = sim::DeviceOptions{1, {(d + 1) % ctx_.nproc}, ""};
    }
    s.group = std::make_unique<sim::DeviceGroup>(std::move(dev));
    core::ServerOptions opt;
    opt.devices = devices;
    opt.group = s.group.get();
    s.server = std::make_unique<core::SimServer>(opt);
    for (int t = 0; t < kTenants; ++t) s.server->set_tenant_weight(t, kTenantWeight[t]);

    // Cold tune into the private cache file, as device-pinned jobs resolve.
    core::AutoTuner& tuner = core::AutoTuner::global();
    const std::string path = core::AutoTuner::resolve_cache_path({});
    if (!path.empty()) std::filesystem::remove(path);
    tuner.reload();
    for (std::size_t t = 0; t < n; ++t) {
      if (!templates_[t].tunable()) continue;
      std::unique_ptr<Rig> rig = new_rig(static_cast<int>(t));
      (void)tuner.resolve(sim::tesla_v100(), make_job(*rig, true, 0), &s.group->device(0));
    }

    // Warm-up: one job per template through the server, checked.
    std::vector<Sent> warm;
    for (std::size_t t = 0; t < n; ++t) {
      Sent x;
      x.rig = acquire(static_cast<int>(t));
      x.fut = s.server->submit(make_job(*x.rig, false, 0));
      warm.push_back(std::move(x));
    }
    for (Sent& x : warm) {
      ++smp_.attempted;
      if (!check(x)) ++smp_.failed;
      release(std::move(x.rig));
    }
  }

  void measure(double seconds, Tracer* tracer) override {
    const int windows =
        std::max(1, static_cast<int>(std::lround(seconds * rate_per_s_ / kJobsPerWindow)));
    for (int w = 0; w < windows; ++w) open_loop(seconds / windows, tracer);
    smp_.devices = st_->group->size();
    for (int d = 0; d < smp_.devices; ++d) {
      smp_.workspaces_created += st_->group->device(d).workspaces_created();
    }
    smp_.sim_gcells = sim_gcells();
  }

  void open_loop(double seconds, Tracer* tracer) {
    State& s = *st_;
    Samples& m = smp_;
    std::vector<bool> tunable;
    for (const Template& t : templates_) tunable.push_back(t.tunable());
    const std::vector<Arrival> sched = poisson_schedule(
        ctx_.seed + 0x1000ull * static_cast<std::uint64_t>(m.segments++), rate_per_s_, seconds,
        tunable, kTuneShare, kTenants);
    const core::SimServer::Stats stats0 = s.server->stats();
    const core::TuneStats tune0 = core::AutoTuner::global().stats();
    const double cpu0 = cpu_seconds();
    const CpuTicks ticks0 = cpu_ticks();
    const std::int64_t id0 = m.sent;

    std::mutex mu;
    std::condition_variable cv;
    std::deque<Sent> sent;
    const Clock::time_point start = Clock::now();
    const double start_us = tracer != nullptr ? tracer->to_us(start) : 0.0;
    std::thread generator([&] {
      for (std::size_t i = 0; i < sched.size(); ++i) {
        const Arrival& a = sched[i];
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(a.at_ms)));
        const std::int64_t job_id = id0 + static_cast<std::int64_t>(i);
        ScopedSpan send(tracer, "gen.send", job_id);
        Sent x;
        x.arrival = a;
        x.rig = acquire(a.tmpl);
        core::SimJob job = make_job(*x.rig, a.auto_tune, a.tenant);
        {
          ScopedSpan span(tracer, "server.submit", job_id);
          x.submit = Clock::now();
          x.fut = s.server->submit(std::move(job));
          x.submitted = Clock::now();
        }
        std::lock_guard<std::mutex> lock(mu);
        sent.push_back(std::move(x));
        cv.notify_one();
      }
    });

    double last_result_ms = 0.0;
    std::vector<double>& window = m.sojourn_windows.emplace_back();
    for (std::size_t i = 0; i < sched.size(); ++i) {
      Sent x;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !sent.empty(); });
        x = std::move(sent.front());
        sent.pop_front();
      }
      const std::int64_t job_id = id0 + static_cast<std::int64_t>(i);
      ++m.attempted;
      const core::JobResult& r = x.fut.wait();
      bool ok = false;
      {
        ScopedSpan span(tracer, "collect.verify", job_id);
        ok = check(x);
      }
      const double sub_ms = ms_between(start, x.submit);
      const Template& t = templates_[static_cast<std::size_t>(x.arrival.tmpl)];
      if (ok) {
        m.sojourn.push_back(sojourn_ms(x.arrival.at_ms, sub_ms, r.queue_ms, r.exec_ms));
        window.push_back(m.sojourn.back());
        m.queue_ms.push_back(r.queue_ms);
        m.exec_by_class[kind_class(t.kind)].push_back(r.exec_ms);
        m.exec_total_ms += r.exec_ms;
        m.cells += t.cells();
        last_result_ms = std::max(last_result_ms, sub_ms + r.queue_ms + r.exec_ms);
      } else {
        ++m.failed;
      }
      m.late.push_back(sub_ms - x.arrival.at_ms);
      m.submit_us.push_back(ms_between(x.submit, x.submitted) * 1e3);
      if (tracer != nullptr) {
        // The job's phases as the server reports them, on the job's track.
        const double sched_us = start_us + x.arrival.at_ms * 1e3;
        const double sub_us = tracer->to_us(x.submit);
        const double disp_us = sub_us + r.queue_ms * 1e3;
        const double done_us = disp_us + r.exec_ms * 1e3;
        const std::int64_t root = tracer->add("job." + t.name, sched_us, done_us, -1, job_id);
        tracer->add("gen.late", sched_us, sub_us, root, job_id);
        tracer->add("server.queue", sub_us, disp_us, root, job_id);
        tracer->add("server.exec", disp_us, done_us, root, job_id);
      }
      release(std::move(x.rig));
    }
    generator.join();
    const CpuTicks ticks1 = cpu_ticks();
    const double ticks = ticks1.total - ticks0.total;
    m.window_steal.push_back(ticks > 0.0 ? (ticks1.steal - ticks0.steal) / ticks : 0.0);
    m.sent += static_cast<std::int64_t>(sched.size());
    m.window_ms += last_result_ms;
    m.cpu_s += cpu_seconds() - cpu0;
    const core::SimServer::Stats stats1 = s.server->stats();
    const core::TuneStats tune1 = core::AutoTuner::global().stats();
    m.rejected += stats1.rejected - stats0.rejected;
    m.server_failed += stats1.failed - stats0.failed;
    m.retries += stats1.retries - stats0.retries;
    const std::uint64_t warm_measurements = tune1.measurements - tune0.measurements;
    m.warm_measurements += warm_measurements;
    if (warm_measurements != 0) {
      std::fprintf(stderr, "serve_mixed: warm autotune measured %llu times\n",
                   static_cast<unsigned long long>(warm_measurements));
      ++m.failed;
    }
  }

  /// kBurstRounds copies of every template submitted at once, closed loop,
  /// `n` times; returns each burst's makespan, the mix's pass time. Jobs /
  /// makespan is the closed-loop capacity the arrival rate is set against.
  /// Bursts touch every rig, which evicts the open loop's working set from
  /// the caches, so they run only as a layer probe.
  std::vector<double> bursts(int n, Tracer* tracer, Result& out) {
    State& s = *st_;
    std::vector<double> makespan_ms;
    for (int b = 0; b < n; ++b) {
      ScopedSpan span(tracer, "burst");
      std::vector<Sent> wave;
      const Clock::time_point t0 = Clock::now();
      for (std::size_t j = 0; j < templates_.size() * kBurstRounds; ++j) {
        Sent x;
        x.rig = acquire(static_cast<int>(j % templates_.size()));
        x.fut = s.server->submit(make_job(*x.rig, false, 0));
        wave.push_back(std::move(x));
      }
      for (Sent& x : wave) (void)x.fut.wait();
      makespan_ms.push_back(ms_since(t0));
      for (Sent& x : wave) {
        ++out.attempted;
        if (!check(x)) ++out.failed;
        release(std::move(x.rig));
      }
    }
    return makespan_ms;
  }

  void finish(Result& out) override {
    const Samples m = std::exchange(smp_, Samples{});
    const double window_s = m.window_ms * 1e-3;
    out.attempted += m.attempted;
    out.failed += m.failed;
    out.e2e["cells_per_s"] = {m.cells / window_s, "cells/s"};
    out.e2e["jobs_per_s"] = {static_cast<double>(m.sojourn.size()) / window_s, "1/s"};
    // Percentiles per open-loop window of kJobsPerWindow jobs (so ten or
    // more lie beyond p99), over the calmer half of the windows by host
    // steal, then the 10th percentile over those windows: load from other
    // guests of the host, which lasts from a fraction of a second to
    // minutes, only adds latency to the windows it covers, and the fast
    // windows show the program.
    const std::vector<std::vector<double>> calm = calmer_half(m.sojourn_windows, m.window_steal);
    const WindowedTail p50 = windowed_percentile(calm, 50);
    const WindowedTail tail = windowed_percentile(calm, 99);
    out.e2e["sojourn_p50_ms"] = {p50.value, "ms"};
    out.e2e["sojourn_p99_ms"] = {tail.value, "ms"};
    out.e2e["sim_gcells_geomean"] = {m.sim_gcells, "GCells/s"};
    out.headline = out.e2e["sojourn_p50_ms"].value;
    out.headline_higher_is_better = false;

    out.layer["server.submit_us.p50"] = {median(m.submit_us), "us"};
    out.layer["server.submit_us.p99"] = {percentile(m.submit_us, 99), "us"};
    out.layer["server.queue_ms.p50"] = {median(m.queue_ms), "ms"};
    out.layer["server.queue_ms.p99"] = {percentile(m.queue_ms, 99), "ms"};
    for (const char* c : {"stencil2d", "stencil3d", "conv2d", "chain"}) {
      const auto it = m.exec_by_class.find(c);
      out.layer[std::string("server.exec_ms_p50.") + c] = {
          it == m.exec_by_class.end() ? 0.0 : median(it->second), "ms"};
    }
    out.layer["server.device_busy_frac"] = {
        m.exec_total_ms / (m.window_ms * static_cast<double>(m.devices)), "fraction"};
    out.layer["server.workspaces_created"] = {static_cast<double>(m.workspaces_created),
                                              "count"};
    out.layer["server.rejected"] = {static_cast<double>(m.rejected), "count"};
    out.layer["server.failed"] = {static_cast<double>(m.server_failed), "count"};
    out.layer["server.retries"] = {static_cast<double>(m.retries), "count"};
    out.layer["autotune.warm_measurements"] = {static_cast<double>(m.warm_measurements),
                                               "count"};
    out.layer["gen.late_ms_p99"] = {percentile(m.late, 99), "ms"};
    out.layer["host.cpu_s_per_gcell"] = {m.cpu_s / (m.cells * 1e-9), "s/GCell"};

    out.notes["rate_per_s"] = json_number(rate_per_s_);
    out.notes["jobs_sent"] = json_number(static_cast<double>(m.sent));
    out.notes["jobs_served"] = json_number(static_cast<double>(m.sojourn.size()));
    out.notes["sojourn_windows"] = json_number(static_cast<double>(tail.windows));
    out.notes["sojourn_p99_supported"] = tail.supported == tail.windows ? "true" : "false";
    out.notes["window_steal_median"] = json_number(median(m.window_steal));
    out.notes["sojourn_p50_all_windows_ms"] =
        json_number(windowed_percentile(m.sojourn_windows, 50).value);
    out.notes["sojourn_p99_all_windows_ms"] =
        json_number(windowed_percentile(m.sojourn_windows, 99).value);
    out.notes["sojourn_p50_pooled_ms"] = json_number(median(m.sojourn));
    out.notes["sojourn_p99_pooled_ms"] = json_number(tail_percentile(m.sojourn, 99).value);
    out.notes["devices"] = json_number(static_cast<double>(m.devices));
  }

  void probe_layers(Tracer* tracer, Result& out) override {
    State& s = *st_;
    const std::vector<double> burst_ms = bursts(kProbeBursts, tracer, out);
    out.layer["suite_p10_ms"] = {percentile(burst_ms, 10), "ms"};
    out.notes["capacity_jobs_per_s"] = json_number(
        static_cast<double>(templates_.size() * kBurstRounds) / (median(burst_ms) * 1e-3));
    core::AutoTuner& tuner = core::AutoTuner::global();
    const core::TuneStats before = tuner.stats();
    std::vector<double> us;
    for (int i = 0; i < 40; ++i) {
      const int t = i % static_cast<int>(templates_.size());
      if (!templates_[static_cast<std::size_t>(t)].tunable()) continue;
      std::unique_ptr<Rig> rig = acquire(t);
      const core::SimJob job = make_job(*rig, true, 0);
      {
        ScopedSpan span(tracer, "probe.autotune.resolve");
        const Clock::time_point t0 = Clock::now();
        (void)tuner.resolve(sim::tesla_v100(), job, &s.group->device(0));
        us.push_back(ms_since(t0) * 1e3);
      }
      release(std::move(rig));
    }
    out.layer["autotune.resolve_us"] = {median(us), "us"};
    if (tuner.stats().measurements != before.measurements) ++out.failed;
    ++out.attempted;
  }

  void teardown() override {
    // The server drains and stops before the group its devices live in.
    if (st_ != nullptr) st_->server.reset();
    st_.reset();
  }

 private:
  struct Sent {
    Arrival arrival;
    std::unique_ptr<Rig> rig;
    core::JobFuture fut;
    Clock::time_point submit;
    Clock::time_point submitted;
  };

  struct State {
    Grid2D<float> src2;
    Grid3D<float> src3;
    std::vector<float> filter;
    std::vector<std::uint64_t> golden;
    std::mutex free_m;
    std::vector<std::vector<std::unique_ptr<Rig>>> free;  // guarded by free_m
    std::unique_ptr<sim::DeviceGroup> group;
    std::unique_ptr<core::SimServer> server;
  };

  /// What measure() gathers across set-ups until finish().
  struct Samples {
    std::vector<double> sojourn;
    std::vector<std::vector<double>> sojourn_windows;  // one per open-loop window
    std::vector<double> window_steal;                  // host steal share, per window
    std::vector<double> late;
    std::vector<double> submit_us;
    std::vector<double> queue_ms;
    std::map<std::string, std::vector<double>> exec_by_class;
    double exec_total_ms = 0.0;
    double cells = 0.0;
    double window_ms = 0.0;
    double cpu_s = 0.0;
    std::uint64_t rejected = 0;
    std::uint64_t server_failed = 0;
    std::uint64_t retries = 0;
    std::uint64_t warm_measurements = 0;
    std::uint64_t workspaces_created = 0;
    int devices = 0;
    int segments = 0;
    std::int64_t sent = 0;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    double sim_gcells = 0.0;
  };

  [[nodiscard]] std::unique_ptr<Rig> new_rig(int tmpl) const {
    auto rig = std::make_unique<Rig>();
    rig->tmpl = tmpl;
    const Template& t = templates_[static_cast<std::size_t>(tmpl)];
    if (t.kind == core::JobKind::kStencil3D) {
      rig->a3 = Grid3D<float>(kNx3, kNy3, kNz3);
      rig->b3 = Grid3D<float>(kNx3, kNy3, kNz3);
    } else {
      rig->a2 = Grid2D<float>(kSide2D, kSide2D);
      rig->b2 = Grid2D<float>(kSide2D, kSide2D);
    }
    restore(*rig);
    return rig;
  }

  std::unique_ptr<Rig> acquire(int tmpl) {
    {
      std::lock_guard<std::mutex> lock(st_->free_m);
      auto& list = st_->free[static_cast<std::size_t>(tmpl)];
      if (!list.empty()) {
        std::unique_ptr<Rig> r = std::move(list.back());
        list.pop_back();
        return r;
      }
    }
    return new_rig(tmpl);
  }

  /// Rigs go back to the free list ready to run, so the generator's
  /// critical path holds no copies.
  void release(std::unique_ptr<Rig> rig) {
    restore(*rig);
    std::lock_guard<std::mutex> lock(st_->free_m);
    st_->free[static_cast<std::size_t>(rig->tmpl)].push_back(std::move(rig));
  }

  /// Stencil jobs update their grid in place: reset it to the template's
  /// input. Conv and chain jobs read the shared input grid.
  void restore(Rig& rig) const {
    const Template& t = templates_[static_cast<std::size_t>(rig.tmpl)];
    if (t.kind == core::JobKind::kStencil3D) {
      rig.a3 = st_->src3;
    } else if (t.kind == core::JobKind::kStencil2D) {
      rig.a2 = st_->src2;
    }
  }

  [[nodiscard]] core::SimJob make_job(Rig& rig, bool auto_tune, int tenant) const {
    const Template& t = templates_[static_cast<std::size_t>(rig.tmpl)];
    core::JobHints h;
    h.auto_tune = auto_tune;
    core::SimJob job;
    switch (t.kind) {
      case core::JobKind::kStencil2D:
        job = core::SimJob::stencil2d(rig.a2, rig.b2, t.shape, t.steps, h);
        break;
      case core::JobKind::kStencil3D:
        job = core::SimJob::stencil3d(rig.a3, rig.b3, t.shape, t.steps, h);
        break;
      case core::JobKind::kConv2D:
        job = core::SimJob::conv2d(
            st_->src2, rig.b2,
            std::vector<float>(st_->filter.begin(),
                               st_->filter.begin() + static_cast<std::ptrdiff_t>(t.filter) * t.filter),
            t.filter, t.filter, h);
        break;
      case core::JobKind::kChain:
        job = core::SimJob::chain2d(st_->src2, rig.b2, t.stages, h);
        break;
    }
    job.tenant = tenant;
    return job;
  }

  [[nodiscard]] std::uint64_t output_hash(const Rig& rig) const {
    const Template& t = templates_[static_cast<std::size_t>(rig.tmpl)];
    switch (t.kind) {
      case core::JobKind::kStencil2D:
        return hash_bytes(rig.a2.data(), static_cast<std::size_t>(rig.a2.size()) * 4);
      case core::JobKind::kStencil3D:
        return hash_bytes(rig.a3.data(), static_cast<std::size_t>(rig.a3.size()) * 4);
      default:
        return hash_bytes(rig.b2.data(), static_cast<std::size_t>(rig.b2.size()) * 4);
    }
  }

  /// Waits for the job and checks it completed with the golden output.
  bool check(const Sent& x) const {
    const core::JobResult& r = x.fut.wait();
    if (r.status != core::JobStatus::kCompleted) {
      std::fprintf(stderr, "serve_mixed: job did not complete (%s)\n",
                   r.error.describe().c_str());
      return false;
    }
    if (output_hash(*x.rig) != st_->golden[static_cast<std::size_t>(x.rig->tmpl)]) {
      std::fprintf(stderr, "serve_mixed: %s output differs from its golden\n",
                   templates_[static_cast<std::size_t>(x.rig->tmpl)].name.c_str());
      return false;
    }
    return true;
  }

  /// Simulated V100 GCells/s of each template's (first-stage) kernel at its
  /// grid size, geomean over the mix.
  double sim_gcells() {
    const sim::ArchSpec& arch = sim::tesla_v100();
    std::vector<double> g;
    Grid2D<float> out2(kSide2D, kSide2D);
    Grid3D<float> out3(kNx3, kNy3, kNz3);
    for (const Template& t : templates_) {
      sim::KernelStats st;
      double cells = static_cast<double>(kSide2D) * kSide2D;
      switch (t.kind) {
        case core::JobKind::kStencil3D:
          st = core::stencil3d_ssam<float>(arch, st_->src3.cview(), t.shape, out3.view(), {},
                                           sim::ExecMode::kTiming);
          cells = static_cast<double>(kNx3) * kNy3 * kNz3;
          break;
        case core::JobKind::kConv2D:
          st = core::conv2d_ssam<float>(
              arch, st_->src2.cview(),
              std::span<const float>(st_->filter.data(),
                                     static_cast<std::size_t>(t.filter) * t.filter),
              t.filter, t.filter, out2.view(), {}, sim::ExecMode::kTiming);
          break;
        default:
          st = core::stencil2d_ssam<float>(arch, st_->src2.cview(), t.shape, out2.view(), {},
                                           sim::ExecMode::kTiming);
      }
      g.push_back(sim::gcells_per_s(cells, sim::estimate_runtime(arch, st)));
    }
    return geomean(g);
  }

  RunContext ctx_;
  double rate_per_s_;
  std::vector<Template> templates_;
  std::unique_ptr<State> st_;
  Samples smp_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed(const RunContext& ctx) {
  return std::make_unique<ServeMixed>(ctx, kMixedRatePerS);
}

std::unique_ptr<Workload> make_serve_light(const RunContext& ctx) {
  return std::make_unique<ServeMixed>(ctx, kLightRatePerS);
}

}  // namespace perfbench
