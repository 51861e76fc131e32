// Multi-tenant service throughput: the SimServer (core/server.hpp) under
// two load shapes, written to BENCH_server_throughput.json so the service
// numbers are tracked across PRs alongside the kernel throughput bench.
//
//  * server_saturation_d4 — a closed batch of mixed jobs (stencil2d,
//    stencil3d, conv2d) submitted all at once to a 4-device group (one
//    worker each) and drained: jobs/sec with every scheduling layer hot
//    (admission, fair queuing, device packing, warm workspace leases,
//    small-job batch lane). The serial baseline is the same job list as
//    submit-and-wait — one job in flight at a time — so
//    `speedup_vs_serial` is the concurrency the service actually extracts
//    from the group. On a 1-core host the honest number is ~1.0x (four
//    1-worker devices time-slice one core); the CI gate asserts >= 2x on
//    its 4-vCPU runner. Every server output is memcmp'd against a direct
//    `run_job` golden; any mismatch sets bit_identical = false and the
//    bench exits nonzero (determinism is the gate, speed is the report).
//
//  * server_openloop_d4 — an open-loop arrival stream: exponential
//    interarrival gaps (fixed-seed Poisson process) submitted from one
//    client thread regardless of completion, i.e. the arrival rate does
//    not slow down when the server queues — the load shape that exposes
//    queueing delay. Reported: sustained jobs/sec and the p50/p99 of
//    per-job sojourn time (submit -> future fulfilled, = queue_ms +
//    exec_ms from the JobResult).
//
//  * server_overload_shed — a bimodal burst under deadline pressure with
//    `shed_on_deadline` on: jobs whose predicted execution time exceeds
//    their deadline are refused at admission, protecting the sojourn tail
//    of the jobs that can still make it. Reported: goodput, shed count,
//    admitted-but-missed count, completed-job sojourn p50/p99.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/grid.hpp"
#include "common/rng.hpp"
#include "core/job.hpp"
#include "core/server.hpp"
#include "core/stencil_shape.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/device.hpp"
#include "gpusim/simd/simd.hpp"

namespace {

using namespace ssam;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workload: one Case owns its grids (jobs run concurrently, nothing is
// shared) plus a golden copy produced by a direct run_job call on the
// global pool — the bit-identity reference for the server output.
// ---------------------------------------------------------------------------

struct Case {
  core::JobKind kind = core::JobKind::kStencil2D;
  Grid2D<float> a2{1, 1}, b2{1, 1}, ga2{1, 1}, gb2{1, 1};
  Grid3D<float> a3{1, 1, 1}, b3{1, 1, 1}, ga3{1, 1, 1}, gb3{1, 1, 1};
  core::StencilShape<float> shape;
  std::vector<float> filter;
  int filter_m = 0, filter_n = 0;
  int steps = 1;
  core::JobHints hints;

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
        j = core::SimJob::conv2d(a2, b2, filter, filter_m, filter_n, hints);
        break;
    }
    j.tenant = tenant;
    return j;
  }

  /// Direct-call golden on the ga*/gb* copies (same initial state).
  void run_golden(const sim::ArchSpec& arch) {
    core::SimJob j;
    switch (kind) {
      case core::JobKind::kStencil2D:
        j = core::SimJob::stencil2d(ga2, gb2, shape, steps, hints);
        break;
      case core::JobKind::kStencil3D:
        j = core::SimJob::stencil3d(ga3, gb3, shape, steps, hints);
        break;
      case core::JobKind::kConv2D:
        j = core::SimJob::conv2d(ga2, gb2, filter, filter_m, filter_n, hints);
        break;
    }
    (void)core::run_job(arch, j);
  }

  /// Rewinds both the served and the golden grids to the same fresh state.
  void reset(unsigned seed) {
    switch (kind) {
      case core::JobKind::kStencil2D:
        fill_random(a2, seed);
        ga2 = a2;
        break;
      case core::JobKind::kStencil3D:
        fill_random(a3, seed);
        ga3 = a3;
        break;
      case core::JobKind::kConv2D:
        fill_random(a2, seed);
        ga2 = a2;
        break;
    }
  }

  [[nodiscard]] bool matches_golden() const {
    if (kind == core::JobKind::kStencil3D) {
      return 0 == std::memcmp(a3.data(), ga3.data(),
                              static_cast<std::size_t>(a3.size()) * sizeof(float));
    }
    const Grid2D<float>& out = kind == core::JobKind::kConv2D ? b2 : a2;
    const Grid2D<float>& gold = kind == core::JobKind::kConv2D ? gb2 : ga2;
    return 0 == std::memcmp(out.data(), gold.data(),
                            static_cast<std::size_t>(out.size()) * sizeof(float));
  }
};

std::vector<Case> build_cases(int count, unsigned seed) {
  std::vector<Case> cases;
  cases.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Case c;
    const unsigned s = seed + static_cast<unsigned>(i) * 101u;
    switch (i % 4) {
      case 0: {  // mid-size 2D stencil
        c.kind = core::JobKind::kStencil2D;
        c.a2 = Grid2D<float>(512, 256);
        c.b2 = Grid2D<float>(512, 256);
        c.ga2 = c.a2;
        c.gb2 = c.b2;
        c.shape = core::star2d<float>(1);
        c.steps = 2;
        break;
      }
      case 1: {  // small conv2d — rides the batch lane
        c.kind = core::JobKind::kConv2D;
        c.a2 = Grid2D<float>(96, 96);
        c.b2 = Grid2D<float>(96, 96);
        c.ga2 = c.a2;
        c.gb2 = c.b2;
        c.filter_m = 5;
        c.filter_n = 5;
        c.filter.assign(25, 0.04f);
        break;
      }
      case 2: {  // 3D stencil
        c.kind = core::JobKind::kStencil3D;
        c.a3 = Grid3D<float>(96, 64, 32);
        c.b3 = Grid3D<float>(96, 64, 32);
        c.ga3 = c.a3;
        c.gb3 = c.b3;
        c.shape = core::star3d<float>(1);
        c.steps = 1;
        break;
      }
      default: {  // small 2D stencil, persistent engine forced
        c.kind = core::JobKind::kStencil2D;
        c.a2 = Grid2D<float>(128, 64);
        c.b2 = Grid2D<float>(128, 64);
        c.ga2 = c.a2;
        c.gb2 = c.b2;
        c.shape = core::star2d<float>(1);
        c.steps = 3;
        c.hints.policy = core::IterationPolicy::kPersistent;
        break;
      }
    }
    c.reset(s);
    cases.push_back(std::move(c));
  }
  return cases;
}

// ---------------------------------------------------------------------------
// Result rows, written under "kernels" so check_bench_regression.py reads
// this file with the same loader as the kernel bench.
// ---------------------------------------------------------------------------

struct ServerRow {
  std::string name;
  int devices = 0;
  int jobs = 0;
  double seconds = 0.0;
  double serial_seconds = 0.0;  ///< saturation row only
  double p50_ms = 0.0;          ///< open-loop / shed rows only
  double p99_ms = 0.0;
  double offered_jobs_per_sec = 0.0;
  int bit_identical = -1;
  int submitted = -1;  ///< shed row only: offered / refused / deadline-missed
  int shed = -1;
  int missed = -1;

  [[nodiscard]] double jobs_per_sec() const { return jobs / seconds; }
  [[nodiscard]] double speedup_vs_serial() const {
    return serial_seconds > 0.0 ? serial_seconds / seconds : 0.0;
  }
};

/// Writes the rows as JSON; false (after reporting on stderr) when the file
/// cannot be opened or written.
bool write_json(const std::vector<ServerRow>& rows, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"server_throughput\",\n");
  std::fprintf(f, "  \"simd_backend\": \"%s\",\n", sim::simd::kBackendName);
  std::fprintf(f, "  \"host_threads\": %d,\n  \"kernels\": [\n",
               ThreadPool::global().size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ServerRow& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"devices\": %d, \"jobs\": %d, "
                 "\"seconds\": %.6f, \"jobs_per_sec\": %.1f",
                 r.name.c_str(), r.devices, r.jobs, r.seconds, r.jobs_per_sec());
    if (r.serial_seconds > 0.0) {
      std::fprintf(f, ", \"serial_seconds\": %.6f, \"speedup_vs_serial\": %.2f",
                   r.serial_seconds, r.speedup_vs_serial());
    }
    if (r.p99_ms > 0.0) {
      std::fprintf(f,
                   ", \"offered_jobs_per_sec\": %.1f, \"p50_ms\": %.3f, "
                   "\"p99_ms\": %.3f",
                   r.offered_jobs_per_sec, r.p50_ms, r.p99_ms);
    }
    if (r.bit_identical >= 0) {
      std::fprintf(f, ", \"bit_identical\": %s", r.bit_identical != 0 ? "true" : "false");
    }
    if (r.submitted >= 0) {
      std::fprintf(f, ", \"submitted\": %d, \"shed\": %d, \"missed\": %d",
                   r.submitted, r.shed, r.missed);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
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

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

constexpr int kDevices = 4;

sim::DeviceGroup& bench_group() {
  // Explicit 4 x 1-worker group: stable shape regardless of host cores, so
  // the committed baseline and the CI runner measure the same schedule.
  static sim::DeviceGroup group({sim::DeviceOptions{1, {}, "srv0"},
                                 sim::DeviceOptions{1, {}, "srv1"},
                                 sim::DeviceOptions{1, {}, "srv2"},
                                 sim::DeviceOptions{1, {}, "srv3"}});
  return group;
}

ServerRow saturation(const sim::ArchSpec& arch) {
  const int kJobs = 48;
  std::vector<Case> cases = build_cases(kJobs, 7001);

  core::ServerOptions sopt;
  sopt.arch = &arch;
  sopt.group = &bench_group();
  core::SimServer server(sopt);

  // Warm pass: populates every device's workspace spare pool so the timed
  // passes measure steady-state service, not first-wave arena carving.
  auto batch_submit_all = [&] {
    std::vector<core::JobFuture> futs;
    futs.reserve(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
      futs.push_back(server.submit(cases[i].job(static_cast<int>(i % 3))));
    }
    for (core::JobFuture& f : futs) (void)f.wait();
  };
  batch_submit_all();

  // Timed concurrent pass (best of 3) from a fresh grid state each rep.
  double best = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      cases[i].reset(7001 + static_cast<unsigned>(i) * 101u);
    }
    const auto t0 = Clock::now();
    batch_submit_all();
    best = std::min(best, seconds_between(t0, Clock::now()));
  }

  // Bit-identity of the final rep: reset() rewound the golden grids to the
  // same fresh input the server just consumed, so run the direct-call
  // goldens now and compare.
  bool identical = true;
  for (Case& c : cases) {
    c.run_golden(arch);
    identical = identical && c.matches_golden();
  }

  // Serial baseline: same jobs, same server, one in flight at a time.
  double serial_best = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      cases[i].reset(7001 + static_cast<unsigned>(i) * 101u);
    }
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      // Named on purpose: wait() on a temporary future is deleted (the
      // result reference would dangle at the semicolon).
      core::JobFuture f = server.submit(cases[i].job(static_cast<int>(i % 3)));
      (void)f.wait();
    }
    serial_best = std::min(serial_best, seconds_between(t0, Clock::now()));
  }

  ServerRow r;
  r.name = "server_saturation_d4";
  r.devices = kDevices;
  r.jobs = kJobs;
  r.seconds = best;
  r.serial_seconds = serial_best;
  r.bit_identical = identical ? 1 : 0;
  std::printf(
      "%-24s %7.1f jobs/s  (serial %7.1f jobs/s, speedup %.2fx, "
      "bit-identical %s)\n",
      r.name.c_str(), r.jobs_per_sec(), kJobs / serial_best, r.speedup_vs_serial(),
      identical ? "yes" : "NO");
  return r;
}

ServerRow openloop(const sim::ArchSpec& arch) {
  const int kJobs = 64;
  std::vector<Case> cases = build_cases(kJobs, 9103);

  core::ServerOptions sopt;
  sopt.arch = &arch;
  sopt.group = &bench_group();
  core::SimServer server(sopt);

  // Fixed-seed Poisson process via inverse-CDF exponential gaps; target an
  // offered rate around half the saturation throughput so the queue stays
  // stable and p99 measures scheduling latency, not unbounded backlog.
  const double mean_gap_s = 0.004;
  SplitMix64 rng(424243);
  std::vector<double> gaps(static_cast<std::size_t>(kJobs));
  for (double& g : gaps) {
    g = -mean_gap_s * std::log(std::max(1e-9, 1.0 - rng.next_unit()));
  }

  std::vector<core::JobFuture> futs;
  futs.reserve(cases.size());
  const auto t0 = Clock::now();
  auto next_arrival = t0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    next_arrival += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gaps[i]));
    std::this_thread::sleep_until(next_arrival);
    futs.push_back(server.submit(cases[i].job(static_cast<int>(i % 3))));
  }
  std::vector<double> sojourn_ms;
  sojourn_ms.reserve(futs.size());
  for (core::JobFuture& f : futs) {
    const core::JobResult& jr = f.wait();
    sojourn_ms.push_back(jr.queue_ms + jr.exec_ms);
  }
  const double total_s = seconds_between(t0, Clock::now());

  std::sort(sojourn_ms.begin(), sojourn_ms.end());
  auto pct = [&](double p) {
    const std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(sojourn_ms.size() - 1) + 0.5);
    return sojourn_ms[std::min(idx, sojourn_ms.size() - 1)];
  };

  ServerRow r;
  r.name = "server_openloop_d4";
  r.devices = kDevices;
  r.jobs = kJobs;
  r.seconds = total_s;
  double offered_s = 0.0;
  for (double g : gaps) offered_s += g;
  r.offered_jobs_per_sec = kJobs / offered_s;
  r.p50_ms = pct(0.50);
  r.p99_ms = pct(0.99);
  std::printf(
      "%-24s %7.1f jobs/s sustained (offered %7.1f/s; sojourn p50 %.2f ms, "
      "p99 %.2f ms)\n",
      r.name.c_str(), r.jobs_per_sec(), r.offered_jobs_per_sec, r.p50_ms, r.p99_ms);
  return r;
}

// Deadline-aware admission shedding under overload: a bimodal burst —
// small jobs that fit comfortably inside a mid-range deadline, big jobs
// whose *own execution time* already exceeds it — submitted all at once
// with `shed_on_deadline` on. The server first serves a deadline-free warm
// pass, which both fills the workspace pools and teaches the online
// ms-per-unit EWMA real timings for this host; the deadline is then set to
// the geometric mean of the observed small/big exec times (~10x margin to
// either mode), so the shed decision is robust to host speed. Reported:
// goodput (completed jobs/sec), how many were shed at the door, how many
// admitted jobs still missed (watchdog-cancelled), and the sojourn p50/p99
// of the completed jobs — the number shedding exists to protect.
ServerRow overload_shed(const sim::ArchSpec& arch) {
  constexpr int kSmall = 16;
  constexpr int kBig = 16;
  std::vector<Case> cases;
  cases.reserve(kSmall + kBig);
  for (int i = 0; i < kSmall + kBig; ++i) {
    Case c;
    c.kind = core::JobKind::kStencil2D;
    if (i < kSmall) {
      c.a2 = Grid2D<float>(128, 64);
      c.b2 = Grid2D<float>(128, 64);
      c.steps = 2;
    } else {
      c.a2 = Grid2D<float>(1024, 512);
      c.b2 = Grid2D<float>(1024, 512);
      c.steps = 4;
    }
    c.shape = core::star2d<float>(1);
    c.reset(11311 + static_cast<unsigned>(i) * 101u);
    cases.push_back(std::move(c));
  }

  core::ServerOptions sopt;
  sopt.arch = &arch;
  sopt.group = &bench_group();
  sopt.shed_on_deadline = true;  // calibration stays 0: learned online
  core::SimServer server(sopt);

  // Warm + calibrate: a few of each mode, no deadlines.
  double t_small_ms = 0.0, t_big_ms = 0.0;
  for (int i : {0, 1, kSmall, kSmall + 1}) {
    core::JobFuture f = server.submit(cases[static_cast<std::size_t>(i)].job(0));
    const core::JobResult& jr = f.wait();
    (i < kSmall ? t_small_ms : t_big_ms) =
        std::max(i < kSmall ? t_small_ms : t_big_ms, jr.exec_ms);
  }
  const double deadline_ms =
      std::sqrt(std::max(0.01, t_small_ms) * std::max(0.01, t_big_ms));

  // The burst: everything at once, everything on the same deadline.
  std::vector<core::JobFuture> futs;
  futs.reserve(cases.size());
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    core::SimJob j = cases[i].job(static_cast<int>(i % 3));
    j.deadline_ms = deadline_ms;
    futs.push_back(server.submit(std::move(j)));
  }
  int completed = 0, shed = 0, missed = 0;
  std::vector<double> sojourn_ms;
  for (core::JobFuture& f : futs) {
    const core::JobResult& jr = f.wait();
    switch (jr.status) {
      case core::JobStatus::kCompleted:
        ++completed;
        sojourn_ms.push_back(jr.queue_ms + jr.exec_ms);
        break;
      case core::JobStatus::kRejected:
        ++shed;
        break;
      default:
        ++missed;
        break;
    }
  }
  const double total_s = seconds_between(t0, Clock::now());

  std::sort(sojourn_ms.begin(), sojourn_ms.end());
  auto pct = [&](double p) {
    if (sojourn_ms.empty()) return 0.0;
    const std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(sojourn_ms.size() - 1) + 0.5);
    return sojourn_ms[std::min(idx, sojourn_ms.size() - 1)];
  };

  ServerRow r;
  r.name = "server_overload_shed";
  r.devices = kDevices;
  r.jobs = completed;
  r.seconds = total_s;
  r.p50_ms = pct(0.50);
  r.p99_ms = pct(0.99);
  r.submitted = kSmall + kBig;
  r.shed = shed;
  r.missed = missed;
  std::printf(
      "%-24s %7.1f jobs/s goodput (deadline %.2f ms: %d/%d shed at the door, "
      "%d admitted missed; sojourn p50 %.2f ms, p99 %.2f ms)\n",
      r.name.c_str(), r.jobs_per_sec(), deadline_ms, shed, kSmall + kBig, missed,
      r.p50_ms, r.p99_ms);
  return r;
}

}  // namespace

int main() {
  const sim::ArchSpec& arch = sim::tesla_v100();
  std::printf("SimServer throughput (4 x 1-worker devices, %s lanes, %d host threads)\n\n",
              sim::simd::kBackendName, ThreadPool::global().size());

  std::vector<ServerRow> rows;
  rows.push_back(saturation(arch));
  rows.push_back(openloop(arch));
  rows.push_back(overload_shed(arch));
  if (!write_json(rows, "BENCH_server_throughput.json")) return 1;

  // Exit code gates determinism only: throughput and latency vary with the
  // host; a server output differing from the direct call never may.
  for (const ServerRow& r : rows) {
    if (r.bit_identical == 0) {
      std::fprintf(stderr, "FAIL: %s served outputs differ from direct calls\n",
                   r.name.c_str());
      return 1;
    }
  }
  return 0;
}
