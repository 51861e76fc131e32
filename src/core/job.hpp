// The unified job request API: one typed description of a simulation
// request, one dispatch path for everyone who runs it.
//
// The kernel layers expose one entry point per kernel plus two option
// structs (`PersistentOptions`, `ShardPolicy`) — fine for one caller
// driving one large workload, unusable as the request surface of a
// multi-tenant service. `SimJob` collapses a request into one value:
// kernel kind, grids, stencil shape or filter, step count, policy hints,
// and the tenant/priority fields the scheduler needs. `run_job` is the
// single dispatch path under both worlds: the free functions and examples
// call it directly on the global pool, the `SimServer` (core/server.hpp)
// calls it device-pinned with a leased workspace — so a job's output is
// bit-identical whichever door it entered through (the repo-wide
// determinism invariant extends to the service).
//
// Lifetime: a SimJob references caller-owned grids. They must stay alive
// and untouched until the job's `JobFuture` reports completion.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/grid.hpp"
#include "core/chain.hpp"
#include "core/config.hpp"
#include "core/conv2d.hpp"
#include "core/iterate_persistent.hpp"
#include "core/stencil_shape.hpp"
#include "gpusim/device.hpp"
#include "perfmodel/latency_model.hpp"

namespace ssam::core {

enum class JobKind { kStencil2D, kStencil3D, kConv2D, kChain };

/// Per-job policy knobs (the subset of PersistentOptions a service client
/// may reasonably hint; sharding is the server's business, not the job's).
struct JobHints {
  IterationPolicy policy = IterationPolicy::kAuto;
  int tiles = 0;  ///< 0: auto
  int t = 1;      ///< fused time steps per sweep
  int p = 4;
  int block_threads = 128;
  int warps3d = 8;
  /// Pick policy and tiles with the autotuner (core/autotune.hpp) instead of
  /// taking the fields above literally: the latency model decides, with no
  /// measurement and no file. Only the bit-safe knobs are tuned — `t`, `p`,
  /// `block_threads` stay as hinted, so a tuned run is bit-identical to the
  /// default run of the same job.
  bool auto_tune = false;
};

/// One simulation request. Build with the factories; the service API is
/// fixed to float (the paper's precision), the underlying kernels stay
/// templated for direct callers.
struct SimJob {
  JobKind kind = JobKind::kStencil2D;

  // Stencil jobs: ping/pong grids, the final state ends in *a.
  Grid2D<float>* a2 = nullptr;
  Grid2D<float>* b2 = nullptr;
  Grid3D<float>* a3 = nullptr;
  Grid3D<float>* b3 = nullptr;
  StencilShape<float> shape;
  int steps = 1;  ///< sweeps (each advances hints.t fused time steps)

  // Convolution jobs: a2 = input, b2 = output, row-major M x N filter.
  std::vector<float> filter;
  int filter_m = 0;
  int filter_n = 0;

  // Chain jobs: a2 = input, b2 = output (distinct grids), one stage per
  // entry; `steps` mirrors the depth and `shape` the first stage's shape
  // (both feed the scheduler's cost/footprint estimates only).
  std::vector<ChainStage<float>> stages;

  JobHints hints;
  int tenant = 0;    ///< fair-queuing bucket (weight via SimServer)
  /// >= 0; boosts the tenant's effective weight for THIS job (its fair-
  /// queuing tag increment shrinks by 1/(1+priority), buying the tenant
  /// more share against other tenants). It does not reorder jobs within
  /// one tenant: each tenant's own queue drains strictly FIFO.
  int priority = 0;
  /// > 0: the job must finish within this many milliseconds of submission.
  /// The server's watchdog cancels overdue work (kCancelled with a
  /// deadline-exceeded error) and, with ServerOptions::shed_on_deadline,
  /// admission refuses jobs predicted to miss (kRejected, deadline-
  /// unmeetable). 0: no deadline.
  double deadline_ms = 0.0;
  /// Optional caller-provided cancellation handle. Normally left inert:
  /// `submit` gives every accepted job a live token reachable through
  /// JobFuture::cancel(). Set one explicitly to share a token across jobs
  /// (cancel a whole batch at once) or to cancel direct run_job calls.
  CancelToken cancel;

  [[nodiscard]] static SimJob stencil2d(Grid2D<float>& a, Grid2D<float>& b,
                                        StencilShape<float> shape, int steps,
                                        JobHints hints = {}) {
    SimJob j;
    j.kind = JobKind::kStencil2D;
    j.a2 = &a;
    j.b2 = &b;
    j.shape = std::move(shape);
    j.steps = steps;
    j.hints = hints;
    return j;
  }

  [[nodiscard]] static SimJob stencil3d(Grid3D<float>& a, Grid3D<float>& b,
                                        StencilShape<float> shape, int steps,
                                        JobHints hints = {}) {
    SimJob j;
    j.kind = JobKind::kStencil3D;
    j.a3 = &a;
    j.b3 = &b;
    j.shape = std::move(shape);
    j.steps = steps;
    j.hints = hints;
    return j;
  }

  [[nodiscard]] static SimJob conv2d(Grid2D<float>& in, Grid2D<float>& out,
                                     std::vector<float> filter, int filter_m,
                                     int filter_n, JobHints hints = {}) {
    SimJob j;
    j.kind = JobKind::kConv2D;
    j.a2 = &in;
    j.b2 = &out;
    j.filter = std::move(filter);
    j.filter_m = filter_m;
    j.filter_n = filter_n;
    j.steps = 1;
    j.hints = hints;
    return j;
  }

  /// A depth-k stage chain from `in` to `out` (one fused launch under
  /// kAuto/kPersistent; see core/chain.hpp). The grids must be distinct.
  [[nodiscard]] static SimJob chain2d(Grid2D<float>& in, Grid2D<float>& out,
                                      std::vector<ChainStage<float>> stages,
                                      JobHints hints = {}) {
    SSAM_REQUIRE(!stages.empty(), "chain2d job needs at least one stage");
    SimJob j;
    j.kind = JobKind::kChain;
    j.a2 = &in;
    j.b2 = &out;
    j.steps = static_cast<int>(stages.size());
    j.shape = stages.front().shape;
    j.stages = std::move(stages);
    j.hints = hints;
    return j;
  }

  /// Grid cells touched per sweep — the scheduler's work estimate.
  [[nodiscard]] Index cells() const {
    switch (kind) {
      case JobKind::kStencil2D:
      case JobKind::kConv2D:
      case JobKind::kChain:
        return a2 != nullptr ? a2->size() : 0;
      case JobKind::kStencil3D:
        return a3 != nullptr ? a3->size() : 0;
    }
    return 0;
  }

  /// Total work estimate (cells x sweeps), the fair-queuing cost unit.
  [[nodiscard]] double cost() const {
    const Index c = cells();
    const int s = steps < 1 ? 1 : steps;
    return static_cast<double>(c) * static_cast<double>(s);
  }
};

namespace detail {

/// Horizontal tap extent (the Eq. 4 shuffle axis), active tap count, and the
/// band-axis extent (rows in 2D, z-planes in 3D — what halos are made of).
struct TapFootprint {
  int taps = 1;
  int mx = 1;
  int rows = 1;
};

[[nodiscard]] inline TapFootprint footprint_of(const StencilShape<float>& shape,
                                               bool three_d) {
  TapFootprint f;
  if (shape.taps.empty()) return f;
  int dx0 = 0, dx1 = 0, dy0 = 0, dy1 = 0, dz0 = 0, dz1 = 0;
  for (const auto& t : shape.taps) {
    dx0 = std::min(dx0, t.dx);
    dx1 = std::max(dx1, t.dx);
    dy0 = std::min(dy0, t.dy);
    dy1 = std::max(dy1, t.dy);
    dz0 = std::min(dz0, t.dz);
    dz1 = std::max(dz1, t.dz);
  }
  f.taps = static_cast<int>(shape.taps.size());
  f.mx = dx1 - dx0 + 1;
  f.rows = three_d ? (dz1 - dz0 + 1) : (dy1 - dy0 + 1);
  return f;
}

/// Band-axis rows that price one sweep's halo exchange: the footprint rows
/// times the fused steps. A chain's band layout is sized to its deepest
/// stage (core/chain.hpp), so a chain takes the largest stage rows times
/// that stage's `t` (a dual stage counts the deeper of its two tap sets);
/// `hints.t` does not apply to chains.
[[nodiscard]] inline int halo_rows(const SimJob& job) {
  if (job.kind != JobKind::kChain) {
    return footprint_of(job.shape, job.kind == JobKind::kStencil3D).rows *
           std::max(1, job.hints.t);
  }
  int rows = 1;
  for (const auto& st : job.stages) {
    int r = footprint_of(st.shape, false).rows;
    if (st.dual()) r = std::max(r, footprint_of(st.shape_b, false).rows);
    rows = std::max(rows, r * std::max(1, st.t));
  }
  return rows;
}

}  // namespace detail

/// Latency-model work units of the whole job: the per-element SSAM latency
/// (Equation 4, sparse-generalized — the kernels execute exactly the taps a
/// shape names, so the model charges those taps, not the bounding box) times
/// cells times sweeps. A chain charges each of its stages (temporal ones t
/// times); a stencil job charges its `hints.t` fused time steps per sweep.
/// The server's deadline-shed predictor and the autotuner's compute term
/// both price jobs with this.
[[nodiscard]] inline double model_units(const SimJob& job, const perf::MicroLatencies& lat) {
  const double cells = static_cast<double>(job.cells());
  switch (job.kind) {
    case JobKind::kConv2D: {
      const int m = std::max(1, job.filter_m);
      return perf::latency_ssam_taps(m * std::max(1, job.filter_n), m, lat) * cells;
    }
    case JobKind::kChain: {
      double per_elem = 0.0;
      for (const auto& st : job.stages) {
        const detail::TapFootprint f = detail::footprint_of(st.shape, false);
        per_elem += perf::latency_ssam_taps(f.taps, f.mx, lat) * std::max(1, st.t);
        if (st.dual()) {
          const detail::TapFootprint fb = detail::footprint_of(st.shape_b, false);
          per_elem += perf::latency_ssam_taps(fb.taps, fb.mx, lat);
        }
      }
      return per_elem * cells;
    }
    case JobKind::kStencil2D:
    case JobKind::kStencil3D: {
      const detail::TapFootprint f =
          detail::footprint_of(job.shape, job.kind == JobKind::kStencil3D);
      return perf::latency_ssam_taps(f.taps, f.mx, lat) * cells *
             std::max(1, job.hints.t) * std::max(1, job.steps);
    }
  }
  return 0.0;
}

enum class JobStatus {
  kPending,    ///< not finished yet (never visible through a fulfilled future)
  kRejected,   ///< admission control refused it (queue full / shed / stopped)
  kFailed,     ///< validation or execution error; see `error`
  kCancelled,  ///< cancelled (user cancel or deadline) before completion
  kCompleted,  ///< ran; outputs are in the job's grids
};

struct JobResult {
  JobStatus status = JobStatus::kPending;
  PersistentRunStats run;   ///< what the engine actually did
  int device = -1;          ///< device index the job ran on (-1: none)
  std::uint64_t seq = 0;    ///< global completion sequence number
  double queue_ms = 0.0;    ///< submit -> dispatch
  double exec_ms = 0.0;     ///< dispatch -> done (all attempts)
  JobError error;           ///< non-kCompleted: what went wrong (final attempt)
  int attempts = 0;         ///< execution attempts (> 1: the server retried)
  /// Per-attempt errors of the attempts that failed, in order — a job that
  /// completed after two transient faults carries both here.
  std::vector<JobError> attempt_errors;
};

namespace detail {

/// Shared completion state behind a JobFuture: a one-shot signal carrying
/// the typed result.
struct JobState {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  JobResult result;
  /// The job's live cancellation token (set by SimServer::submit); the
  /// future's cancel() and the server's deadline watchdog both act on it.
  CancelToken cancel;

  void fulfill(JobResult r) {
    {
      std::lock_guard<std::mutex> lock(m);
      result = std::move(r);
      done = true;
    }
    cv.notify_all();
  }
};

}  // namespace detail

/// Handle to an accepted (or rejected) job. Cheap to copy; `wait` blocks
/// until the server fulfils it.
class JobFuture {
 public:
  JobFuture() = default;
  explicit JobFuture(std::shared_ptr<detail::JobState> s) : state_(std::move(s)) {}

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  [[nodiscard]] bool ready() const {
    if (state_ == nullptr) return false;
    std::lock_guard<std::mutex> lock(state_->m);
    return state_->done;
  }

  /// Blocks until the job finishes and returns its result. The returned
  /// reference stays valid as long as any copy of this future exists —
  /// which is why waiting on a temporary is deleted below: the reference
  /// would dangle the moment the full expression ends.
  const JobResult& wait() const& {
    SSAM_REQUIRE(state_ != nullptr, "waiting on an empty JobFuture");
    std::unique_lock<std::mutex> lock(state_->m);
    state_->cv.wait(lock, [&] { return state_->done; });
    return state_->result;
  }
  /// `submit(job).wait()` would return a reference into a future destroyed
  /// at the semicolon. Name the future, then wait on it.
  const JobResult& wait() const&& = delete;

  /// Blocks up to `timeout_ms`; true when the job reached a terminal
  /// status in time. The chaos suite's hang detector.
  [[nodiscard]] bool wait_for(double timeout_ms) const {
    SSAM_REQUIRE(state_ != nullptr, "waiting on an empty JobFuture");
    std::unique_lock<std::mutex> lock(state_->m);
    return state_->cv.wait_for(lock, std::chrono::duration<double, std::milli>(timeout_ms),
                               [&] { return state_->done; });
  }

  /// Requests cooperative cancellation: queued work is fulfilled kCancelled
  /// at the server's next pump, running work unwinds at its next sweep
  /// boundary. Idempotent; a no-op once the job is terminal (results are
  /// never retracted).
  void cancel() const {
    if (state_ != nullptr) state_->cancel.cancel(static_cast<int>(ErrorCode::kCancelled));
  }

 private:
  std::shared_ptr<detail::JobState> state_;
};

/// Defined in core/autotune.cpp: resolves `job` through the AutoTuner and
/// applies the tuned schedule's bit-safe knobs (policy, tiles) to `popt`.
/// Declared here so run_job stays header-only without a cyclic include
/// (autotune.hpp includes this header for SimJob).
void autotune_apply(const sim::ArchSpec& arch, const SimJob& job,
                    sim::Device* device, PersistentOptions& popt);

/// THE dispatch path: runs `job` synchronously on `device`'s pool slice
/// (null: the global pool), using `ws` for tile residence (null: the
/// calling thread's default workspace). The SimServer calls this from a
/// task on the device's pool with a leased warm workspace; direct callers
/// and the examples call it bare — both produce bit-identical outputs. Throws
/// PreconditionError on an invalid job (the server catches and reports
/// kFailed instead of dying).
inline PersistentRunStats run_job(const sim::ArchSpec& arch, const SimJob& job,
                                  sim::Device* device = nullptr,
                                  sim::PersistentWorkspace* ws = nullptr) {
  PersistentOptions popt;
  popt.policy = job.hints.policy;
  popt.tiles = job.hints.tiles;
  popt.t = job.hints.t;
  popt.p = job.hints.p;
  popt.block_threads = job.hints.block_threads;
  popt.warps3d = job.hints.warps3d;
  popt.device = device;
  popt.cancel = job.cancel;
  // The SimServer reaches this line too (it dispatches every job through
  // run_job), so auto_tune jobs resolve through the tuner on both doors.
  if (job.hints.auto_tune) autotune_apply(arch, job, device, popt);
  switch (job.kind) {
    case JobKind::kStencil2D: {
      SSAM_REQUIRE(job.a2 != nullptr && job.b2 != nullptr, "stencil2d job needs grids");
      SSAM_REQUIRE(!job.shape.taps.empty(), "stencil2d job needs a stencil shape");
      return iterate_stencil2d_persistent<float>(arch, *job.a2, *job.b2, job.shape,
                                                 job.steps, popt, detail::NoPost{},
                                                 nullptr, ws);
    }
    case JobKind::kStencil3D: {
      SSAM_REQUIRE(job.a3 != nullptr && job.b3 != nullptr, "stencil3d job needs grids");
      SSAM_REQUIRE(!job.shape.taps.empty(), "stencil3d job needs a stencil shape");
      return iterate_stencil3d_persistent<float>(arch, *job.a3, *job.b3, job.shape,
                                                 job.steps, popt, detail::NoPost{},
                                                 nullptr, ws);
    }
    case JobKind::kConv2D: {
      SSAM_REQUIRE(job.a2 != nullptr && job.b2 != nullptr, "conv2d job needs grids");
      // One launch = one "sweep": same cancel/fault gate as the iterative
      // paths, on the calling thread.
      detail::relaunch_sweep_gate(popt.cancel, device != nullptr ? device->index() : -1);
      const ConvOptions copt{job.hints.p, job.hints.block_threads};
      const detail::Conv2dSetup s = detail::conv2d_setup<float>(
          job.a2->cview(), job.filter.size(), job.filter_m, job.filter_n, copt);
      auto body =
          detail::make_conv2d_body<float>(s, job.a2->cview(), job.filter.data(),
                                          job.b2->view());
      ThreadPool& lane = device != nullptr ? device->pool() : ThreadPool::global();
      sim::detail::run_functional_grid_on(lane, arch, s.cfg, body);
      if (device != nullptr) {
        device->counters().sweeps.fetch_add(1, std::memory_order_relaxed);
      }
      PersistentRunStats r;
      r.sweeps = 1;
      return r;
    }
    case JobKind::kChain: {
      SSAM_REQUIRE(job.a2 != nullptr && job.b2 != nullptr, "chain job needs grids");
      SSAM_REQUIRE(!job.stages.empty(), "chain job needs stages");
      return run_chain2d<float>(arch, *job.a2, *job.b2, job.stages, popt, ws);
    }
  }
  SSAM_REQUIRE(false, "unknown job kind");
  return {};
}

}  // namespace ssam::core
