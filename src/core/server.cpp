#include "core/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <limits>
#include <utility>

#include "core/faultinject.hpp"
#include "gpusim/arch.hpp"
#include "perfmodel/latency_model.hpp"

namespace ssam::core {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::duration ms_duration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// The JobError a cancelled job reports, keyed by the token's reason.
JobError cancel_error(int reason, const std::string& detail) {
  if (reason == static_cast<int>(ErrorCode::kDeadlineExceeded)) {
    return JobError{ErrorCode::kDeadlineExceeded, false, detail};
  }
  return JobError{ErrorCode::kCancelled, false, detail};
}

}  // namespace

/// One admitted, not-yet-dispatched job with its fair-queuing tag and the
/// fault-tolerance bookkeeping that survives across attempts.
struct SimServer::Pending {
  SimJob job;
  std::shared_ptr<detail::JobState> state;
  double start_tag = 0.0;   ///< SFQ start tag; vtime advances here on dispatch
  double finish_tag = 0.0;  ///< start + cost/effective-weight; dispatch order key
  double units = 0.0;       ///< latency-model work units (shed/EWMA x-axis)
  Clock::time_point submitted_at;
  Clock::time_point deadline{};  ///< valid when has_deadline
  bool has_deadline = false;
  int attempts = 0;                         ///< execution attempts so far
  std::vector<JobError> attempt_errors;     ///< errors of failed attempts
  /// Pristine inputs for retry, taken at submit only while the fault
  /// injector is armed — the non-faulting path never copies.
  std::shared_ptr<std::vector<float>> snapshot;
  double queue_ms = 0.0;  ///< submit -> first dispatch
  double exec_ms = 0.0;   ///< accumulated across attempts
  Clock::time_point retry_at{};  ///< in retry_q_: due time after backoff
};

struct SimServer::Tenant {
  double weight = 1.0;
  double last_finish = 0.0;  ///< finish tag of the tenant's latest submit
  std::deque<Pending> q;     ///< FIFO within the tenant
};

/// A probe job's resident grids: tiny (a few KB), owned by the server so a
/// quarantined device can be exercised without touching any client data.
struct SimServer::ProbeRig {
  Grid2D<float> a{32, 32, 1.0F};
  Grid2D<float> b{32, 32};
  StencilShape<float> shape = star2d<float>(1);
};

SimServer::SimServer(ServerOptions opt)
    : opt_(opt),
      // Qualified: plain `config()` here would name the SimServer::config
      // accessor of this not-yet-constructed object.
      config_(::ssam::core::config()),
      arch_(opt.arch != nullptr ? opt.arch : &sim::tesla_v100()),
      completion_seq_(std::make_shared<std::atomic<std::uint64_t>>(0)) {
  SSAM_REQUIRE(opt_.max_in_flight_per_device >= 1, "device job slots must be positive");
  SSAM_REQUIRE(opt_.max_attempts >= 1, "a job needs at least one attempt");
  SSAM_REQUIRE(opt_.quarantine_after >= 1, "quarantine threshold must be positive");
  SSAM_REQUIRE(opt_.probe_interval_ms > 0.0 && opt_.watchdog_period_ms > 0.0,
               "watchdog periods must be positive");
  int n = opt_.devices > 0 ? opt_.devices : config_.devices;
  if (opt.group != nullptr) {
    group_ = opt.group;
    n = std::min(opt_.devices > 0 ? n : group_->size(), group_->size());
  } else {
    group_ = &sim::DeviceGroup::shared(n);
  }
  opt_.devices = n;
  in_flight_.assign(static_cast<std::size_t>(n), 0);
  health_.assign(static_cast<std::size_t>(n), Health{});
  probe_rigs_.resize(static_cast<std::size_t>(n));
  paused_ = opt_.start_paused;
  // Started last: the watchdog touches every member above.
  watchdog_ = std::thread([this] { watchdog_main(); });
}

SimServer::~SimServer() {
  // First drain: every accepted job reaches a terminal status (the
  // watchdog is still running — deadline cancels and retry release are
  // part of "terminal"). Then stop the watchdog, and drain once more for
  // any probe it launched before it observed stopping_.
  drain();
  {
    std::lock_guard<std::mutex> lock(m_);
    stopping_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  drain();
}

JobFuture SimServer::submit(SimJob job) {
  auto state = std::make_shared<detail::JobState>();
  // Every accepted job gets a live token (the future's cancel() handle);
  // a caller-provided token is adopted so one token can fan out over a
  // batch of jobs.
  if (!job.cancel.valid()) job.cancel = CancelToken::make();
  state->cancel = job.cancel;
  JobFuture fut(state);

  // Retry needs pristine inputs (a failed attempt may have half-written
  // the state grid). The copy exists only while faults are armed, so the
  // production path stays copy-free. Conv2d never mutates its input.
  std::shared_ptr<std::vector<float>> snap;
  if (opt_.max_attempts > 1 && FaultInjector::global().enabled()) {
    const float* src = nullptr;
    std::size_t count = 0;
    if (job.kind == JobKind::kStencil2D && job.a2 != nullptr) {
      src = job.a2->data();
      count = static_cast<std::size_t>(job.a2->size());
    } else if (job.kind == JobKind::kStencil3D && job.a3 != nullptr) {
      src = job.a3->data();
      count = static_cast<std::size_t>(job.a3->size());
    }
    if (src != nullptr) snap = std::make_shared<std::vector<float>>(src, src + count);
  }

  bool reject = false;
  JobError reject_err;
  const double units = model_units(job, perf::from_arch(*arch_));
  {
    std::lock_guard<std::mutex> lock(m_);
    ++submitted_;
    if (queued_ >= opt_.max_pending) {
      ++rejected_;
      reject = true;
      reject_err = JobError{ErrorCode::kQueueFull, false,
                            "admission control: pending queue full"};
    } else if (opt_.shed_on_deadline && job.deadline_ms > 0.0) {
      // Deadline-aware shedding: predicted execution time is the job's
      // latency-model units times a ms-per-unit scale (pinned calibration
      // or learned EWMA). A job predicted to blow its deadline is refused
      // now, not cancelled later — the queue stays for jobs that can make
      // it. With no calibration and no history yet, everything is admitted.
      const double scale = opt_.shed_calibration_ms_per_unit > 0.0
                               ? opt_.shed_calibration_ms_per_unit
                               : ewma_ms_per_unit_;
      const double predicted = scale * units;
      if (scale > 0.0 && predicted > job.deadline_ms) {
        ++rejected_;
        ++shed_;
        reject = true;
        reject_err =
            JobError{ErrorCode::kDeadlineUnmeetable, false,
                     "admission shed: predicted " + std::to_string(predicted) +
                         " ms exceeds deadline " + std::to_string(job.deadline_ms) + " ms"};
      }
    }
    if (!reject) {
      Tenant& t = tenants_[job.tenant];
      // Start-time fair queuing: the job's virtual finish time advances
      // the tenant's clock by cost over effective weight; priority buys a
      // larger share of the tenant's own weight.
      const double w = t.weight * (1.0 + static_cast<double>(std::max(0, job.priority)));
      const double start = std::max(vtime_, t.last_finish);
      Pending p;
      p.start_tag = start;
      p.finish_tag = start + job.cost() / std::max(w, 1e-9);
      t.last_finish = p.finish_tag;
      p.units = units;
      p.submitted_at = Clock::now();
      if (job.deadline_ms > 0.0) {
        p.has_deadline = true;
        p.deadline = p.submitted_at + ms_duration(job.deadline_ms);
      }
      p.snapshot = std::move(snap);
      p.job = std::move(job);
      p.state = state;
      t.q.push_back(std::move(p));
      ++queued_;
    }
  }
  if (reject) {
    JobResult r;
    r.status = JobStatus::kRejected;
    r.error = std::move(reject_err);
    state->fulfill(std::move(r));
    return fut;
  }
  pump();
  return fut;
}

void SimServer::resume() {
  std::unique_lock<std::mutex> lock(m_);
  paused_ = false;
  pump_locked(lock);
}

void SimServer::set_tenant_weight(int tenant, double weight) {
  SSAM_REQUIRE(weight > 0.0, "tenant weight must be positive");
  std::lock_guard<std::mutex> lock(m_);
  tenants_[tenant].weight = weight;
}

SimServer::Stats SimServer::stats() const {
  std::lock_guard<std::mutex> lock(m_);
  Stats s;
  s.submitted = submitted_;
  s.completed = completed_;
  s.rejected = rejected_;
  s.shed = shed_;
  s.failed = failed_;
  s.cancelled = cancelled_;
  s.retries = retries_;
  s.faulted_attempts = faulted_attempts_;
  s.quarantines = quarantines_;
  s.probes = probes_;
  s.reinstated = reinstated_;
  s.devices = opt_.devices;
  return s;
}

SimServer::DeviceHealth SimServer::device_health(int device) const {
  std::lock_guard<std::mutex> lock(m_);
  SSAM_REQUIRE(device >= 0 && device < opt_.devices, "device index out of range");
  // Slice off the internal probe-scheduling fields.
  return static_cast<const DeviceHealth&>(health_[static_cast<std::size_t>(device)]);
}

bool SimServer::idle_locked() const {
  if (pumping_ || queued_ != 0 || probes_active_ != 0) return false;
  for (int f : in_flight_) {
    if (f != 0) return false;
  }
  return true;
}

void SimServer::drain() {
  resume();
  std::unique_lock<std::mutex> lock(m_);
  // `!pumping_` is part of idle: a thread inside the dispatch loop (or a
  // settling attempt that handed off to it) still holds `this`, so
  // drain must not return — and let the destructor run — underneath it.
  // Probes count too: a probe task also holds `this`.
  idle_cv_.wait(lock, [&] { return idle_locked(); });
}

void SimServer::pump() {
  std::unique_lock<std::mutex> lock(m_);
  pump_locked(lock);
}

bool SimServer::promote_due_retries_locked(Clock::time_point now) {
  bool any = false;
  for (auto it = retry_q_.begin(); it != retry_q_.end();) {
    if (it->retry_at <= now) {
      // Front of the tenant FIFO: the retried job predates everything
      // still queued there, and its original SFQ tags come back with it.
      tenants_[it->job.tenant].q.push_front(std::move(*it));
      it = retry_q_.erase(it);
      any = true;
    } else {
      ++it;
    }
  }
  return any;
}

// One thread owns the dispatch loop at a time (`pumping_`). Concurrent
// callers — an attempt settling on a device worker, or another thread's
// submit — return immediately; the owner re-selects on its next lap and
// observes whatever they changed, so the backlog still drains.
//
// Shutdown safety: the owner's LAST touch of server state is clearing
// `pumping_` and notifying drain() under the lock; a settling attempt's
// last touch is its slot decrement + hand-off to pump_locked, also in one
// critical section (run_attempt). Together with drain() requiring
// `!pumping_`, no thread can still be behind `this` once drain observes
// idle — the destructor cannot pull the server out from under a late
// pump() call.
void SimServer::pump_locked(std::unique_lock<std::mutex>& lock) {
  if (paused_ || pumping_) return;
  pumping_ = true;
  struct Launch {
    Pending p;
    int device = 0;
  };
  for (;;) {
    promote_due_retries_locked(Clock::now());
    std::vector<Launch> batch;
    for (;;) {
      // Least-loaded healthy device with a free job slot. Quarantined
      // devices are simply not packing targets, which is the whole
      // migration story: queued jobs bind to a device here, at dispatch
      // time, never earlier.
      int dev = -1;
      int best = std::numeric_limits<int>::max();
      for (int i = 0; i < opt_.devices; ++i) {
        if (health_[static_cast<std::size_t>(i)].quarantined) continue;
        const int f = in_flight_[static_cast<std::size_t>(i)];
        if (f < opt_.max_in_flight_per_device && f < best) {
          best = f;
          dev = i;
        }
      }
      if (dev < 0) break;
      // Queued job with the smallest finish tag (tenant FIFOs keep each
      // tenant's own order).
      Tenant* pick = nullptr;
      for (auto& [id, t] : tenants_) {
        if (t.q.empty()) continue;
        if (pick == nullptr || t.q.front().finish_tag < pick->q.front().finish_tag) {
          pick = &t;
        }
      }
      if (pick == nullptr) break;
      Pending p = std::move(pick->q.front());
      pick->q.pop_front();
      --queued_;
      if (p.state->cancel.cancelled()) {
        // Cancelled while queued: fulfil right here without spending a
        // device slot on it.
        JobResult r;
        r.status = JobStatus::kCancelled;
        r.error = cancel_error(p.state->cancel.reason(), "cancelled while queued");
        r.attempts = p.attempts;
        r.attempt_errors = std::move(p.attempt_errors);
        r.queue_ms = ms_between(p.submitted_at, Clock::now());
        r.seq = completion_seq_->fetch_add(1, std::memory_order_relaxed) + 1;
        ++cancelled_;
        p.state->fulfill(std::move(r));
        continue;
      }
      // SFQ: virtual time advances to the start tag of the job entering
      // service, not its finish tag — a tenant going active now pays from
      // here, not for the full job it never competed with.
      vtime_ = std::max(vtime_, p.start_tag);
      ++in_flight_[static_cast<std::size_t>(dev)];
      if (p.has_deadline) running_.push_back({p.state, p.deadline});
      batch.push_back(Launch{std::move(p), dev});
    }
    if (batch.empty()) break;
    // Submit outside the scheduler lock: pool submits take queue locks and
    // wake workers. `pumping_` keeps drain() parked across this unlocked
    // window.
    lock.unlock();
    for (Launch& l : batch) {
      if (l.p.attempts == 0) l.p.queue_ms = ms_between(l.p.submitted_at, Clock::now());
      group_->device(l.device).pool().submit(
          [this, p = std::move(l.p), device = l.device]() mutable { run_attempt(p, device); });
    }
    lock.lock();
  }
  pumping_ = false;
  if (idle_locked()) {
    // Under the lock on purpose: after our unlock the waiter may destroy
    // the server, so the notify must not happen any later than this.
    idle_cv_.notify_all();
  }
}

// One dispatched attempt, start to finish, on a worker of its device's
// pool: run the job, then settle the outcome under m_ — fulfil, retry or
// quarantine — and pump so the next queued job takes the slot. Slot
// decrement and pump hand-off share ONE critical section, and nothing after
// it touches `this`: until the decrement the in-flight count keeps drain()
// waiting, after it pump_locked's ownership protocol does.
void SimServer::run_attempt(Pending& p, int device) {
  sim::Device& dev = group_->device(device);
  JobError err;
  PersistentRunStats run;
  bool completed = false;
  bool cancelled = false;
  const auto t0 = Clock::now();
  try {
    FaultInjector& fi = FaultInjector::global();
    // Dispatch-site fault: the launch itself dies before any engine work
    // (device hang at launch).
    if (fi.enabled()) fi.maybe_throw(FaultSite::kDeviceDispatch, device, "job dispatch");
    if (p.state->cancel.cancelled()) {
      throw CancelledError("cancelled before start", p.state->cancel.reason());
    }
    sim::WorkspaceLease lease = dev.lease_workspace();
    // Lease-site fault: the workspace arena "allocation" fails. The lease
    // above unwinds through RAII.
    if (fi.enabled()) fi.maybe_throw(FaultSite::kWorkspaceLease, device, "workspace lease");
    if (p.attempts > 0 && p.snapshot != nullptr) {
      // A previous attempt may have half-written the state grid; restore
      // the pristine inputs so the retry is bit-identical to a fault-free
      // run.
      float* dst = p.job.kind == JobKind::kStencil3D ? p.job.a3->data() : p.job.a2->data();
      std::memcpy(dst, p.snapshot->data(), p.snapshot->size() * sizeof(float));
    }
    run = run_job(*arch_, p.job, &dev, lease.get());
    completed = true;
  } catch (const FaultError& e) {
    err = JobError{ErrorCode::kFaultInjected, e.transient(), e.what()};
  } catch (const CancelledError& e) {
    cancelled = true;
    err = cancel_error(e.reason(), e.what());
  } catch (const PreconditionError& e) {
    err = JobError{ErrorCode::kInvalidJob, false, e.what()};
  } catch (const ResourceError& e) {
    err = JobError{ErrorCode::kResource, false, e.what()};
  } catch (const std::exception& e) {
    err = JobError{ErrorCode::kInternal, false, e.what()};
  }
  const double ms = ms_between(t0, Clock::now());
  dev.counters().jobs_completed.fetch_add(1, std::memory_order_relaxed);

  std::unique_lock<std::mutex> lock(m_);
  --in_flight_[static_cast<std::size_t>(device)];
  ++p.attempts;
  p.exec_ms += ms;
  if (p.has_deadline) {
    std::erase_if(running_, [&](const RunningJob& rj) { return rj.state == p.state; });
  }
  Health& h = health_[static_cast<std::size_t>(device)];
  bool requeued = false;
  if (completed) {
    h.consecutive_faults = 0;
    if (p.units > 0.0 && ms > 0.0) {
      // Online shed calibration: EWMA of observed ms per model unit.
      const double sample = ms / p.units;
      ewma_ms_per_unit_ =
          ewma_ms_per_unit_ <= 0.0 ? sample : 0.8 * ewma_ms_per_unit_ + 0.2 * sample;
    }
  } else if (err.code == ErrorCode::kFaultInjected) {
    ++faulted_attempts_;
    ++h.faults;
    ++h.consecutive_faults;
    if (!h.quarantined && h.consecutive_faults >= opt_.quarantine_after) {
      // Never quarantine the last healthy device: degraded service beats
      // refusing everything.
      int healthy = 0;
      for (const Health& other : health_) healthy += other.quarantined ? 0 : 1;
      if (healthy > 1) {
        h.quarantined = true;
        ++quarantines_;
        ++h.quarantines;
        h.next_probe = Clock::now() + ms_duration(opt_.probe_interval_ms);
        log_warn_limited(warn_quarantine_,
                         "server: quarantined device " + std::to_string(device) +
                             " after " + std::to_string(h.consecutive_faults) +
                             " consecutive faults");
      }
    }
    const bool deadline_gone = p.has_deadline && Clock::now() >= p.deadline;
    if (err.transient && p.attempts < opt_.max_attempts && !p.state->cancel.cancelled() &&
        !deadline_gone) {
      // Transient fault with attempts left: back off and requeue.
      p.attempt_errors.push_back(err);
      const double backoff = std::min(opt_.retry_backoff_ms * std::exp2(p.attempts - 1),
                                      opt_.retry_backoff_max_ms);
      p.retry_at = Clock::now() + ms_duration(backoff);
      ++queued_;
      ++retries_;
      retry_q_.push_back(std::move(p));
      requeued = true;
    }
  }
  if (!requeued) {
    JobResult r;
    r.device = device;
    r.queue_ms = p.queue_ms;
    r.exec_ms = p.exec_ms;
    r.attempts = p.attempts;
    if (!completed) p.attempt_errors.push_back(err);
    r.attempt_errors = std::move(p.attempt_errors);
    r.seq = completion_seq_->fetch_add(1, std::memory_order_relaxed) + 1;
    ++completed_;
    if (completed) {
      r.status = JobStatus::kCompleted;
      r.run = run;
    } else if (cancelled) {
      r.status = JobStatus::kCancelled;
      r.error = err;
      ++cancelled_;
    } else {
      r.status = JobStatus::kFailed;
      r.error = err;
      ++failed_;
    }
    p.state->fulfill(std::move(r));
  }
  pump_locked(lock);
}

// The watchdog serves the three time-driven duties: cancelling overdue
// work (queued jobs are fulfilled directly, running jobs get their token
// cancelled and unwind at the next sweep boundary), releasing retries
// whose backoff expired, and probing quarantined devices. One thread, one
// period — deadline resolution is opt_.watchdog_period_ms by design.
void SimServer::watchdog_main() {
  std::unique_lock<std::mutex> lock(m_);
  const auto period = ms_duration(opt_.watchdog_period_ms);
  while (!stopping_) {
    watchdog_cv_.wait_for(lock, period, [&] { return stopping_; });
    if (stopping_) break;
    const auto now = Clock::now();

    // Overdue queued work (tenant FIFOs and the retry queue): fulfil
    // kCancelled on the spot — these jobs never reached a device.
    std::uint64_t expired = 0;
    auto expire = [&](Pending& p) {
      p.state->cancel.cancel(static_cast<int>(ErrorCode::kDeadlineExceeded));
      JobResult r;
      r.status = JobStatus::kCancelled;
      r.error = JobError{ErrorCode::kDeadlineExceeded, false,
                         "deadline exceeded while queued"};
      r.attempts = p.attempts;
      r.attempt_errors = std::move(p.attempt_errors);
      r.queue_ms = ms_between(p.submitted_at, now);
      r.exec_ms = p.exec_ms;
      r.seq = completion_seq_->fetch_add(1, std::memory_order_relaxed) + 1;
      p.state->fulfill(std::move(r));
      --queued_;
      ++cancelled_;
      ++expired;
    };
    for (auto& [id, t] : tenants_) {
      for (auto it = t.q.begin(); it != t.q.end();) {
        if (it->has_deadline && it->deadline <= now) {
          expire(*it);
          it = t.q.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto it = retry_q_.begin(); it != retry_q_.end();) {
      if (it->has_deadline && it->deadline <= now) {
        expire(*it);
        it = retry_q_.erase(it);
      } else {
        ++it;
      }
    }
    // Overdue running work: cancel the token; the engine unwinds at its
    // next sweep boundary and run_attempt settles the job.
    for (const RunningJob& rj : running_) {
      if (rj.deadline <= now) {
        rj.state->cancel.cancel(static_cast<int>(ErrorCode::kDeadlineExceeded));
      }
    }
    if (expired > 0) {
      log_warn_limited(warn_deadline_, "server: watchdog cancelled overdue queued work");
    }

    const bool promoted = promote_due_retries_locked(now);

    // Quarantined devices due for a probe. The launch itself happens
    // outside m_, like pump_locked's submits.
    std::vector<int> to_probe;
    for (int i = 0; i < opt_.devices; ++i) {
      Health& h = health_[static_cast<std::size_t>(i)];
      if (h.quarantined && !h.probe_in_flight && now >= h.next_probe) {
        h.probe_in_flight = true;
        ++probes_active_;
        ++probes_;
        ++h.probes;
        to_probe.push_back(i);
      }
    }

    if (promoted || expired > 0) pump_locked(lock);
    if (idle_locked()) idle_cv_.notify_all();
    if (!to_probe.empty()) {
      lock.unlock();
      for (int i : to_probe) launch_probe(i);
      lock.lock();
    }
  }
}

void SimServer::launch_probe(int device) {
  // Only the watchdog thread calls this, so the lazily-created rig needs
  // no lock.
  auto& rig_slot = probe_rigs_[static_cast<std::size_t>(device)];
  if (rig_slot == nullptr) rig_slot = std::make_unique<ProbeRig>();
  ProbeRig* rig = rig_slot.get();
  sim::Device* devp = &group_->device(device);
  const sim::ArchSpec* arch = arch_;
  devp->pool().submit([this, arch, devp, device, rig] {
    // The probe walks the same fault sites a real job would — it succeeds
    // only when the device genuinely stopped faulting (or the plan moved
    // on), which is exactly the reinstatement condition.
    bool ok = false;
    try {
      FaultInjector& fi = FaultInjector::global();
      if (fi.enabled()) fi.maybe_throw(FaultSite::kDeviceDispatch, device, "probe dispatch");
      sim::WorkspaceLease lease = devp->lease_workspace();
      if (fi.enabled()) {
        fi.maybe_throw(FaultSite::kWorkspaceLease, device, "probe workspace lease");
      }
      SimJob job = SimJob::stencil2d(rig->a, rig->b, rig->shape, 2);
      (void)run_job(*arch, job, devp, lease.get());
      ok = true;
    } catch (const std::exception&) {
      ok = false;
    }
    std::unique_lock<std::mutex> lock(m_);
    Health& h = health_[static_cast<std::size_t>(device)];
    h.probe_in_flight = false;
    --probes_active_;
    if (ok) {
      if (h.quarantined) {
        h.quarantined = false;
        h.consecutive_faults = 0;
        ++reinstated_;
        log_warn_limited(warn_quarantine_,
                         "server: device " + std::to_string(device) +
                             " passed its probe, reinstated");
      }
      // The reinstated device is a packing target again.
      pump_locked(lock);
    } else {
      h.next_probe = Clock::now() + ms_duration(opt_.probe_interval_ms);
    }
    if (idle_locked()) idle_cv_.notify_all();
  });
}

}  // namespace ssam::core
