// Multi-tenant simulation service: a batched job scheduler over the
// virtual DeviceGroup, with fault-tolerant execution.
//
// The engine layers below optimize ONE large resident workload; the
// ROADMAP's "millions of users" north star means thousands of *small
// independent* jobs in flight. `SimServer` is that front door: clients
// submit `SimJob`s (core/job.hpp) from any thread and get a `JobFuture`;
// the server schedules accepted jobs onto the devices of a DeviceGroup
// (gpusim/device.hpp).
//
// Scheduling, three layers:
//
//  * Admission control — at most `max_pending` queued jobs; beyond that a
//    submit is rejected immediately (the future reports kRejected) instead
//    of growing an unbounded backlog. With `shed_on_deadline`, a job whose
//    predicted execution time (perfmodel/latency_model.hpp units scaled by
//    observed job timings) already exceeds its deadline is also rejected at
//    the door — shedding work that would be cancelled anyway keeps the
//    queue for jobs that can still make it.
//  * Per-tenant weighted fair queuing (start-time fair queuing): each
//    tenant has a FIFO and a weight; a job's finish tag is
//    max(vtime, tenant_last) + cost / (weight * (1 + priority)), cost
//    being cells x sweeps. The dispatcher always starts the queued job
//    with the smallest tag and advances virtual time to that job's
//    *start* tag (classic SFQ), so a heavy tenant cannot starve a light
//    one beyond its weight share, and a tenant going active right after
//    a huge dispatch is not charged for work it never saw.
//  * Device packing — a dispatched job goes to the least-loaded *healthy*
//    device with a free slot; `max_in_flight_per_device` is exactly the
//    number of jobs running at once on one device.
//
// Fault tolerance (subsystem 7, docs/architecture.md):
//
//  * Cancellation — every accepted job carries a live CancelToken
//    (JobFuture::cancel); queued work is fulfilled kCancelled at the next
//    pump, running work unwinds cooperatively at the engines' sweep
//    boundaries.
//  * Deadlines — `SimJob::deadline_ms` is enforced by a watchdog thread
//    that cancels overdue work, queued or running, with a
//    deadline-exceeded error.
//  * Retry — an attempt that dies of a *transient* fault (ECC-style, see
//    core/faultinject.hpp) is re-queued with bounded exponential backoff,
//    up to `max_attempts` total; inputs are restored from a snapshot taken
//    at submit (only when the fault injector is armed, so the non-faulting
//    path stays copy-free), making a retried job bit-identical to a
//    fault-free run.
//  * Quarantine — `quarantine_after` consecutive faulted attempts on one
//    device mark it unhealthy: the packer stops routing jobs there (queued
//    work migrates to healthy devices automatically, since devices are
//    picked at dispatch time) and the watchdog sends periodic probe jobs;
//    a clean probe reinstates the device. The last healthy device is never
//    quarantined — degraded service beats no service.
//
// Execution reuses the whole existing stack: each dispatched attempt is one
// task on its device's pool, running `run_job` device-pinned with a
// workspace leased from the device's warm arena pool (no per-job arena
// carving after the first wave). The same task then settles the attempt —
// no blocked waiter threads: it fulfils the job's future (or requeues a
// retry), frees the device slot, and pumps the queue again. Outputs are
// bit-identical to calling `run_job` directly (the determinism invariant
// the server tests pin with golden hashes).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "core/config.hpp"
#include "core/job.hpp"
#include "gpusim/device.hpp"

namespace ssam::core {

struct ServerOptions {
  /// Simulated architecture jobs run on. Null: sim::tesla_v100().
  const sim::ArchSpec* arch = nullptr;
  /// Device count. 0: the resolved SimConfig's `devices`.
  int devices = 0;
  /// Explicit group (bench/test hook). Null: DeviceGroup::shared(devices).
  sim::DeviceGroup* group = nullptr;
  /// Jobs running at once per device; dispatch stalls (jobs stay queued)
  /// when every device is full.
  int max_in_flight_per_device = 2;
  /// Admission control: queued-job cap beyond which submits are rejected.
  std::size_t max_pending = 1024;
  /// Accept submissions but dispatch nothing until resume() — lets tests
  /// build a backlog and observe pure scheduling order.
  bool start_paused = false;

  // ---- fault tolerance & deadlines ----
  /// Total execution attempts per job (>= 1). Only attempts killed by a
  /// *transient* fault are retried; permanent faults and real errors fail
  /// the job on the spot.
  int max_attempts = 3;
  /// First retry waits this long; each further retry doubles it, capped at
  /// `retry_backoff_max_ms`. The watchdog releases due retries.
  double retry_backoff_ms = 1.0;
  double retry_backoff_max_ms = 64.0;
  /// Consecutive faulted attempts on one device before it is quarantined.
  int quarantine_after = 3;
  /// Cadence of probe jobs sent to a quarantined device; a clean probe
  /// reinstates it.
  double probe_interval_ms = 50.0;
  /// Watchdog wake period (deadline checks, retry release, probes). The
  /// effective deadline/backoff resolution.
  double watchdog_period_ms = 5.0;
  /// Admission-sheds jobs whose predicted execution time exceeds their
  /// deadline (kRejected with a deadline-unmeetable error). Off by
  /// default: deadline-free workloads never shed.
  bool shed_on_deadline = false;
  /// Milliseconds per latency-model unit for shed prediction. 0: learned
  /// online (EWMA over completed jobs' exec_ms / model units). Tests pin
  /// this for deterministic shedding decisions.
  double shed_calibration_ms_per_unit = 0.0;
};

/// The multi-tenant simulation service. Thread-safe; destruction drains.
class SimServer {
 public:
  explicit SimServer(ServerOptions opt = {});
  ~SimServer();

  SimServer(const SimServer&) = delete;
  SimServer& operator=(const SimServer&) = delete;

  /// Submits a job from any thread. Always returns a valid future: on
  /// admission it completes when the job does; on rejection it is already
  /// fulfilled with kRejected. The job's grids must stay alive (and
  /// unread) until the future reports. Discarding the future orphans the
  /// job's result AND its cancellation handle — hence [[nodiscard]].
  [[nodiscard]] JobFuture submit(SimJob job);

  /// Starts dispatching (no-op unless start_paused or paused earlier).
  void resume();

  /// Blocks until every accepted job has reached a terminal status and no
  /// probe is in flight (resumes first, so a paused backlog cannot
  /// deadlock the caller).
  void drain();

  /// Sets a tenant's fair-queuing weight (default 1.0; must be > 0).
  void set_tenant_weight(int tenant, double weight);

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;  ///< dispatched jobs that reached a terminal status
    std::uint64_t rejected = 0;   ///< admission refusals (queue full + shed)
    std::uint64_t shed = 0;       ///< subset of rejected: deadline-unmeetable
    std::uint64_t failed = 0;     ///< completed with kFailed (subset of completed)
    std::uint64_t cancelled = 0;  ///< kCancelled futures (user cancel or deadline)
    std::uint64_t retries = 0;    ///< execution attempts beyond each job's first
    std::uint64_t faulted_attempts = 0;  ///< attempts killed by an injected fault
    std::uint64_t quarantines = 0;       ///< device quarantine transitions
    std::uint64_t probes = 0;            ///< probe jobs launched
    std::uint64_t reinstated = 0;        ///< quarantine exits (clean probe)
    int devices = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// One device's health as the scheduler sees it.
  struct DeviceHealth {
    bool quarantined = false;
    int consecutive_faults = 0;      ///< faulted attempts since the last success
    std::uint64_t faults = 0;        ///< faulted attempts attributed here, ever
    std::uint64_t quarantines = 0;   ///< times this device was quarantined
    std::uint64_t probes = 0;        ///< probe jobs sent here
  };
  [[nodiscard]] DeviceHealth device_health(int device) const;

  /// The resolved process config the server was built against.
  [[nodiscard]] const SimConfig& config() const { return config_; }
  [[nodiscard]] const sim::ArchSpec& arch() const { return *arch_; }
  [[nodiscard]] sim::DeviceGroup& group() { return *group_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending;
  struct Tenant;
  /// Deadline bookkeeping for a dispatched job (watchdog cancel target).
  struct RunningJob {
    std::shared_ptr<detail::JobState> state;
    Clock::time_point deadline;
  };
  /// Internal per-device health: the public view plus probe scheduling.
  struct Health : DeviceHealth {
    Clock::time_point next_probe{};
    bool probe_in_flight = false;
  };
  /// Tiny resident grids a quarantined device's probe jobs run over.
  struct ProbeRig;

  void pump();  // dispatch until stalled (lock taken inside)
  // Dispatch loop body; requires `lock` held on m_, returns with it held.
  // Single-owner: concurrent/re-entrant calls return immediately and the
  // owning thread re-examines the queue on its next lap.
  void pump_locked(std::unique_lock<std::mutex>& lock);
  // Body of a dispatched attempt's device-pool task: runs the job, then
  // settles it under m_ (fulfil, retry or quarantine) and pumps. Called
  // WITHOUT m_ held.
  void run_attempt(Pending& p, int device);
  void watchdog_main();
  // Moves due entries of retry_q_ back to their tenant queues. Lock held.
  bool promote_due_retries_locked(Clock::time_point now);
  void launch_probe(int device);  // called WITHOUT m_ held
  [[nodiscard]] bool idle_locked() const;

  ServerOptions opt_;
  SimConfig config_;
  const sim::ArchSpec* arch_;
  sim::DeviceGroup* group_;

  mutable std::mutex m_;
  std::condition_variable idle_cv_;
  bool paused_ = false;
  bool pumping_ = false;  // a thread owns the dispatch loop; drain() waits it out
  double vtime_ = 0.0;                    // fair-queuing virtual time
  std::map<int, Tenant> tenants_;
  std::size_t queued_ = 0;                // admitted, not dispatched (incl. retry_q_)
  std::vector<int> in_flight_;            // dispatched jobs per device
  std::vector<Health> health_;            // per-device quarantine state
  std::vector<Pending> retry_q_;          // attempts waiting out their backoff
  std::vector<RunningJob> running_;       // dispatched deadline jobs
  std::vector<std::unique_ptr<ProbeRig>> probe_rigs_;
  int probes_active_ = 0;
  double ewma_ms_per_unit_ = 0.0;         // learned shed calibration
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t faulted_attempts_ = 0;
  std::uint64_t quarantines_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t reinstated_ = 0;
  std::shared_ptr<std::atomic<std::uint64_t>> completion_seq_;

  // Watchdog thread: deadline cancels, retry release, quarantine probes.
  // Started in the constructor, joined (after a first drain) in the
  // destructor; stopping_ is guarded by m_.
  bool stopping_ = false;
  std::condition_variable watchdog_cv_;
  std::thread watchdog_;

  // Warnings that can storm under sustained fault injection report
  // through rate limiters — one line plus a suppressed count, not a flood.
  LogRateLimiter warn_deadline_{std::chrono::milliseconds(500)};
  LogRateLimiter warn_quarantine_{std::chrono::milliseconds(500)};
};

}  // namespace ssam::core
