// Virtual multi-device layer: one host carved into N cooperating "devices".
//
// The persistent engine (gpusim/persistent.hpp) gave one flat worker pool
// cross-iteration tile residency. This layer reproduces the next level of
// the systolic composition — Versa-style multi-core dataflow over an
// explicit interconnect (Kim et al. 2021) — in software: a `Device` is a
// slice of the host that behaves like one GPU of a multi-GPU node. It owns
//
//  * a ThreadPool slice (its own worker threads, optionally pinned to a
//    disjoint core range so shards never migrate across each other),
//  * a warm pool of leased workspace arenas for the job server's
//    concurrent jobs,
//  * traffic counters (band sweeps, halo bytes, seam crossings, jobs).
//
// The job server (core/server.hpp) runs each job attempt as one task on
// the device's pool, so work routed to one device never occupies another
// device's slice.
//
// A `DeviceGroup` holds N such devices. It owns no memory for the runs it
// hosts: a run sharded across the group (core/shard.hpp) carves its
// residence buffers and the halo channels between its shards from the
// run's own workspace, so several runs can share one group at once.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "gpusim/persistent.hpp"

namespace ssam::sim {

struct DeviceOptions {
  int threads = 1;            ///< workers in this device's pool slice
  std::vector<int> pin_cpus;  ///< optional explicit core set (empty: unpinned)
  std::string name;           ///< diagnostic label ("dev0" when empty)
};

/// Per-device traffic counters. Tiles of one device publish concurrently
/// from different workers, so the counts are relaxed atomics; they are
/// diagnostics, never synchronization.
struct DeviceCounters {
  std::atomic<std::uint64_t> sweeps{0};           ///< band sweeps executed
  std::atomic<std::uint64_t> halo_bytes_out{0};   ///< boundary bytes published
  std::atomic<std::uint64_t> seam_bytes_out{0};   ///< subset crossing a device seam
  std::atomic<std::uint64_t> seam_epochs_out{0};  ///< seam boundary publications
  std::atomic<std::uint64_t> jobs_completed{0};   ///< server job attempts run here

  void reset() {
    sweeps.store(0, std::memory_order_relaxed);
    halo_bytes_out.store(0, std::memory_order_relaxed);
    seam_bytes_out.store(0, std::memory_order_relaxed);
    seam_epochs_out.store(0, std::memory_order_relaxed);
    jobs_completed.store(0, std::memory_order_relaxed);
  }
};

class Device;

/// RAII lease of a per-device workspace arena (cudaMallocAsync-pool-like).
/// Jobs scheduled onto a device borrow a whole PersistentWorkspace for
/// their run and return it on destruction; the device keeps returned
/// workspaces warm, so a steady job stream stops allocating arenas after
/// the first wave. Move-only; a default-constructed lease is empty.
class WorkspaceLease {
 public:
  WorkspaceLease() = default;
  ~WorkspaceLease() { release(); }

  WorkspaceLease(WorkspaceLease&& other) noexcept
      : device_(other.device_), ws_(std::move(other.ws_)) {
    other.device_ = nullptr;
  }
  WorkspaceLease& operator=(WorkspaceLease&& other) noexcept {
    if (this != &other) {
      release();
      device_ = other.device_;
      ws_ = std::move(other.ws_);
      other.device_ = nullptr;
    }
    return *this;
  }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  [[nodiscard]] PersistentWorkspace* get() const { return ws_.get(); }
  [[nodiscard]] PersistentWorkspace& operator*() const { return *ws_; }
  [[nodiscard]] explicit operator bool() const { return ws_ != nullptr; }

  /// Returns the workspace to the owning device's warm pool early.
  void release();

 private:
  friend class Device;
  WorkspaceLease(Device* device, std::unique_ptr<PersistentWorkspace> ws)
      : device_(device), ws_(std::move(ws)) {}

  Device* device_ = nullptr;
  std::unique_ptr<PersistentWorkspace> ws_;
};

/// One virtual device: a pool slice + workspaces + counters.
class Device {
 public:
  Device(int index, DeviceOptions opt);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] ThreadPool& pool() { return *pool_; }
  [[nodiscard]] DeviceCounters& counters() { return counters_; }

  /// Borrows a workspace arena from the device's warm pool, creating one
  /// only when the pool is empty. Each lease is a whole workspace, so
  /// several jobs share one device without clobbering each other's carves.
  [[nodiscard]] WorkspaceLease lease_workspace();

  /// Arenas created over the device's lifetime — a steady job stream should
  /// plateau this (leases come back warm instead of allocating).
  [[nodiscard]] std::uint64_t workspaces_created() const {
    return workspaces_created_.load(std::memory_order_relaxed);
  }

 private:
  friend class WorkspaceLease;
  void return_workspace(std::unique_ptr<PersistentWorkspace> ws);

  int index_;
  std::string name_;
  std::unique_ptr<ThreadPool> pool_;
  DeviceCounters counters_;
  std::atomic<std::uint64_t> workspaces_created_{0};
  std::mutex spares_m_;
  std::vector<std::unique_ptr<PersistentWorkspace>> spare_workspaces_;
};

/// N devices, sliced from one host.
class DeviceGroup {
 public:
  explicit DeviceGroup(std::vector<DeviceOptions> devices);

  [[nodiscard]] int size() const { return static_cast<int>(devices_.size()); }
  [[nodiscard]] Device& device(int i) { return *devices_[static_cast<std::size_t>(i)]; }

  /// Even slicing of the host: `n` devices with max(1, host/n) workers
  /// each. When the SSAM_DEVICE_PIN environment variable is `1`, device
  /// d's workers are pinned to the contiguous core range
  /// starting at d * threads_per_device (mod the physical core count).
  [[nodiscard]] static std::vector<DeviceOptions> even_slices(int n);

  /// Process-wide cached group of `n` even slices. Device pools are
  /// expensive (real threads), so repeated sharded runs at the same device
  /// count reuse one group — mirroring how a process opens each physical
  /// GPU once. Not affected by ThreadPool::reset_global.
  [[nodiscard]] static DeviceGroup& shared(int n);

 private:
  std::vector<std::unique_ptr<Device>> devices_;
};

/// Device count of ShardPolicy::sharded(0) ("auto"): the SSAM_DEVICES
/// environment variable when set to a positive integer, otherwise 2.
[[nodiscard]] int default_device_count();

/// Runs fn(i) once per device, each invocation on a worker of device i's
/// pool, and blocks until every one returns. The per-device work may itself
/// use the device pool (parallel loops, run_persistent_on): the caller of a
/// nested loop participates, so one-worker slices cannot deadlock.
void for_each_device(std::span<Device* const> devices,
                     const std::function<void(int)>& fn);

/// Runs each device's task group to completion, every group under its own
/// device's cooperative scheduler, concurrently across devices. Returns
/// when all groups are done. Empty groups are skipped. Deadlock-freedom
/// composes across devices: every tile is polled by some live participant
/// and seam-channel depth 2 keeps the globally least-advanced tile
/// advanceable, so the wavefront drains in any schedule. The shared `stop`
/// flag (see run_persistent_on) aborts every shard's scheduler together —
/// necessary because a stopped shard's seam channels go silent and its
/// neighbours would otherwise spin forever. Calls are admitted one at a
/// time process-wide: two groups running at once could each hold one
/// device's workers while waiting for the other's.
void run_persistent_group(std::span<Device* const> devices,
                          std::span<const std::span<PersistentTask* const>> groups,
                          const std::atomic<bool>* stop = nullptr);

}  // namespace ssam::sim
