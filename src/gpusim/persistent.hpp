// Persistent-execution substrate: the scheduling and communication layer of
// the cross-iteration tile-residency engine (core/iterate_persistent.hpp).
//
// The per-step relaunch model (one `launch` per time step)
// round-trips the full working set through the global arrays between steps.
// The persistent model instead emulates a PERKS-style persistent kernel
// (Zhang et al., arXiv:2204.02064) on the host pool: every tile of the
// domain is claimed by exactly one pool worker for the *whole* iteration
// run, the tile's working set stays resident in that worker's storage
// across steps, and boundary data moves directly between neighbouring tiles
// through lock-free single-producer/single-consumer halo channels. The
// device-wide synchronization a real persistent kernel gets from a grid
// sync is emulated with per-edge epoch counters: a tile may compute step
// s+1 as soon as *its* neighbours have published their step-s boundary —
// no global barrier, so tiles pipeline along the dependency wavefront.
//
// Four pieces live here; the stencil-specific tile state machines are in
// core/iterate_persistent.hpp:
//  * HaloChannel — an epoch-indexed SPSC handoff of boundary data into the
//    consumer's two residence buffers, with acquire/release publication.
//    Its depth of 2 guarantees global progress (see run_persistent below).
//  * PersistentTask — the polled interface of one resident tile.
//  * run_persistent — the cooperative scheduler: participants claim tiles
//    exactly once, burst each owned tile as far as its channels allow, and
//    a fully blocked participant claims more tiles, so the run completes
//    with ANY number of participating threads (deadlock-free at pool
//    size 1 by construction).
//  * PersistentWorkspace — the one place a band run's memory comes from:
//    an arena for its buffers and a pool of its channels.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/launch.hpp"

namespace ssam::sim {

/// Lock-free epoch-indexed halo channel between two neighbouring tiles
/// (single producer, single consumer), zero-copy: its two slots ARE the
/// halo regions of the consumer's two residence buffers (every tile flips
/// buffers once per sweep, so epoch e's halo lives in buffer e % 2). The
/// producer writes the boundary rows/planes of state e directly where the
/// consumer's sweep will read them; the consumer acquires epoch e and
/// releases it so the slot can be reused for epoch e + 2. All ordering is
/// acquire/release on the two epoch counters — the slot bytes themselves
/// are plain memory handed off by the counters.
///
/// The depth of 2, pinned by the buffer pair, is also the minimum that
/// keeps the wavefront moving: with depth 1 two neighbours at the same step
/// could block each other (publish needs the consumer to have released the
/// previous epoch).
class HaloChannel {
 public:
  /// Points the channel at the consumer's even/odd halo regions and resets
  /// the epochs: epoch e's slot is `dst[e % 2]`.
  void configure_external(std::byte* dst_even, std::byte* dst_odd);

  /// True when epoch `e` may be published (the consumer has released
  /// e - kDepth, so the slot is free).
  [[nodiscard]] bool can_publish(std::int64_t e) const {
    return e <= released_.load(std::memory_order_acquire) + kDepth;
  }

  /// Slot to write epoch `e`'s payload into. Only valid when
  /// `can_publish(e)`; call `publish(e)` after the payload is complete.
  [[nodiscard]] std::byte* publish_slot(std::int64_t e) { return external_[e & 1]; }

  /// Makes epoch `e` visible to the consumer (release store).
  void publish(std::int64_t e) { published_.store(e, std::memory_order_release); }

  /// True when epoch `e` has been published (acquire load).
  [[nodiscard]] bool available(std::int64_t e) const {
    return published_.load(std::memory_order_acquire) >= e;
  }

  /// Returns epoch `e`'s slot to the producer.
  void release(std::int64_t e) { released_.store(e, std::memory_order_release); }

 private:
  static constexpr std::int64_t kDepth = 2;  ///< the consumer's buffer pair
  std::byte* external_[2] = {nullptr, nullptr};
  std::atomic<std::int64_t> published_{-1};
  std::atomic<std::int64_t> released_{-1};
};

/// One resident tile, polled by the scheduler. `try_advance` attempts the
/// tile's next state transition (load, one or more steps, drain) and must
/// never block: when an input epoch is unavailable or an output channel is
/// full it returns false and the scheduler moves on.
class PersistentTask {
 public:
  virtual ~PersistentTask() = default;
  PersistentTask() = default;
  PersistentTask(const PersistentTask&) = delete;
  PersistentTask& operator=(const PersistentTask&) = delete;

  /// Attempts one unit of progress; returns whether any was made.
  [[nodiscard]] virtual bool try_advance() = 0;
  [[nodiscard]] virtual bool done() const = 0;
};

/// Executes every block of a functional launch grid on the *calling* thread
/// through its pooled per-worker BlockContext — no fork/join, no helpers.
/// This is how a resident tile replays its band sweep: the blocks of one
/// tile run serially on the tile's owner while other tiles run on other
/// workers, so parallelism comes from tiles, not from blocks.
template <typename Body>
void run_grid_on_caller(const ArchSpec& arch, const LaunchConfig& cfg, Body&& body) {
  FunctionalBlockContext& blk = detail::pooled_functional_context(arch, cfg);
  const long long total = cfg.grid.count();
  for (long long flat = 0; flat < total; ++flat) {
    blk.reset(detail::unflatten_block(flat, cfg.grid));
    body(blk);
  }
}

/// Runs every task to completion on the global persistent worker pool.
///
/// Tiles are claimed exactly once (dynamic, first-come): each participating
/// thread starts with one tile and *bursts* every owned tile as far as its
/// channels allow before moving to the next, which is what keeps a tile's
/// working set hot in the owner's cache between consecutive steps. A
/// participant whose owned tiles are all blocked claims another unclaimed
/// tile — so even a single participant ends up owning the whole grid and
/// the run completes (channel depth >= 2 makes the globally least-advanced
/// tile always advanceable; see HaloChannel).
void run_persistent(std::span<PersistentTask* const> tasks);

/// Same cooperative scheduler on an explicit pool — the per-device entry
/// point of the virtual multi-device sharding layer (gpusim/device.hpp):
/// each Device runs its shard's tiles on its own pool slice while seam
/// channels carry boundaries between shards. Deadlock-freedom is unchanged:
/// every tile is owned by some live participant, and a blocked participant
/// yields, so the globally least-advanced tile (across ALL pools) always
/// advances. Safe to call from inside a task of `pool` (the caller
/// participates).
///
/// `stop`, when non-null, is the cooperative abort flag of the
/// fault-tolerance layer: participants poll it between bursts and unwind
/// without finishing the remaining tiles once it is set (tiles set it
/// themselves on cancellation or an injected fault — see
/// core/iterate_persistent.hpp's RunControl). The grid is torn at tile/sweep
/// boundaries only; the caller decides what to throw afterwards.
void run_persistent_on(ThreadPool& pool, std::span<PersistentTask* const> tasks,
                       const std::atomic<bool>* stop = nullptr);

/// Reusable storage for one band run: a grow-only 64-byte-aligned arena
/// plus a pool of halo channels. A persistent run carves its tiles'
/// residence buffers from the arena and wires its channels from the pool;
/// a relaunch run carves its two relay arrays from the same arena. Repeated
/// runs of the same problem (benchmark reps, iterative solvers called in a
/// loop) reuse the same allocations instead of churning the allocator.
/// Not thread-safe: one workspace serves one run at a time (the engine's
/// default workspace is thread_local).
class PersistentWorkspace {
 public:
  /// Arena pointer with room for `bytes`, 64-byte aligned. Reuses the
  /// previous run's block when it is large enough. Invalidates pointers
  /// from earlier calls in the same run — carve the run's whole footprint
  /// with one call.
  [[nodiscard]] std::byte* arena(std::size_t bytes);

  /// `count` channels for the caller to configure.
  [[nodiscard]] std::span<HaloChannel> channels(std::size_t count);

 private:
  std::vector<std::byte> arena_;
  std::vector<HaloChannel> channels_;
};

}  // namespace ssam::sim
