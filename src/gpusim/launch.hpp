// Kernel launch machinery: grids of blocks, per-block contexts, execution
// modes, occupancy, and the sampled-timing methodology.
//
// Two modes, specialized at compile time (see warp.hpp):
//  * Functional — every block executes, fanned out over the persistent
//    work-stealing worker pool (common/thread_pool.hpp), with no timing
//    state at all: the block/warp contexts contain no scoreboards or
//    counters, and one pooled BlockContext per pool worker persists across
//    *all* launches in the process (`reset()` per block, `rebind()` per
//    launch — never reconstructed on the hot path). Used by tests, examples,
//    the band engine and the job server to produce full, verifiable outputs
//    as fast as the host allows.
//  * Timing — a deterministic sample of blocks executes sequentially with
//    caches and scoreboards live. Regular kernels do identical work per
//    block, so per-block statistics extrapolate to the full grid; samples
//    are taken as contiguous runs so L2 halo reuse between neighbouring
//    blocks is preserved.
// Kernel bodies are mode-generic callables (`[](auto& blk) {...}`); `launch`
// instantiates the body once per mode actually requested.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/types.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/memsim.hpp"
#include "gpusim/shared_mem.hpp"
#include "gpusim/warp.hpp"

namespace ssam::sim {

struct LaunchConfig {
  Dim3 grid;
  int block_threads = 128;
  /// Registers per thread the kernel needs; drives occupancy like nvcc's
  /// allocation does. Kernels report their own estimate.
  int regs_per_thread = 32;

  [[nodiscard]] int warps_per_block() const { return block_threads / kWarpSize; }
};

struct SampleSpec {
  int max_blocks = 96;  ///< timing sample size
  int runs = 4;         ///< contiguous runs the sample is split into
};

/// Execution context for one thread block, specialized on the execution
/// mode. The functional specialization is pure compute state (warp vector +
/// shared-memory arena) and is designed for reuse: `reset(id)` re-targets
/// the same context at another block without touching the heap, and
/// `rebind()` re-targets it at another *launch* entirely — one context per
/// pool worker stays alive across all launches in the process (the config
/// is stored by value so no launch-local state is referenced).
template <ExecMode M>
class BlockContextT {
 public:
  static constexpr bool kTimed = (M == ExecMode::kTiming);

  BlockContextT(const ArchSpec& arch, const LaunchConfig& cfg, BlockId id,
                MemorySystem* mem = nullptr)
      : arch_(&arch), cfg_(cfg), id_(id), smem_(arch.smem_per_block) {
    SSAM_REQUIRE(cfg.block_threads % kWarpSize == 0, "block size must be a warp multiple");
    warps_.reserve(static_cast<std::size_t>(cfg.warps_per_block()));
    for (int w = 0; w < cfg.warps_per_block(); ++w) {
      warps_.emplace_back(arch, mem, w);
    }
  }

  /// Re-targets this context at another block of the same launch. Heap-free:
  /// the shared-memory arena rewinds and the warp contexts (stateless in
  /// functional mode) are reused as-is.
  void reset(BlockId id) {
    id_ = id;
    smem_.reset();
  }

  /// Whether `rebind` can re-target this context at a launch with the given
  /// architecture and config without reconstructing warp or arena storage.
  [[nodiscard]] bool compatible(const ArchSpec& arch, const LaunchConfig& cfg) const {
    return cfg_.block_threads == cfg.block_threads &&
           smem_.limit() == arch.smem_per_block;
  }

  /// Re-targets this context at a new launch (requires `compatible`).
  /// Heap-free: the warp contexts re-point at the architecture and the
  /// shared arena rewinds. Functional mode only — timing contexts carry
  /// per-launch scoreboard state and are constructed per block.
  void rebind(const ArchSpec& arch, const LaunchConfig& cfg)
    requires(!kTimed)
  {
    arch_ = &arch;
    cfg_ = cfg;
    for (auto& w : warps_) w.rebind(arch);
    smem_.reset();
  }

  [[nodiscard]] const ArchSpec& arch() const { return *arch_; }
  [[nodiscard]] BlockId id() const { return id_; }
  [[nodiscard]] Dim3 grid() const { return cfg_.grid; }
  [[nodiscard]] int warp_count() const { return static_cast<int>(warps_.size()); }
  [[nodiscard]] WarpContextT<M>& warp(int w) { return warps_[static_cast<std::size_t>(w)]; }

  template <typename T>
  [[nodiscard]] Smem<T> alloc_smem(int count) {
    return smem_.alloc<T>(count);
  }

  /// __syncthreads(): aligns all warps' scoreboards to the block-wide
  /// completion point plus the barrier cost. Free in functional mode (the
  /// host executes warps in order, so the barrier is already implied).
  void sync() {
    if constexpr (kTimed) {
      Cycle barrier = 0;
      for (auto& w : warps_) barrier = std::max(barrier, w.scoreboard().completion());
      barrier += static_cast<Cycle>(arch_->lat.barrier);
      for (auto& w : warps_) w.scoreboard().fence_at(barrier);
      ++warps_.front().scoreboard().counters().barriers;
    }
  }

  /// Block finish time: max warp completion.
  [[nodiscard]] Cycle completion() const requires kTimed {
    Cycle c = 0;
    for (const auto& w : warps_) c = std::max(c, w.scoreboard().completion());
    return c;
  }

  /// Weighted issue slots consumed by the whole block.
  [[nodiscard]] double issue_slots() const requires kTimed {
    double s = 0.0;
    for (const auto& w : warps_) s += w.scoreboard().issue_slots();
    return s;
  }

  [[nodiscard]] Counters counters() const requires kTimed {
    Counters c;
    for (const auto& w : warps_) c += w.scoreboard().counters();
    return c;
  }

  [[nodiscard]] std::int64_t smem_high_water() const { return smem_.high_water(); }

 private:
  const ArchSpec* arch_;
  LaunchConfig cfg_;
  BlockId id_;
  SmemAllocator smem_;
  std::vector<WarpContextT<M>> warps_;
};

/// Historical names: `BlockContext` is the timing specialization (what the
/// scoreboard-level tests poke at); the functional one is explicit.
using BlockContext = BlockContextT<ExecMode::kTiming>;
using FunctionalBlockContext = BlockContextT<ExecMode::kFunctional>;

/// Theoretical occupancy: how many blocks fit per SM, limited by warp slots,
/// registers, shared memory and the block-slot limit.
struct Occupancy {
  int blocks_per_sm = 1;
  int warps_per_sm = 1;
  double fraction = 0.0;  ///< warps_per_sm / max_warps_per_sm
  const char* limiter = "none";
};

[[nodiscard]] Occupancy compute_occupancy(const ArchSpec& arch, int block_threads,
                                          int regs_per_thread, std::int64_t smem_per_block);

/// Aggregate statistics of a (possibly sampled) kernel execution.
struct KernelStats {
  LaunchConfig cfg;
  long long blocks_total = 0;
  int blocks_timed = 0;
  double cycles_per_block = 0.0;       ///< mean completion cycles
  double issue_slots_per_block = 0.0;  ///< mean weighted issue slots
  Counters totals;                     ///< scaled to the full grid
  std::int64_t smem_bytes_per_block = 0;
};

/// Chooses `spec.max_blocks` flat block ids as `spec.runs` contiguous runs
/// spread evenly across the grid. Deterministic.
[[nodiscard]] std::vector<long long> sample_block_ids(long long blocks_total,
                                                      const SampleSpec& spec);

namespace detail {
[[nodiscard]] inline BlockId unflatten_block(long long flat, const Dim3& grid) {
  BlockId id;
  id.x = static_cast<int>(flat % grid.x);
  id.y = static_cast<int>((flat / grid.x) % grid.y);
  id.z = static_cast<int>(flat / (static_cast<long long>(grid.x) * grid.y));
  return id;
}

/// Per-thread cache of pooled functional contexts: one `BlockContext` per
/// pool worker, persistent across *all* launches in the process. Keyed by
/// (block_threads, shared-memory capacity) with a handful of LRU entries so
/// interleaved launches of kernels with different block shapes don't
/// thrash context reconstruction.
class FunctionalContextCache {
 public:
  [[nodiscard]] FunctionalBlockContext& acquire(const ArchSpec& arch,
                                                const LaunchConfig& cfg) {
    ++tick_;
    Entry* victim = &entries_[0];
    for (Entry& e : entries_) {
      if (e.ctx != nullptr && e.ctx->compatible(arch, cfg)) {
        e.last_use = tick_;
        e.ctx->rebind(arch, cfg);
        return *e.ctx;
      }
      if (e.ctx == nullptr ? victim->ctx != nullptr : (victim->ctx != nullptr &&
                                                       e.last_use < victim->last_use)) {
        victim = &e;
      }
    }
    victim->ctx = std::make_unique<FunctionalBlockContext>(arch, cfg, BlockId{});
    victim->last_use = tick_;
    return *victim->ctx;
  }

 private:
  struct Entry {
    std::uint64_t last_use = 0;
    std::unique_ptr<FunctionalBlockContext> ctx;
  };
  static constexpr int kEntries = 4;
  Entry entries_[kEntries];
  std::uint64_t tick_ = 0;
};

[[nodiscard]] inline FunctionalBlockContext& pooled_functional_context(
    const ArchSpec& arch, const LaunchConfig& cfg) {
  thread_local FunctionalContextCache cache;
  return cache.acquire(arch, cfg);
}

/// Dynamic-schedule chunk of the functional grid loop (blocks per claim).
inline constexpr std::int64_t kFunctionalChunkBlocks = 16;

/// Executes `body` for every block of the grid on an explicit worker pool —
/// the global one for ordinary launches, a virtual device's pool slice for
/// device-routed work (gpusim/device.hpp). Each participating thread
/// fetches its pooled context once and `reset()`s it per block. Grids of at
/// most one chunk run inline on the calling thread with zero
/// synchronization (see ThreadPool::parallel_run).
template <typename Body>
void run_functional_grid_on(ThreadPool& pool, const ArchSpec& arch,
                            const LaunchConfig& cfg, Body& body) {
  const long long total = cfg.grid.count();
  pool.parallel_run(
      total, kFunctionalChunkBlocks, [&](ThreadPool::ChunkClaimer& claim) {
        std::int64_t b = 0;
        std::int64_t e = 0;
        if (!claim.next(b, e)) return;
        FunctionalBlockContext& blk = pooled_functional_context(arch, cfg);
        do {
          for (std::int64_t flat = b; flat < e; ++flat) {
            blk.reset(unflatten_block(flat, cfg.grid));
            body(blk);
          }
        } while (claim.next(b, e));
      });
}

template <typename Body>
void run_functional_grid(const ArchSpec& arch, const LaunchConfig& cfg, Body& body) {
  run_functional_grid_on(ThreadPool::global(), arch, cfg, body);
}
}  // namespace detail

/// Launches `body(blk)` over the grid. `body` should be a mode-generic
/// callable (`[](auto& blk) {...}`); a body accepting only one context type
/// can still be launched in the matching mode (the other mode throws).
template <typename Body>
KernelStats launch(const ArchSpec& arch, const LaunchConfig& cfg, Body&& body, ExecMode mode,
                   SampleSpec sample = {}) {
  KernelStats stats;
  stats.cfg = cfg;
  stats.blocks_total = cfg.grid.count();
  SSAM_REQUIRE(stats.blocks_total > 0, "empty grid");
  // Validate up front: exceptions cannot propagate out of the parallel
  // functional loop, so block-level checks must fail before dispatch.
  SSAM_REQUIRE(cfg.block_threads > 0 && cfg.block_threads % kWarpSize == 0,
               "block size must be a positive warp multiple");

  if (mode == ExecMode::kFunctional) {
    if constexpr (std::is_invocable_v<Body&, FunctionalBlockContext&>) {
      detail::run_functional_grid(arch, cfg, body);
      return stats;
    } else {
      SSAM_REQUIRE(false, "kernel body does not support functional execution");
    }
  }

  if constexpr (std::is_invocable_v<Body&, BlockContext&>) {
    MemorySystem mem(arch);
    const std::vector<long long> ids = sample_block_ids(stats.blocks_total, sample);
    double cycles = 0.0;
    double slots = 0.0;
    Counters counters;
    for (long long flat : ids) {
      mem.begin_block();
      BlockContext blk(arch, cfg, detail::unflatten_block(flat, cfg.grid), &mem);
      body(blk);
      cycles += static_cast<double>(blk.completion());
      slots += blk.issue_slots();
      counters += blk.counters();
      stats.smem_bytes_per_block = std::max(stats.smem_bytes_per_block, blk.smem_high_water());
    }
    stats.blocks_timed = static_cast<int>(ids.size());
    stats.cycles_per_block = cycles / static_cast<double>(ids.size());
    stats.issue_slots_per_block = slots / static_cast<double>(ids.size());
    const double scale =
        static_cast<double>(stats.blocks_total) / static_cast<double>(ids.size());
    // Scale counters to the full grid (regular kernels: uniform per-block work).
    auto scaled = [&](std::uint64_t v) {
      return static_cast<std::uint64_t>(static_cast<double>(v) * scale + 0.5);
    };
    Counters t;
    t.fp_ops = scaled(counters.fp_ops);
    t.fp64_ops = scaled(counters.fp64_ops);
    t.alu_ops = scaled(counters.alu_ops);
    t.shfl_ops = scaled(counters.shfl_ops);
    t.smem_loads = scaled(counters.smem_loads);
    t.smem_stores = scaled(counters.smem_stores);
    t.smem_broadcasts = scaled(counters.smem_broadcasts);
    t.smem_conflict_extra = scaled(counters.smem_conflict_extra);
    t.gmem_load_insts = scaled(counters.gmem_load_insts);
    t.gmem_store_insts = scaled(counters.gmem_store_insts);
    t.gmem_load_sectors = scaled(counters.gmem_load_sectors);
    t.gmem_store_sectors = scaled(counters.gmem_store_sectors);
    t.l1_hit_lines = scaled(counters.l1_hit_lines);
    t.l2_hit_sectors = scaled(counters.l2_hit_sectors);
    t.dram_read_bytes = scaled(counters.dram_read_bytes);
    t.dram_write_bytes = scaled(counters.dram_write_bytes);
    t.barriers = scaled(counters.barriers);
    stats.totals = t;
    return stats;
  } else {
    SSAM_REQUIRE(false, "kernel body does not support timing execution");
    return stats;  // unreachable
  }
}

}  // namespace ssam::sim
