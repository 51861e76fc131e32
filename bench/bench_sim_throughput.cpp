// Host-side functional-mode simulator throughput: blocks/sec and lane-ops/sec
// per kernel, written to BENCH_sim_throughput.json so the speedup is tracked
// across PRs.
//
// Simulation throughput is the binding constraint on how large a grid, how
// many filter shapes, and how many architectures the harness can sweep, so
// this bench measures the *simulator's own* speed (not the simulated GPU's).
// For conv2d and stencil2d it also replays the kernels on a faithful replica
// of the pre-specialization execution path — runtime `timing` flag, scalar
// 32-lane loops, per-block BlockContext reconstruction (48 KB zeroed shared
// arena + warp vector per block), heap-allocated accumulators — and reports
// the speedup of the compile-time-specialized SIMD path over it.
// It also runs a multi-kernel *pipeline* scenario (blur + Sobel pair over a
// batch of images) serially and as overlapping streams on the launch queue,
// reporting end-to-end pipeline throughput — the number the async
// execution-service work is accountable to.
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
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
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
#include "gpusim/stream.hpp"

namespace {

using namespace ssam;

// ===========================================================================
// Legacy execution path: a faithful replica of the seed simulator's
// functional mode (pre compile-time specialization), kept here so the bench
// can measure the interpretive overhead the refactor removed.
// ===========================================================================

namespace legacy {

using sim::ArchSpec;
using sim::Counters;
using sim::kFullMask;
using sim::kWarpSize;
using sim::MemorySystem;
using sim::Scoreboard;
using sim::Smem;
using sim::SmemAllocator;

/// Seed register types, verbatim: value-initializing members, so every
/// constructed register zeroed its 32 lanes — part of the interpretive
/// overhead the compile-time-specialized path removed.
template <typename T>
struct Vec {
  std::array<T, kWarpSize> lane{};
  [[nodiscard]] T& operator[](int i) { return lane[static_cast<std::size_t>(i)]; }
  [[nodiscard]] const T& operator[](int i) const { return lane[static_cast<std::size_t>(i)]; }
};

template <typename T>
struct Reg {
  Vec<T> v{};
  Cycle ready = 0;
  [[nodiscard]] T& operator[](int i) { return v[i]; }
  [[nodiscard]] const T& operator[](int i) const { return v[i]; }
};

using Pred = Reg<int>;

class WarpContext {
 public:
  WarpContext(const ArchSpec& arch, MemorySystem* mem, bool timing, int warp_id)
      : arch_(&arch), mem_(mem), timing_(timing), warp_id_(warp_id) {}

  [[nodiscard]] Reg<int> lane_id() const {
    Reg<int> r;
    for (int l = 0; l < kWarpSize; ++l) r[l] = l;
    return r;
  }

  template <typename T>
  [[nodiscard]] Reg<T> uniform(T v) const {
    Reg<T> r;
    for (int l = 0; l < kWarpSize; ++l) r[l] = v;
    return r;
  }

  template <typename T>
  [[nodiscard]] Reg<T> iota(T base, T step) const {
    Reg<T> r;
    T v = base;
    for (int l = 0; l < kWarpSize; ++l, v = static_cast<T>(v + step)) r[l] = v;
    return r;
  }

  template <typename T>
  [[nodiscard]] Reg<T> mad(const Reg<T>& a, const Reg<T>& b, const Reg<T>& c) {
    Reg<T> r;
    for (int l = 0; l < kWarpSize; ++l) r[l] = a[l] * b[l] + c[l];
    time_arith(r);
    return r;
  }

  template <typename T>
  [[nodiscard]] Reg<T> mad(const Reg<T>& a, T b, const Reg<T>& c) {
    Reg<T> r;
    for (int l = 0; l < kWarpSize; ++l) r[l] = a[l] * b + c[l];
    time_arith(r);
    return r;
  }

  [[nodiscard]] Reg<Index> affine(const Reg<Index>& x, Index scale, Index offset) {
    Reg<Index> r;
    for (int l = 0; l < kWarpSize; ++l) r[l] = x[l] * scale + offset;
    time_arith(r);
    return r;
  }

  template <typename T>
  [[nodiscard]] Reg<T> clamp(const Reg<T>& x, T lo, T hi) {
    Reg<T> r;
    for (int l = 0; l < kWarpSize; ++l) r[l] = x[l] < lo ? lo : (x[l] > hi ? hi : x[l]);
    time_arith(r);
    return r;
  }

  template <typename T>
  [[nodiscard]] Pred cmp_ge(const Reg<T>& a, T b) {
    Pred r;
    for (int l = 0; l < kWarpSize; ++l) r[l] = a[l] >= b ? 1 : 0;
    time_arith(r);
    return r;
  }

  template <typename T>
  [[nodiscard]] Pred cmp_lt(const Reg<T>& a, T b) {
    Pred r;
    for (int l = 0; l < kWarpSize; ++l) r[l] = a[l] < b ? 1 : 0;
    time_arith(r);
    return r;
  }

  [[nodiscard]] Pred pred_and(const Pred& a, const Pred& b) {
    Pred r;
    for (int l = 0; l < kWarpSize; ++l) r[l] = (a[l] != 0 && b[l] != 0) ? 1 : 0;
    time_arith(r);
    return r;
  }

  template <typename T>
  [[nodiscard]] Reg<T> add(const Reg<T>& a, const Reg<T>& b) {
    Reg<T> r;
    for (int l = 0; l < kWarpSize; ++l) r[l] = a[l] + b[l];
    time_arith(r);
    return r;
  }

  template <typename T>
  [[nodiscard]] Reg<T> add(const Reg<T>& a, T b) {
    Reg<T> r;
    for (int l = 0; l < kWarpSize; ++l) r[l] = a[l] + b;
    time_arith(r);
    return r;
  }

  template <typename T>
  [[nodiscard]] Reg<T> select(const Pred& pred, const Reg<T>& a, const Reg<T>& b) {
    Reg<T> r;
    for (int l = 0; l < kWarpSize; ++l) r[l] = pred[l] != 0 ? a[l] : b[l];
    time_arith(r);
    return r;
  }

  template <typename T>
  [[nodiscard]] Reg<T> shfl_up(std::uint32_t, const Reg<T>& a, int delta) {
    Reg<T> r;
    for (int l = 0; l < kWarpSize; ++l) r[l] = l >= delta ? a[l - delta] : a[l];
    time_arith(r);
    return r;
  }

  template <typename T>
  [[nodiscard]] Reg<T> shfl_idx(std::uint32_t, const Reg<T>& a, int src_lane) {
    Reg<T> r;
    const T v = a[src_lane & (kWarpSize - 1)];
    for (int l = 0; l < kWarpSize; ++l) r[l] = v;
    time_arith(r);
    return r;
  }

  template <typename T>
  [[nodiscard]] Reg<T> load_global(const T* base, const Reg<Index>& idx,
                                   const Pred* active = nullptr) {
    Reg<T> r;
    std::uint64_t addrs[kWarpSize];
    int n = 0;
    for (int l = 0; l < kWarpSize; ++l) {
      if (active != nullptr && (*active)[l] == 0) continue;
      r[l] = base[idx[l]];
      addrs[n++] = reinterpret_cast<std::uint64_t>(base + idx[l]);
    }
    if (timing_) {
      (void)mem_->load({addrs, static_cast<std::size_t>(n)}, sizeof(T));
      r.ready = sb_.issue(idx.ready, 1.0, arch_->lat.dram);
    }
    return r;
  }

  template <typename T>
  void store_global(T* base, const Reg<Index>& idx, const Reg<T>& v,
                    const Pred* active = nullptr) {
    std::uint64_t addrs[kWarpSize];
    int n = 0;
    for (int l = 0; l < kWarpSize; ++l) {
      if (active != nullptr && (*active)[l] == 0) continue;
      base[idx[l]] = v[l];
      addrs[n++] = reinterpret_cast<std::uint64_t>(base + idx[l]);
    }
    if (timing_) {
      (void)mem_->store({addrs, static_cast<std::size_t>(n)}, sizeof(T));
      (void)sb_.issue(idx.ready, 1.0, 0);
    }
  }

  template <typename T>
  [[nodiscard]] Reg<T> load_shared(const Smem<T>& s, const Reg<int>& idx,
                                   const Pred* active = nullptr) {
    Reg<T> r;
    for (int l = 0; l < kWarpSize; ++l) {
      if (active != nullptr && (*active)[l] == 0) continue;
      r[l] = s.data[idx[l]];
    }
    if (timing_) r.ready = sb_.issue(idx.ready, 1.0, arch_->lat.smem);
    return r;
  }

  template <typename T>
  [[nodiscard]] Reg<T> load_shared_broadcast(const Smem<T>& s, int idx) {
    Reg<T> r;
    for (int l = 0; l < kWarpSize; ++l) r[l] = s.data[idx];
    if (timing_) r.ready = sb_.issue(0, 1.0, arch_->lat.smem);
    return r;
  }

  template <typename T>
  void store_shared(const Smem<T>& s, const Reg<int>& idx, const Reg<T>& v,
                    const Pred* active = nullptr) {
    for (int l = 0; l < kWarpSize; ++l) {
      if (active != nullptr && (*active)[l] == 0) continue;
      s.data[idx[l]] = v[l];
    }
    if (timing_) (void)sb_.issue(idx.ready, 1.0, 0);
  }

 private:
  template <typename R>
  void time_arith(Reg<R>& r) {
    if (!timing_) return;
    r.ready = sb_.issue(r.ready, 1.0, arch_->lat.fp_mad);
  }

  const ArchSpec* arch_;
  MemorySystem* mem_;
  bool timing_;
  int warp_id_;
  Scoreboard sb_;
};

/// Seed-style block context: reconstructed for every block, which allocates
/// (and zero-initializes) the full 48 KB shared-memory arena plus the warp
/// vector each time — the per-block overhead the pooled path eliminates.
class BlockContext {
 public:
  BlockContext(const ArchSpec& arch, const sim::LaunchConfig& cfg, BlockId id,
               MemorySystem* mem, bool timing)
      : id_(id), smem_(arch.smem_per_block) {
    warps_.reserve(static_cast<std::size_t>(cfg.warps_per_block()));
    for (int w = 0; w < cfg.warps_per_block(); ++w) {
      warps_.emplace_back(arch, mem, timing, w);
    }
  }

  [[nodiscard]] BlockId id() const { return id_; }
  [[nodiscard]] int warp_count() const { return static_cast<int>(warps_.size()); }
  [[nodiscard]] WarpContext& warp(int w) { return warps_[static_cast<std::size_t>(w)]; }

  template <typename T>
  [[nodiscard]] Smem<T> alloc_smem(int count) {
    return smem_.alloc<T>(count);
  }

  void sync() {}  // functional mode: no-op, as in the seed

 private:
  BlockId id_;
  SmemAllocator smem_;
  std::vector<WarpContext> warps_;
};

/// Seed-style functional launch: one freshly constructed BlockContext per
/// block.
template <typename Body>
void launch_functional(const sim::ArchSpec& arch, const sim::LaunchConfig& cfg,
                       Body&& body) {
  const long long blocks_total = cfg.grid.count();
  parallel_for(blocks_total, [&](std::int64_t flat) {
    BlockId id;
    id.x = static_cast<int>(flat % cfg.grid.x);
    id.y = static_cast<int>((flat / cfg.grid.x) % cfg.grid.y);
    id.z = static_cast<int>(flat / (static_cast<long long>(cfg.grid.x) * cfg.grid.y));
    BlockContext blk(arch, cfg, id, nullptr, /*timing=*/false);
    body(blk);
  });
}

/// Seed-style conv2d: identical math and op sequence to core::conv2d_ssam,
/// with heap-allocated register cache and accumulators.
template <typename T>
void conv2d(const sim::ArchSpec& arch, const GridView2D<const T>& in,
            const std::vector<T>& weights, int m, int n, GridView2D<T> out) {
  const int cx = (m - 1) / 2;
  const int cy = (n - 1) / 2;
  const Index width = in.width();
  const Index height = in.height();

  core::Blocking2D geom;
  geom.span = m - 1;
  geom.dx_min = -cx;
  geom.rows_halo = n - 1;
  geom.p = 4;
  geom.block_threads = 128;

  sim::LaunchConfig cfg;
  cfg.grid = geom.grid(width, height);
  cfg.block_threads = geom.block_threads;

  const T* wgt = weights.data();
  launch_functional(arch, cfg, [&, m, n, cx, cy, width, height, geom, wgt](BlockContext& blk) {
    Smem<T> smem = blk.alloc_smem<T>(m * n);
    {  // cooperative weight load (block-striped)
      const int threads = blk.warp_count() * kWarpSize;
      for (int w = 0; w < blk.warp_count(); ++w) {
        WarpContext& wc = blk.warp(w);
        for (int base = w * kWarpSize; base < m * n; base += threads) {
          Pred active = wc.cmp_lt(wc.iota<int>(base, 1), m * n);
          const Reg<T> v = wc.load_global(wgt, wc.iota<Index>(base, 1), &active);
          wc.store_shared(smem, wc.iota<int>(base, 1), v, &active);
        }
      }
      blk.sync();
    }

    for (int w = 0; w < blk.warp_count(); ++w) {
      WarpContext& wc = blk.warp(w);
      const long long warp_linear =
          static_cast<long long>(blk.id().x) * geom.warps_per_block() + w;
      const Index col0 = geom.lane0_col(warp_linear);
      if (col0 - geom.dx_min >= width) continue;
      const Index row0 = geom.top_row(blk.id().y, cy);

      // Heap-allocated register cache rows (seed RegisterCache).
      std::vector<Reg<T>> rows(static_cast<std::size_t>(geom.c()));
      Reg<Index> col = wc.clamp(wc.iota<Index>(col0, 1), Index{0}, width - 1);
      for (int r = 0; r < geom.c(); ++r) {
        Index y = row0 + r;
        y = y < 0 ? 0 : (y >= height ? height - 1 : y);
        rows[static_cast<std::size_t>(r)] =
            wc.load_global(in.data(), wc.affine(col, 1, y * in.pitch()));
      }

      std::vector<Reg<T>> result(static_cast<std::size_t>(geom.p));
      for (int i = 0; i < geom.p; ++i) {
        Reg<T> sum = wc.uniform(T{});
        for (int fm = 0; fm < m; ++fm) {
          if (fm > 0) sum = wc.shfl_up(kFullMask, sum, 1);
          for (int fn = 0; fn < n; ++fn) {
            const Reg<T> wt = wc.load_shared_broadcast(smem, fn * m + fm);
            sum = wc.mad(rows[static_cast<std::size_t>(i + fn)], wt, sum);
          }
        }
        result[static_cast<std::size_t>(i)] = sum;
      }

      const Reg<Index> out_x = wc.affine(wc.iota<Index>(0, 1), 1, col0 - (m - 1) + cx);
      Pred ok = wc.pred_and(wc.cmp_ge(wc.lane_id(), m - 1), wc.cmp_lt(out_x, width));
      for (int i = 0; i < geom.p; ++i) {
        const Index oy = static_cast<Index>(blk.id().y) * geom.p + i;
        if (oy >= height) break;
        const Reg<Index> oidx = wc.affine(out_x, 1, oy * out.pitch());
        wc.store_global(out.data(), oidx, result[static_cast<std::size_t>(i)], &ok);
      }
    }
  });
}

/// Seed-style stencil2d with the plan's shift schedule.
template <typename T>
void stencil2d(const sim::ArchSpec& arch, const GridView2D<const T>& in,
               const core::SystolicPlan<T>& plan, GridView2D<T> out) {
  const core::ColumnPass<T>& pass = plan.passes.front();
  const Index width = in.width();
  const Index height = in.height();

  core::Blocking2D geom;
  geom.span = plan.span();
  geom.dx_min = plan.dx_min;
  geom.rows_halo = plan.rows_halo();
  geom.p = 4;
  geom.block_threads = 128;

  sim::LaunchConfig cfg;
  cfg.grid = geom.grid(width, height);
  cfg.block_threads = geom.block_threads;

  const int dy_min = plan.dy_min;
  const int anchor = plan.anchor_dx;
  launch_functional(arch, cfg, [&, geom, dy_min, anchor, width, height](BlockContext& blk) {
    for (int w = 0; w < blk.warp_count(); ++w) {
      WarpContext& wc = blk.warp(w);
      const long long warp_linear =
          static_cast<long long>(blk.id().x) * geom.warps_per_block() + w;
      const Index col0 = geom.lane0_col(warp_linear);
      if (col0 - geom.dx_min >= width) continue;
      const Index row0 = static_cast<Index>(blk.id().y) * geom.p + dy_min;

      std::vector<Reg<T>> rows(static_cast<std::size_t>(geom.c()));
      Reg<Index> col = wc.clamp(wc.iota<Index>(col0, 1), Index{0}, width - 1);
      for (int r = 0; r < geom.c(); ++r) {
        Index y = row0 + r;
        y = y < 0 ? 0 : (y >= height ? height - 1 : y);
        rows[static_cast<std::size_t>(r)] =
            wc.load_global(in.data(), wc.affine(col, 1, y * in.pitch()));
      }

      std::vector<Reg<T>> result(static_cast<std::size_t>(geom.p));
      for (int i = 0; i < geom.p; ++i) {
        Reg<T> sum = wc.uniform(T{});
        for (std::size_t ci = 0; ci < pass.columns.size(); ++ci) {
          if (ci > 0) sum = wc.shfl_up(kFullMask, sum, 1);
          for (const core::ColumnTap<T>& tap : pass.columns[ci]) {
            sum = wc.mad(rows[static_cast<std::size_t>(i + tap.dy - dy_min)],
                         tap.coeff, sum);
          }
        }
        result[static_cast<std::size_t>(i)] = sum;
      }

      const Reg<Index> out_x = wc.affine(wc.iota<Index>(0, 1), 1, col0 - anchor);
      Pred ok = wc.pred_and(wc.cmp_ge(wc.lane_id(), geom.span), wc.cmp_lt(out_x, width));
      for (int i = 0; i < geom.p; ++i) {
        const Index oy = static_cast<Index>(blk.id().y) * geom.p + i;
        if (oy >= height) break;
        const Reg<Index> oidx = wc.affine(out_x, 1, oy * out.pitch());
        wc.store_global(out.data(), oidx, result[static_cast<std::size_t>(i)], &ok);
      }
    }
  });
}

/// Seed-style temporal blocking: t fused sweeps entirely in heap-allocated
/// register rows, ping-ponged through std::vector levels.
template <typename T>
void stencil2d_temporal(const sim::ArchSpec& arch, const GridView2D<const T>& in,
                        const core::SystolicPlan<T>& plan, GridView2D<T> out, int t,
                        int p) {
  const core::ColumnPass<T>& pass = plan.passes.front();
  const Index width = in.width();
  const Index height = in.height();
  const int dy_span = plan.rows_halo();

  core::Blocking2D geom;
  geom.span = t * plan.span();
  geom.dx_min = t * plan.dx_min;
  geom.rows_halo = t * dy_span;
  geom.p = p;
  geom.block_threads = 128;

  sim::LaunchConfig cfg;
  cfg.grid = geom.grid(width, height);
  cfg.block_threads = geom.block_threads;

  const int dy_min = plan.dy_min;
  const int anchor = plan.anchor_dx;
  launch_functional(
      arch, cfg, [&, geom, dy_min, anchor, width, height, t, dy_span](BlockContext& blk) {
        for (int w = 0; w < blk.warp_count(); ++w) {
          WarpContext& wc = blk.warp(w);
          const long long warp_linear =
              static_cast<long long>(blk.id().x) * geom.warps_per_block() + w;
          const Index col0 = geom.lane0_col(warp_linear);
          if (col0 - geom.dx_min >= width) continue;
          const Index row0 = static_cast<Index>(blk.id().y) * geom.p +
                             static_cast<Index>(t) * dy_min;

          std::vector<Reg<T>> cur(static_cast<std::size_t>(geom.c()));
          Reg<Index> col = wc.clamp(wc.iota<Index>(col0, 1), Index{0}, width - 1);
          for (int r = 0; r < geom.c(); ++r) {
            Index y = row0 + r;
            y = y < 0 ? 0 : (y >= height ? height - 1 : y);
            cur[static_cast<std::size_t>(r)] =
                wc.load_global(in.data(), wc.affine(col, 1, y * in.pitch()));
          }

          std::vector<Reg<T>> nxt;
          for (int s = 0; s < t; ++s) {
            const int next_rows = static_cast<int>(cur.size()) - dy_span;
            nxt.assign(static_cast<std::size_t>(next_rows), Reg<T>{});
            for (int r = 0; r < next_rows; ++r) {
              Reg<T> sum = wc.uniform(T{});
              for (std::size_t ci = 0; ci < pass.columns.size(); ++ci) {
                if (ci > 0) sum = wc.shfl_up(kFullMask, sum, 1);
                for (const core::ColumnTap<T>& tap : pass.columns[ci]) {
                  sum = wc.mad(cur[static_cast<std::size_t>(r + tap.dy - dy_min)],
                               tap.coeff, sum);
                }
              }
              nxt[static_cast<std::size_t>(r)] = sum;
            }
            cur.swap(nxt);
          }

          const Reg<Index> out_x =
              wc.affine(wc.iota<Index>(0, 1), 1, col0 - static_cast<Index>(t) * anchor);
          Pred ok = wc.pred_and(wc.cmp_ge(wc.lane_id(), geom.span), wc.cmp_lt(out_x, width));
          for (int i = 0; i < geom.p; ++i) {
            const Index oy = static_cast<Index>(blk.id().y) * geom.p + i;
            if (oy >= height) break;
            wc.store_global(out.data(), wc.affine(out_x, 1, oy * out.pitch()),
                            cur[static_cast<std::size_t>(i)], &ok);
          }
        }
      });
}

/// Seed-style 3D stencil: per-plane warps with heap register rows, partial
/// sums published through shared memory, explicit predicated stores.
template <typename T>
void stencil3d(const sim::ArchSpec& arch, const GridView3D<const T>& in,
               const core::SystolicPlan<T>& plan, GridView3D<T> out, int p = 2,
               int warps = 8) {
  const int rz = plan.rz();
  const Index nx = in.nx();
  const Index ny = in.ny();
  const Index nz = in.nz();

  core::Blocking2D geom;
  geom.span = plan.span();
  geom.dx_min = plan.dx_min;
  geom.rows_halo = plan.rows_halo();
  geom.p = p;
  geom.block_threads = warps * kWarpSize;

  core::Blocking3D geom3;
  geom3.plane = geom;
  geom3.rz = rz;
  geom3.warps = warps;

  const core::ColumnPass<T>* center_pass = nullptr;
  std::vector<core::ColumnPass<T>> off_passes;
  for (const auto& ps : plan.passes) {
    if (ps.dz == 0) {
      center_pass = &ps;
    } else {
      off_passes.push_back(ps);
    }
  }
  const int n_off = static_cast<int>(off_passes.size());
  const int dy_min = plan.dy_min;
  const int anchor = plan.anchor_dx;
  const int vp = geom3.valid_planes();

  sim::LaunchConfig cfg;
  cfg.grid = geom3.grid(nx, ny, nz);
  cfg.block_threads = geom3.block_threads();

  launch_functional(arch, cfg, [&](BlockContext& blk) {
    const int smem_elems = warps * std::max(1, n_off) * p * kWarpSize;
    Smem<T> published = blk.alloc_smem<T>(smem_elems);
    auto smem_base = [&](int warp, int slot, int i) {
      return ((warp * std::max(1, n_off) + slot) * p + i) * kWarpSize;
    };

    const Index col0 = geom.lane0_col(blk.id().x);
    const Index row0 = static_cast<Index>(blk.id().y) * p + dy_min;
    const Index z_first = static_cast<Index>(blk.id().z) * vp - rz;

    std::vector<Reg<T>> center_sum(static_cast<std::size_t>(warps * p));

    for (int w = 0; w < warps; ++w) {
      WarpContext& wc = blk.warp(w);
      Index pz = z_first + w;
      pz = pz < 0 ? 0 : (pz >= nz ? nz - 1 : pz);
      const GridView2D<const T> plane = in.slice(pz);

      std::vector<Reg<T>> rows(static_cast<std::size_t>(geom.c()));
      Reg<Index> col = wc.clamp(wc.iota<Index>(col0, 1), Index{0}, nx - 1);
      for (int r = 0; r < geom.c(); ++r) {
        Index y = row0 + r;
        y = y < 0 ? 0 : (y >= ny ? ny - 1 : y);
        rows[static_cast<std::size_t>(r)] =
            wc.load_global(plane.data(), wc.affine(col, 1, y * plane.pitch()));
      }

      for (int i = 0; i < p; ++i) {
        Reg<T> s0 = wc.uniform(T{});
        if (center_pass != nullptr) {
          for (std::size_t ci = 0; ci < center_pass->columns.size(); ++ci) {
            if (ci > 0) s0 = wc.shfl_up(kFullMask, s0, 1);
            for (const core::ColumnTap<T>& tap : center_pass->columns[ci]) {
              s0 = wc.mad(rows[static_cast<std::size_t>(i + tap.dy - dy_min)], tap.coeff,
                          s0);
            }
          }
        }
        center_sum[static_cast<std::size_t>(w * p + i)] = s0;

        for (int op = 0; op < n_off; ++op) {
          const core::ColumnPass<T>& pass = off_passes[static_cast<std::size_t>(op)];
          Reg<T> sum = wc.uniform(T{});
          for (std::size_t ci = 0; ci < pass.columns.size(); ++ci) {
            if (ci > 0) sum = wc.shfl_up(kFullMask, sum, 1);
            for (const core::ColumnTap<T>& tap : pass.columns[ci]) {
              sum = wc.mad(rows[static_cast<std::size_t>(i + tap.dy - dy_min)], tap.coeff,
                           sum);
            }
          }
          wc.store_shared(published, wc.iota<int>(smem_base(w, op, i), 1), sum);
        }
      }
    }
    blk.sync();

    for (int w = rz; w < warps - rz; ++w) {
      WarpContext& wc = blk.warp(w);
      const Index pz = z_first + w;
      if (pz < 0 || pz >= nz) continue;

      T* plane_out = out.data() + pz * ny * nx;
      const Reg<Index> out_x = wc.affine(wc.iota<Index>(0, 1), 1, col0 - anchor);
      Pred ok = wc.pred_and(wc.cmp_ge(wc.lane_id(), geom.span), wc.cmp_lt(out_x, nx));
      for (int i = 0; i < p; ++i) {
        const Index oy = static_cast<Index>(blk.id().y) * p + i;
        if (oy >= ny) break;
        Reg<T> sum = center_sum[static_cast<std::size_t>(w * p + i)];
        for (int op = 0; op < n_off; ++op) {
          const core::ColumnPass<T>& pass = off_passes[static_cast<std::size_t>(op)];
          const int producer = w + pass.dz;
          const int deficit = anchor - pass.dx_max;
          Reg<int> sidx = wc.add(wc.lane_id(), smem_base(producer, op, i) - deficit);
          sidx = wc.clamp(sidx, smem_base(producer, op, i),
                          smem_base(producer, op, i) + kWarpSize - 1);
          sum = wc.add(sum, wc.load_shared(published, sidx));
        }
        wc.store_global(plane_out, wc.affine(out_x, 1, oy * nx), sum, &ok);
      }
    }
  });
}

/// Seed-style GEMM: heap-allocated accumulator rows, same systolic broadcast
/// chain as core::gemm_ssam.
template <typename T>
void gemm(const sim::ArchSpec& arch, const GridView2D<const T>& a,
          const GridView2D<const T>& b, GridView2D<T> c, int p = 4) {
  const Index m = a.height();
  const Index k = a.width();
  const Index n = b.width();
  constexpr int kBlockThreads = 128;
  const int warps = kBlockThreads / kWarpSize;

  sim::LaunchConfig cfg;
  cfg.grid = Dim3{static_cast<int>(ceil_div(n, kWarpSize)),
                  static_cast<int>(ceil_div(m, static_cast<long long>(warps) * p)), 1};
  cfg.block_threads = kBlockThreads;

  launch_functional(arch, cfg, [&, m, k, n, warps, p](BlockContext& blk) {
    for (int w = 0; w < warps; ++w) {
      WarpContext& wc = blk.warp(w);
      const Index j0 = static_cast<Index>(blk.id().x) * kWarpSize;
      const Index i0 = (static_cast<Index>(blk.id().y) * warps + w) * p;
      if (j0 >= n || i0 >= m) continue;
      Pred col_ok = wc.cmp_lt(wc.iota<Index>(j0, 1), n);

      std::vector<Reg<T>> acc(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) acc[static_cast<std::size_t>(r)] = wc.uniform(T{});

      for (Index kk = 0; kk < k; kk += kWarpSize) {
        const int steps = static_cast<int>(std::min<Index>(kWarpSize, k - kk));
        std::vector<Reg<T>> a_vec(static_cast<std::size_t>(p));
        Pred k_ok = wc.cmp_lt(wc.iota<Index>(kk, 1), k);
        for (int r = 0; r < p; ++r) {
          const Index row = std::min<Index>(i0 + r, m - 1);
          a_vec[static_cast<std::size_t>(r)] =
              wc.load_global(a.data(), wc.iota<Index>(row * a.pitch() + kk, 1), &k_ok);
        }
        for (int s = 0; s < steps; ++s) {
          const Reg<T> b_row =
              wc.load_global(b.data(), wc.iota<Index>((kk + s) * b.pitch() + j0, 1), &col_ok);
          for (int r = 0; r < p; ++r) {
            const Reg<T> a_bc = wc.shfl_idx(kFullMask, a_vec[static_cast<std::size_t>(r)], s);
            acc[static_cast<std::size_t>(r)] =
                wc.mad(b_row, a_bc, acc[static_cast<std::size_t>(r)]);
          }
        }
      }
      for (int r = 0; r < p; ++r) {
        const Index row = i0 + r;
        if (row >= m) break;
        wc.store_global(c.data(), wc.iota<Index>(row * c.pitch() + j0, 1),
                        acc[static_cast<std::size_t>(r)], &col_ok);
      }
    }
  });
}

/// Seed-style Kogge-Stone warp scan.
template <typename T>
[[nodiscard]] Reg<T> warp_scan(WarpContext& wc, Reg<T> v) {
  for (int d = 1; d < kWarpSize; d <<= 1) {
    const Reg<T> shifted = wc.shfl_up(kFullMask, v, d);
    const Pred gate = wc.cmp_ge(wc.lane_id(), d);
    v = wc.select(gate, wc.add(v, shifted), v);
  }
  return v;
}

/// Seed-style hierarchical inclusive scan (same pass structure as
/// core::scan_inclusive, heap state per block).
template <typename T>
void scan(const sim::ArchSpec& arch, std::span<const T> in, std::span<T> out) {
  const Index n = static_cast<Index>(in.size());
  constexpr int kBlockThreads = 256;
  const int warps = kBlockThreads / kWarpSize;
  const long long blocks = ceil_div(n, kBlockThreads);

  std::vector<T> block_sums(static_cast<std::size_t>(blocks));
  sim::LaunchConfig cfg;
  cfg.grid = Dim3{static_cast<int>(blocks), 1, 1};
  cfg.block_threads = kBlockThreads;

  const T* src = in.data();
  T* dst = out.data();
  T* sums = block_sums.data();
  launch_functional(arch, cfg, [&, src, dst, sums, n, warps](BlockContext& blk) {
    Smem<T> warp_totals = blk.alloc_smem<T>(warps);
    std::vector<Reg<T>> scanned(static_cast<std::size_t>(warps));
    for (int w = 0; w < warps; ++w) {
      WarpContext& wc = blk.warp(w);
      const Index base = static_cast<Index>(blk.id().x) * kBlockThreads +
                         static_cast<Index>(w) * kWarpSize;
      const Reg<Index> idx = wc.iota<Index>(base, 1);
      Pred active = wc.cmp_lt(idx, n);
      Reg<T> v = wc.load_global(src, idx, &active);
      v = warp_scan(wc, v);
      scanned[static_cast<std::size_t>(w)] = v;
      const Reg<T> total = wc.shfl_idx(kFullMask, v, kWarpSize - 1);
      Pred lane0 = wc.cmp_lt(wc.lane_id(), 1);
      wc.store_shared(warp_totals, wc.uniform(w), total, &lane0);
    }
    blk.sync();
    for (int w = 0; w < warps; ++w) {
      WarpContext& wc = blk.warp(w);
      Reg<T> offset = wc.uniform(T{});
      for (int pw = 0; pw < w; ++pw) {
        offset = wc.add(offset, wc.load_shared_broadcast(warp_totals, pw));
      }
      Reg<T> v = wc.add(scanned[static_cast<std::size_t>(w)], offset);
      const Index base = static_cast<Index>(blk.id().x) * kBlockThreads +
                         static_cast<Index>(w) * kWarpSize;
      const Reg<Index> idx = wc.iota<Index>(base, 1);
      Pred active = wc.cmp_lt(idx, n);
      wc.store_global(dst, idx, v, &active);
      if (w == warps - 1) {
        Pred last = wc.cmp_ge(wc.lane_id(), kWarpSize - 1);
        wc.store_global(sums, wc.uniform(static_cast<Index>(blk.id().x)),
                        wc.shfl_idx(kFullMask, v, kWarpSize - 1), &last);
      }
    }
  });

  if (blocks > 1) {
    std::vector<T> scanned_sums(block_sums.size());
    scan<T>(arch, {block_sums.data(), block_sums.size()},
            {scanned_sums.data(), scanned_sums.size()});
    const T* offs = scanned_sums.data();
    launch_functional(arch, cfg, [&, offs, dst, n](BlockContext& blk) {
      if (blk.id().x == 0) return;
      for (int w = 0; w < blk.warp_count(); ++w) {
        WarpContext& wc = blk.warp(w);
        const Reg<T> off =
            wc.load_global(offs, wc.uniform(static_cast<Index>(blk.id().x - 1)));
        const Index base = static_cast<Index>(blk.id().x) * kBlockThreads +
                           static_cast<Index>(w) * kWarpSize;
        const Reg<Index> idx = wc.iota<Index>(base, 1);
        Pred active = wc.cmp_lt(idx, n);
        Reg<T> v = wc.load_global(dst, idx, &active);
        v = wc.add(v, off);
        wc.store_global(dst, idx, v, &active);
      }
    });
  }
}

}  // namespace legacy

// ===========================================================================
// Measurement harness
// ===========================================================================

struct KernelResult {
  std::string name;
  long long blocks = 0;
  double cells = 0.0;
  double flops_per_cell = 0.0;
  double seconds = 0.0;     ///< best-of per-rep wall time, current path
  double legacy_seconds = 0.0;  ///< 0 when no legacy replica exists
  double serial_seconds = 0.0;  ///< pipeline only: sum-of-stages serial time
  int host_threads = 0;         ///< per-row override (pipeline runs wider)

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
  [[nodiscard]] double speedup_vs_legacy() const {
    return legacy_seconds > 0.0 ? legacy_seconds / seconds : 0.0;
  }
  [[nodiscard]] double overlap_speedup() const {
    return serial_seconds > 0.0 ? serial_seconds / seconds : 0.0;
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

void write_json(const std::vector<KernelResult>& results, int kernel_threads,
                int overlap_threads, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"sim_throughput\",\n  \"mode\": \"functional\",\n");
  std::fprintf(f, "  \"simd_backend\": \"%s\",\n", ssam::sim::simd::kBackendName);
  // Per-kernel numbers are pinned to one worker for regression stability;
  // the pipeline overlap scenario runs at overlap_host_threads workers.
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
    if (r.legacy_seconds > 0.0) {
      std::fprintf(f,
                   ", \"legacy_seconds\": %.6f, \"legacy_blocks_per_sec\": %.1f, "
                   "\"speedup_vs_legacy\": %.2f",
                   r.legacy_seconds, static_cast<double>(r.blocks) / r.legacy_seconds,
                   r.speedup_vs_legacy());
    }
    if (r.serial_seconds > 0.0) {
      std::fprintf(f, ", \"serial_seconds\": %.6f, \"overlap_speedup\": %.2f",
                   r.serial_seconds, r.overlap_speedup());
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
  std::fclose(f);
  std::printf("wrote %s\n", path);
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
  // SSAM_THREADS or core count; the pipeline overlap scenario below widens
  // the pool to >= 4 workers (its point is cross-stream overlap).
  ThreadPool::reset_global(1);
  const int kernel_threads = ThreadPool::global().size();

  const Index w2d = 2048, h2d = 2048;
  Grid2D<float> in2d(w2d, h2d);
  fill_random(in2d, 1);
  Grid2D<float> out2d(w2d, h2d);

  // --- conv2d 5x5 (with legacy comparison) ---------------------------------
  {
    const int m = 5, n = 5;
    std::vector<float> weights(static_cast<std::size_t>(m * n), 0.04f);
    KernelResult r;
    r.name = "conv2d_5x5";
    r.cells = static_cast<double>(w2d) * static_cast<double>(h2d);
    r.flops_per_cell = 2.0 * m * n;
    sim::KernelStats stats;
    const auto [cur, leg] = best_time_interleaved(
        [&] {
          stats = core::conv2d_ssam<float>(arch, in2d.cview(), weights, m, n, out2d.view());
        },
        [&] { legacy::conv2d<float>(arch, in2d.cview(), weights, m, n, out2d.view()); });
    r.seconds = cur;
    r.legacy_seconds = leg;
    r.blocks = stats.blocks_total;
    std::printf("%-24s %10.3f ms  (legacy %10.3f ms, speedup %.2fx)\n", r.name.c_str(),
                r.seconds * 1e3, r.legacy_seconds * 1e3, r.speedup_vs_legacy());
    results.push_back(r);
  }

  // --- stencil2d star-1 (with legacy comparison) ---------------------------
  {
    const core::StencilShape<float> shape = core::star2d<float>(1);
    const core::SystolicPlan<float> plan = core::build_plan(shape.taps);
    KernelResult r;
    r.name = "stencil2d_star1";
    r.cells = static_cast<double>(w2d) * static_cast<double>(h2d);
    r.flops_per_cell = 2.0 * static_cast<double>(shape.taps.size()) - 1.0;
    sim::KernelStats stats;
    const auto [cur, leg] = best_time_interleaved(
        [&] {
          stats = core::stencil2d_ssam<float>(arch, in2d.cview(), plan, out2d.view());
        },
        [&] { legacy::stencil2d<float>(arch, in2d.cview(), plan, out2d.view()); });
    r.seconds = cur;
    r.legacy_seconds = leg;
    r.blocks = stats.blocks_total;
    std::printf("%-24s %10.3f ms  (legacy %10.3f ms, speedup %.2fx)\n", r.name.c_str(),
                r.seconds * 1e3, r.legacy_seconds * 1e3, r.speedup_vs_legacy());
    results.push_back(r);
  }

  // --- temporal stencil, t=4 (with legacy comparison) -----------------------
  {
    const core::StencilShape<float> shape = core::star2d<float>(1);
    const core::SystolicPlan<float> plan = core::build_plan(shape.taps);
    core::TemporalSsamOptions opt;
    opt.t = 4;
    KernelResult r;
    r.name = "stencil2d_temporal_t4";
    r.cells = static_cast<double>(w2d) * static_cast<double>(h2d) * opt.t;
    r.flops_per_cell = 2.0 * static_cast<double>(shape.taps.size()) - 1.0;
    sim::KernelStats stats;
    const auto [cur, leg] = best_time_interleaved(
        [&] {
          stats = core::stencil2d_ssam_temporal<float>(arch, in2d.cview(), plan,
                                                       out2d.view(), opt);
        },
        [&] {
          legacy::stencil2d_temporal<float>(arch, in2d.cview(), plan, out2d.view(), opt.t,
                                            opt.p);
        });
    r.seconds = cur;
    r.legacy_seconds = leg;
    r.blocks = stats.blocks_total;
    std::printf("%-24s %10.3f ms  (legacy %10.3f ms, speedup %.2fx)\n", r.name.c_str(),
                r.seconds * 1e3, r.legacy_seconds * 1e3, r.speedup_vs_legacy());
    results.push_back(r);
  }

  // --- stencil3d star-1 (with legacy comparison) ----------------------------
  {
    const Index n3 = 192;
    Grid3D<float> in3d(n3, n3, n3);
    fill_random(in3d, 2);
    Grid3D<float> out3d(n3, n3, n3);
    const core::StencilShape<float> shape = core::star3d<float>(1);
    const core::SystolicPlan<float> plan = core::build_plan(shape.taps);
    KernelResult r;
    r.name = "stencil3d_star1";
    r.cells = static_cast<double>(n3) * n3 * n3;
    r.flops_per_cell = 2.0 * static_cast<double>(shape.taps.size()) - 1.0;
    sim::KernelStats stats;
    const auto [cur, leg] = best_time_interleaved(
        [&] {
          stats = core::stencil3d_ssam<float>(arch, in3d.cview(), plan, out3d.view());
        },
        [&] { legacy::stencil3d<float>(arch, in3d.cview(), plan, out3d.view()); });
    r.seconds = cur;
    r.legacy_seconds = leg;
    r.blocks = stats.blocks_total;
    std::printf("%-24s %10.3f ms  (legacy %10.3f ms, speedup %.2fx)\n", r.name.c_str(),
                r.seconds * 1e3, r.legacy_seconds * 1e3, r.speedup_vs_legacy());
    results.push_back(r);
  }

  // --- device-wide scan (with legacy comparison) ----------------------------
  {
    std::vector<float> in(static_cast<std::size_t>(4) << 20);
    SplitMix64 rng(3);
    for (auto& v : in) v = static_cast<float>(rng.next_in(-1.0, 1.0));
    std::vector<float> out(in.size());
    KernelResult r;
    r.name = "scan_4m";
    r.cells = static_cast<double>(in.size());
    r.flops_per_cell = 5.0;  // log2(warp) Kogge-Stone adds per element
    std::vector<sim::KernelStats> stats;
    const auto [cur, leg] = best_time_interleaved(
        [&] { stats = core::scan_inclusive<float>(arch, in, out); },
        [&] { legacy::scan<float>(arch, in, out); });
    r.seconds = cur;
    r.legacy_seconds = leg;
    for (const auto& s : stats) r.blocks += s.blocks_total;
    std::printf("%-24s %10.3f ms  (legacy %10.3f ms, speedup %.2fx)\n", r.name.c_str(),
                r.seconds * 1e3, r.legacy_seconds * 1e3, r.speedup_vs_legacy());
    results.push_back(r);
  }

  // --- gemm (with legacy comparison) ----------------------------------------
  {
    const Index n = 512;
    Grid2D<float> a(n, n), b(n, n), c(n, n);
    fill_random(a, 4);
    fill_random(b, 5);
    KernelResult r;
    r.name = "gemm_512";
    r.cells = static_cast<double>(n) * n;
    r.flops_per_cell = 2.0 * static_cast<double>(n);
    sim::KernelStats stats;
    const auto [cur, leg] = best_time_interleaved(
        [&] { stats = core::gemm_ssam<float>(arch, a.cview(), b.cview(), c.view()); },
        [&] { legacy::gemm<float>(arch, a.cview(), b.cview(), c.view()); });
    r.seconds = cur;
    r.legacy_seconds = leg;
    r.blocks = stats.blocks_total;
    std::printf("%-24s %10.3f ms  (legacy %10.3f ms, speedup %.2fx)\n", r.name.c_str(),
                r.seconds * 1e3, r.legacy_seconds * 1e3, r.speedup_vs_legacy());
    results.push_back(r);
  }

  // --- persistent iteration engine vs per-step relaunch, 1 worker -----------
  results.push_back(persistent_vs_relaunch(arch, "persistent_vs_relaunch_t4_1w"));

  // --- virtual multi-device sharding vs one pool, 2 and 4 devices -----------
  // The single baseline inside each row runs on the 1-worker global pool;
  // the sharded runs use the shared device groups (each device a slice of
  // the host). The parity memcmps gate the exit code.
  results.push_back(sharded_vs_single(arch, 2, "sharded_vs_single_d2"));
  results.push_back(sharded_vs_single(arch, 4, "sharded_vs_single_d4"));

  // --- multi-kernel pipeline: blur -> (sobel_x, sobel_y) over a batch -------
  // Serial path launches every stage back-to-back; the stream path runs each
  // image's chain on its own stream (the two Sobels fork onto a second
  // stream after an event), so independent stages and independent images
  // overlap across pool workers. The overlap scenario needs a pool: it runs
  // at >= 4 workers (honoring a larger SSAM_THREADS), while the per-kernel
  // numbers above stay pinned to one. Both counts land in the JSON.
  const int overlap_threads = std::max(4, ssam::hardware_concurrency());
  ThreadPool::reset_global(overlap_threads);
  {
    const Index np = 1024;
    const int kImages = 4;
    std::vector<float> gauss(25, 0.04f);
    const std::vector<float> sobel_x = {-1, 0, 1, -2, 0, 2, -1, 0, 1};
    const std::vector<float> sobel_y = {-1, -2, -1, 0, 0, 0, 1, 2, 1};
    std::vector<Grid2D<float>> img, blur, gx, gy;
    for (int i = 0; i < kImages; ++i) {
      img.emplace_back(np, np);
      fill_random(img.back(), 10 + i);
      blur.emplace_back(np, np);
      gx.emplace_back(np, np);
      gy.emplace_back(np, np);
    }

    long long pipeline_blocks = 0;
    auto serial_pass = [&] {
      pipeline_blocks = 0;
      for (int i = 0; i < kImages; ++i) {
        pipeline_blocks += core::conv2d_ssam<float>(arch, img[static_cast<std::size_t>(i)].cview(),
                                                    gauss, 5, 5,
                                                    blur[static_cast<std::size_t>(i)].view())
                               .blocks_total;
        pipeline_blocks += core::conv2d_ssam<float>(arch, blur[static_cast<std::size_t>(i)].cview(),
                                                    sobel_x, 3, 3,
                                                    gx[static_cast<std::size_t>(i)].view())
                               .blocks_total;
        pipeline_blocks += core::conv2d_ssam<float>(arch, blur[static_cast<std::size_t>(i)].cview(),
                                                    sobel_y, 3, 3,
                                                    gy[static_cast<std::size_t>(i)].view())
                               .blocks_total;
      }
    };
    auto stream_pass = [&] {
      std::vector<std::unique_ptr<sim::Stream>> main_streams, fork_streams;
      for (int i = 0; i < kImages; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        main_streams.push_back(std::make_unique<sim::Stream>());
        fork_streams.push_back(std::make_unique<sim::Stream>());
        sim::Stream& s1 = *main_streams.back();
        sim::Stream& s2 = *fork_streams.back();
        core::conv2d_ssam_async<float>(s1, arch, img[ui].cview(), gauss, 5, 5,
                                       blur[ui].view());
        const sim::Event blurred = s1.record();
        core::conv2d_ssam_async<float>(s1, arch, blur[ui].cview(), sobel_x, 3, 3,
                                       gx[ui].view());
        s2.wait(blurred);
        core::conv2d_ssam_async<float>(s2, arch, blur[ui].cview(), sobel_y, 3, 3,
                                       gy[ui].view());
      }
      for (auto& s : main_streams) s->synchronize();
      for (auto& s : fork_streams) s->synchronize();
    };

    KernelResult r;
    r.name = "pipeline_blur_sobel_x4";
    r.cells = static_cast<double>(np) * np * kImages * 3;  // 3 stages per image
    r.flops_per_cell = (2.0 * 25 + 2.0 * 9 + 2.0 * 9) / 3.0;
    const auto [stream_t, serial_t] = best_time_interleaved(stream_pass, serial_pass);
    r.seconds = stream_t;
    r.serial_seconds = serial_t;
    r.blocks = pipeline_blocks;
    r.host_threads = ThreadPool::global().size();
    std::printf("%-24s %10.3f ms  (serial %10.3f ms, overlap %.2fx, %d workers)\n",
                r.name.c_str(), r.seconds * 1e3, r.serial_seconds * 1e3,
                r.overlap_speedup(), ThreadPool::global().size());
    results.push_back(r);
  }

  // --- persistent iteration engine vs per-step relaunch, >= 4 workers -------
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

  write_json(results, kernel_threads, overlap_threads, out_path);

  const double conv_speedup = results[0].speedup_vs_legacy();
  const double stencil_speedup = results[1].speedup_vs_legacy();
  std::printf("\nfunctional-path speedup vs pre-refactor: conv2d %.2fx, stencil2d %.2fx\n",
              conv_speedup, stencil_speedup);
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
