// Domain sharding across virtual devices.
//
// The band engine (core/iterate_persistent.hpp) decomposes a grid into
// resident band tiles on ONE worker pool. This layer adds the level above:
// a `ShardPolicy` splits the same band axis (rows in 2D, z-planes in 3D)
// into contiguous *shards* and runs each shard's tiles on its own virtual
// device (gpusim/device.hpp — a pool slice with its own counters). Memory
// does not follow the shards: every tile's residence buffers and every
// tile-to-tile channel come from the run's own PersistentWorkspace, so the
// two tiles that meet at a shard seam are wired exactly like neighbours
// inside a shard — a boundary published on device d is written directly
// into the halo region of the neighbouring tile's residence buffer on
// device d+1 for one memcpy and two atomic counters, with no global-array
// round trip. Nothing a run touches is shared with another run on the same
// device group, so concurrent sharded runs cannot see each other's state.
// Sharding places persistent tiles only; a relaunch run ignores the policy
// and executes on one pool.
//
// Sharding never changes results: every tile still computes the same band
// rows from the same halo state, so sharded runs are bit-identical to
// single-device runs at every shard count — the invariant the randomized
// differential suite (tests/test_sharding.cpp) enforces.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "gpusim/device.hpp"

namespace ssam::core {

/// Whether a persistent run's tiles stay on one pool or are sharded across
/// virtual devices (relaunch runs always use one pool).
enum class ShardMode { kSingle, kSharded };

struct ShardPolicy {
  ShardMode mode = ShardMode::kSingle;
  /// Sharded: target device count; 0 = sim::default_device_count()
  /// (SSAM_DEVICES). Clamped to what the domain and the group can host.
  int devices = 0;
  /// Explicit device group (bench/test hook). Null: DeviceGroup::shared(n).
  sim::DeviceGroup* group = nullptr;

  [[nodiscard]] static ShardPolicy single() { return {}; }
  [[nodiscard]] static ShardPolicy sharded(int n = 0, sim::DeviceGroup* g = nullptr) {
    return {ShardMode::kSharded, n, g};
  }
};

namespace detail {

/// Band partition of `n` units into at most `want` tiles, each a multiple
/// of `align` units (except possibly the last) and at least `min_band`
/// units. Returns the first unit of each tile plus the end sentinel. Used
/// both for tiles within a shard and for the shard split itself.
[[nodiscard]] inline std::vector<Index> partition_bands(Index n, int want, Index align,
                                                        Index min_band) {
  align = align < 1 ? 1 : align;
  min_band = std::max<Index>({min_band, align, 1});
  int tiles = std::max(1, want);
  tiles = static_cast<int>(std::min<Index>(tiles, std::max<Index>(1, n / min_band)));
  Index per = static_cast<Index>(ceil_div(n, static_cast<Index>(tiles)));
  per = static_cast<Index>(ceil_div(per, align)) * align;
  tiles = static_cast<int>(ceil_div(n, per));
  // A too-short trailing band cannot source its neighbour's halo: merge it.
  if (tiles > 1 && n - static_cast<Index>(tiles - 1) * per < min_band) --tiles;
  std::vector<Index> starts(static_cast<std::size_t>(tiles) + 1);
  for (int i = 0; i < tiles; ++i) starts[static_cast<std::size_t>(i)] = i * per;
  starts[static_cast<std::size_t>(tiles)] = n;
  return starts;
}

/// Auto tile count for one pool of `workers`: enough tiles that each
/// residence buffer stays around kTargetResidenceBytes (measured sweet
/// spot: a ping/pong pair fits the owner's private cache, so consecutive
/// sweeps of a burst run out of L2), but never fewer than two tiles per
/// worker.
inline constexpr std::size_t kTargetResidenceBytes = std::size_t{512} << 10;

[[nodiscard]] inline int auto_tiles_for(int workers, Index units, std::size_t unit_bytes) {
  const Index desired_band = std::max<Index>(
      1, static_cast<Index>(kTargetResidenceBytes / std::max<std::size_t>(unit_bytes, 1)));
  const auto by_size = static_cast<int>(ceil_div(units, desired_band));
  return std::max(2 * workers, by_size);
}

/// Geometry request of one sharded (or single) persistent band run. All
/// sizes are in units (rows or planes) and bytes, so one builder serves
/// every band program, 2D or 3D.
struct BandLayoutRequest {
  Index units = 0;            ///< total units on the band axis
  Index unit_elems = 0;       ///< elements per unit (row width or plane size)
  std::size_t elem_bytes = 0; ///< sizeof(T)
  Index ht = 0;               ///< halo units above each band
  Index hb = 0;               ///< halo units below
  Index align = 1;            ///< preferred band multiple (p or valid planes)
  Index min_band = 1;         ///< smallest band that can source a halo
  int want_tiles = 0;         ///< total tile target; 0 = auto per shard
  /// Single mode: workers of the pool the run executes on, when it is not
  /// the global pool (a device-pinned server job). 0 = global pool size.
  int lane_workers = 0;
};

/// The assembled layout: tile starts, per-tile residence buffers and the
/// channels between neighbouring tiles — seam channels included, wired
/// zero-copy into the neighbouring tile's buffers exactly like intra-shard
/// channels. Buffers and channels belong to the run's workspace.
struct BandLayout {
  std::vector<Index> starts;              ///< tile starts + end sentinel
  std::vector<int> device_of;             ///< owning shard per tile
  std::vector<std::pair<int, int>> tile_range;  ///< per shard: [begin, end) tiles
  std::vector<std::byte*> buf_a;
  std::vector<std::byte*> buf_b;
  std::span<sim::HaloChannel> chans;      ///< 2 * (tiles - 1)
  std::vector<sim::Device*> devices;      ///< empty in single mode

  [[nodiscard]] int tiles() const { return static_cast<int>(starts.size()) - 1; }
  [[nodiscard]] bool sharded() const { return !devices.empty(); }
  /// True when the channel pair between tiles i and i+1 crosses a seam.
  [[nodiscard]] bool seam_after(int i) const {
    return sharded() && device_of[static_cast<std::size_t>(i)] !=
                            device_of[static_cast<std::size_t>(i) + 1];
  }
  [[nodiscard]] sim::DeviceCounters* counters_of(int tile) const {
    if (!sharded()) return nullptr;
    return &devices[static_cast<std::size_t>(device_of[static_cast<std::size_t>(tile)])]
                ->counters();
  }
};

/// Splits the domain into shards and tiles, carves every tile's residence
/// buffers from `ws`, and wires all tile-to-tile channels from `ws`, so the
/// engine treats seam and intra-shard edges uniformly.
[[nodiscard]] inline BandLayout build_band_layout(const BandLayoutRequest& req,
                                                  const ShardPolicy& shard,
                                                  sim::PersistentWorkspace& ws) {
  const Index skew_elems = 1024 + 16;  // break page-set aliasing between buffers
  const std::size_t unit_bytes =
      static_cast<std::size_t>(req.unit_elems) * req.elem_bytes;
  const std::size_t skew_bytes = static_cast<std::size_t>(skew_elems) * req.elem_bytes;

  // The shard split: one range on the single pool, else contiguous ranges
  // on the group's devices. The partitioner clamps when the domain cannot
  // host `avail` min_band-sized shards — "shard count > tile count"
  // degrades to fewer (possibly one) shards instead of empty devices.
  BandLayout L;
  std::vector<Index> shard_starts{0, req.units};
  if (shard.mode == ShardMode::kSharded) {
    const int want = shard.devices > 0 ? shard.devices : sim::default_device_count();
    sim::DeviceGroup* group =
        shard.group != nullptr ? shard.group : &sim::DeviceGroup::shared(want);
    const int avail = std::min(want, group->size());
    shard_starts = partition_bands(req.units, avail, req.align, req.min_band);
    for (std::size_t d = 0; d + 1 < shard_starts.size(); ++d) {
      L.devices.push_back(&group->device(static_cast<int>(d)));
    }
  }
  const int shards = static_cast<int>(shard_starts.size()) - 1;

  // Tiles within each shard, concatenated in global band order.
  for (int s = 0; s < shards; ++s) {
    const Index u0 = shard_starts[static_cast<std::size_t>(s)];
    const Index su = shard_starts[static_cast<std::size_t>(s) + 1] - u0;
    const int workers =
        L.devices.empty()
            ? (req.lane_workers > 0 ? req.lane_workers : ThreadPool::global().size())
            : L.devices[static_cast<std::size_t>(s)]->pool().size();
    const int want = req.want_tiles > 0
                         ? std::max(1, (req.want_tiles + shards - 1) / shards)
                         : auto_tiles_for(workers, su, unit_bytes);
    const std::vector<Index> t = partition_bands(su, want, req.align, req.min_band);
    const int begin = static_cast<int>(L.starts.size());
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      L.starts.push_back(u0 + t[i]);
      L.device_of.push_back(s);
    }
    L.tile_range.emplace_back(begin, static_cast<int>(L.starts.size()));
  }
  L.starts.push_back(req.units);
  const int tiles = L.tiles();

  // Carve every tile's ping/pong residence buffers with one arena call
  // (arena calls invalidate earlier pointers from the same workspace).
  auto step_of = [&](int i) {  // one residence buffer plus its skew
    const Index band = L.starts[static_cast<std::size_t>(i) + 1] -
                       L.starts[static_cast<std::size_t>(i)];
    return static_cast<std::size_t>(req.ht + band + req.hb) * unit_bytes + skew_bytes;
  };
  std::size_t total = skew_bytes;  // tail guard
  for (int i = 0; i < tiles; ++i) total += 2 * step_of(i);
  std::byte* p = ws.arena(total);
  L.buf_a.resize(static_cast<std::size_t>(tiles));
  L.buf_b.resize(static_cast<std::size_t>(tiles));
  for (int i = 0; i < tiles; ++i) {
    L.buf_a[static_cast<std::size_t>(i)] = p;
    p += step_of(i);
    L.buf_b[static_cast<std::size_t>(i)] = p;
    p += step_of(i);
  }

  // Channel wiring, uniform across intra-shard and seam edges.
  // Channel 2e   (down, tile e -> e+1): writes tile e+1's upper halo.
  // Channel 2e+1 (up, tile e+1 -> e): writes tile e's lower halo units.
  const std::size_t n_chans = tiles > 1 ? static_cast<std::size_t>(2 * (tiles - 1)) : 0;
  L.chans = ws.channels(n_chans);
  for (int e = 0; e + 1 < tiles; ++e) {
    const Index band_e = L.starts[static_cast<std::size_t>(e) + 1] -
                         L.starts[static_cast<std::size_t>(e)];
    L.chans[static_cast<std::size_t>(2 * e)].configure_external(
        L.buf_a[static_cast<std::size_t>(e) + 1], L.buf_b[static_cast<std::size_t>(e) + 1]);
    const std::size_t lower_halo =
        static_cast<std::size_t>(req.ht + band_e) * unit_bytes;
    L.chans[static_cast<std::size_t>(2 * e) + 1].configure_external(
        L.buf_a[static_cast<std::size_t>(e)] + lower_halo,
        L.buf_b[static_cast<std::size_t>(e)] + lower_halo);
  }
  return L;
}

}  // namespace detail
}  // namespace ssam::core
