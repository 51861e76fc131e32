// Register cache (paper Section 4.2).
//
// Each thread of a warp reserves C registers; jointly the warp holds a
// WarpSize x C register matrix caching a tile of the input. Rows are loaded
// with one fully coalesced global load per row (one element per lane), and
// the sliding window of Section 4.2 walks the rows so neighbouring outputs
// reuse C - 1 of the C cached rows.
//
// The cache is generic over the execution mode of the warp it serves and
// stores its rows inline (no heap allocation), mirroring the fact that on
// the real device these are registers, not memory.
#pragma once

#include <cstring>

#include "common/grid.hpp"
#include "common/inline_vec.hpp"
#include "gpusim/warp.hpp"

namespace ssam::core {

using sim::Reg;

/// Upper bound on rows a register cache can hold: C = P + N - 1 with the
/// sliding window capped at a full warp (P <= 32) plus filter halo.
inline constexpr int kMaxRegCacheRows = 64;

/// The per-warp register cache: a column of C values per lane.
template <typename T, sim::ExecMode M>
class RegisterCache {
 public:
  RegisterCache(sim::WarpContextT<M>& warp, int capacity) : warp_(&warp) {
    SSAM_REQUIRE(capacity > 0, "register cache capacity must be positive");
    rows_.resize(capacity);
  }

  [[nodiscard]] int capacity() const { return rows_.size(); }
  [[nodiscard]] Reg<T>& row(int i) { return rows_[i]; }
  [[nodiscard]] const Reg<T>& row(int i) const { return rows_[i]; }
  /// The cached rows, contiguous: row i is data()[i].
  [[nodiscard]] const Reg<T>* data() const { return rows_.begin(); }

  /// Loads `capacity()` consecutive rows starting at `row0`; lane l reads
  /// column `col0 + l`. Out-of-domain coordinates are border-resolved by
  /// clamping (replicate), matching the paper's evaluation setup.
  void load_rows(const GridView2D<const T>& in, Index col0, Index row0) {
    if constexpr (M == sim::ExecMode::kFunctional) {
      // Interior fast path: the whole warp footprint is in-domain, so the
      // clamp is the identity and every row is one contiguous 128-byte copy.
      // Border warps (and timing mode, which must issue the real op
      // sequence) take the generic path below. Same values either way.
      if (col0 >= 0 && col0 + sim::kWarpSize <= in.width() && row0 >= 0 &&
          row0 + capacity() <= in.height()) {
        const T* src = in.data() + row0 * in.pitch() + col0;
        for (int r = 0; r < capacity(); ++r, src += in.pitch()) {
          std::memcpy(rows_[r].v.lane.data(), src, sizeof(T) * sim::kWarpSize);
        }
        return;
      }
    }
    sim::WarpContextT<M>& w = *warp_;
    // Column index per lane, clamped once and reused for every row.
    Reg<Index> col = w.clamp(w.template iota<Index>(col0, 1), Index{0}, in.width() - 1);
    for (int r = 0; r < capacity(); ++r) {
      Index y = row0 + r;
      y = y < 0 ? 0 : (y >= in.height() ? in.height() - 1 : y);
      const Reg<Index> idx = w.affine(col, 1, y * in.pitch());
      rows_[r] = w.load_global(in.data(), idx);
    }
  }

 private:
  sim::WarpContextT<M>* warp_;
  InlineVec<Reg<T>, kMaxRegCacheRows> rows_;
};

/// Deduces the execution mode from the warp so mode-generic kernel bodies
/// can write `auto rc = make_register_cache<T>(wc, c);`.
template <typename T, sim::ExecMode M>
[[nodiscard]] RegisterCache<T, M> make_register_cache(sim::WarpContextT<M>& warp,
                                                      int capacity) {
  return RegisterCache<T, M>(warp, capacity);
}

}  // namespace ssam::core
