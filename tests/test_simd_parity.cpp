// Backend parity suite for the explicit SIMD lane engine (gpusim/simd/).
//
// Every Vec<T> primitive must produce results bit-identical to the portable
// scalar reference (simd::ref), for every backend CMake can select — that is
// the invariant that makes the backend a pure speed knob. Comparisons are
// exact (memcmp over the lane bytes, so float comparisons are bit-pattern
// comparisons, distinguishing -0.0 and NaN payloads).
//
// The KernelGolden tests pin FNV-1a hashes of full functional-mode kernel
// outputs on deterministic inputs. The constants are the same for every
// backend and platform (unfused mad + -ffp-contract=off make the arithmetic
// exactly reproducible), so CI's forced-scalar and explicit-AVX2 jobs
// checking the same constants proves cross-backend bit identity end to end,
// not just per primitive.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "common/rng.hpp"
#include "core/conv2d.hpp"
#include "core/gemm.hpp"
#include "core/job.hpp"
#include "core/scan.hpp"
#include "core/stencil2d.hpp"
#include "core/stencil3d.hpp"
#include "core/stencil_shape.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/simd/simd.hpp"
#include "test_util.hpp"
#include "gpusim/vec.hpp"

namespace {

using namespace ssam;
using sim::kWarpSize;
using sim::Vec;
namespace simd = sim::simd;

// ---------------------------------------------------------------- fixtures

// Deterministic lane patterns. Floats mix ordinary magnitudes with the
// values that expose semantic drift between backends: signed zeros,
// infinities, NaN, denormals, and magnitudes that round visibly in
// mul/add chains.
std::vector<Vec<float>> float_vectors() {
  std::vector<Vec<float>> out;
  SplitMix64 rng(0x51D0u);
  for (int k = 0; k < 4; ++k) {
    Vec<float> v;
    for (int l = 0; l < kWarpSize; ++l) {
      v[l] = static_cast<float>(rng.next_in(-1e3, 1e3));
    }
    out.push_back(v);
  }
  Vec<float> specials;
  const float kSpecials[] = {0.0f,
                             -0.0f,
                             1.0f,
                             -1.0f,
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::denorm_min(),
                             1e-41f,
                             3e38f,
                             -3e38f,
                             1.5f,
                             0.1f,
                             -0.1f,
                             1024.25f,
                             -7.75f};
  for (int l = 0; l < kWarpSize; ++l) specials[l] = kSpecials[l % 16] * (l < 16 ? 1.0f : 3.0f);
  out.push_back(specials);
  return out;
}

std::vector<Vec<std::int32_t>> int32_vectors() {
  std::vector<Vec<std::int32_t>> out;
  SplitMix64 rng(0x32171u);
  for (int k = 0; k < 4; ++k) {
    Vec<std::int32_t> v;
    for (int l = 0; l < kWarpSize; ++l) {
      v[l] = static_cast<std::int32_t>(rng.next_u64());
    }
    out.push_back(v);
  }
  Vec<std::int32_t> specials;
  const std::int32_t kSpecials[] = {0, 1, -1, 2, -2, 31, 32, -32,
                                    std::numeric_limits<std::int32_t>::max(),
                                    std::numeric_limits<std::int32_t>::min(),
                                    1000000, -1000000, 7, -7, 255, -256};
  for (int l = 0; l < kWarpSize; ++l) {
    // Wrap-safe perturbation of the second half (kSpecials holds INT_MAX).
    specials[l] = static_cast<std::int32_t>(static_cast<std::uint32_t>(kSpecials[l % 16]) +
                                            (l >= 16 ? 13u : 0u));
  }
  out.push_back(specials);
  return out;
}

std::vector<Vec<std::int64_t>> int64_vectors() {
  std::vector<Vec<std::int64_t>> out;
  SplitMix64 rng(0x64424u);
  for (int k = 0; k < 4; ++k) {
    Vec<std::int64_t> v;
    for (int l = 0; l < kWarpSize; ++l) {
      v[l] = static_cast<std::int64_t>(rng.next_u64());
    }
    out.push_back(v);
  }
  Vec<std::int64_t> ramp;  // the addressing pattern the kernels actually use
  for (int l = 0; l < kWarpSize; ++l) ramp[l] = 123456789LL + l;
  out.push_back(ramp);
  return out;
}

template <typename T>
std::vector<Vec<T>> vectors_for();
template <>
std::vector<Vec<float>> vectors_for<float>() {
  return float_vectors();
}
template <>
std::vector<Vec<std::int32_t>> vectors_for<std::int32_t>() {
  return int32_vectors();
}
template <>
std::vector<Vec<std::int64_t>> vectors_for<std::int64_t>() {
  return int64_vectors();
}

/// Exact lane comparison: bit patterns, not value equality.
template <typename T>
void expect_lanes_eq(const Vec<T>& actual, const T (&expected)[kWarpSize],
                     const char* what) {
  if (std::memcmp(actual.lane.data(), expected, sizeof(expected)) == 0) return;
  for (int l = 0; l < kWarpSize; ++l) {
    if (std::memcmp(&actual[l], &expected[l], sizeof(T)) != 0) {
      ADD_FAILURE() << what << ": lane " << l << " diverges (backend "
                    << simd::kBackendName << "): got " << actual[l] << ", reference "
                    << expected[l];
      return;
    }
  }
}

/// Scalar predicates come out as Vec<int>.
void expect_lanes_eq(const Vec<int>& actual, const int (&expected)[kWarpSize],
                     const char* what) {
  expect_lanes_eq<int>(actual, expected, what);
}

// ------------------------------------------------------- primitive parity

template <typename T>
void check_arithmetic_parity() {
  const auto vecs = vectors_for<T>();
  T expect[kWarpSize];
  int iexpect[kWarpSize];
  for (std::size_t i = 0; i < vecs.size(); ++i) {
    const Vec<T>& a = vecs[i];
    const Vec<T>& b = vecs[(i + 1) % vecs.size()];
    const Vec<T>& c = vecs[(i + 2) % vecs.size()];
    const T s = b[7];

    simd::ref::add(expect, a.data(), b.data());
    expect_lanes_eq(Vec<T>::add(a, b), expect, "add");
    simd::ref::add_s(expect, a.data(), s);
    expect_lanes_eq(Vec<T>::add(a, s), expect, "add_s");
    simd::ref::sub(expect, a.data(), b.data());
    expect_lanes_eq(Vec<T>::sub(a, b), expect, "sub");
    simd::ref::mul(expect, a.data(), b.data());
    expect_lanes_eq(Vec<T>::mul(a, b), expect, "mul");
    simd::ref::mul_s(expect, a.data(), s);
    expect_lanes_eq(Vec<T>::mul(a, s), expect, "mul_s");
    simd::ref::mad(expect, a.data(), b.data(), c.data());
    expect_lanes_eq(Vec<T>::mad(a, b, c), expect, "mad");
    simd::ref::mad_s(expect, a.data(), s, c.data());
    expect_lanes_eq(Vec<T>::mad(a, s, c), expect, "mad_s");

    for (T scale : {T{1}, T{3}}) {
      // Vec::affine routes scale == 1 through add_s; the reference is the
      // plain affine loop either way — results must agree bit-for-bit.
      simd::ref::affine(expect, a.data(), scale, s);
      expect_lanes_eq(Vec<T>::affine(a, scale, s), expect, "affine");
    }

    const T lo = std::min(b[3], c[9]);
    const T hi = std::max(b[3], c[9]);
    simd::ref::clamp(expect, a.data(), lo, hi);
    expect_lanes_eq(Vec<T>::clamp(a, lo, hi), expect, "clamp");

    simd::ref::ge_s(iexpect, a.data(), s);
    expect_lanes_eq(Vec<T>::ge(a, s), iexpect, "ge_s");
    simd::ref::lt_s(iexpect, a.data(), s);
    expect_lanes_eq(Vec<T>::lt(a, s), iexpect, "lt_s");

    Vec<int> pred;
    for (int l = 0; l < kWarpSize; ++l) pred[l] = (l * 7 + static_cast<int>(i)) % 3 - 1;
    simd::ref::select(expect, pred.data(), a.data(), b.data());
    expect_lanes_eq(Vec<T>::select(pred, a, b), expect, "select");

    simd::ref::splat(expect, s);
    expect_lanes_eq(Vec<T>::splat(s), expect, "splat");
  }
}

template <typename T>
void check_shuffle_parity() {
  const auto vecs = vectors_for<T>();
  T expect[kWarpSize];
  for (const Vec<T>& a : vecs) {
    // shfl_up / shfl_down: delta 0 (identity), 1 (the systolic shift), the
    // Kogge-Stone powers, non-powers, 31, and past-the-warp values; the
    // clamp lanes (low delta lanes for up, high for down) are covered by
    // the reference loop's keep-own branch.
    for (int delta : {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 24, 31, 32, 40}) {
      const int norm = delta <= 0 ? 0 : (delta > kWarpSize ? kWarpSize : delta);
      if (norm == 0) {
        std::memcpy(expect, a.data(), sizeof(expect));
        expect_lanes_eq(Vec<T>::shift_up(a, delta), expect, "shift_up identity");
        expect_lanes_eq(Vec<T>::shift_down(a, delta), expect, "shift_down identity");
        continue;
      }
      simd::ref::shift_up(expect, a.data(), norm);
      expect_lanes_eq(Vec<T>::shift_up(a, delta), expect, "shift_up");
      simd::ref::shift_down(expect, a.data(), norm);
      expect_lanes_eq(Vec<T>::shift_down(a, delta), expect, "shift_down");
    }

    // shfl_xor: all 32 butterfly masks.
    for (int mask = 0; mask < kWarpSize; ++mask) {
      simd::ref::butterfly(expect, a.data(), mask);
      expect_lanes_eq(Vec<T>::butterfly(a, mask), expect, "butterfly");
    }

    // shfl_idx broadcast: powers of two, non-powers, and wrap-around
    // sources (CUDA wraps the source lane modulo the warp).
    for (int src : {0, 1, 2, 5, 11, 17, 23, 31, 33, 37}) {
      simd::ref::splat(expect, a[src & (kWarpSize - 1)]);
      expect_lanes_eq(Vec<T>::broadcast(a, src), expect, "broadcast");
    }
  }
}

TEST(SimdParity, ArithmeticFloat) { check_arithmetic_parity<float>(); }
TEST(SimdParity, ArithmeticInt32) { check_arithmetic_parity<std::int32_t>(); }
TEST(SimdParity, ArithmeticInt64) { check_arithmetic_parity<std::int64_t>(); }

TEST(SimdParity, ShufflesFloat) { check_shuffle_parity<float>(); }
TEST(SimdParity, ShufflesInt32) { check_shuffle_parity<std::int32_t>(); }
TEST(SimdParity, ShufflesInt64) { check_shuffle_parity<std::int64_t>(); }

TEST(SimdParity, LogicalAnd) {
  Vec<int> a;
  Vec<int> b;
  for (int l = 0; l < kWarpSize; ++l) {
    a[l] = (l % 3 == 0) ? 0 : l - 16;  // mixes 0, negatives, positives
    b[l] = (l % 5 == 0) ? 0 : -l;
  }
  int expect[kWarpSize];
  simd::ref::logical_and(expect, a.data(), b.data());
  expect_lanes_eq(Vec<int>::logical_and(a, b), expect, "logical_and");
}

TEST(SimdParity, Iota) {
  float fexpect[kWarpSize];
  simd::ref::iota(fexpect, 2.5f, 0.25f);
  expect_lanes_eq(Vec<float>::iota(2.5f, 0.25f), fexpect, "iota float");

  std::int32_t i32expect[kWarpSize];
  for (std::int32_t base : {0, -100, 2147483600}) {
    for (std::int32_t step : {1, 3, -2}) {
      simd::ref::iota(i32expect, base, step);
      expect_lanes_eq(Vec<std::int32_t>::iota(base, step), i32expect, "iota i32");
    }
  }

  std::int64_t i64expect[kWarpSize];
  for (std::int64_t base : {std::int64_t{0}, std::int64_t{1} << 40, std::int64_t{-7}}) {
    for (std::int64_t step : {std::int64_t{1}, std::int64_t{2048}, std::int64_t{-5}}) {
      simd::ref::iota(i64expect, base, step);
      expect_lanes_eq(Vec<std::int64_t>::iota(base, step), i64expect, "iota i64");
    }
  }
}

TEST(SimdParity, UnitStride) {
  for (std::int64_t base : {std::int64_t{0}, std::int64_t{987654321}}) {
    Vec<std::int64_t> ramp = Vec<std::int64_t>::iota(base, 1);
    EXPECT_TRUE(Vec<float>::unit_stride(ramp));
    for (int broken : {0, 1, 15, 31}) {
      Vec<std::int64_t> v = ramp;
      v[broken] += 1;
      EXPECT_FALSE(Vec<float>::unit_stride(v)) << "lane " << broken;
    }
  }
  Vec<std::int64_t> stride2 = Vec<std::int64_t>::iota(0, 2);
  EXPECT_FALSE(Vec<float>::unit_stride(stride2));

  Vec<int> iramp = Vec<int>::iota(42, 1);
  EXPECT_TRUE(Vec<float>::unit_stride(iramp));
  iramp[17] -= 3;
  EXPECT_FALSE(Vec<float>::unit_stride(iramp));
}

// ------------------------------------------------- gather / scatter parity

constexpr int kSrcLanes = 256;  // elements behind a gather's base pointer

/// kSrcLanes deterministic elements, cycling through the parity vectors.
template <typename T>
std::vector<T> memory_source() {
  const auto vecs = vectors_for<T>();
  std::vector<T> src(kSrcLanes);
  for (int i = 0; i < kSrcLanes; ++i) {
    src[static_cast<std::size_t>(i)] = vecs[static_cast<std::size_t>(i / kWarpSize) % vecs.size()]
                                           [i % kWarpSize];
  }
  return src;
}

using Lanes64 = std::array<std::int64_t, kWarpSize>;

struct IndexPattern {
  const char* name;
  Lanes64 idx;  // every lane in [0, kSrcLanes)
};

/// The index shapes each backend tier must get right: the block-copy ramp,
/// the clamped ramps of border warps and of the 3D partial-sum exchange
/// (window tier), first-to-last windows exactly 32 and 33 elements wide, a
/// lane beyond the last lane's index, and shapes no window covers, which
/// fall back to the reference loop.
std::vector<IndexPattern> index_patterns() {
  std::vector<IndexPattern> out;
  auto add = [&](const char* name, auto f) {
    IndexPattern p{name, {}};
    for (int l = 0; l < kWarpSize; ++l) p.idx[static_cast<std::size_t>(l)] = f(l);
    out.push_back(p);
  };
  auto clamp = [](std::int64_t v, std::int64_t lo, std::int64_t hi) {
    return std::min(std::max(v, lo), hi);
  };
  add("unit ramp", [](int l) { return 40 + l; });
  add("clamped low", [&](int l) { return clamp(40 + l - 5, 40, 71); });
  add("clamped high", [&](int l) { return clamp(100 + l, 0, 120); });
  add("clamped both", [&](int l) { return clamp(60 + l - 3, 60, 80); });
  add("broadcast", [](int) { return 77; });
  auto spread = [](int l, std::int64_t last) -> std::int64_t {
    return l == 0 ? 5 : l == 31 ? last : 6 + (l * 7) % 30;
  };
  add("span 31", [&](int l) { return spread(l, 5 + 31); });
  add("span 32", [&](int l) { return spread(l, 5 + 32); });
  add("beyond last lane", [](int l) { return 5 + (l * 7) % kWarpSize; });
  add("reversed", [](int l) { return 200 - l; });
  add("stride 2", [](int l) { return 3 + 2 * l; });
  SplitMix64 rng(0x6A7u);
  add("random", [&](int) { return static_cast<std::int64_t>(rng.next_below(kSrcLanes)); });
  return out;
}

struct LaneMask {
  const char* name;
  Vec<int> active;
};

/// Predicates for the masked primitives: contiguous runs (the block-copy
/// store shape of border warps), scattered lanes, a single lane, and no lane.
std::vector<LaneMask> lane_masks() {
  std::vector<LaneMask> out;
  auto add = [&](const char* name, auto f) {
    LaneMask m{name, {}};
    for (int l = 0; l < kWarpSize; ++l) m.active[l] = f(l);
    out.push_back(m);
  };
  add("all", [](int) { return 1; });
  add("run 3..19", [](int l) { return l >= 3 && l < 20 ? 7 : 0; });
  add("head run", [](int l) { return l < 9 ? 1 : 0; });
  add("tail run", [](int l) { return l >= 26 ? -1 : 0; });
  add("alternating", [](int l) { return l % 2; });
  add("first lane", [](int l) { return l == 0 ? 1 : 0; });
  add("last lane", [](int l) { return l == 31 ? 1 : 0; });
  add("all but one", [](int l) { return l == 13 ? 0 : 1; });
  add("none", [](int) { return 0; });
  return out;
}

template <typename I>
Vec<I> to_index(const Lanes64& idx) {
  Vec<I> v;
  for (int l = 0; l < kWarpSize; ++l) v[l] = static_cast<I>(idx[static_cast<std::size_t>(l)]);
  return v;
}

/// Gives every inactive lane an index far outside the source, which a
/// backend must never dereference.
template <typename I>
Vec<I> poison_inactive(Vec<I> idx, const Vec<int>& active) {
  for (int l = 0; l < kWarpSize; ++l) {
    if (active[l] == 0) {
      idx[l] = (l % 2 == 0) ? std::numeric_limits<I>::max() : std::numeric_limits<I>::min();
    }
  }
  return idx;
}

template <typename T, typename I>
void check_gather_parity() {
  const std::vector<T> src = memory_source<T>();
  T expect[kWarpSize];
  for (const IndexPattern& p : index_patterns()) {
    const Vec<I> idx = to_index<I>(p.idx);
    simd::ref::gather(expect, src.data(), idx.data());
    expect_lanes_eq(Vec<T>::gather(src.data(), idx), expect, p.name);
  }
}

template <typename T, typename I>
void check_gather_if_parity() {
  const std::vector<T> src = memory_source<T>();
  T expect[kWarpSize];
  for (const IndexPattern& p : index_patterns()) {
    for (const LaneMask& m : lane_masks()) {
      const Vec<I> idx = poison_inactive(to_index<I>(p.idx), m.active);
      simd::ref::gather_if(expect, src.data(), idx.data(), m.active.data());
      SCOPED_TRACE(m.name);
      expect_lanes_eq(Vec<T>::gather_if(src.data(), idx, m.active), expect, p.name);
    }
  }
}

template <typename T, typename I>
void check_scatter_if_parity() {
  const Vec<T> v = vectors_for<T>().front();
  // The destination has 64 elements of headroom on either side of base, so
  // every pattern fits even when shifted below base.
  constexpr std::size_t kHeadroom = 64;
  std::vector<T> init;
  for (int k = 0; k < 2; ++k) {
    for (const T& x : memory_source<T>()) init.push_back(x);
  }
  for (const IndexPattern& p : index_patterns()) {
    for (const LaneMask& m : lane_masks()) {
      // A ramp reaching below base: the inactive head lanes address memory
      // the store must leave alone.
      for (std::int64_t shift : {std::int64_t{0}, std::int64_t{-43}}) {
        Lanes64 lanes = p.idx;
        for (auto& x : lanes) x += shift;
        const Vec<I> idx = to_index<I>(lanes);
        std::vector<T> expect = init;
        std::vector<T> got = init;
        simd::ref::scatter_if(expect.data() + kHeadroom, idx.data(), v.data(), m.active.data());
        Vec<T>::scatter_if(got.data() + kHeadroom, idx, v, m.active);
        EXPECT_EQ(std::memcmp(got.data(), expect.data(), sizeof(T) * got.size()), 0)
            << p.name << " / " << m.name << " shift " << shift << " (backend "
            << simd::kBackendName << ")";
      }
    }
  }
}

TEST(SimdParity, Gather) {
  for (auto f : {check_gather_parity<float, std::int32_t>, check_gather_parity<float, std::int64_t>,
                 check_gather_parity<std::int32_t, std::int32_t>,
                 check_gather_parity<std::int32_t, std::int64_t>,
                 check_gather_parity<std::int64_t, std::int32_t>,
                 check_gather_parity<std::int64_t, std::int64_t>}) {
    f();
  }
}

TEST(SimdParity, GatherIf) {
  for (auto f : {check_gather_if_parity<float, std::int32_t>,
                 check_gather_if_parity<float, std::int64_t>,
                 check_gather_if_parity<std::int32_t, std::int32_t>,
                 check_gather_if_parity<std::int32_t, std::int64_t>,
                 check_gather_if_parity<std::int64_t, std::int32_t>,
                 check_gather_if_parity<std::int64_t, std::int64_t>}) {
    f();
  }
}

TEST(SimdParity, ScatterIf) {
  for (auto f : {check_scatter_if_parity<float, std::int32_t>,
                 check_scatter_if_parity<float, std::int64_t>,
                 check_scatter_if_parity<std::int32_t, std::int32_t>,
                 check_scatter_if_parity<std::int32_t, std::int64_t>,
                 check_scatter_if_parity<std::int64_t, std::int32_t>,
                 check_scatter_if_parity<std::int64_t, std::int64_t>}) {
    f();
  }
}

#if defined(__unix__) || defined(__APPLE__)
/// One readable/writable page between two inaccessible ones: any access a
/// primitive makes outside the page faults.
class GuardedPage {
 public:
  GuardedPage() : size_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))) {
    void* m = mmap(nullptr, 3 * size_, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED) return;
    map_ = static_cast<char*>(m);
    if (mprotect(map_ + size_, size_, PROT_READ | PROT_WRITE) != 0) {
      munmap(map_, 3 * size_);
      map_ = nullptr;
    }
  }
  ~GuardedPage() {
    if (map_ != nullptr) munmap(map_, 3 * size_);
  }
  GuardedPage(const GuardedPage&) = delete;
  GuardedPage& operator=(const GuardedPage&) = delete;

  [[nodiscard]] bool ok() const { return map_ != nullptr; }
  template <typename T>
  [[nodiscard]] T* elems() const {
    return reinterpret_cast<T*>(map_ + size_);
  }
  template <typename T>
  [[nodiscard]] std::int64_t count() const {
    return static_cast<std::int64_t>(size_ / sizeof(T));
  }

 private:
  std::size_t size_;
  char* map_ = nullptr;
};

/// Window loads and run stores must touch only the elements the
/// active lanes name: clamped ramps that end on the last element of a page
/// or start on its first, and ramps whose inactive lanes run off the page.
template <typename T, typename I>
void check_memory_stays_inside_active_lanes() {
  GuardedPage page;
  ASSERT_TRUE(page.ok());
  T* mem = page.elems<T>();
  const std::int64_t n = page.count<T>();
  for (std::int64_t i = 0; i < n; ++i) mem[i] = static_cast<T>(i % 1000);

  Vec<int> all;
  Vec<int> head;  // lanes 0..19: the part of a ramp still on the page
  Vec<int> tail;  // lanes 12..31
  for (int l = 0; l < kWarpSize; ++l) {
    all[l] = 1;
    head[l] = l < 20 ? 1 : 0;
    tail[l] = l >= 12 ? 1 : 0;
  }
  Vec<I> high;  // clamped at the last element
  Vec<I> low;   // clamped at the first element
  Vec<I> off_end;
  Vec<I> off_start;
  for (int l = 0; l < kWarpSize; ++l) {
    high[l] = static_cast<I>(std::min<std::int64_t>(n - 10 + l, n - 1));
    low[l] = static_cast<I>(std::max<std::int64_t>(l - 10, 0));
    off_end[l] = static_cast<I>(n - 20 + l);
    off_start[l] = static_cast<I>(l - 12);
  }
  T expect[kWarpSize];
  simd::ref::gather(expect, mem, high.data());
  expect_lanes_eq(Vec<T>::gather(mem, high), expect, "clamped at page end");
  simd::ref::gather(expect, mem, low.data());
  expect_lanes_eq(Vec<T>::gather(mem, low), expect, "clamped at page start");
  simd::ref::gather_if(expect, mem, off_end.data(), head.data());
  expect_lanes_eq(Vec<T>::gather_if(mem, off_end, head), expect, "ramp off page end");
  simd::ref::gather_if(expect, mem, off_start.data(), tail.data());
  expect_lanes_eq(Vec<T>::gather_if(mem, off_start, tail), expect, "ramp off page start");

  const Vec<T> v = Vec<T>::splat(static_cast<T>(7));
  Vec<T>::scatter_if(mem, off_end, v, head);
  Vec<T>::scatter_if(mem, off_start, v, tail);
  for (int l = 0; l < 20; ++l) EXPECT_EQ(mem[n - 20 + l], static_cast<T>(7));
  for (int l = 12; l < kWarpSize; ++l) EXPECT_EQ(mem[l - 12], static_cast<T>(7));
}

TEST(SimdParity, MemoryStaysInsideActiveLanes) {
  check_memory_stays_inside_active_lanes<float, std::int32_t>();
  check_memory_stays_inside_active_lanes<float, std::int64_t>();
  check_memory_stays_inside_active_lanes<std::int32_t, std::int64_t>();
  check_memory_stays_inside_active_lanes<std::int64_t, std::int64_t>();
}
#endif

// -------------------------------------------- cross-backend kernel goldens

using ssam::testing::fnv1a;

/// Golden output hashes of the core kernels in functional mode. Identical
/// for every SIMD backend, compiler, and host — the arithmetic is exactly
/// specified (unfused mad, -ffp-contract=off, deterministic fills). CI runs
/// this same test in the forced-scalar and explicit-AVX2 jobs; agreement
/// across those runs is the end-to-end bit-identity guarantee.
/// (Regenerate with SSAM_PRINT_GOLDEN=1 if a kernel's schedule changes.)
struct Golden {
  const char* name;
  std::uint64_t hash;
};

std::uint64_t golden_conv2d() {
  const auto& arch = sim::tesla_v100();
  Grid2D<float> in(192, 128);
  fill_random(in, 7);
  Grid2D<float> out(192, 128);
  std::vector<float> w(25);
  fill_random(w, 8, -0.2, 0.2);
  core::conv2d_ssam<float>(arch, in.cview(), w, 5, 5, out.view());
  return fnv1a(out.data(), sizeof(float) * static_cast<std::size_t>(out.size()));
}

std::uint64_t golden_stencil2d() {
  const auto& arch = sim::tesla_v100();
  Grid2D<float> in(256, 96);
  fill_random(in, 9);
  Grid2D<float> out(256, 96);
  core::stencil2d_ssam<float>(arch, in.cview(), core::star2d<float>(2), out.view());
  return fnv1a(out.data(), sizeof(float) * static_cast<std::size_t>(out.size()));
}

std::uint64_t golden_stencil2d_temporal() {
  const auto& arch = sim::tesla_v100();
  Grid2D<float> in(160, 120);
  fill_random(in, 10);
  Grid2D<float> out(160, 120);
  core::StencilOptions opt;
  opt.t = 3;
  core::stencil2d_ssam<float>(arch, in.cview(), core::star2d<float>(1), out.view(), opt);
  return fnv1a(out.data(), sizeof(float) * static_cast<std::size_t>(out.size()));
}

std::uint64_t golden_stencil3d() {
  const auto& arch = sim::tesla_v100();
  Grid3D<float> in(64, 48, 32);
  fill_random(in, 11);
  Grid3D<float> out(64, 48, 32);
  core::stencil3d_ssam<float>(arch, in.cview(), core::star3d<float>(1), out.view());
  return fnv1a(out.data(), sizeof(float) * static_cast<std::size_t>(out.size()));
}

std::uint64_t golden_gemm() {
  const auto& arch = sim::tesla_v100();
  Grid2D<float> a(96, 80), b(112, 96), c(112, 80);
  fill_random(a, 12);
  fill_random(b, 13);
  core::gemm_ssam<float>(arch, a.cview(), b.cview(), c.view());
  return fnv1a(c.data(), sizeof(float) * static_cast<std::size_t>(c.size()));
}

std::uint64_t golden_scan() {
  const auto& arch = sim::tesla_v100();
  std::vector<float> in(10000);
  fill_random(in, 14);
  std::vector<float> out(in.size());
  core::scan_inclusive<float>(arch, in, out);
  return fnv1a(out.data(), sizeof(float) * out.size());
}

/// The serving 3D job (64x64x32 3d7pt, two sweeps through run_job): with
/// nx = 64 two of its three warp columns are border warps, and every dz != 0
/// partial sum crosses shared memory through a clamped lane shift.
std::uint64_t golden_job3d_serve() {
  const auto& arch = sim::tesla_v100();
  Grid3D<float> a(64, 64, 32);
  fill_random(a, 15);
  Grid3D<float> b(64, 64, 32);
  core::run_job(arch, core::SimJob::stencil3d(a, b, core::star3d<float>(1), 2));
  return fnv1a(a.data(), sizeof(float) * static_cast<std::size_t>(a.size()));
}

/// A width that is no multiple of the 30 outputs a radius-1 warp produces,
/// so the last warp column is ragged and clamps its loads and stores.
std::uint64_t golden_stencil2d_ragged() {
  const auto& arch = sim::tesla_v100();
  Grid2D<float> in(257, 72);
  fill_random(in, 16);
  Grid2D<float> out(257, 72);
  core::stencil2d_ssam<float>(arch, in.cview(), core::box2d<float>(3, 3), out.view());
  return fnv1a(out.data(), sizeof(float) * static_cast<std::size_t>(out.size()));
}

TEST(KernelGolden, BitIdenticalAcrossBackends) {
  const Golden goldens[] = {
      {"conv2d", golden_conv2d()},
      {"stencil2d", golden_stencil2d()},
      {"stencil2d_temporal", golden_stencil2d_temporal()},
      {"stencil3d", golden_stencil3d()},
      {"gemm", golden_gemm()},
      {"scan", golden_scan()},
      {"job3d_serve", golden_job3d_serve()},
      {"stencil2d_ragged", golden_stencil2d_ragged()},
  };
  if (std::getenv("SSAM_PRINT_GOLDEN") != nullptr) {
    for (const Golden& g : goldens) {
      std::printf("  {\"%s\", 0x%016llxull},\n", g.name,
                  static_cast<unsigned long long>(g.hash));
    }
  }
  const Golden expected[] = {
      {"conv2d", 0x494650514c4928f8ull},
      {"stencil2d", 0xb64c0d89888b8337ull},
      {"stencil2d_temporal", 0x22f7a654458ede3full},
      {"stencil3d", 0xf9026ccf1cdd75b6ull},
      {"gemm", 0x81ae90bc5dd70376ull},
      {"scan", 0xc3b6d6659b933233ull},
      {"job3d_serve", 0xc478c0d76cfbee27ull},
      {"stencil2d_ragged", 0x2187390be2ba138eull},
  };
  for (std::size_t i = 0; i < std::size(goldens); ++i) {
    EXPECT_EQ(goldens[i].hash, expected[i].hash)
        << goldens[i].name << " output drifted from the cross-backend golden "
        << "(backend " << simd::kBackendName << ")";
  }
}

}  // namespace
