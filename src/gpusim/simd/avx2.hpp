// AVX2 backend of the 32-lane engine: four 256-bit registers per warp value
// (float / int32) and eight-lane chunks of int64 indices.
//
// AVX2 has no two-source cross-register permute, but `vpermd`
// (_mm256_permutevar8x32_epi32) is a full 8-lane variable permute, so every
// systolic shuffle decomposes into per-chunk rotations plus a lane blend:
// a shift by delta = 8k + w sources output chunk c from chunks c-k and
// c-k-1 (both rotated by the same w) with a position mask picking between
// them — two vpermd + one vpblendvb per chunk, no memory round-trip. The
// butterfly is a single vpermd per chunk (chunk c ^ (mask>>3), indices
// XOR-ed with mask&7).
//
// Arithmetic matches the scalar reference bit-for-bit: mad is unfused
// (mul, then add; see the -ffp-contract=off note in scalar.hpp), and float
// clamp is compare+blend so NaN lanes resolve like the reference ternaries.
// 64-bit lane-index multiplies use the classic mul_epu32 three-product
// decomposition, which wraps exactly like scalar 64-bit multiplication.
#pragma once

#if !defined(__AVX2__)
#error "simd/avx2.hpp requires -mavx2"
#endif

#include <immintrin.h>

#include <cstdint>

#include "gpusim/simd/scalar.hpp"

namespace ssam::sim::simd {

namespace avx2 {

[[nodiscard]] inline __m256i ramp8() { return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7); }

[[nodiscard]] inline __m256i load_chunk(const void* a, int c) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(static_cast<const char*>(a) + 32 * c));
}

inline void store_chunk(void* d, int c, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(static_cast<char*>(d) + 32 * c), v);
}

/// shfl_up on 4-byte lanes: output chunk c takes its top lanes from chunk
/// c-k rotated by `within` and its bottom `within` lanes from chunk c-k-1
/// (same rotation); lanes below the warp edge keep their own value.
inline void shift_up32(void* d, const void* a, int delta) {
  const int k = delta >> 3;
  const int within = delta & 7;
  // vpermd only reads the low 3 bits of each index, so the plain difference
  // rotates: (j - within) mod 8.
  const __m256i rot = _mm256_sub_epi32(ramp8(), _mm256_set1_epi32(within));
  const __m256i take_rot = _mm256_cmpgt_epi32(ramp8(), _mm256_set1_epi32(within - 1));
  __m256i out[4];
  for (int c = 0; c < 4; ++c) {
    if (c < k) {
      out[c] = load_chunk(a, c);  // fully below the edge: keep own lanes
      continue;
    }
    const __m256i rot_a = _mm256_permutevar8x32_epi32(load_chunk(a, c - k), rot);
    const __m256i low =
        c == k ? load_chunk(a, c)  // partial edge: low lanes keep their own
               : _mm256_permutevar8x32_epi32(load_chunk(a, c - k - 1), rot);
    out[c] = _mm256_blendv_epi8(low, rot_a, take_rot);
  }
  for (int c = 0; c < 4; ++c) store_chunk(d, c, out[c]);
}

/// shfl_down mirror image: chunk c sources chunks c+k and c+k+1.
inline void shift_down32(void* d, const void* a, int delta) {
  const int k = delta >> 3;
  const int within = delta & 7;
  const __m256i rot = _mm256_add_epi32(ramp8(), _mm256_set1_epi32(within));
  const __m256i take_rot = _mm256_cmpgt_epi32(_mm256_set1_epi32(8 - within), ramp8());
  __m256i out[4];
  for (int c = 0; c < 4; ++c) {
    if (c + k > 3) {
      out[c] = load_chunk(a, c);  // fully above the edge: keep own lanes
      continue;
    }
    const __m256i rot_a = _mm256_permutevar8x32_epi32(load_chunk(a, c + k), rot);
    const __m256i high = c + k + 1 > 3
                             ? load_chunk(a, c)  // partial edge: keep own
                             : _mm256_permutevar8x32_epi32(load_chunk(a, c + k + 1), rot);
    out[c] = _mm256_blendv_epi8(high, rot_a, take_rot);
  }
  for (int c = 0; c < 4; ++c) store_chunk(d, c, out[c]);
}

/// shfl_xor: one vpermd per chunk. lane_mask is in [0, 31].
inline void butterfly32(void* d, const void* a, int lane_mask) {
  const __m256i idx = _mm256_xor_si256(ramp8(), _mm256_set1_epi32(lane_mask & 7));
  const int chunk_xor = lane_mask >> 3;
  __m256i out[4];
  for (int c = 0; c < 4; ++c) {
    out[c] = _mm256_permutevar8x32_epi32(load_chunk(a, c ^ chunk_xor), idx);
  }
  for (int c = 0; c < 4; ++c) store_chunk(d, c, out[c]);
}

/// Exact wrapping 64x64 -> low-64 multiply from 32-bit products.
[[nodiscard]] inline __m256i mullo64(__m256i a, __m256i b) {
  const __m256i b_swap = _mm256_shuffle_epi32(b, 0xB1);       // b_hi | b_lo swapped
  const __m256i cross = _mm256_mullo_epi32(a, b_swap);        // a_lo*b_hi, a_hi*b_lo
  const __m256i cross_sum = _mm256_hadd_epi32(cross, _mm256_setzero_si256());
  const __m256i cross_hi = _mm256_shuffle_epi32(cross_sum, 0x73);  // into high dwords
  const __m256i prod_ll = _mm256_mul_epu32(a, b);             // a_lo*b_lo, full 64
  return _mm256_add_epi64(prod_ll, cross_hi);
}

}  // namespace avx2

template <>
struct LaneOps<float> : RefOps<float> {
  static void splat(float* d, float v) {
    const __m256 s = _mm256_set1_ps(v);
    for (int c = 0; c < 4; ++c) _mm256_storeu_ps(d + 8 * c, s);
  }

  static void add(float* d, const float* a, const float* b) {
    for (int c = 0; c < 4; ++c) {
      _mm256_storeu_ps(d + 8 * c,
                       _mm256_add_ps(_mm256_loadu_ps(a + 8 * c), _mm256_loadu_ps(b + 8 * c)));
    }
  }

  static void add_s(float* d, const float* a, float b) {
    const __m256 bv = _mm256_set1_ps(b);
    for (int c = 0; c < 4; ++c) {
      _mm256_storeu_ps(d + 8 * c, _mm256_add_ps(_mm256_loadu_ps(a + 8 * c), bv));
    }
  }

  static void sub(float* d, const float* a, const float* b) {
    for (int c = 0; c < 4; ++c) {
      _mm256_storeu_ps(d + 8 * c,
                       _mm256_sub_ps(_mm256_loadu_ps(a + 8 * c), _mm256_loadu_ps(b + 8 * c)));
    }
  }

  static void mul(float* d, const float* a, const float* b) {
    for (int c = 0; c < 4; ++c) {
      _mm256_storeu_ps(d + 8 * c,
                       _mm256_mul_ps(_mm256_loadu_ps(a + 8 * c), _mm256_loadu_ps(b + 8 * c)));
    }
  }

  static void mul_s(float* d, const float* a, float b) {
    const __m256 bv = _mm256_set1_ps(b);
    for (int c = 0; c < 4; ++c) {
      _mm256_storeu_ps(d + 8 * c, _mm256_mul_ps(_mm256_loadu_ps(a + 8 * c), bv));
    }
  }

  // Unfused on purpose (see scalar.hpp): no _mm256_fmadd_ps here.
  static void mad(float* d, const float* a, const float* b, const float* c3) {
    for (int c = 0; c < 4; ++c) {
      _mm256_storeu_ps(d + 8 * c,
                       _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(a + 8 * c),
                                                   _mm256_loadu_ps(b + 8 * c)),
                                     _mm256_loadu_ps(c3 + 8 * c)));
    }
  }

  static void mad_s(float* d, const float* a, float b, const float* c3) {
    const __m256 bv = _mm256_set1_ps(b);
    for (int c = 0; c < 4; ++c) {
      _mm256_storeu_ps(d + 8 * c, _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(a + 8 * c), bv),
                                                _mm256_loadu_ps(c3 + 8 * c)));
    }
  }

  static void affine(float* d, const float* x, float scale, float offset) {
    const __m256 sv = _mm256_set1_ps(scale);
    const __m256 ov = _mm256_set1_ps(offset);
    for (int c = 0; c < 4; ++c) {
      _mm256_storeu_ps(d + 8 * c,
                       _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(x + 8 * c), sv), ov));
    }
  }

  static void clamp(float* d, const float* x, float lo, float hi) {
    const __m256 lov = _mm256_set1_ps(lo);
    const __m256 hiv = _mm256_set1_ps(hi);
    for (int c = 0; c < 4; ++c) {
      __m256 v = _mm256_loadu_ps(x + 8 * c);
      v = _mm256_blendv_ps(v, lov, _mm256_cmp_ps(v, lov, _CMP_LT_OQ));
      v = _mm256_blendv_ps(v, hiv, _mm256_cmp_ps(v, hiv, _CMP_GT_OQ));
      _mm256_storeu_ps(d + 8 * c, v);
    }
  }

  static void ge_s(int* d, const float* a, float b) {
    const __m256 bv = _mm256_set1_ps(b);
    const __m256i one = _mm256_set1_epi32(1);
    for (int c = 0; c < 4; ++c) {
      const __m256i m = _mm256_castps_si256(_mm256_cmp_ps(_mm256_loadu_ps(a + 8 * c), bv,
                                                          _CMP_GE_OQ));
      avx2::store_chunk(d, c, _mm256_and_si256(m, one));
    }
  }

  static void lt_s(int* d, const float* a, float b) {
    const __m256 bv = _mm256_set1_ps(b);
    const __m256i one = _mm256_set1_epi32(1);
    for (int c = 0; c < 4; ++c) {
      const __m256i m = _mm256_castps_si256(_mm256_cmp_ps(_mm256_loadu_ps(a + 8 * c), bv,
                                                          _CMP_LT_OQ));
      avx2::store_chunk(d, c, _mm256_and_si256(m, one));
    }
  }

  static void select(float* d, const int* pred, const float* a, const float* b) {
    const __m256i zero = _mm256_setzero_si256();
    for (int c = 0; c < 4; ++c) {
      const __m256i p_zero = _mm256_cmpeq_epi32(avx2::load_chunk(pred, c), zero);
      _mm256_storeu_ps(d + 8 * c,
                       _mm256_blendv_ps(_mm256_loadu_ps(a + 8 * c), _mm256_loadu_ps(b + 8 * c),
                                        _mm256_castsi256_ps(p_zero)));
    }
  }

  static void shift_up(float* d, const float* a, int delta) { avx2::shift_up32(d, a, delta); }
  static void shift_down(float* d, const float* a, int delta) {
    avx2::shift_down32(d, a, delta);
  }
  static void butterfly(float* d, const float* a, int lane_mask) {
    avx2::butterfly32(d, a, lane_mask);
  }
};

template <>
struct LaneOps<std::int32_t> : RefOps<std::int32_t> {
  using T = std::int32_t;

  static void splat(T* d, T v) {
    const __m256i s = _mm256_set1_epi32(v);
    for (int c = 0; c < 4; ++c) avx2::store_chunk(d, c, s);
  }

  static void iota(T* d, T base, T step) {
    const __m256i sv = _mm256_set1_epi32(step);
    const __m256i bv = _mm256_set1_epi32(base);
    __m256i r = avx2::ramp8();
    const __m256i eight = _mm256_set1_epi32(8);
    for (int c = 0; c < 4; ++c) {
      avx2::store_chunk(d, c, _mm256_add_epi32(_mm256_mullo_epi32(r, sv), bv));
      r = _mm256_add_epi32(r, eight);
    }
  }

  static void add(T* d, const T* a, const T* b) {
    for (int c = 0; c < 4; ++c) {
      avx2::store_chunk(d, c, _mm256_add_epi32(avx2::load_chunk(a, c), avx2::load_chunk(b, c)));
    }
  }

  static void add_s(T* d, const T* a, T b) {
    const __m256i bv = _mm256_set1_epi32(b);
    for (int c = 0; c < 4; ++c) {
      avx2::store_chunk(d, c, _mm256_add_epi32(avx2::load_chunk(a, c), bv));
    }
  }

  static void sub(T* d, const T* a, const T* b) {
    for (int c = 0; c < 4; ++c) {
      avx2::store_chunk(d, c, _mm256_sub_epi32(avx2::load_chunk(a, c), avx2::load_chunk(b, c)));
    }
  }

  static void mul(T* d, const T* a, const T* b) {
    for (int c = 0; c < 4; ++c) {
      avx2::store_chunk(d, c,
                        _mm256_mullo_epi32(avx2::load_chunk(a, c), avx2::load_chunk(b, c)));
    }
  }

  static void mul_s(T* d, const T* a, T b) {
    const __m256i bv = _mm256_set1_epi32(b);
    for (int c = 0; c < 4; ++c) {
      avx2::store_chunk(d, c, _mm256_mullo_epi32(avx2::load_chunk(a, c), bv));
    }
  }

  static void mad(T* d, const T* a, const T* b, const T* c3) {
    for (int c = 0; c < 4; ++c) {
      avx2::store_chunk(
          d, c,
          _mm256_add_epi32(_mm256_mullo_epi32(avx2::load_chunk(a, c), avx2::load_chunk(b, c)),
                           avx2::load_chunk(c3, c)));
    }
  }

  static void mad_s(T* d, const T* a, T b, const T* c3) {
    const __m256i bv = _mm256_set1_epi32(b);
    for (int c = 0; c < 4; ++c) {
      avx2::store_chunk(d, c, _mm256_add_epi32(_mm256_mullo_epi32(avx2::load_chunk(a, c), bv),
                                               avx2::load_chunk(c3, c)));
    }
  }

  static void affine(T* d, const T* x, T scale, T offset) {
    const __m256i sv = _mm256_set1_epi32(scale);
    const __m256i ov = _mm256_set1_epi32(offset);
    for (int c = 0; c < 4; ++c) {
      avx2::store_chunk(d, c,
                        _mm256_add_epi32(_mm256_mullo_epi32(avx2::load_chunk(x, c), sv), ov));
    }
  }

  static void clamp(T* d, const T* x, T lo, T hi) {
    const __m256i lov = _mm256_set1_epi32(lo);
    const __m256i hiv = _mm256_set1_epi32(hi);
    for (int c = 0; c < 4; ++c) {
      __m256i v = avx2::load_chunk(x, c);
      v = _mm256_min_epi32(_mm256_max_epi32(v, lov), hiv);
      avx2::store_chunk(d, c, v);
    }
  }

  static void ge_s(int* d, const T* a, T b) {
    const __m256i bv = _mm256_set1_epi32(b);
    const __m256i one = _mm256_set1_epi32(1);
    for (int c = 0; c < 4; ++c) {
      // a >= b  <=>  !(b > a); the compare mask is 0/-1 so (mask + 1) flips it.
      const __m256i lt = _mm256_cmpgt_epi32(bv, avx2::load_chunk(a, c));
      avx2::store_chunk(d, c, _mm256_add_epi32(lt, one));
    }
  }

  static void lt_s(int* d, const T* a, T b) {
    const __m256i bv = _mm256_set1_epi32(b);
    const __m256i one = _mm256_set1_epi32(1);
    for (int c = 0; c < 4; ++c) {
      const __m256i lt = _mm256_cmpgt_epi32(bv, avx2::load_chunk(a, c));
      avx2::store_chunk(d, c, _mm256_and_si256(lt, one));
    }
  }

  static void logical_and(int* d, const int* a, const int* b) {
    const __m256i zero = _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi32(1);
    for (int c = 0; c < 4; ++c) {
      const __m256i either_zero =
          _mm256_or_si256(_mm256_cmpeq_epi32(avx2::load_chunk(a, c), zero),
                          _mm256_cmpeq_epi32(avx2::load_chunk(b, c), zero));
      avx2::store_chunk(d, c, _mm256_andnot_si256(either_zero, one));
    }
  }

  static void select(T* d, const int* pred, const T* a, const T* b) {
    const __m256i zero = _mm256_setzero_si256();
    for (int c = 0; c < 4; ++c) {
      const __m256i p_zero = _mm256_cmpeq_epi32(avx2::load_chunk(pred, c), zero);
      avx2::store_chunk(
          d, c, _mm256_blendv_epi8(avx2::load_chunk(a, c), avx2::load_chunk(b, c), p_zero));
    }
  }

  static void shift_up(T* d, const T* a, int delta) { avx2::shift_up32(d, a, delta); }
  static void shift_down(T* d, const T* a, int delta) { avx2::shift_down32(d, a, delta); }
  static void butterfly(T* d, const T* a, int lane_mask) {
    avx2::butterfly32(d, a, lane_mask);
  }

  static bool unit_stride(const T* idx) {
    const __m256i i0 = _mm256_set1_epi32(idx[0]);
    __m256i r = avx2::ramp8();
    const __m256i eight = _mm256_set1_epi32(8);
    __m256i all = _mm256_set1_epi32(-1);
    for (int c = 0; c < 4; ++c) {
      all = _mm256_and_si256(
          all, _mm256_cmpeq_epi32(avx2::load_chunk(idx, c), _mm256_add_epi32(i0, r)));
      r = _mm256_add_epi32(r, eight);
    }
    return _mm256_movemask_epi8(all) == -1;
  }

  static bool all_nonzero(const int* p) {
    const __m256i zero = _mm256_setzero_si256();
    __m256i any_zero = zero;
    for (int c = 0; c < 4; ++c) {
      any_zero = _mm256_or_si256(any_zero, _mm256_cmpeq_epi32(avx2::load_chunk(p, c), zero));
    }
    return _mm256_movemask_epi8(any_zero) == 0;
  }
};

/// 64-bit lane indices: four lanes per register, eight registers. The
/// addressing ops (iota, affine, clamp, bounds compares, unit-stride) are
/// what shows up on kernel hot paths; shuffles of 8-byte lanes stay on the
/// reference path (they do not occur in the kernels — shuffles move values,
/// which are 4-byte).
template <>
struct LaneOps<std::int64_t> : RefOps<std::int64_t> {
  using T = std::int64_t;

  [[nodiscard]] static __m256i ramp4(int q) {  // lanes 4q .. 4q+3
    const std::int64_t b = 4 * q;
    return _mm256_setr_epi64x(b, b + 1, b + 2, b + 3);
  }

  [[nodiscard]] static __m256i load4(const T* p, int q) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4 * q));
  }

  static void store4(T* p, int q, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 4 * q), v);
  }

  static void splat(T* d, T v) {
    const __m256i s = _mm256_set1_epi64x(v);
    for (int q = 0; q < 8; ++q) store4(d, q, s);
  }

  static void iota(T* d, T base, T step) {
    const __m256i sv = _mm256_set1_epi64x(step);
    const __m256i bv = _mm256_set1_epi64x(base);
    for (int q = 0; q < 8; ++q) {
      store4(d, q, _mm256_add_epi64(avx2::mullo64(ramp4(q), sv), bv));
    }
  }

  static void add(T* d, const T* a, const T* b) {
    for (int q = 0; q < 8; ++q) store4(d, q, _mm256_add_epi64(load4(a, q), load4(b, q)));
  }

  static void add_s(T* d, const T* a, T b) {
    const __m256i bv = _mm256_set1_epi64x(b);
    for (int q = 0; q < 8; ++q) store4(d, q, _mm256_add_epi64(load4(a, q), bv));
  }

  static void sub(T* d, const T* a, const T* b) {
    for (int q = 0; q < 8; ++q) store4(d, q, _mm256_sub_epi64(load4(a, q), load4(b, q)));
  }

  static void mul(T* d, const T* a, const T* b) {
    for (int q = 0; q < 8; ++q) store4(d, q, avx2::mullo64(load4(a, q), load4(b, q)));
  }

  static void mul_s(T* d, const T* a, T b) {
    const __m256i bv = _mm256_set1_epi64x(b);
    for (int q = 0; q < 8; ++q) store4(d, q, avx2::mullo64(load4(a, q), bv));
  }

  static void mad(T* d, const T* a, const T* b, const T* c) {
    for (int q = 0; q < 8; ++q) {
      store4(d, q, _mm256_add_epi64(avx2::mullo64(load4(a, q), load4(b, q)), load4(c, q)));
    }
  }

  static void mad_s(T* d, const T* a, T b, const T* c) {
    const __m256i bv = _mm256_set1_epi64x(b);
    for (int q = 0; q < 8; ++q) {
      store4(d, q, _mm256_add_epi64(avx2::mullo64(load4(a, q), bv), load4(c, q)));
    }
  }

  static void affine(T* d, const T* x, T scale, T offset) {
    const __m256i sv = _mm256_set1_epi64x(scale);
    const __m256i ov = _mm256_set1_epi64x(offset);
    for (int q = 0; q < 8; ++q) {
      store4(d, q, _mm256_add_epi64(avx2::mullo64(load4(x, q), sv), ov));
    }
  }

  static void clamp(T* d, const T* x, T lo, T hi) {
    const __m256i lov = _mm256_set1_epi64x(lo);
    const __m256i hiv = _mm256_set1_epi64x(hi);
    for (int q = 0; q < 8; ++q) {
      __m256i v = load4(x, q);
      v = _mm256_blendv_epi8(v, lov, _mm256_cmpgt_epi64(lov, v));  // v < lo
      v = _mm256_blendv_epi8(v, hiv, _mm256_cmpgt_epi64(v, hiv));  // v > hi
      store4(d, q, v);
    }
  }

  static void ge_s(int* d, const T* a, T b) {
    const __m256i bv = _mm256_set1_epi64x(b);
    for (int q = 0; q < 8; ++q) {
      const int lt_bits = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(bv, load4(a, q))));
      for (int i = 0; i < 4; ++i) d[4 * q + i] = ((lt_bits >> i) & 1) ^ 1;
    }
  }

  static void lt_s(int* d, const T* a, T b) {
    const __m256i bv = _mm256_set1_epi64x(b);
    for (int q = 0; q < 8; ++q) {
      const int lt_bits = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(bv, load4(a, q))));
      for (int i = 0; i < 4; ++i) d[4 * q + i] = (lt_bits >> i) & 1;
    }
  }

  static void select(T* d, const int* pred, const T* a, const T* b) {
    const __m128i zero = _mm_setzero_si128();
    for (int q = 0; q < 8; ++q) {
      const __m128i p = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pred + 4 * q));
      const __m256i p_zero64 = _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(p, zero));
      store4(d, q, _mm256_blendv_epi8(load4(a, q), load4(b, q), p_zero64));
    }
  }

  static bool unit_stride(const T* idx) {
    const __m256i i0 = _mm256_set1_epi64x(idx[0]);
    __m256i all = _mm256_set1_epi64x(-1);
    for (int q = 0; q < 8; ++q) {
      all = _mm256_and_si256(all,
                             _mm256_cmpeq_epi64(load4(idx, q), _mm256_add_epi64(i0, ramp4(q))));
    }
    return _mm256_movemask_epi8(all) == -1;
  }
};

inline constexpr const char* kBackendName = "avx2";

}  // namespace ssam::sim::simd
