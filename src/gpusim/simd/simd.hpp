// Compile-time SIMD backend selection for the 32-lane engine.
//
// The lane engine (gpusim/vec.hpp) dispatches every primitive through
// `simd::LaneOps<T>`; this header decides which backend provides the
// specializations. Exactly one backend is active per build:
//
//   AVX-512  two 512-bit registers per warp value, vpermt2d shuffles and
//            window-permute gathers
//   AVX2     four 256-bit registers, vpermd chunk-rotate shuffles
//   SSE2     eight 128-bit registers, arithmetic only (x86-64 baseline)
//   NEON     eight 128-bit registers, arithmetic only (AArch64 baseline)
//   scalar   portable reference loops (any target)
//
// Selection order:
//  1. A CMake-provided SSAM_SIMD_BACKEND_* definition (set by
//     cmake/SsamSimd.cmake from build-host detection or the
//     -DSSAM_SIMD_BACKEND=... override) wins. CMake also adds the matching
//     -m target flags, so the backend's intrinsics are always compilable.
//  2. Without one (header-only consumers, hand-rolled builds), the compiler's
//     predefined target macros pick the widest backend the translation unit
//     is already allowed to emit.
//
// All backends produce bit-identical results for every primitive (enforced
// by tests/test_simd_parity.cpp), so backend choice is purely a speed knob:
// functional-mode kernel outputs never depend on it.
#pragma once

#include "gpusim/simd/scalar.hpp"

#if defined(SSAM_SIMD_BACKEND_SCALAR)
namespace ssam::sim::simd {
inline constexpr const char* kBackendName = "scalar";
}
#elif defined(SSAM_SIMD_BACKEND_AVX512)
#include "gpusim/simd/avx512.hpp"
#elif defined(SSAM_SIMD_BACKEND_AVX2)
#include "gpusim/simd/avx2.hpp"
#elif defined(SSAM_SIMD_BACKEND_SSE2)
#include "gpusim/simd/sse2.hpp"
#elif defined(SSAM_SIMD_BACKEND_NEON)
#include "gpusim/simd/neon.hpp"
#elif defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__)
#include "gpusim/simd/avx512.hpp"
#elif defined(__AVX2__)
#include "gpusim/simd/avx2.hpp"
#elif defined(__SSE2__) || defined(_M_X64) || defined(__x86_64__)
#include "gpusim/simd/sse2.hpp"
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include "gpusim/simd/neon.hpp"
#else
namespace ssam::sim::simd {
inline constexpr const char* kBackendName = "scalar";
}
#endif
