// Shared test helpers: the FNV-1a golden hash, bit-exact parity assertions,
// the global-pool restore guard, the strict reader of the suites'
// case-count knobs, and a scoped environment override. One definition
// serves every suite so hashes stay comparable across tests (and across
// SIMD backends — the cross-backend goldens in test_simd_parity.cpp and the
// persistent/sharded parity pins hash with the same function).
#pragma once

#include <gtest/gtest.h>

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace ssam::testing {

/// FNV-1a over the raw bytes of a buffer. Float outputs are hashed by bit
/// pattern, so two hashes agree iff the buffers are bit-identical.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Bit-exact parity over `count` trivially copyable elements. On mismatch
/// the failure message names the first differing element (memcmp alone only
/// says "different", which is useless for a seeded differential suite).
template <typename T>
[[nodiscard]] ::testing::AssertionResult bits_equal(const T* a, const T* b,
                                                    std::size_t count) {
  if (std::memcmp(a, b, count * sizeof(T)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(T)) != 0) {
      return ::testing::AssertionFailure()
             << "first bit mismatch at element " << i << ": " << a[i] << " vs " << b[i]
             << " (" << count << " elements total)";
    }
  }
  return ::testing::AssertionFailure() << "buffers differ (memcmp) but no element does";
}

/// Restores the default global pool when a test that resizes it exits.
struct PoolSizeGuard {
  PoolSizeGuard() = default;
  PoolSizeGuard(const PoolSizeGuard&) = delete;
  PoolSizeGuard& operator=(const PoolSizeGuard&) = delete;
  ~PoolSizeGuard() { ThreadPool::reset_global(hardware_concurrency()); }
};

/// A suite knob (`SSAM_SHARD_CASES`, `SSAM_CHAIN_SEED`, ...) as a positive
/// decimal integer, or `fallback` when the variable is unset or empty.
/// Anything else (`4O`, `0`, `-1`, ` 4`) throws PreconditionError naming the
/// variable, like the SSAM_* knobs of core/config.cpp: a typo in a CI leg
/// that pins 40 cases must fail, not silently run the default 200.
inline int env_positive_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  int parsed = 0;
  const char* end = v + std::strlen(v);
  const auto [ptr, ec] = std::from_chars(v, end, parsed);
  SSAM_REQUIRE(ec == std::errc() && ptr == end && parsed > 0,
               std::string(name) + "=\"" + v + "\" is not a positive decimal integer");
  return parsed;
}

/// RAII env mutation: sets `name` for the scope and restores the previous
/// value (or unsets it) on exit, so a throwing expectation cannot leak a
/// malformed knob into later tests of the same binary.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;
  ~ScopedEnv() {
    if (old_.has_value()) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

}  // namespace ssam::testing
