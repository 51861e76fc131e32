// Minimal leveled logging for examples and benchmark harness diagnostics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace ssam {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Global log threshold; messages below it are dropped. Defaults to Info.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

void log(LogLevel level, const std::string& message);

inline void log_debug(const std::string& m) { log(LogLevel::kDebug, m); }

/// Token bucket for event streams that may storm (watchdog cancels,
/// quarantine flaps under sustained fault injection): one per call site,
/// at most one message per `min_gap`, dropped messages counted. Thread-safe
/// and allocation-free on the suppressed path.
class LogRateLimiter {
 public:
  explicit LogRateLimiter(std::chrono::milliseconds min_gap) : gap_(min_gap) {}

  /// True when a message may be emitted now (and claims the slot).
  [[nodiscard]] bool allow() {
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    const std::int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
    const std::int64_t gap_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(gap_).count();
    std::int64_t last = last_ns_.load(std::memory_order_relaxed);
    if (now_ns - last < gap_ns ||
        !last_ns_.compare_exchange_strong(last, now_ns, std::memory_order_relaxed)) {
      suppressed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// Messages dropped since the last emitted one; reading resets the count.
  [[nodiscard]] std::uint64_t take_suppressed() {
    return suppressed_.exchange(0, std::memory_order_relaxed);
  }

 private:
  std::chrono::milliseconds gap_;
  std::atomic<std::int64_t> last_ns_{-(1LL << 62)};  // first message always passes
  std::atomic<std::uint64_t> suppressed_{0};
};

/// Warn through `limiter`; suppressed messages are only counted, and the
/// next emitted message reports how many were dropped.
void log_warn_limited(LogRateLimiter& limiter, const std::string& message);

}  // namespace ssam
