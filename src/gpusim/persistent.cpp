#include "gpusim/persistent.hpp"

#include <thread>

namespace ssam::sim {

void HaloChannel::configure_external(std::byte* dst_even, std::byte* dst_odd) {
  SSAM_REQUIRE(dst_even != nullptr && dst_odd != nullptr, "null external halo slots");
  external_[0] = dst_even;
  external_[1] = dst_odd;
  published_.store(-1, std::memory_order_relaxed);
  released_.store(-1, std::memory_order_relaxed);
}

std::byte* PersistentWorkspace::arena(std::size_t bytes) {
  constexpr std::size_t kAlign = 64;
  if (arena_.size() < bytes + kAlign) arena_.resize(bytes + kAlign);
  auto addr = reinterpret_cast<std::uintptr_t>(arena_.data());
  const std::size_t pad = (kAlign - addr % kAlign) % kAlign;
  return arena_.data() + pad;
}

std::span<HaloChannel> PersistentWorkspace::channels(std::size_t count) {
  if (channels_.size() < count) {
    // HaloChannel holds atomics (not movable); rebuild at the larger count.
    channels_ = std::vector<HaloChannel>(count);
  }
  return {channels_.data(), count};
}

void run_persistent(std::span<PersistentTask* const> tasks) {
  run_persistent_on(ThreadPool::global(), tasks);
}

void run_persistent_on(ThreadPool& pool, std::span<PersistentTask* const> tasks,
                       const std::atomic<bool>* stop) {
  const std::int64_t n = static_cast<std::int64_t>(tasks.size());
  if (n == 0) return;
  for (PersistentTask* t : tasks) SSAM_REQUIRE(t != nullptr, "null persistent task");

  // Participants claim tiles through the pool's chunk claimer (chunk = 1 so
  // ownership spreads across workers). The serial fast path of parallel_run
  // hands the whole range to the caller — pool size 1 owns every tile.
  pool.parallel_run(n, 1, [&](ThreadPool::ChunkClaimer& claim) {
    std::vector<PersistentTask*> owned;
    auto claim_one = [&] {
      std::int64_t b = 0;
      std::int64_t e = 0;
      if (!claim.next(b, e)) return false;
      for (std::int64_t i = b; i < e; ++i) owned.push_back(tasks[static_cast<std::size_t>(i)]);
      return true;
    };
    // Abort path: parallel_run blocks until all n indices are claimed AND
    // completed, so a participant bailing on `stop` must first exhaust the
    // cursor (claiming marks the chunks complete on flush) — tiles nobody
    // ever claimed would otherwise leave the caller waiting forever.
    auto drain_claims = [&] {
      std::int64_t b = 0;
      std::int64_t e = 0;
      while (claim.next(b, e)) {
      }
    };
    if (!claim_one()) return;
    while (true) {
      if (stop != nullptr && stop->load(std::memory_order_acquire)) {
        drain_claims();
        return;
      }
      bool progress = false;
      bool all_done = true;
      for (PersistentTask* t : owned) {
        if (t->done()) continue;
        all_done = false;
        // Burst: advance this tile as far as its channels allow while its
        // working set is hot in this worker's cache.
        while (t->try_advance()) progress = true;
      }
      if (all_done) {
        // Everything owned is finished; claim more work or leave.
        if (!claim_one()) return;
        continue;
      }
      if (!progress && !claim_one()) {
        // Blocked on tiles owned by other participants: let them run — but
        // under an abort that may never come from them, keep polling `stop`
        // (a stopped neighbour will never publish the epoch we wait for).
        std::this_thread::yield();
      }
    }
  });
}

}  // namespace ssam::sim
