#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <thread>

#include "common/thread_pool.hpp"
#include "core/config.hpp"
#include "host.hpp"
#include "json.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

namespace {

// Fixed chunking: results never depend on how many threads run the chunks.
constexpr std::size_t kChunk = std::size_t{1} << 20;

[[nodiscard]] std::size_t chunks_of(std::size_t n) { return (n + kChunk - 1) / kChunk; }

[[nodiscard]] std::string read_first_line(const char* path) {
  std::ifstream f(path);
  std::string line;
  if (!f || !std::getline(f, line)) return "";
  return line;
}

}  // namespace

void fill_seeded(float* p, std::size_t n, std::uint64_t seed) {
  // SplitMix64 output for index i is a function of seed + i alone, so
  // chunks fill independently and the array matches a serial fill.
  ssam::parallel_for(static_cast<std::int64_t>(chunks_of(n)), [&](std::int64_t c) {
    const std::size_t b = static_cast<std::size_t>(c) * kChunk;
    const std::size_t e = std::min(n, b + kChunk);
    ssam::SplitMix64 rng(seed + b * 0x9E3779B97F4A7C15ull);
    for (std::size_t i = b; i < e; ++i) p[i] = static_cast<float>(rng.next_in(-1.0, 1.0));
  });
}

void parallel_copy(float* dst, const float* src, std::size_t n) {
  ssam::parallel_for(static_cast<std::int64_t>(chunks_of(n)), [&](std::int64_t c) {
    const std::size_t b = static_cast<std::size_t>(c) * kChunk;
    const std::size_t e = std::min(n, b + kChunk);
    std::copy(src + b, src + e, dst + b);
  });
}

std::uint64_t parallel_hash(const float* p, std::size_t n) {
  std::vector<std::uint64_t> part(chunks_of(n));
  ssam::parallel_for(static_cast<std::int64_t>(part.size()), [&](std::int64_t c) {
    const std::size_t b = static_cast<std::size_t>(c) * kChunk;
    const std::size_t e = std::min(n, b + kChunk);
    part[static_cast<std::size_t>(c)] = hash_bytes(p + b, (e - b) * sizeof(float));
  });
  return hash_bytes(part.data(), part.size() * sizeof(std::uint64_t));
}

std::size_t llc_bytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return static_cast<std::size_t>(v);
#endif
  const std::string s = read_first_line("/sys/devices/system/cpu/cpu0/cache/index3/size");
  if (s.empty()) return 0;
  std::size_t k = 0;
  try {
    k = static_cast<std::size_t>(std::stoull(s));
  } catch (const std::exception&) {
    return 0;
  }
  const char unit = s.back();
  return unit == 'K' ? k << 10 : unit == 'M' ? k << 20 : k;
}

CpuTicks cpu_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::ifstream f("/proc/stat");
  std::string cpu;
  CpuTicks t;
  if (!(f >> cpu) || cpu != "cpu") return t;
  double v = 0.0;
  for (int i = 0; i < 8 && f >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

std::string host_json(int busy_threads) {
  std::map<std::string, std::string> h;
  h["nproc"] = json_number(static_cast<double>(std::thread::hardware_concurrency()));
  h["llc_bytes"] = json_number(static_cast<double>(llc_bytes()));
  h["simd_backend"] = json_string(ssam::core::config().simd_backend);
  h["compiler"] = json_string(__VERSION__);
  h["cxx_flags"] = json_string(PERFBENCH_CXX_FLAGS);
  const std::string gov =
      read_first_line("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  h["governor"] = json_string(gov.empty() ? "unreadable" : gov);
  h["busy_threads"] = json_number(static_cast<double>(busy_threads));
  h["pool_workers"] = json_number(static_cast<double>(ssam::ThreadPool::global().size()));
  return json_object(h);
}

}  // namespace perfbench
