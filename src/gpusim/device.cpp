#include "gpusim/device.hpp"

#include <condition_variable>
#include <thread>

#include "common/error.hpp"
#include "core/config.hpp"

namespace ssam::sim {

// ------------------------------------------------------------------ Device

Device::Device(int index, DeviceOptions opt)
    : index_(index),
      name_(opt.name.empty() ? "dev" + std::to_string(index) : std::move(opt.name)),
      pool_(std::make_unique<ThreadPool>(opt.threads, std::move(opt.pin_cpus))) {}

WorkspaceLease Device::lease_workspace() {
  {
    std::lock_guard<std::mutex> lock(spares_m_);
    if (!spare_workspaces_.empty()) {
      auto ws = std::move(spare_workspaces_.back());
      spare_workspaces_.pop_back();
      return WorkspaceLease(this, std::move(ws));
    }
  }
  workspaces_created_.fetch_add(1, std::memory_order_relaxed);
  return WorkspaceLease(this, std::make_unique<PersistentWorkspace>());
}

void Device::return_workspace(std::unique_ptr<PersistentWorkspace> ws) {
  std::lock_guard<std::mutex> lock(spares_m_);
  spare_workspaces_.push_back(std::move(ws));
}

void WorkspaceLease::release() {
  if (device_ != nullptr && ws_ != nullptr) {
    device_->return_workspace(std::move(ws_));
  }
  device_ = nullptr;
  ws_.reset();
}

// -------------------------------------------------------------- DeviceGroup

DeviceGroup::DeviceGroup(std::vector<DeviceOptions> devices) {
  SSAM_REQUIRE(!devices.empty(), "a device group needs at least one device");
  devices_.reserve(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    devices_.push_back(std::make_unique<Device>(static_cast<int>(i), std::move(devices[i])));
  }
}

std::vector<DeviceOptions> DeviceGroup::even_slices(int n) {
  SSAM_REQUIRE(n >= 1, "device count must be positive");
  const int host = hardware_concurrency();
  const int per = host / n < 1 ? 1 : host / n;
  const bool pin = core::config().device_pin;
  const unsigned cores = std::thread::hardware_concurrency();
  std::vector<DeviceOptions> opts(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    DeviceOptions& o = opts[static_cast<std::size_t>(d)];
    o.threads = per;
    o.name = "dev" + std::to_string(d);
    if (pin && cores > 0) {
      o.pin_cpus.reserve(static_cast<std::size_t>(per));
      for (int w = 0; w < per; ++w) {
        o.pin_cpus.push_back(static_cast<int>(
            static_cast<unsigned>(d * per + w) % cores));
      }
    }
  }
  return opts;
}

namespace {

std::mutex g_groups_m;
// Index = device count; groups are never destroyed before process exit
// (their pools hold live threads, like the global pool).
std::vector<std::unique_ptr<DeviceGroup>> g_groups;

}  // namespace

DeviceGroup& DeviceGroup::shared(int n) {
  SSAM_REQUIRE(n >= 1, "device count must be positive");
  std::lock_guard<std::mutex> lock(g_groups_m);
  if (g_groups.size() <= static_cast<std::size_t>(n)) {
    g_groups.resize(static_cast<std::size_t>(n) + 1);
  }
  auto& slot = g_groups[static_cast<std::size_t>(n)];
  if (slot == nullptr) slot = std::make_unique<DeviceGroup>(even_slices(n));
  return *slot;
}

int default_device_count() { return core::config().devices; }

// ------------------------------------------------------- group-wide drivers

void for_each_device(std::span<Device* const> devices,
                     const std::function<void(int)>& fn) {
  const int n = static_cast<int>(devices.size());
  if (n == 0) return;
  for (Device* d : devices) SSAM_REQUIRE(d != nullptr, "null device");
  std::mutex m;
  std::condition_variable cv;
  int remaining = n;
  for (int i = 0; i < n; ++i) {
    devices[static_cast<std::size_t>(i)]->pool().submit([&, i] {
      fn(i);
      std::lock_guard<std::mutex> lock(m);
      if (--remaining == 0) cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return remaining == 0; });
}

void run_persistent_group(std::span<Device* const> devices,
                          std::span<const std::span<PersistentTask* const>> groups,
                          const std::atomic<bool>* stop) {
  SSAM_REQUIRE(devices.size() == groups.size(),
               "one task group per device required");
  // A multi-device run holds workers on every device while its shards wait
  // on each other's seams. Two such runs admitted together can each hold
  // one device's workers while waiting for the other's, a cycle no
  // scheduler breaks, so multi-device runs are admitted one at a time.
  // Single-device work (server jobs) never waits on another pool.
  static std::mutex admission_m;
  std::lock_guard<std::mutex> admitted(admission_m);
  for_each_device(devices, [&](int i) {
    const auto g = groups[static_cast<std::size_t>(i)];
    if (g.empty()) return;
    run_persistent_on(devices[static_cast<std::size_t>(i)]->pool(), g, stop);
  });
}

}  // namespace ssam::sim
