#include "core/faultinject.hpp"

#include <cstdlib>

#include "core/config.hpp"

namespace ssam::core {

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kWorkspaceLease: return "workspace-lease";
    case FaultSite::kKernelSweep: return "kernel-sweep";
    case FaultSite::kHaloSend: return "halo-send";
    case FaultSite::kDeviceDispatch: return "device-dispatch";
  }
  return "?";
}

namespace {

/// SplitMix64 finalizer: one scramble of a combined (seed, site, index)
/// state. Matches common/rng.hpp's generator quality without carrying
/// per-site generator state.
std::uint64_t mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

FaultSite site_key(const std::string& key) {
  if (key == "lease") return FaultSite::kWorkspaceLease;
  if (key == "sweep") return FaultSite::kKernelSweep;
  if (key == "halo") return FaultSite::kHaloSend;
  if (key == "dispatch") return FaultSite::kDeviceDispatch;
  SSAM_REQUIRE(false, "unknown fault site key '" + key +
                          "' (expected lease|sweep|halo|dispatch)");
  return FaultSite::kWorkspaceLease;  // unreachable
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string field = spec.substr(pos, end - pos);
    pos = end + 1;
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    SSAM_REQUIRE(eq != std::string::npos && eq > 0 && eq + 1 < field.size(),
                 "malformed fault spec field '" + field + "' (expected key=value)");
    const std::string key = field.substr(0, eq);
    std::string value = field.substr(eq + 1);
    if (key == "seed") {
      plan.seed = std::strtoull(value.c_str(), nullptr, 10);
      continue;
    }
    if (key == "device") {
      plan.device = std::atoi(value.c_str());
      continue;
    }
    FaultPlan::Site& site = plan.site(site_key(key));
    site.transient = true;
    const char tail = value.back();
    if (tail == 't' || tail == 'p') {
      site.transient = tail == 't';
      value.pop_back();
    }
    char* parse_end = nullptr;
    site.rate = std::strtod(value.c_str(), &parse_end);
    SSAM_REQUIRE(parse_end != nullptr && *parse_end == '\0' && site.rate >= 0.0 &&
                     site.rate <= 1.0,
                 "fault rate in '" + field + "' must be a number in [0, 1]");
  }
  return plan;
}

std::string FaultPlan::describe() const {
  if (!any()) return "off";
  std::string s = "seed=" + std::to_string(seed);
  if (device >= 0) s += ",device=" + std::to_string(device);
  static const char* kKeys[kFaultSiteCount] = {"lease", "sweep", "halo", "dispatch"};
  for (int i = 0; i < kFaultSiteCount; ++i) {
    const Site& site = sites[static_cast<std::size_t>(i)];
    if (site.rate <= 0.0) continue;
    s += ",";
    s += kKeys[i];
    s += "=";
    s += std::to_string(site.rate);
    s += site.transient ? "t" : "p";
  }
  return s;
}

FaultInjector& FaultInjector::global() {
  static FaultInjector* injector = [] {
    auto* fi = new FaultInjector();  // immortal, like the global pools
    const std::string& spec = config().fault_spec;
    if (!spec.empty()) fi->set_plan(FaultPlan::parse(spec));
    return fi;
  }();
  return *injector;
}

void FaultInjector::set_plan(const FaultPlan& plan) {
  enabled_.store(false, std::memory_order_release);
  plan_ = plan;
  for (auto& d : draws_) d.store(0, std::memory_order_relaxed);
  for (auto& i : injected_) i.store(0, std::memory_order_relaxed);
  enabled_.store(plan_.any(), std::memory_order_release);
}

bool FaultInjector::should_inject(FaultSite site, int device) {
  if (!enabled_.load(std::memory_order_relaxed)) return false;
  const FaultPlan::Site& s = plan_.site(site);
  if (s.rate <= 0.0) return false;
  if (plan_.device >= 0 && device != plan_.device) return false;
  const std::size_t idx = static_cast<std::size_t>(site);
  const std::uint64_t n = draws_[idx].fetch_add(1, std::memory_order_relaxed);
  // Decision n at site s: pure function of (seed, s, n) — the schedule is
  // pinned by the seed, independent of time and layout.
  const std::uint64_t h = mix(plan_.seed + 0x9E3779B97F4A7C15ull * (n + 1) +
                              0xD1B54A32D192ED03ull * (static_cast<std::uint64_t>(idx) + 1));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u >= s.rate) return false;
  injected_[idx].fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace ssam::core
