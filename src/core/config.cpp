#include "core/config.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/error.hpp"
#include "gpusim/simd/simd.hpp"

namespace ssam::core {

namespace {

/// The environment knob as a strictly parsed positive integer, or `fallback`
/// when the variable is unset or empty. Malformed values (`SSAM_THREADS=four`,
/// `SSAM_DEVICES=2x`, zero, negatives) throw PreconditionError — the same
/// contract the SSAM_FAULT_SPEC grammar follows — instead of the old
/// std::atoi behaviour of silently collapsing garbage to the fallback.
int env_positive_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  int parsed = 0;
  const char* end = v + std::strlen(v);
  const auto [ptr, ec] = std::from_chars(v, end, parsed);
  SSAM_REQUIRE(ec == std::errc() && ptr == end,
               std::string(name) + "=\"" + v +
                   "\" is not an integer (expected a positive decimal count)");
  SSAM_REQUIRE(parsed > 0, std::string(name) + "=\"" + v +
                               "\" must be a positive integer");
  return parsed;
}

/// The environment knob as a strict on/off flag: `1` is on, `0` is off, and
/// unset or empty means off. Anything else (`yes`, `true`, `2`, `1x`)
/// throws PreconditionError naming the variable, like the integer knobs.
bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return false;
  const std::string s(v);
  SSAM_REQUIRE(s == "0" || s == "1",
               std::string(name) + "=\"" + s + "\" is not a flag (expected 0 or 1)");
  return s == "1";
}

}  // namespace

SimConfig config_from_env() {
  SimConfig c;
  const unsigned hw = std::thread::hardware_concurrency();
  c.threads = env_positive_int("SSAM_THREADS", hw == 0 ? 1 : static_cast<int>(hw));
  c.devices = env_positive_int("SSAM_DEVICES", 2);
  c.device_pin = env_flag("SSAM_DEVICE_PIN");
  c.simd_backend = sim::simd::kBackendName;
  if (const char* v = std::getenv("SSAM_FAULT_SPEC")) c.fault_spec = v;
  return c;
}

const SimConfig& config() {
  static const SimConfig c = config_from_env();
  return c;
}

std::string SimConfig::describe() const {
  std::string s = "threads=" + std::to_string(threads);
  s += " devices=" + std::to_string(devices);
  s += device_pin ? " pin=on" : " pin=off";
  s += " simd=";
  s += simd_backend;
  s += " faults=";
  s += fault_spec.empty() ? "off" : fault_spec;
  return s;
}

}  // namespace ssam::core
