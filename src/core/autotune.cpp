#include "core/autotune.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gpusim/microbench.hpp"

namespace ssam::core {

namespace {

constexpr int kDefaultTopK = 4;

// Overhead constants, in model units (one unit ~= one simulated cycle of
// one lane). They only need to be the right order of magnitude: the model
// RANKS candidates, measurement decides among the survivors, and the
// always-measured default schedule bounds the damage of a bad rank.
constexpr double kLaunchUnits = 5.0e5;     ///< one relaunch fork/join
constexpr double kTileSetupUnits = 2.0e5;  ///< one resident tile's setup

const char* policy_name(IterationPolicy p) {
  switch (p) {
    case IterationPolicy::kAuto: return "auto";
    case IterationPolicy::kRelaunch: return "relaunch";
    case IterationPolicy::kPersistent: return "persistent";
  }
  return "?";
}

IterationPolicy policy_from_name(const std::string& s, bool& ok) {
  ok = true;
  if (s == "auto") return IterationPolicy::kAuto;
  if (s == "relaunch") return IterationPolicy::kRelaunch;
  if (s == "persistent") return IterationPolicy::kPersistent;
  ok = false;
  return IterationPolicy::kAuto;
}

/// FNV-1a over the tap offsets — the part of a shape that determines its
/// schedule-relevant footprint (coefficients don't move the schedule).
std::uint64_t taps_hash(const StencilShape<float>& shape) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::int64_t v) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ull;
  };
  for (const auto& t : shape.taps) {
    mix(t.dx);
    mix(t.dy);
    mix(t.dz);
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

/// Horizontal tap extent (the Eq. 4 shuffle axis), active tap count, and the
/// band-axis extent (rows in 2D, z-planes in 3D — what halos are made of).
struct TapFootprint {
  int taps = 1;
  int mx = 1;
  int rows = 1;
};

TapFootprint footprint_of(const StencilShape<float>& shape, bool three_d) {
  TapFootprint f;
  if (shape.taps.empty()) return f;
  int dx0 = 0, dx1 = 0, dy0 = 0, dy1 = 0, dz0 = 0, dz1 = 0;
  for (const auto& t : shape.taps) {
    dx0 = std::min(dx0, t.dx);
    dx1 = std::max(dx1, t.dx);
    dy0 = std::min(dy0, t.dy);
    dy1 = std::max(dy1, t.dy);
    dz0 = std::min(dz0, t.dz);
    dz1 = std::max(dz1, t.dz);
  }
  f.taps = static_cast<int>(shape.taps.size());
  f.mx = dx1 - dx0 + 1;
  f.rows = three_d ? (dz1 - dz0 + 1) : (dy1 - dy0 + 1);
  return f;
}

/// Mean per-element compute units of one accounting sweep of `job` (a chain
/// "sweep" passes an element through every stage; job.steps mirrors depth).
double per_elem_units(const SimJob& job, const perf::MicroLatencies& lat) {
  if (job.kind == JobKind::kConv2D) {
    const int m = std::max(1, job.filter_m);
    const int n = std::max(1, job.filter_n);
    return perf::latency_ssam_taps(m * n, m, lat);
  }
  if (job.kind == JobKind::kChain) {
    double total = 0.0;
    for (const auto& st : job.stages) {
      const TapFootprint f = footprint_of(st.shape, false);
      total += perf::latency_ssam_taps(f.taps, f.mx, lat) * std::max(1, st.t);
      if (st.dual()) {
        const TapFootprint fb = footprint_of(st.shape_b, false);
        total += perf::latency_ssam_taps(fb.taps, fb.mx, lat);
      }
    }
    return total / std::max(1, job.steps);
  }
  const TapFootprint f = footprint_of(job.shape, job.kind == JobKind::kStencil3D);
  return perf::latency_ssam_taps(f.taps, f.mx, lat);
}

/// Band-axis unit count and bytes per unit — what auto_tiles_for sizes
/// residence buffers against.
void band_geometry(const SimJob& job, Index& units, std::size_t& unit_bytes) {
  if (job.kind == JobKind::kStencil3D && job.a3 != nullptr) {
    units = job.a3->nz();
    unit_bytes = static_cast<std::size_t>(job.a3->nx()) *
                 static_cast<std::size_t>(job.a3->ny()) * sizeof(float);
    return;
  }
  if (job.a2 != nullptr) {
    units = job.a2->height();
    unit_bytes = static_cast<std::size_t>(job.a2->width()) * sizeof(float);
    return;
  }
  units = 1;
  unit_bytes = sizeof(float);
}

// ---------------------------------------------------------------------------
// Minimal JSON plumbing for the cache file. The writer below emits flat
// entry objects (no nested braces, strings escape only '"' and '\'), so the
// reader can scan brace-delimited objects and pull fields by key. Anything
// that doesn't parse is skipped — a corrupt cache must never fail a job.

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

bool json_string_field(const std::string& obj, const std::string& key,
                       std::string& out) {
  const std::string needle = "\"" + key + "\":";
  std::size_t p = obj.find(needle);
  if (p == std::string::npos) return false;
  p += needle.size();
  while (p < obj.size() && (obj[p] == ' ' || obj[p] == '\t')) ++p;
  if (p >= obj.size() || obj[p] != '"') return false;
  ++p;
  std::string v;
  while (p < obj.size() && obj[p] != '"') {
    if (obj[p] == '\\' && p + 1 < obj.size()) ++p;
    v.push_back(obj[p]);
    ++p;
  }
  if (p >= obj.size()) return false;
  out = std::move(v);
  return true;
}

bool json_number_field(const std::string& obj, const std::string& key,
                       double& out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t p = obj.find(needle);
  if (p == std::string::npos) return false;
  const char* start = obj.c_str() + p + needle.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return false;
  out = v;
  return true;
}

}  // namespace

const char* tune_origin_name(TuneOrigin o) {
  switch (o) {
    case TuneOrigin::kDefault: return "default";
    case TuneOrigin::kCacheHit: return "cache-hit";
    case TuneOrigin::kMeasured: return "measured";
    case TuneOrigin::kModelOnly: return "model-only";
  }
  return "?";
}

std::string Schedule::describe() const {
  std::string s = "policy=";
  s += policy_name(policy);
  s += " tiles=" + std::to_string(tiles);
  s += " shards=" + std::to_string(shards);
  s += " t=" + std::to_string(t);
  s += " p=" + std::to_string(p);
  s += " block=" + std::to_string(block_threads);
  s += " threads=" + std::to_string(threads);
  return s;
}

double CostModel::predict_units(const SimJob& job, const Schedule& s,
                                int pool_workers) const {
  const double cells = static_cast<double>(job.cells());
  const double sweeps = static_cast<double>(std::max(1, job.steps));
  const int workers = std::max(1, pool_workers);
  const double compute =
      cells * per_elem_units(job, lat) * std::max(1, s.t) * sweeps;

  // Coalesced global traffic: one warp-wide load amortizes t_gmem_read over
  // the lane count.
  const double gmem_per_elem = lat.t_gmem_read / sim::kWarpSize;
  Index band_units = 1;
  std::size_t unit_bytes = sizeof(float);
  band_geometry(job, band_units, unit_bytes);
  const double elems_per_unit =
      cells / std::max(1.0, static_cast<double>(band_units));

  const bool persistent =
      detail::choose_persistent(s.policy, std::max(1, job.steps));
  int tiles = s.tiles;
  if (persistent && tiles <= 0) {
    tiles = detail::auto_tiles_for(workers, band_units, unit_bytes);
  }
  tiles = std::max(1, std::min<int>(tiles, static_cast<int>(band_units)));

  const TapFootprint f = footprint_of(job.shape, job.kind == JobKind::kStencil3D);
  const double halo_units_per_tile = 2.0 * f.rows * std::max(1, s.t);

  double memory = 0.0;
  double overhead = 0.0;
  if (persistent) {
    // Tiles load once and store once; each sweep moves only halo boundaries
    // through the epoch-counted channels.
    memory = 2.0 * cells * gmem_per_elem;
    memory += sweeps * tiles * halo_units_per_tile * elems_per_unit * gmem_per_elem;
    overhead = kTileSetupUnits * tiles;
  } else {
    memory = 2.0 * cells * gmem_per_elem * sweeps;
    overhead = kLaunchUnits * sweeps;
  }
  if (s.shards > 1) {
    // Seam publishes are one boundary memcpy per neighbour per sweep, plus
    // a small synchronization tax per seam.
    memory += sweeps * (s.shards - 1) * halo_units_per_tile * elems_per_unit *
              gmem_per_elem;
    overhead += 0.5 * kTileSetupUnits * (s.shards - 1) +
                0.1 * kLaunchUnits * sweeps;
  }

  // Parallel speedup is capped by the work grain: persistent runs cannot use
  // more workers than tiles; relaunch grids have ample blocks.
  const int grain = persistent ? tiles : workers;
  const double eff = static_cast<double>(std::min(workers, std::max(1, grain)));
  return (compute + memory) / eff + overhead;
}

AutoTuner::AutoTuner(TunerOptions opt) : opt_(std::move(opt)) {
  path_ = resolve_cache_path(opt_);
}

AutoTuner& AutoTuner::global() {
  static AutoTuner tuner;
  return tuner;
}

bool AutoTuner::tunable(JobKind kind) {
  switch (kind) {
    case JobKind::kStencil2D:
    case JobKind::kStencil3D:
    case JobKind::kChain:
      return true;
    case JobKind::kConv2D:
      return false;  // one launch, no bit-safe schedule knobs
  }
  return false;
}

std::string AutoTuner::cache_key(const SimJob& job, bool pinned) {
  std::string key;
  switch (job.kind) {
    case JobKind::kStencil2D: key = "stencil2d"; break;
    case JobKind::kStencil3D: key = "stencil3d"; break;
    case JobKind::kConv2D: key = "conv2d"; break;
    case JobKind::kChain: key = "chain"; break;
  }
  key += "|g=";
  if (job.kind == JobKind::kStencil3D && job.a3 != nullptr) {
    key += std::to_string(job.a3->nx()) + "x" + std::to_string(job.a3->ny()) +
           "x" + std::to_string(job.a3->nz());
  } else if (job.a2 != nullptr) {
    key += std::to_string(job.a2->width()) + "x" + std::to_string(job.a2->height());
  }
  key += "|steps=" + std::to_string(job.steps);
  if (job.kind == JobKind::kChain) {
    std::uint64_t h = 1469598103934665603ull;
    for (const auto& st : job.stages) {
      h = h * 1099511628211ull + taps_hash(st.shape) +
          (st.dual() ? taps_hash(st.shape_b) : 0);
    }
    key += "|stages=" + std::to_string(job.stages.size()) + "|taps=" + hex64(h);
  } else {
    key += "|taps=" + std::to_string(job.shape.taps.size()) + "." +
           hex64(taps_hash(job.shape));
  }
  key += "|t=" + std::to_string(job.hints.t);
  key += "|p=" + std::to_string(job.hints.p);
  key += "|bt=" + std::to_string(job.hints.block_threads);
  key += pinned ? "|scope=pinned" : "|scope=global";
  return key;
}

std::string AutoTuner::host_fingerprint() {
  const SimConfig& c = config();
  std::string s = "threads=" + std::to_string(c.threads);
  s += " devices=" + std::to_string(c.devices);
  s += c.device_pin ? " pin=on" : " pin=off";
  s += " simd=";
  s += c.simd_backend;
  s += " hw=" + std::to_string(std::thread::hardware_concurrency());
  return s;
}

std::string AutoTuner::resolve_cache_path(const TunerOptions& opt) {
  std::string p = opt.cache_path;
  if (p.empty()) p = config().tune_cache;
  if (p == "off") return "";
  if (!p.empty()) return p;
  // Default per-host location: $XDG_CACHE_HOME/ssam/, else ~/.cache/ssam/.
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg != nullptr && *xdg != '\0') {
    return std::string(xdg) + "/ssam/tune_cache.json";
  }
  if (const char* home = std::getenv("HOME"); home != nullptr && *home != '\0') {
    return std::string(home) + "/.cache/ssam/tune_cache.json";
  }
  return ".ssam_tune_cache.json";
}

void AutoTuner::ensure_loaded_locked() {
  if (loaded_) return;
  loaded_ = true;
  if (path_.empty()) return;
  std::ifstream in(path_);
  if (!in.good()) return;  // cold cache: the first tune creates the file
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::size_t pos = text.find('[');
  if (pos == std::string::npos) {
    log_debug("autotune: cache file " + path_ + " is malformed, starting empty");
    return;
  }
  int parsed = 0;
  while (true) {
    const std::size_t open = text.find('{', pos);
    if (open == std::string::npos) break;
    const std::size_t close = text.find('}', open);
    if (close == std::string::npos) break;
    pos = close + 1;
    const std::string obj = text.substr(open, close - open + 1);
    std::string key, fp, pol;
    if (!json_string_field(obj, "key", key) ||
        !json_string_field(obj, "fingerprint", fp) ||
        !json_string_field(obj, "policy", pol)) {
      continue;  // not an entry object (or corrupt) — skip
    }
    bool ok = false;
    Entry e;
    e.schedule.policy = policy_from_name(pol, ok);
    if (!ok) continue;
    double tiles = 0, shards = 0, t = 1, p = 4, bt = 128, threads = 0;
    double predicted = 0, measured = 0;
    json_number_field(obj, "tiles", tiles);
    json_number_field(obj, "shards", shards);
    json_number_field(obj, "t", t);
    json_number_field(obj, "p", p);
    json_number_field(obj, "block_threads", bt);
    json_number_field(obj, "threads", threads);
    json_number_field(obj, "predicted_ms", predicted);
    json_number_field(obj, "measured_ms", measured);
    e.fingerprint = fp;
    e.schedule.tiles = static_cast<int>(tiles);
    e.schedule.shards = static_cast<int>(shards);
    e.schedule.t = static_cast<int>(t);
    e.schedule.p = static_cast<int>(p);
    e.schedule.block_threads = static_cast<int>(bt);
    e.schedule.threads = static_cast<int>(threads);
    e.predicted_ms = predicted;
    e.measured_ms = measured;
    cache_[key] = std::move(e);
    ++parsed;
  }
  log_debug("autotune: loaded " + std::to_string(parsed) + " cache entries from " +
            path_);
}

void AutoTuner::save_locked() const {
  if (path_.empty()) return;
  std::error_code ec;
  const std::filesystem::path file(path_);
  if (file.has_parent_path()) {
    std::filesystem::create_directories(file.parent_path(), ec);  // best effort
  }
  // A temp name unique to this write (pid + process-wide counter): tuners
  // sharing one path, in this process or another, never rename each
  // other's half-written file into place.
  static std::atomic<std::uint64_t> writes{0};
  const std::string tmp = path_ + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(writes.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.good()) {
      log_debug("autotune: cannot write cache file " + tmp);
      return;
    }
    out << "{\n  \"version\": 1,\n  \"entries\": [";
    bool first = true;
    for (const auto& [key, e] : cache_) {
      out << (first ? "\n" : ",\n");
      first = false;
      out << "    {\"key\": \"" << json_escape(key) << "\", \"fingerprint\": \""
          << json_escape(e.fingerprint) << "\", \"policy\": \""
          << policy_name(e.schedule.policy) << "\", \"tiles\": " << e.schedule.tiles
          << ", \"shards\": " << e.schedule.shards << ", \"t\": " << e.schedule.t
          << ", \"p\": " << e.schedule.p
          << ", \"block_threads\": " << e.schedule.block_threads
          << ", \"threads\": " << e.schedule.threads
          << ", \"predicted_ms\": " << e.predicted_ms
          << ", \"measured_ms\": " << e.measured_ms << "}";
    }
    out << "\n  ]\n}\n";
    out.close();
    if (!out) {  // short write (disk full, I/O error): keep the old cache
      log_debug("autotune: writing cache file " + tmp + " failed");
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::filesystem::rename(tmp, path_, ec);
  if (ec) {
    log_debug("autotune: cache rename failed: " + ec.message());
    std::filesystem::remove(tmp, ec);
  }
}

void AutoTuner::calibrate_locked(const sim::ArchSpec& arch) {
  if (model_.calibrated) return;
  // Seed from the architecture table, then replace every constant with the
  // dependent-chain measurement (the Table-2 loop bench_table2_microbench
  // closes against the paper) so the model reflects what the simulator
  // actually schedules, not what the table promises.
  model_.lat = perf::from_arch(arch);
  const sim::MicrobenchResult mb = sim::run_microbench(arch, 128);
  if (mb.mad_cycles > 0) model_.lat.t_mad = mb.mad_cycles;
  if (mb.shfl_up_cycles > 0) model_.lat.t_shfl = mb.shfl_up_cycles;
  if (mb.smem_read_cycles > 0) model_.lat.t_smem_read = mb.smem_read_cycles;
  if (mb.gmem_read_cycles > 0) model_.lat.t_gmem_read = mb.gmem_read_cycles;

  // One short wall-clock probe converts model units to host milliseconds.
  Grid2D<float> a(256, 256);
  Grid2D<float> b(256, 256);
  fill_random(a, opt_.seed);
  const StencilShape<float> star = star2d<float>(1);
  PersistentOptions popt;
  popt.policy = IterationPolicy::kRelaunch;
  const auto t0 = std::chrono::steady_clock::now();
  iterate_stencil2d_persistent<float>(arch, a, b, star, 4, popt);
  const auto t1 = std::chrono::steady_clock::now();
  const double probe_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const SimJob probe = SimJob::stencil2d(a, b, star, 4);
  Schedule s;
  s.policy = IterationPolicy::kRelaunch;
  const double units = model_.predict_units(probe, s, ThreadPool::global().size());
  model_.ms_per_unit = units > 0 ? std::max(1e-12, probe_ms / units) : 1e-9;
  model_.calibrated = true;
  log_debug("autotune: calibrated ms_per_unit=" + std::to_string(model_.ms_per_unit));
}

const CostModel& AutoTuner::model(const sim::ArchSpec& arch) {
  std::lock_guard<std::mutex> lock(m_);
  calibrate_locked(arch);
  return model_;
}

std::vector<Candidate> AutoTuner::ranked_locked(const SimJob& job, int workers,
                                                bool allow_shards) {
  Schedule base;
  base.t = job.hints.t;
  base.p = job.hints.p;
  base.block_threads = job.hints.block_threads;
  base.threads = workers;

  std::vector<int> tile_counts{0, workers, 2 * workers, 4 * workers, 8 * workers};
  std::sort(tile_counts.begin(), tile_counts.end());
  tile_counts.erase(std::unique(tile_counts.begin(), tile_counts.end()),
                    tile_counts.end());
  std::vector<int> shard_counts{0};
  if (allow_shards && config().devices > 1) shard_counts.push_back(config().devices);

  // Relaunch runs on one pool whatever the shard count, so it is one
  // candidate, not one per shard count.
  std::vector<Candidate> out;
  Schedule relaunch = base;
  relaunch.policy = IterationPolicy::kRelaunch;
  out.push_back({relaunch, model_.predict_ms(job, relaunch, workers)});
  for (int shards : shard_counts) {
    for (int tiles : tile_counts) {
      Schedule sp = base;
      sp.policy = IterationPolicy::kPersistent;
      sp.tiles = tiles;
      sp.shards = shards;
      out.push_back({sp, model_.predict_ms(job, sp, workers)});
    }
  }
  // Deterministic rank: predicted cost with the generation order as the
  // tie-break — no RNG anywhere, so the same job on the same host always
  // produces the same list (the seeded determinism test pins this).
  std::stable_sort(out.begin(), out.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.predicted_ms < b.predicted_ms;
                   });
  return out;
}

std::vector<Candidate> AutoTuner::candidates(const sim::ArchSpec& arch,
                                             const SimJob& job,
                                             bool allow_shards) {
  std::lock_guard<std::mutex> lock(m_);
  calibrate_locked(arch);
  return ranked_locked(job, std::max(1, ThreadPool::global().size()), allow_shards);
}

double AutoTuner::measure_locked(const sim::ArchSpec& arch, const SimJob& job,
                                 const Schedule& s, sim::Device* device) {
  // Proxy measurement: same shape, same geometry, throwaway storage — the
  // job's own grids are never touched, so tuning cannot perturb results.
  const int sweeps = std::clamp(job.steps, 1, std::max(1, opt_.proxy_sweeps));
  PersistentOptions popt;
  popt.policy = s.policy;
  popt.tiles = s.tiles;
  popt.t = s.t;
  popt.p = s.p;
  popt.block_threads = s.block_threads;
  popt.warps3d = job.hints.warps3d;
  popt.device = device;
  if (device == nullptr && s.shards > 1) popt.shard = ShardPolicy::sharded(s.shards);

  double best = std::numeric_limits<double>::infinity();
  const int reps = std::max(1, opt_.reps);
  try {
    if (job.kind == JobKind::kStencil2D || job.kind == JobKind::kChain) {
      Grid2D<float> a(job.a2->width(), job.a2->height());
      Grid2D<float> b(job.a2->width(), job.a2->height());
      fill_random(a, opt_.seed);
      for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        if (job.kind == JobKind::kChain) {
          run_chain2d<float>(arch, a, b, job.stages, popt);
        } else {
          iterate_stencil2d_persistent<float>(arch, a, b, job.shape, sweeps, popt);
        }
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double, std::milli>(t1 - t0).count());
        ++stats_.measurements;
      }
    } else if (job.kind == JobKind::kStencil3D) {
      Grid3D<float> a(job.a3->nx(), job.a3->ny(), job.a3->nz());
      Grid3D<float> b(job.a3->nx(), job.a3->ny(), job.a3->nz());
      fill_random(a, opt_.seed);
      for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        iterate_stencil3d_persistent<float>(arch, a, b, job.shape, sweeps, popt);
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double, std::milli>(t1 - t0).count());
        ++stats_.measurements;
      }
    }
  } catch (const std::exception& e) {
    // A candidate that cannot run (resource limits, injected faults during a
    // chaos run) simply loses the race; it must never fail the job.
    log_debug(std::string("autotune: candidate failed to measure: ") + e.what());
    return std::numeric_limits<double>::infinity();
  }
  return best;
}

TuneResult AutoTuner::resolve(const sim::ArchSpec& arch, const SimJob& job,
                              sim::Device* device) {
  TuneResult res;
  res.schedule.policy = job.hints.policy;
  res.schedule.tiles = job.hints.tiles;
  res.schedule.t = job.hints.t;
  res.schedule.p = job.hints.p;
  res.schedule.block_threads = job.hints.block_threads;
  if (!tunable(job.kind)) {
    res.origin = TuneOrigin::kDefault;
    return res;
  }
  const bool pinned = device != nullptr;
  const std::string key = cache_key(job, pinned);
  const std::string fp = opt_.fingerprint_override.empty()
                             ? host_fingerprint()
                             : opt_.fingerprint_override;

  std::lock_guard<std::mutex> lock(m_);
  ensure_loaded_locked();
  ++stats_.lookups;
  if (const auto it = cache_.find(key);
      it != cache_.end() && it->second.fingerprint == fp) {
    ++stats_.hits;
    res.schedule = it->second.schedule;
    res.origin = TuneOrigin::kCacheHit;
    res.predicted_ms = it->second.predicted_ms;
    res.measured_ms = it->second.measured_ms;
    return res;
  }
  ++stats_.tunes;
  calibrate_locked(arch);

  // Guided search: model-ranked pruning first (cheap, deterministic), then
  // best-of-k measurement of the survivors. The default schedule is always
  // in the measured set, so a model mistake can cost at most timer noise
  // against the untuned path — never a regression the model talked us into.
  const int workers = pinned ? std::max(1, device->pool().size())
                             : std::max(1, ThreadPool::global().size());
  const std::vector<Candidate> ranked = ranked_locked(job, workers, !pinned);

  int top_k = opt_.top_k;
  if (top_k < 0) top_k = config().tune_topk > 0 ? config().tune_topk : kDefaultTopK;

  Schedule defaults = res.schedule;  // what run_job does without the tuner
  defaults.shards = 0;
  defaults.threads = workers;

  Schedule best_sched = ranked.empty() ? defaults : ranked.front().schedule;
  double best_pred = ranked.empty() ? 0.0 : ranked.front().predicted_ms;
  double best_ms = 0.0;
  if (top_k <= 0) {
    res.origin = TuneOrigin::kModelOnly;
  } else {
    std::vector<Candidate> to_measure(
        ranked.begin(),
        ranked.begin() + std::min<std::size_t>(ranked.size(),
                                               static_cast<std::size_t>(top_k)));
    const bool default_included =
        std::any_of(to_measure.begin(), to_measure.end(),
                    [&](const Candidate& c) { return c.schedule == defaults; });
    if (!default_included) {
      to_measure.push_back({defaults, model_.predict_ms(job, defaults, workers)});
    }
    double best_measured = std::numeric_limits<double>::infinity();
    for (const auto& c : to_measure) {
      const double ms = measure_locked(arch, job, c.schedule, device);
      if (ms < best_measured) {
        best_measured = ms;
        best_sched = c.schedule;
        best_pred = c.predicted_ms;
      }
    }
    if (std::isfinite(best_measured)) best_ms = best_measured;
    res.origin = TuneOrigin::kMeasured;
  }

  res.schedule = best_sched;
  res.predicted_ms = best_pred;
  res.measured_ms = best_ms;
  Entry e;
  e.fingerprint = fp;
  e.schedule = best_sched;
  e.predicted_ms = best_pred;
  e.measured_ms = best_ms;
  cache_[key] = std::move(e);
  save_locked();
  log_debug("autotune: " + key + " -> " + best_sched.describe() + " (" +
            tune_origin_name(res.origin) + ")");
  return res;
}

TuneStats AutoTuner::stats() const {
  std::lock_guard<std::mutex> lock(m_);
  return stats_;
}

void AutoTuner::reload() {
  std::lock_guard<std::mutex> lock(m_);
  cache_.clear();
  loaded_ = false;
}

void autotune_apply(const sim::ArchSpec& arch, const SimJob& job,
                    sim::Device* device, PersistentOptions& popt) {
  if (!AutoTuner::tunable(job.kind)) return;
  const TuneResult r = AutoTuner::global().resolve(arch, job, device);
  popt.policy = r.schedule.policy;
  popt.tiles = r.schedule.tiles;
  if (device == nullptr && r.schedule.shards > 1) {
    popt.shard = ShardPolicy::sharded(r.schedule.shards);
  }
}

}  // namespace ssam::core
