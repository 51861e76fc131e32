// Persistent iteration engine: cross-iteration tile residency for the
// iterative stencil drivers (the PERKS execution model of Zhang et al.,
// arXiv:2204.02064, emulated on the host pool — see gpusim/persistent.hpp
// for the scheduling substrate).
//
// The per-step relaunch model (core/iterate.hpp) re-reads and re-writes the
// full grids through global memory every time step. The persistent engine
// instead decomposes the domain into full-width bands (2D: row bands, 3D:
// z-plane bands), pins each band to one pool worker for the whole run, and
// keeps the band's working set *resident* in per-tile ping/pong buffers
// across steps. Between steps only the boundary rows/planes move, directly
// between neighbouring tiles through lock-free epoch-counted halo channels.
// The channels are zero-copy: a producer writes its boundary straight into
// the halo region of the consumer's residence buffer (every tile flips
// buffers once per sweep, so epoch e lives in buffer e % 2 everywhere), and
// the epoch counters are pure synchronization. The first sweep reads the
// source grid directly and the last sweep stores directly back to it, so a
// run touches the global arrays exactly once on each side with no staging
// copies at all.
//
// Each band sweep replays the unmodified SSAM kernel body (register cache +
// systolic shuffles) over the residence buffer through the owner's pooled
// BlockContext, shifted by a row/plane origin — so outputs are bit-identical
// to the relaunch path in functional mode, which the persistent-path tests
// pin with golden hashes. Temporal blocking composes: with t > 1 every
// exchange carries t*r halo units and each sweep advances t fused steps in
// registers, exactly like the kernel launches of the per-step path.
//
// One engine serves every band workload. A `BandProgram` names the unit
// axis, the halo depths, the global arrays, the sweep count, and a `make`
// callback that lowers a stage at a given place (which arrays, which
// origin). An iterative run of `steps` sweeps is a chain of `steps`
// identical stages, so 2D iteration, 3D iteration, and stencil chains
// (core/chain.hpp) are all just builders of that program. `run_program`
// runs it either as resident band tiles on one pool or a device group
// (persistent), or as one full-grid launch per sweep on one pool
// (relaunch); sharding places persistent tiles only and never changes
// results.
//
// An optional element-wise post hook runs over the band after each sweep
// (before the boundary is published), with an optional second field that
// each tile updates in place over its own band rows of the caller's grid —
// enough for two-field updates like the acoustic wave equation
// (examples/acoustic_wave_3d.cpp). Post hooks run on fused first and last
// sweeps like any other epilogue: the hook sees the band wherever the sweep
// read and wrote it.
#pragma once

#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/cancel.hpp"
#include "common/log.hpp"
#include "core/config.hpp"
#include "core/faultinject.hpp"
#include "core/iterate.hpp"
#include "core/shard.hpp"
#include "core/stencil3d.hpp"
#include "gpusim/device.hpp"
#include "gpusim/persistent.hpp"

namespace ssam::core {

// IterationPolicy (kAuto / kRelaunch / kPersistent) lives in the
// dependency-free core/config.hpp, so the job and tuner headers can name it
// without pulling in the engine.

struct PersistentOptions {
  IterationPolicy policy = IterationPolicy::kAuto;
  /// Single pool, or the persistent tiles sharded across virtual devices.
  /// Relaunch runs always execute on one pool.
  ShardPolicy shard;
  int tiles = 0;  ///< 0: auto (residence-sized bands, >= 2 per worker)
  int t = 1;      ///< fused time steps per sweep (temporal blocking)
  int p = 4;              ///< sliding-window outputs per thread
  int block_threads = 128;
  int warps3d = 8;        ///< planes per block for the 3D kernels
  /// Pin the whole (single-shard) run to this virtual device: sweeps fan
  /// out over the device's pool slice only and its counters record the
  /// traffic. This is how the SimServer packs independent jobs onto
  /// different devices; mutually exclusive with a sharded policy (a shard
  /// split already names its devices). Null: the global pool.
  sim::Device* device = nullptr;
  /// Cooperative cancellation, observed at every sweep boundary of both
  /// paths (persistent tiles and relaunch loops). A cancelled run unwinds
  /// by throwing CancelledError on the calling thread; an inert
  /// (default-constructed) token costs nothing.
  CancelToken cancel;
};

/// What a run actually did (the policy decision is runtime).
struct PersistentRunStats {
  int sweeps = 0;  ///< kernel sweeps executed; plain steps = sweeps * t
  int t = 1;
  int tiles = 1;
  int devices = 1;          ///< shards actually used (after domain clamping)
  bool sharded = false;     ///< true: ran across a virtual device group
  bool persistent = false;  ///< false: per-step relaunch path was used
};

namespace detail {

/// Sentinel for "no post hook".
struct NoPost {};

/// Shared abort state of one persistent run. An exception escaping a pool
/// worker's task would terminate the process, so resident tiles never
/// throw: they *record* a cancellation or injected fault here and park, the
/// cooperative scheduler polls `stop` and unwinds every participant, and
/// the engine rethrows on the calling thread once run_persistent_on
/// returns. The first recorded fault wins; an aborted run is torn at
/// tile/sweep boundaries only (some tiles may already have finished), so the
/// global arrays are in an unspecified-but-valid state — the server's retry
/// path restores inputs from a snapshot before re-running.
struct RunControl {
  CancelToken cancel;   ///< observed at every sweep boundary
  int device = -1;      ///< fault attribution (FaultPlan device filter)
  bool faults = false;  ///< injector armed at run start
  std::atomic<bool> stop{false};
  /// -1: no fault; else (site << 1) | transient — one atomic so the calling
  /// thread reads site and class consistently without extra ordering.
  std::atomic<int> fault_{-1};

  /// Tile-side gate, called only when the sweep would actually execute
  /// (after the readiness checks) so blocked-tile polling never inflates
  /// the fault draw stream. True: the run is aborting, park the tile.
  [[nodiscard]] bool sweep_gate(bool publishing) {
    if (stop.load(std::memory_order_acquire)) return true;
    if (cancel.cancelled()) {
      stop.store(true, std::memory_order_release);
      return true;
    }
    if (faults) {
      FaultInjector& fi = FaultInjector::global();
      if (fi.should_inject(FaultSite::kKernelSweep, device)) {
        record_fault(FaultSite::kKernelSweep);
        return true;
      }
      if (publishing && fi.should_inject(FaultSite::kHaloSend, device)) {
        record_fault(FaultSite::kHaloSend);
        return true;
      }
    }
    return false;
  }

  void record_fault(FaultSite site) {
    const bool transient = FaultInjector::global().plan().site(site).transient;
    int expected = -1;
    fault_.compare_exchange_strong(
        expected, (static_cast<int>(site) << 1) | (transient ? 1 : 0),
        std::memory_order_acq_rel);
    stop.store(true, std::memory_order_release);
  }

  /// Engine-side epilogue on the calling thread: rethrows what the run
  /// recorded (a fault beats a concurrent cancel — it is what actually
  /// stopped the work).
  void throw_if_aborted() const {
    const int f = fault_.load(std::memory_order_acquire);
    if (f >= 0) {
      const auto site = static_cast<FaultSite>(f >> 1);
      throw FaultError(site, (f & 1) != 0,
                       std::string("injected fault at ") + fault_site_name(site) +
                           " aborted the persistent run");
    }
    if (cancel.cancelled()) {
      throw CancelledError("persistent run cancelled", cancel.reason());
    }
  }
};

/// Relaunch-path gate, called on the driving thread between sweeps — that
/// thread owns the loop, so it may throw directly.
inline void relaunch_sweep_gate(const CancelToken& cancel, int device) {
  if (cancel.cancelled()) {
    throw CancelledError("iterative run cancelled", cancel.reason());
  }
  FaultInjector& fi = FaultInjector::global();
  if (fi.enabled()) fi.maybe_throw(FaultSite::kKernelSweep, device, "relaunch sweep");
}

/// One lowered sweep: launch geometry, the bound SSAM body, and an optional
/// fully bound element-wise epilogue over the band the sweep just produced
/// (a post hook or a chain stage's map). A tile runs the epilogue before it
/// publishes the boundary, so consumers always see post-epilogue state —
/// what the relaunch path's full-grid epilogue leaves in the global array.
struct BandSweep {
  sim::LaunchConfig cfg;
  std::function<void(sim::FunctionalBlockContext&)> body;
  std::function<void()> epilogue;
};

/// Where one sweep reads and writes, in units of the band axis (rows or
/// z-planes). `in` and `out` are whole arrays — a tile's residence buffer or
/// a global grid — of `in_units` and `out_units` units. The sweep computes
/// the `band` units that start at unit `origin` of `in` and stores them from
/// unit `origin + store_off` of `out`. `aux` is the aux field at the band's
/// first unit (null: no aux field).
template <typename T>
struct SweepPlace {
  const T* in = nullptr;
  Index in_units = 0;
  T* out = nullptr;
  Index out_units = 0;
  Index origin = 0;
  Index store_off = 0;
  Index band = 0;
  T* aux = nullptr;

  [[nodiscard]] const T* in_band(Index unit_elems) const { return in + origin * unit_elems; }
  [[nodiscard]] T* out_band(Index unit_elems) const {
    return out + (origin + store_off) * unit_elems;
  }
};

/// Everything the engine needs to run `sweeps` band sweeps over one domain
/// under either policy. Builders fill it in; the engine never sees a kernel
/// type. `make(stage, place)` lowers one stage at one place. The engine
/// calls it a bounded number of times per tile — at most 4 when every sweep
/// runs the same stage, once per stage otherwise — never once per sweep.
template <typename T>
struct BandProgram {
  /// Roles of a sweep in a tile: 0/1 read residence buffer 0/1 and write
  /// the other; kFirst reads `src`, kLast (always the last sweep) stores to
  /// `dst`, so a run has no staged drain.
  static constexpr int kFirst = 2;
  static constexpr int kLast = 3;

  const char* engine = "";  ///< name in the policy-decision log line
  Index units = 0;          ///< units on the band axis
  Index unit_elems = 0;     ///< elements per unit (row width or plane size)
  Index ht = 0;             ///< halo units above each band (deepest stage)
  Index hb = 0;             ///< halo units below
  Index align = 1;          ///< preferred band multiple
  Index min_band = 1;       ///< smallest band that can source a halo
  const T* src = nullptr;   ///< initial state (full array)
  T* dst = nullptr;         ///< final state target (full array; may alias src)
  T* aux = nullptr;         ///< optional aux field, updated in place (full array)
  /// Relaunch ping/pong arrays; null: carved from the workspace arena.
  std::array<T*, 2> relay{};
  int sweeps = 0;
  int stages = 1;  ///< 1: every sweep runs stage 0; else sweep s runs stage s
  int t = 1;       ///< fused steps per sweep (reported in the stats)
  std::function<BandSweep(int, const SweepPlace<T>&)> make;

  /// The first sweep reads `src` directly, skipping the staged load. When
  /// src aliases dst this needs >= 3 sweeps: channel backpressure then
  /// orders every tile's fused read of the array before any neighbour's
  /// fused final store to it.
  [[nodiscard]] bool fused_first() const { return sweeps >= (src == dst ? 3 : 2); }

  [[nodiscard]] int role(int s) const {
    if (s == 0 && fused_first()) return kFirst;
    if (s == sweeps - 1) return kLast;
    return s % 2;
  }
  [[nodiscard]] int stage(int s) const { return stages == 1 ? 0 : s; }
  /// Index of sweep s in a tile's sweep table.
  [[nodiscard]] int entry(int s) const { return stages == 1 ? role(s) : s; }
  [[nodiscard]] int table_size() const { return stages == 1 ? 4 : sweeps; }

  /// Calls f(s) for sweeps that between them cover every distinct
  /// (stage, role) of a tile and every distinct (stage, input, output) of a
  /// relaunch run: {0, 1, 2, last} when every sweep runs one stage.
  template <typename F>
  void for_each_distinct_sweep(F&& f) const {
    if (stages > 1) {
      for (int s = 0; s < sweeps; ++s) f(s);
      return;
    }
    for (int s : {0, 1, 2}) {
      if (s < sweeps) f(s);
    }
    if (sweeps > 3) f(sweeps - 1);
  }
};

/// One resident band tile: the dimension-agnostic state machine. A `unit`
/// is one contiguous row (2D) or plane (3D); the residence buffers hold
/// ht + band + hb units, the band starting at unit ht. Sweep s runs
/// `table[prog->entry(s)]`; the engine only wires tiles of runs with at
/// least one sweep.
template <typename T>
class ResidentBandTile final : public sim::PersistentTask {
 public:
  struct Wiring {
    const BandProgram<T>* prog = nullptr;
    const sim::ArchSpec* arch = nullptr;
    std::vector<BandSweep> table;
    Index band = 0;  ///< units owned by this tile
    Index u0 = 0;    ///< first band unit in the global arrays
    T* buf_a = nullptr;
    T* buf_b = nullptr;
    sim::HaloChannel* in_lo = nullptr;   ///< from the tile above: ht units
    sim::HaloChannel* in_hi = nullptr;   ///< from the tile below: hb units
    sim::HaloChannel* out_lo = nullptr;  ///< to the tile above: my top hb units
    sim::HaloChannel* out_hi = nullptr;  ///< to the tile below: my bottom ht units
    /// Sharded runs: the owning device's counters, and which outgoing
    /// channels cross a device seam (diagnostics only — seam channels
    /// behave exactly like intra-shard ones).
    sim::DeviceCounters* counters = nullptr;
    bool seam_lo = false;
    bool seam_hi = false;
    /// The run's shared abort state (cancellation + fault injection); the
    /// engine wires every tile of a run to the same object.
    RunControl* control = nullptr;
  };

  explicit ResidentBandTile(Wiring w) : w_(std::move(w)), p_(*w_.prog), ue_(p_.unit_elems) {}

  [[nodiscard]] bool done() const override { return state_ == State::kDone; }

  [[nodiscard]] bool try_advance() override {
    switch (state_) {
      case State::kLoad: {
        if (!p_.fused_first()) {
          // Staged load: copy the band into residence and publish the
          // initial boundary as epoch 0. (With a fused first sweep the
          // global array itself serves as epoch 0.)
          copy_units(w_.buf_a + p_.ht * ue_, p_.src + w_.u0 * ue_, w_.band);
          publish_boundaries(w_.buf_a, 0);
        }
        state_ = State::kStep;
        return true;
      }
      case State::kStep: {
        const bool reads_src = s_ == 0 && p_.fused_first();
        // All-or-nothing readiness: input epoch present (unless this sweep
        // reads the global array) and output halo slots free, otherwise
        // yield to another tile.
        if (!reads_src) {
          if (w_.in_lo != nullptr && !w_.in_lo->available(s_)) return false;
          if (w_.in_hi != nullptr && !w_.in_hi->available(s_)) return false;
        }
        const bool will_publish = s_ + 1 < p_.sweeps;  // the final boundary
                                                       // has no consumer
        if (will_publish) {
          if (w_.out_lo != nullptr && !w_.out_lo->can_publish(s_ + 1)) return false;
          if (w_.out_hi != nullptr && !w_.out_hi->can_publish(s_ + 1)) return false;
        }
        // Ready to execute: last chance to observe an abort or absorb an
        // injected fault. Parking here (not throwing — we are on a pool
        // worker) lets the scheduler unwind at a clean sweep boundary.
        if (w_.control != nullptr && w_.control->sweep_gate(will_publish)) return false;
        if (!reads_src) replicate_domain_edges();
        const BandSweep& sw = w_.table[static_cast<std::size_t>(p_.entry(s_))];
        sim::run_grid_on_caller(*w_.arch, sw.cfg, sw.body);
        if (w_.counters != nullptr) {
          w_.counters->sweeps.fetch_add(1, std::memory_order_relaxed);
        }
        // The consumed halos (epoch s_) free up for epoch s_ + 2.
        if (w_.in_lo != nullptr) w_.in_lo->release(s_);
        if (w_.in_hi != nullptr) w_.in_hi->release(s_);
        if (sw.epilogue) sw.epilogue();
        if (will_publish) publish_boundaries(next_buf(), s_ + 1);
        flip_ ^= 1;
        ++s_;
        if (s_ == p_.sweeps) state_ = State::kDone;
        return true;
      }
      case State::kDone:
        return false;
    }
    return false;  // unreachable
  }

 private:
  enum class State { kLoad, kStep, kDone };

  [[nodiscard]] T* cur_buf() const { return flip_ == 0 ? w_.buf_a : w_.buf_b; }
  [[nodiscard]] T* next_buf() const { return flip_ == 0 ? w_.buf_b : w_.buf_a; }

  void copy_units(T* dst, const T* src, Index units) const {
    std::memcpy(dst, src, static_cast<std::size_t>(units * ue_) * sizeof(T));
  }

  /// Domain-boundary halos (no neighbour tile) replicate the band edge unit
  /// of the current state — exactly what the full-grid kernels' clamped
  /// loads would read. Channel-side halos need nothing here: the producer
  /// already wrote epoch s_ into this buffer's halo region.
  void replicate_domain_edges() {
    T* buf = cur_buf();
    if (w_.in_lo == nullptr) {
      for (Index u = 0; u < p_.ht; ++u) copy_units(buf + u * ue_, buf + p_.ht * ue_, 1);
    }
    if (w_.in_hi == nullptr) {
      T* below = buf + (p_.ht + w_.band) * ue_;
      const T* edge = buf + (p_.ht + w_.band - 1) * ue_;
      for (Index u = 0; u < p_.hb; ++u) copy_units(below + u * ue_, edge, 1);
    }
  }

  void note_publish(std::size_t bytes, bool seam) const {
    if (w_.counters == nullptr) return;
    w_.counters->halo_bytes_out.fetch_add(bytes, std::memory_order_relaxed);
    if (seam) {
      w_.counters->seam_bytes_out.fetch_add(bytes, std::memory_order_relaxed);
      w_.counters->seam_epochs_out.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Publishes the boundary of `buf`'s band as epoch `e` — written directly
  /// into the consumer's buffer-(e%2) halo region (zero-copy channels).
  void publish_boundaries(const T* buf, std::int64_t e) {
    if (w_.out_lo != nullptr) {  // my top hb units feed the upper tile's lower halo
      const std::size_t bytes = static_cast<std::size_t>(p_.hb * ue_) * sizeof(T);
      std::memcpy(w_.out_lo->publish_slot(e), buf + p_.ht * ue_, bytes);
      w_.out_lo->publish(e);
      note_publish(bytes, w_.seam_lo);
    }
    if (w_.out_hi != nullptr) {  // my bottom ht units feed the lower tile's upper halo
      const std::size_t bytes = static_cast<std::size_t>(p_.ht * ue_) * sizeof(T);
      std::memcpy(w_.out_hi->publish_slot(e), buf + w_.band * ue_, bytes);
      w_.out_hi->publish(e);
      note_publish(bytes, w_.seam_hi);
    }
  }

  Wiring w_;
  const BandProgram<T>& p_;
  const Index ue_;
  State state_ = State::kLoad;
  int flip_ = 0;
  int s_ = 0;
};

[[nodiscard]] inline sim::PersistentWorkspace& default_workspace() {
  thread_local sim::PersistentWorkspace ws;
  return ws;
}

[[nodiscard]] inline bool choose_persistent(IterationPolicy policy, int sweeps) {
  switch (policy) {
    case IterationPolicy::kRelaunch:
      return false;
    case IterationPolicy::kPersistent:
      return true;
    case IterationPolicy::kAuto:
      return sweeps >= 2;  // one sweep cannot amortize tile setup
  }
  return false;
}

/// Deterministic one-line record of what the runtime policy knobs resolved
/// to (no addresses, no timings) — the auto-selection tests pin this shape.
inline void log_policy_decision(const char* engine, IterationPolicy policy,
                                const PersistentRunStats& r) {
  if (log_level() > LogLevel::kDebug) return;
  const char* requested = policy == IterationPolicy::kAuto        ? "auto"
                          : policy == IterationPolicy::kRelaunch  ? "relaunch"
                                                                  : "persistent";
  std::string m(engine);
  m += ": policy=";
  m += requested;
  m += " -> ";
  m += r.persistent ? "persistent" : "relaunch";
  m += r.sharded ? ", shard=sharded(" + std::to_string(r.devices) + ")"
                 : std::string(", shard=single");
  m += ", tiles=" + std::to_string(r.tiles);
  m += ", sweeps=" + std::to_string(r.sweeps);
  m += ", t=" + std::to_string(r.t);
  log_debug(m);
}

/// Persistent execution: partitions the band axis into resident tiles (on
/// one pool, or sharded across a device group), wires every tile's sweep
/// table and channels, runs the cooperative scheduler, and rethrows any
/// cancellation or injected fault on the calling thread.
template <typename T>
PersistentRunStats run_band_program(const sim::ArchSpec& arch, const BandProgram<T>& prog,
                                    const PersistentOptions& opt,
                                    sim::PersistentWorkspace& ws) {
  BandLayoutRequest req;
  req.units = prog.units;
  req.unit_elems = prog.unit_elems;
  req.elem_bytes = sizeof(T);
  req.ht = prog.ht;
  req.hb = prog.hb;
  req.align = prog.align;
  req.min_band = prog.min_band;
  req.want_tiles = opt.tiles;
  req.lane_workers = opt.device != nullptr ? opt.device->pool().size() : 0;
  const BandLayout L = build_band_layout(req, opt.shard, ws);
  const int tiles = L.tiles();
  PersistentRunStats r;
  r.sweeps = prog.sweeps;
  r.t = prog.t;
  r.tiles = tiles;
  r.devices = L.sharded() ? static_cast<int>(L.devices.size()) : 1;
  r.sharded = L.sharded();
  r.persistent = true;
  log_policy_decision(prog.engine, opt.policy, r);
  if (prog.sweeps == 0) return r;

  RunControl ctl;
  ctl.cancel = opt.cancel;
  ctl.device = opt.device != nullptr ? opt.device->index() : -1;
  ctl.faults = FaultInjector::global().enabled();

  std::vector<std::unique_ptr<ResidentBandTile<T>>> tile_objs;
  tile_objs.reserve(static_cast<std::size_t>(tiles));
  for (int i = 0; i < tiles; ++i) {
    const auto ti = static_cast<std::size_t>(i);
    const Index u0 = L.starts[ti];
    const Index band = L.starts[ti + 1] - u0;
    const Index buf_units = prog.ht + band + prog.hb;
    typename ResidentBandTile<T>::Wiring wr;
    wr.prog = &prog;
    wr.arch = &arch;
    wr.band = band;
    wr.u0 = u0;
    wr.buf_a = reinterpret_cast<T*>(L.buf_a[ti]);
    wr.buf_b = reinterpret_cast<T*>(L.buf_b[ti]);
    if (i > 0) {
      wr.in_lo = &L.chans[2 * ti - 2];
      wr.out_lo = &L.chans[2 * ti - 1];
      wr.seam_lo = L.seam_after(i - 1);
    }
    if (i + 1 < tiles) {
      wr.out_hi = &L.chans[2 * ti];
      wr.in_hi = &L.chans[2 * ti + 1];
      wr.seam_hi = L.seam_after(i);
    }
    wr.counters = L.counters_of(i);
    if (wr.counters == nullptr && opt.device != nullptr) {
      wr.counters = &opt.device->counters();
    }
    wr.control = &ctl;

    // Sweep s reads epoch s from buffer s % 2 and writes epoch s + 1 into
    // the other; a fused first sweep reads src instead, a fused last sweep
    // stores to dst.
    T* const bufs[2] = {wr.buf_a, wr.buf_b};
    auto place = [&](int s) {
      const int role = prog.role(s);
      const bool first = role == BandProgram<T>::kFirst;
      const bool last = role == BandProgram<T>::kLast;
      SweepPlace<T> pl;
      pl.in = first ? prog.src : bufs[s % 2];
      pl.in_units = first ? prog.units : buf_units;
      pl.out = last ? prog.dst : bufs[1 - s % 2];
      pl.out_units = last ? prog.units : buf_units;
      pl.origin = first ? u0 : prog.ht;
      pl.store_off = first ? prog.ht - u0 : (last ? u0 - prog.ht : 0);
      pl.band = band;
      pl.aux = prog.aux != nullptr ? prog.aux + u0 * prog.unit_elems : nullptr;
      return pl;
    };
    wr.table.resize(static_cast<std::size_t>(prog.table_size()));
    prog.for_each_distinct_sweep([&](int s) {
      BandSweep& e = wr.table[static_cast<std::size_t>(prog.entry(s))];
      if (!e.body) e = prog.make(prog.stage(s), place(s));
    });
    tile_objs.push_back(std::make_unique<ResidentBandTile<T>>(std::move(wr)));
  }

  std::vector<sim::PersistentTask*> tasks;
  tasks.reserve(tile_objs.size());
  for (auto& t : tile_objs) tasks.push_back(t.get());
  if (!L.sharded()) {
    ThreadPool& lane = opt.device != nullptr ? opt.device->pool() : ThreadPool::global();
    sim::run_persistent_on(lane, tasks, &ctl.stop);
  } else {
    std::vector<std::span<sim::PersistentTask* const>> groups;
    groups.reserve(L.tile_range.size());
    for (const auto& [tb, te] : L.tile_range) {
      groups.emplace_back(tasks.data() + tb, static_cast<std::size_t>(te - tb));
    }
    sim::run_persistent_group(L.devices, groups, &ctl.stop);
  }
  ctl.throw_if_aborted();
  return r;
}

/// Relaunch execution: one full-grid launch per sweep on one pool (the
/// device's slice when pinned, else the global pool), with the cancel/fault
/// gate before every sweep. The state after sweep s lives in the relay
/// arrays in turn; the last sweep stores to `dst` unless dst aliases src,
/// in which case the builder finds the final state in relay[(sweeps-1) % 2].
template <typename T>
void run_relaunch(const sim::ArchSpec& arch, const BandProgram<T>& prog,
                  const PersistentOptions& opt, sim::PersistentWorkspace& ws) {
  const int n = prog.sweeps;
  const Index units = prog.units;
  std::array<T*, 2> relay = prog.relay;
  if (relay[0] == nullptr && n >= 2) {
    const std::size_t bytes = static_cast<std::size_t>(units * prog.unit_elems) * sizeof(T);
    const std::size_t stride = (bytes + 63) / 64 * 64;
    std::byte* p = ws.arena(stride + bytes);
    relay = {reinterpret_cast<T*>(p), reinterpret_cast<T*>(p + stride)};
  }
  auto state = [&](int s) -> T* {  // the array holding the state after s sweeps
    if (s == n && prog.dst != prog.src) return prog.dst;
    return relay[static_cast<std::size_t>((s - 1) % 2)];
  };
  // Table slot of sweep s: its stage, or in a one-stage program its arrays
  // (src -> relay, the two relay directions, -> final array).
  auto slot = [&](int s) -> std::size_t {
    if (prog.stages > 1) return static_cast<std::size_t>(s);
    return s == 0 ? 0 : (s == n - 1 ? 3 : 1 + static_cast<std::size_t>((s - 1) % 2));
  };
  // Every distinct sweep is lowered before the first launch, so lowering
  // errors surface before any array is written.
  std::vector<BandSweep> table(static_cast<std::size_t>(prog.table_size()));
  prog.for_each_distinct_sweep([&](int s) {
    BandSweep& e = table[slot(s)];
    if (e.body) return;
    SweepPlace<T> pl;
    pl.in = s == 0 ? prog.src : state(s);
    pl.in_units = units;
    pl.out = state(s + 1);
    pl.out_units = units;
    pl.band = units;
    pl.aux = prog.aux;
    e = prog.make(prog.stage(s), pl);
  });

  ThreadPool& lane = opt.device != nullptr ? opt.device->pool() : ThreadPool::global();
  const int dev = opt.device != nullptr ? opt.device->index() : -1;
  for (int s = 0; s < n; ++s) {
    relaunch_sweep_gate(opt.cancel, dev);
    const BandSweep& sw = table[slot(s)];
    sim::detail::run_functional_grid_on(lane, arch, sw.cfg, sw.body);
    if (opt.device != nullptr) {
      opt.device->counters().sweeps.fetch_add(1, std::memory_order_relaxed);
    }
    if (sw.epilogue) sw.epilogue();
  }
}

/// THE band engine entry: runs `prog` as resident band tiles (`persistent`)
/// or as one full-grid launch per sweep, and reports what it did.
template <typename T>
PersistentRunStats run_program(const sim::ArchSpec& arch, const BandProgram<T>& prog,
                               const PersistentOptions& opt, bool persistent,
                               sim::PersistentWorkspace* ws) {
  static_assert(std::is_trivially_copyable_v<T>, "residence buffers hold raw elements");
  SSAM_REQUIRE(prog.sweeps >= 0, "negative sweep count");
  SSAM_REQUIRE(prog.stages == 1 || prog.stages == prog.sweeps,
               "a band program runs one stage per sweep or one stage throughout");
  SSAM_REQUIRE(opt.device == nullptr || opt.shard.mode == ShardMode::kSingle,
               "a device-pinned run cannot also be sharded");
  sim::PersistentWorkspace& wsp = ws != nullptr ? *ws : default_workspace();
  if (persistent) return run_band_program(arch, prog, opt, wsp);
  PersistentRunStats r;
  r.sweeps = prog.sweeps;
  r.t = prog.t;
  log_policy_decision(prog.engine, opt.policy, r);
  run_relaunch(arch, prog, opt, wsp);
  return r;
}

/// The program of `sweeps` in-place sweeps of one stage over `a` (final
/// state in `a`; relaunch ping-pongs through `b`).
template <typename T>
[[nodiscard]] BandProgram<T> iteration_program(const char* engine, T* a, T* b, T* aux,
                                               int sweeps, int t) {
  BandProgram<T> prog;
  prog.engine = engine;
  prog.src = a;
  prog.dst = a;
  prog.aux = aux;
  prog.relay = {b, a};
  prog.sweeps = sweeps;
  prog.t = t;
  return prog;
}

/// The 2D SSAM stencil sweep (`t` fused steps) at `pl`: the full-grid
/// kernel body with its row origin, store offset, and grid height moved to
/// the place's band. Store views end at the band, so a sweep never writes
/// the halo rows of a residence buffer (the next exchange fills them).
template <typename T>
[[nodiscard]] BandSweep stencil2d_sweep(const SystolicPlan<T>& plan, int t, int p,
                                        int block_threads, Index w, const SweepPlace<T>& pl) {
  const GridView2D<const T> in(pl.in, w, pl.in_units, w);
  const GridView2D<T> out(pl.out, w, pl.origin + pl.store_off + pl.band, w);
  Stencil2dSetup s = stencil2d_setup(in, plan, StencilOptions{p, block_threads, t});
  s.row_origin = pl.origin;
  s.store_row_offset = pl.store_off;
  s.cfg.grid.y = static_cast<int>(ceil_div(pl.band, static_cast<Index>(p)));
  return {s.cfg, make_stencil2d_body<T>(s, in, plan.passes.front(), out), {}};
}

}  // namespace detail

/// Runs `sweeps` stencil sweeps (each advancing `opt.t` fused time steps)
/// over `a`; the final state ends in `a`. `b` is scratch used only by the
/// relaunch fallback. The optional `post` hook
/// `post(GridView2D<T> next, GridView2D<const T> cur, GridView2D<T> aux)`
/// runs element-wise over each band right after its sweep (requires
/// opt.t == 1); `aux` is an optional second field, which the hook updates in
/// place over the band's rows. Outputs are bit-identical to the per-step
/// relaunch path.
template <typename T, typename PostFn = detail::NoPost>
PersistentRunStats iterate_stencil2d_persistent(const sim::ArchSpec& arch, Grid2D<T>& a,
                                                Grid2D<T>& b, const StencilShape<T>& shape,
                                                int sweeps,
                                                const PersistentOptions& opt = {},
                                                PostFn post = {}, Grid2D<T>* aux = nullptr,
                                                sim::PersistentWorkspace* ws = nullptr) {
  constexpr bool kHasPost = !std::is_same_v<PostFn, detail::NoPost>;
  SSAM_REQUIRE(a.width() == b.width() && a.height() == b.height(),
               "ping/pong grids must match");
  if constexpr (kHasPost) {
    SSAM_REQUIRE(opt.t == 1, "post hook requires t == 1 (halos carry post-processed state)");
  }
  if (aux != nullptr) {
    SSAM_REQUIRE(aux->width() == a.width() && aux->height() == a.height(),
                 "aux grid must match the state grid");
  }
  const SystolicPlan<T> plan = build_plan(shape.taps);
  const Index w = a.width();
  detail::BandProgram<T> prog =
      detail::iteration_program("iterate_stencil2d", a.data(), b.data(),
                                aux != nullptr ? aux->data() : nullptr, sweeps, opt.t);
  prog.units = a.height();
  prog.unit_elems = w;
  prog.ht = static_cast<Index>(-opt.t * plan.dy_min);
  prog.hb = static_cast<Index>(opt.t * plan.dy_max);
  prog.align = static_cast<Index>(opt.p);
  prog.min_band = std::max<Index>({prog.ht, prog.hb, 1});
  prog.make = [&](int, const detail::SweepPlace<T>& pl) {
    detail::BandSweep sw =
        detail::stencil2d_sweep(plan, opt.t, opt.p, opt.block_threads, w, pl);
    if constexpr (kHasPost) {
      sw.epilogue = [post, w, band = pl.band, next = pl.out_band(w), cur = pl.in_band(w),
                     ab = pl.aux] {
        post(GridView2D<T>(next, w, band, w), GridView2D<const T>(cur, w, band, w),
             ab != nullptr ? GridView2D<T>(ab, w, band, w) : GridView2D<T>{});
      };
    }
    return sw;
  };
  const PersistentRunStats r = detail::run_program(
      arch, prog, opt, detail::choose_persistent(opt.policy, sweeps), ws);
  if (!r.persistent && sweeps % 2 == 1) std::swap(a, b);
  return r;
}

/// 3D variant: full-xy z-plane bands. Same contract as the 2D engine; the
/// post hook signature is
/// `post(GridView3D<T> next, GridView3D<const T> cur, GridView3D<T> aux)`
/// over each tile's band planes.
template <typename T, typename PostFn = detail::NoPost>
PersistentRunStats iterate_stencil3d_persistent(const sim::ArchSpec& arch, Grid3D<T>& a,
                                                Grid3D<T>& b, const StencilShape<T>& shape,
                                                int sweeps,
                                                const PersistentOptions& opt = {},
                                                PostFn post = {}, Grid3D<T>* aux = nullptr,
                                                sim::PersistentWorkspace* ws = nullptr) {
  constexpr bool kHasPost = !std::is_same_v<PostFn, detail::NoPost>;
  SSAM_REQUIRE(a.nx() == b.nx() && a.ny() == b.ny() && a.nz() == b.nz(),
               "ping/pong grids must match");
  if constexpr (kHasPost) {
    SSAM_REQUIRE(opt.t == 1, "post hook requires t == 1 (halos carry post-processed state)");
  }
  if (aux != nullptr) {
    SSAM_REQUIRE(aux->nx() == a.nx() && aux->ny() == a.ny() && aux->nz() == a.nz(),
                 "aux grid must match the state grid");
  }
  const SystolicPlan<T> plan = build_plan(shape.taps);
  const Index nx = a.nx();
  const Index ny = a.ny();
  const Index hz = static_cast<Index>(opt.t * plan.rz());
  const int vp = opt.warps3d - 2 * opt.t * plan.rz();
  const bool persistent = detail::choose_persistent(opt.policy, sweeps);
  if (persistent) SSAM_REQUIRE(vp > 0, "z block too shallow for t fused steps");
  detail::BandProgram<T> prog =
      detail::iteration_program("iterate_stencil3d", a.data(), b.data(),
                                aux != nullptr ? aux->data() : nullptr, sweeps, opt.t);
  prog.units = a.nz();
  prog.unit_elems = nx * ny;
  prog.ht = hz;
  prog.hb = hz;
  prog.align = static_cast<Index>(std::max(vp, 1));
  prog.min_band = std::max<Index>(hz, 1);
  // The z-window stores only the band planes; a residence buffer's halo
  // planes are filled by the next exchange.
  prog.make = [&](int, const detail::SweepPlace<T>& pl) {
    const GridView3D<const T> in(pl.in, nx, ny, pl.in_units);
    const GridView3D<T> out(pl.out, nx, ny, pl.out_units);
    detail::Stencil3dSetup<T> s =
        detail::stencil3d_setup(in, plan, Stencil3DOptions{opt.p, opt.warps3d, opt.t});
    s.z_lo = pl.origin;
    s.z_hi = pl.origin + pl.band;
    s.z_store_offset = pl.store_off;
    s.cfg.grid.z = static_cast<int>(ceil_div(pl.band, static_cast<Index>(s.vp)));
    detail::BandSweep sw;
    sw.cfg = s.cfg;
    sw.body = detail::make_stencil3d_body<T>(std::move(s), in, out);
    if constexpr (kHasPost) {
      sw.epilogue = [post, nx, ny, band = pl.band, next = pl.out_band(nx * ny),
                     cur = pl.in_band(nx * ny), ab = pl.aux] {
        post(GridView3D<T>(next, nx, ny, band), GridView3D<const T>(cur, nx, ny, band),
             ab != nullptr ? GridView3D<T>(ab, nx, ny, band) : GridView3D<T>{});
      };
    }
    return sw;
  };
  const PersistentRunStats r = detail::run_program(arch, prog, opt, persistent, ws);
  if (!r.persistent && sweeps % 2 == 1) std::swap(a, b);
  return r;
}

}  // namespace ssam::core
