// Stencil-chain compilation into the persistent engine: inter-*stage*
// systolic flow, the paper's execution model applied along the pipeline
// axis (ROADMAP item 1; the Halide stencil_chain workload shape).
//
// A chain is an ordered list of stage kernels S0..S(k-1): out = Sk-1(...
// S1(S0(in))). The staged reference runs one full-grid launch per stage and
// round-trips every intermediate through a global-sized relay array carved
// from the run's workspace arena — exactly the traffic the systolic model
// exists to eliminate. `run_chain2d` instead
// builds one band program (core/iterate_persistent.hpp) whose sweep s runs
// stage s, so the engine compiles the chain into one persistent run: the
// domain is decomposed into resident band tiles (core/shard.hpp) and stage
// N's tile output feeds stage N+1 in-resident. An iterative run is the
// special case of k identical stages; both go through the same engine.
// Inter-stage boundary flow rides the same zero-copy epoch-counted halo
// channels the engine uses for spatial halos — epoch s of a channel carries
// the stage-(s-1) output boundary, and the band layout's halo region is
// sized to the deepest stage (each side's depth is the max over the
// stages' t * dy reach, since the exchange refreshes halos between every
// pair of consecutive stages). A depth-k chain therefore needs ONE
// launch, not k, and the only global-array traffic is reading `in` once
// (fused first sweep) and writing `out` once (fused last sweep). Chains
// never alias input and output, so both boundary sweeps fuse at any depth
// — the band program needs >= 3 sweeps for a fused first sweep only when
// its source and destination are the same array, as in iteration.
//
// Stage vocabulary (all lowered onto the unmodified SSAM kernel bodies):
//  * linear stencil — one tap set, optionally temporally blocked (t fused
//    applications of the same shape in registers count as one stage);
//  * dual stencil — two tap sets over the SAME input joined element-wise
//    (sobel_x/sobel_y -> magnitude). Both tap sets are padded with
//    zero-coefficient corner taps to their union extents so the two
//    partial sums ride one shuffle schedule over one register cache load;
//  * an optional element-wise `map` epilogue per stage (threshold, abs).
//
// `ChainGraph` is the DAG front end: it reuses the dependency-extraction
// idea of core/dgraph.hpp one level up — nodes are whole kernels instead
// of taps — and lowers linearizable DAGs (paths, map fusion, the
// two-branch combine diamond) onto the stage vector.
//
// Invariant (tests/test_chain.cpp, randomized differential suite): the
// fused run is bit-identical to the staged per-stage reference at every
// depth, pool size, tile count, and shard policy.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/iterate_persistent.hpp"

namespace ssam::core {

/// One stage of a chain. Build with the factories; `map` composes with
/// either kind. A dual stage joins two stencils of the same input and is
/// incompatible with temporal blocking (t must be 1).
template <typename T>
struct ChainStage {
  StencilShape<T> shape;    ///< primary tap set
  StencilShape<T> shape_b;  ///< dual: second tap set (empty taps = linear)
  std::function<T(T, T)> combine;  ///< dual: element-wise join of the two sums
  std::function<T(T)> map;  ///< optional element-wise epilogue
  int t = 1;                ///< fused applications per stage (linear only)

  [[nodiscard]] bool dual() const { return !shape_b.taps.empty(); }

  [[nodiscard]] static ChainStage stencil(StencilShape<T> shape, int t = 1) {
    ChainStage s;
    s.shape = std::move(shape);
    s.t = t;
    return s;
  }

  [[nodiscard]] static ChainStage dual_stencil(StencilShape<T> a, StencilShape<T> b,
                                               std::function<T(T, T)> join) {
    ChainStage s;
    s.shape = std::move(a);
    s.shape_b = std::move(b);
    s.combine = std::move(join);
    return s;
  }

  /// Returns a copy with `fn` appended to the stage's epilogue.
  [[nodiscard]] ChainStage with_map(std::function<T(T)> fn) const {
    ChainStage s = *this;
    if (s.map) {
      s.map = [f = std::move(s.map), g = std::move(fn)](T v) { return g(f(v)); };
    } else {
      s.map = std::move(fn);
    }
    return s;
  }
};

namespace detail {

/// Pads both tap sets of a dual stage with zero-coefficient corner taps at
/// their union extents, so build_plan gives the two passes identical
/// dx/dy ranges (same anchor, span, and register-cache footprint). A
/// zero-coefficient MAD is the identity on finite data, so padding never
/// changes results — it only aligns the shuffle schedules.
template <typename T>
[[nodiscard]] std::pair<SystolicPlan<T>, SystolicPlan<T>> dual_plans(
    const ChainStage<T>& st) {
  std::vector<ref::Tap<T>> a = st.shape.taps;
  std::vector<ref::Tap<T>> b = st.shape_b.taps;
  int dx0 = 0, dx1 = 0, dy0 = 0, dy1 = 0;
  for (const auto* taps : {&a, &b}) {
    for (const auto& t : *taps) {
      dx0 = std::min(dx0, t.dx);
      dx1 = std::max(dx1, t.dx);
      dy0 = std::min(dy0, t.dy);
      dy1 = std::max(dy1, t.dy);
    }
  }
  for (auto* taps : {&a, &b}) {
    taps->push_back({dx0, dy0, 0, T{}});
    taps->push_back({dx1, dy1, 0, T{}});
  }
  return {build_plan(a), build_plan(b)};
}

/// A stage's plans, built once per run: the padded pair of a dual stage,
/// else the stage's plan in `first` (and an empty `second`).
template <typename T>
[[nodiscard]] std::pair<SystolicPlan<T>, SystolicPlan<T>> chain_stage_plans(
    const ChainStage<T>& st) {
  if (st.dual()) return dual_plans(st);
  return {build_plan(st.shape.taps), {}};
}

template <typename T>
void validate_chain_stage(const ChainStage<T>& st) {
  SSAM_REQUIRE(!st.shape.taps.empty(), "chain stage needs a stencil shape");
  SSAM_REQUIRE(st.t >= 1, "chain stage needs t >= 1");
  if (st.dual()) {
    SSAM_REQUIRE(st.t == 1, "a dual chain stage cannot be temporally blocked");
    SSAM_REQUIRE(static_cast<bool>(st.combine), "a dual chain stage needs a combine");
  }
}

/// Dual-stencil body: one register cache load, two partial sums over the
/// same column/shuffle schedule (the padded plans guarantee equal extents),
/// joined element-wise per lane. Mirrors make_stencil2d_body at t = 1. It
/// runs in functional mode only, where sweeping the two sums one after the
/// other gives the same values as interleaving them.
template <typename T>
[[nodiscard]] auto make_stencil2d_dual_body(const Stencil2dSetup& s,
                                            GridView2D<const T> in, ColumnPass<T> pa,
                                            ColumnPass<T> pb, std::function<T(T, T)> join,
                                            GridView2D<T> out) {
  const Blocking2D geom = s.geom;
  const int dy_min = s.dy_min;
  const int anchor = s.anchor;
  const Index width = s.width;
  const Index oy_origin = s.row_origin;
  const Index store_off = s.store_row_offset;
  return [=, pa = std::move(pa), pb = std::move(pb),
          join = std::move(join)](auto& blk) {
    for (int w = 0; w < blk.warp_count(); ++w) {
      auto& wc = blk.warp(w);
      const long long warp_linear =
          static_cast<long long>(blk.id().x) * geom.warps_per_block() + w;
      const Index col0 = geom.lane0_col(warp_linear);
      if (col0 - geom.dx_min >= width) continue;
      const Index row0 = oy_origin + static_cast<Index>(blk.id().y) * geom.p + dy_min;

      auto rc = make_register_cache<T>(wc, geom.c());
      rc.load_rows(in, col0, row0);

      InlineVec<Reg<T>, kMaxOutputsPerThread> result(geom.p);
      for (int i = 0; i < geom.p; ++i) {
        const Reg<T> sa = column_sweep(wc, pa, rc.data(), i - dy_min);
        const Reg<T> sb = column_sweep(wc, pb, rc.data(), i - dy_min);
        // The join is element-wise host code (functional mode never reads
        // Reg::ready); invalid halo lanes are joined too but never stored.
        Reg<T> r = sa;
        for (int l = 0; l < sim::kWarpSize; ++l) r.v[l] = join(sa.v[l], sb.v[l]);
        result[i] = r;
      }

      store_valid_rows(wc, out, col0 - anchor,
                       oy_origin + store_off + static_cast<Index>(blk.id().y) * geom.p,
                       geom.p, geom.span,
                       [&](int i) -> const Reg<T>& { return result[i]; });
    }
  };
}

template <typename T>
void chain_apply_map(T* p, Index n, const std::function<T(T)>& fn) {
  for (Index i = 0; i < n; ++i) p[i] = fn(p[i]);
}

/// Stage `st` (with its prebuilt `plans`) lowered at `pl`: its SSAM body
/// plus its map as the sweep epilogue over the produced band.
template <typename T>
[[nodiscard]] BandSweep chain2d_sweep(const ChainStage<T>& st,
                                      const std::pair<SystolicPlan<T>, SystolicPlan<T>>& plans,
                                      Index w, int p, int block_threads,
                                      const SweepPlace<T>& pl) {
  BandSweep sw;
  if (st.dual()) {
    const GridView2D<const T> in(pl.in, w, pl.in_units, w);
    const GridView2D<T> out(pl.out, w, pl.origin + pl.store_off + pl.band, w);
    Stencil2dSetup s = stencil2d_setup(in, plans.first, StencilOptions{p, block_threads});
    s.row_origin = pl.origin;
    s.store_row_offset = pl.store_off;
    s.cfg.grid.y = static_cast<int>(ceil_div(pl.band, static_cast<Index>(p)));
    sw.cfg = s.cfg;
    sw.body = make_stencil2d_dual_body<T>(s, in, plans.first.passes.front(),
                                          plans.second.passes.front(), st.combine, out);
  } else {
    sw = stencil2d_sweep(plans.first, st.t, p, block_threads, w, pl);
  }
  if (st.map) {
    sw.epilogue = [base = pl.out_band(w), n = pl.band * w, fn = st.map] {
      chain_apply_map(base, n, fn);
    };
  }
  return sw;
}

}  // namespace detail

/// Runs the chain `stages` over `in` into `out` (distinct grids; `in` is
/// never written). Policy kAuto/kPersistent compiles a depth >= 2 chain
/// into one persistent run (stats.persistent = true); kRelaunch — and any
/// depth-1 chain, where there is no inter-stage flow to fuse — runs the
/// staged per-stage reference, ping-ponging intermediates through two relay
/// arrays carved from the workspace arena (one warm allocation for the
/// whole chain, not one per stage). `opt.t` is ignored: temporal depth is per-stage
/// (ChainStage::t). Fused and staged paths are bit-identical; sharding
/// applies to the fused path (a staged run executes on `opt.device`'s pool
/// or the global pool).
template <typename T>
PersistentRunStats run_chain2d(const sim::ArchSpec& arch, const Grid2D<T>& in,
                               Grid2D<T>& out, const std::vector<ChainStage<T>>& stages,
                               const PersistentOptions& opt = {},
                               sim::PersistentWorkspace* ws = nullptr) {
  SSAM_REQUIRE(!stages.empty(), "empty chain");
  SSAM_REQUIRE(in.width() == out.width() && in.height() == out.height(),
               "chain input/output grids must match");
  SSAM_REQUIRE(in.data() != out.data(), "chain input and output must be distinct grids");
  for (const ChainStage<T>& st : stages) detail::validate_chain_stage(st);
  const int k = static_cast<int>(stages.size());
  const Index w = in.width();

  detail::BandProgram<T> prog;
  prog.engine = "run_chain2d";
  prog.units = in.height();
  prog.unit_elems = w;
  // Uniform band-layout halo: the deepest reach on each side across the
  // stages. Every exchange carries the full depth; a shallower stage reads
  // its smaller window from the filled region.
  std::vector<std::pair<SystolicPlan<T>, SystolicPlan<T>>> plans;
  plans.reserve(stages.size());
  for (const ChainStage<T>& st : stages) {
    plans.push_back(detail::chain_stage_plans(st));
    const SystolicPlan<T>& plan = plans.back().first;
    prog.ht = std::max<Index>(prog.ht, static_cast<Index>(-st.t * plan.dy_min));
    prog.hb = std::max<Index>(prog.hb, static_cast<Index>(st.t * plan.dy_max));
  }
  prog.align = static_cast<Index>(opt.p);
  prog.min_band = std::max<Index>({prog.ht, prog.hb, 1});
  prog.src = in.data();
  prog.dst = out.data();
  prog.sweeps = k;
  prog.stages = k;
  prog.make = [&](int s, const detail::SweepPlace<T>& pl) {
    const auto i = static_cast<std::size_t>(s);
    return detail::chain2d_sweep(stages[i], plans[i], w, opt.p, opt.block_threads, pl);
  };
  return detail::run_program(arch, prog, opt, k >= 2 && detail::choose_persistent(opt.policy, k),
                             ws);
}

/// DAG front end for chain construction: nodes are whole kernels, edges
/// their data dependencies (core/dgraph.hpp one level up). `compile`
/// topologically orders the graph (creation order already is one — edges
/// only point backward) and lowers it onto a linear stage vector:
///  * a stencil node becomes a linear stage;
///  * a map node fuses into its producer stage's epilogue (a map straight
///    off the chain input becomes an identity stencil carrying the map);
///  * the two-branch diamond — two stencils reading the same producer,
///    joined by a combine that is their only consumer — becomes one dual
///    stage;
///  * anything else (fan-out > 2, cross-edges, multiple sinks) throws
///    PreconditionError: the graph is not linearizable onto the band
///    pipeline.
template <typename T>
class ChainGraph {
 public:
  /// The chain input node (id 0, created on first call).
  [[nodiscard]] int input() {
    if (nodes_.empty()) nodes_.push_back(Node{Kind::kInput, {-1, -1}, {}, {}, {}, 1});
    return 0;
  }

  [[nodiscard]] int stencil(int src, StencilShape<T> shape, int t = 1) {
    check_src(src);
    nodes_.push_back(Node{Kind::kStencil, {src, -1}, std::move(shape), {}, {}, t});
    return static_cast<int>(nodes_.size()) - 1;
  }

  [[nodiscard]] int map(int src, std::function<T(T)> fn) {
    check_src(src);
    nodes_.push_back(Node{Kind::kMap, {src, -1}, {}, {}, std::move(fn), 1});
    return static_cast<int>(nodes_.size()) - 1;
  }

  [[nodiscard]] int combine(int a, int b, std::function<T(T, T)> fn) {
    check_src(a);
    check_src(b);
    SSAM_REQUIRE(a != b, "combine needs two distinct inputs");
    nodes_.push_back(Node{Kind::kCombine, {a, b}, {}, std::move(fn), {}, 1});
    return static_cast<int>(nodes_.size()) - 1;
  }

  [[nodiscard]] std::vector<ChainStage<T>> compile() const {
    SSAM_REQUIRE(!nodes_.empty(), "empty chain graph");
    const int n = static_cast<int>(nodes_.size());
    std::vector<std::vector<int>> cons(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      for (int s : nodes_[static_cast<std::size_t>(i)].src) {
        if (s >= 0) cons[static_cast<std::size_t>(s)].push_back(i);
      }
    }
    int sinks = 0;
    for (int i = 0; i < n; ++i) {
      if (cons[static_cast<std::size_t>(i)].empty()) ++sinks;
    }
    SSAM_REQUIRE(sinks == 1, "chain graph must have exactly one output");

    std::vector<ChainStage<T>> stages;
    int visited = 1;
    int cur = 0;  // the input node
    // Absorbs any run of single-consumer map nodes after `from` into
    // `stage`'s epilogue; returns the last absorbed node.
    auto absorb_maps = [&](int from, ChainStage<T>& stage) {
      while (cons[static_cast<std::size_t>(from)].size() == 1) {
        const int c = cons[static_cast<std::size_t>(from)].front();
        if (nodes_[static_cast<std::size_t>(c)].kind != Kind::kMap) break;
        stage = stage.with_map(nodes_[static_cast<std::size_t>(c)].map);
        from = c;
        ++visited;
      }
      return from;
    };
    while (!cons[static_cast<std::size_t>(cur)].empty()) {
      const auto& cc = cons[static_cast<std::size_t>(cur)];
      if (cc.size() == 1) {
        const Node& c = nodes_[static_cast<std::size_t>(cc.front())];
        ChainStage<T> stage;
        if (c.kind == Kind::kStencil) {
          stage = ChainStage<T>::stencil(c.shape, c.t);
        } else if (c.kind == Kind::kMap) {
          // A map with no stencil to ride: an identity stencil carries it.
          StencilShape<T> id;
          id.name = "identity";
          id.taps.push_back({0, 0, 0, T{1}});
          stage = ChainStage<T>::stencil(std::move(id)).with_map(c.map);
        } else {
          SSAM_REQUIRE(false,
                       "combine must join two stencil branches of one producer");
        }
        ++visited;
        cur = absorb_maps(cc.front(), stage);
        stages.push_back(std::move(stage));
        continue;
      }
      SSAM_REQUIRE(cc.size() == 2,
                   "chain graph fans out beyond the two-branch combine diamond");
      const Node& a = nodes_[static_cast<std::size_t>(cc[0])];
      const Node& b = nodes_[static_cast<std::size_t>(cc[1])];
      SSAM_REQUIRE(a.kind == Kind::kStencil && b.kind == Kind::kStencil &&
                       a.t == 1 && b.t == 1,
                   "a combine diamond needs two plain stencil branches");
      SSAM_REQUIRE(cons[static_cast<std::size_t>(cc[0])].size() == 1 &&
                       cons[static_cast<std::size_t>(cc[1])].size() == 1 &&
                       cons[static_cast<std::size_t>(cc[0])].front() ==
                           cons[static_cast<std::size_t>(cc[1])].front(),
                   "the two branches must join in one combine node");
      const int jid = cons[static_cast<std::size_t>(cc[0])].front();
      const Node& join = nodes_[static_cast<std::size_t>(jid)];
      SSAM_REQUIRE(join.kind == Kind::kCombine, "branches must join in a combine");
      // Branch order follows the combine's arguments, not creation order.
      const Node& lhs = nodes_[static_cast<std::size_t>(join.src[0])];
      const Node& rhs = nodes_[static_cast<std::size_t>(join.src[1])];
      ChainStage<T> stage = ChainStage<T>::dual_stencil(lhs.shape, rhs.shape, join.combine);
      visited += 3;
      cur = absorb_maps(jid, stage);
      stages.push_back(std::move(stage));
    }
    SSAM_REQUIRE(visited == n, "chain graph has disconnected nodes");
    SSAM_REQUIRE(!stages.empty(), "chain graph produces no stages");
    return stages;
  }

 private:
  enum class Kind { kInput, kStencil, kMap, kCombine };
  struct Node {
    Kind kind;
    int src[2];
    StencilShape<T> shape;
    std::function<T(T, T)> combine;
    std::function<T(T)> map;
    int t;
  };

  void check_src(int src) const {
    SSAM_REQUIRE(src >= 0 && src < static_cast<int>(nodes_.size()),
                 "chain graph edge references an unknown node");
  }

  std::vector<Node> nodes_;
};

}  // namespace ssam::core
