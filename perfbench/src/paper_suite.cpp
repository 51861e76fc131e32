// paper_suite: the paper's own figure of merit, on a single thread.
//
// Each pass runs timing-mode launches of the Table-3 stencil suite (15
// stencils, 8192^2 / 512^3) and of conv2d 3x3..13x13 on the simulated V100
// in FP32, then estimates each runtime. It is the only workload that
// touches the timing simulator (scoreboard, memory system and caches,
// runtime model), and it catches a kernel change that speeds up the host
// path but adds simulated shuffles or DRAM bytes. Simulated counters are
// deterministic: every pass must reproduce the first one exactly.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/conv2d.hpp"
#include "core/stencil2d.hpp"
#include "core/stencil3d.hpp"
#include "core/stencil_suite.hpp"
#include "gpusim/timing.hpp"
#include "json.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using ssam::Grid2D;
using ssam::Grid3D;
namespace core = ssam::core;
namespace sim = ssam::sim;

struct Entry {
  std::string name;
  std::string cls;  // 2d_star, 2d_box, 3d, conv
  core::StencilShape<float> shape;
  int filter = 0;  // conv: filter side
  double cells = 0.0;
};

[[nodiscard]] std::string stencil_class(const core::StencilShape<float>& s) {
  if (s.dims == 3) return "3d";
  int x0 = 0, x1 = 0, y0 = 0, y1 = 0;
  for (const auto& t : s.taps) {
    x0 = std::min(x0, t.dx);
    x1 = std::max(x1, t.dx);
    y0 = std::min(y0, t.dy);
    y1 = std::max(y1, t.dy);
  }
  const auto bbox = static_cast<std::size_t>((x1 - x0 + 1) * (y1 - y0 + 1));
  return s.taps.size() == bbox ? "2d_box" : "2d_star";
}

class PaperSuite final : public Workload {
 public:
  explicit PaperSuite(const RunContext& ctx) : ctx_(ctx) {
    const double c2 = static_cast<double>(core::kSuiteDomain2D) * core::kSuiteDomain2D;
    const double c3 = static_cast<double>(core::kSuiteDomain3D) * core::kSuiteDomain3D *
                      core::kSuiteDomain3D;
    for (auto& s : core::stencil_suite<float>()) {
      Entry e;
      e.name = s.name;
      e.cls = stencil_class(s);
      e.cells = s.dims == 3 ? c3 : c2;
      e.shape = std::move(s);
      entries_.push_back(std::move(e));
    }
    for (int f = 3; f <= 13; f += 2) {
      Entry e;
      e.name = "conv" + std::to_string(f) + "x" + std::to_string(f);
      e.cls = "conv";
      e.filter = f;
      e.cells = c2;
      entries_.push_back(std::move(e));
    }
  }

  [[nodiscard]] int busy_threads() const override { return 1; }

  void setup() override {
    teardown();
    st_ = std::make_unique<State>();
    State& s = *st_;
    const ssam::Index n2 = core::kSuiteDomain2D;
    const ssam::Index n3 = core::kSuiteDomain3D;
    s.in2 = Grid2D<float>(n2, n2);
    s.out2 = Grid2D<float>(n2, n2);
    s.in3 = Grid3D<float>(n3, n3, n3);
    s.out3 = Grid3D<float>(n3, n3, n3);
    fill_seeded(s.in2.data(), static_cast<std::size_t>(s.in2.size()), ctx_.seed * 7 + 1);
    fill_seeded(s.in3.data(), static_cast<std::size_t>(s.in3.size()), ctx_.seed * 7 + 2);
    s.weights.resize(13 * 13);
    fill_seeded(s.weights.data(), s.weights.size(), ctx_.seed * 7 + 3);
    // The first pass is the reference every later pass must reproduce.
    for (const Entry& e : entries_) s.reference.push_back(launch(e));
  }

  void measure(double seconds, Tracer* tracer) override {
    State& s = *st_;
    Samples& m = smp_;
    const sim::ArchSpec& arch = sim::tesla_v100();
    m.entry_ms.resize(entries_.size());
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    for (bool first = true; first || ms_since(t0) < seconds * 1e3; first = false) {
      ScopedSpan pspan(tracer, "pass");
      const Clock::time_point p0 = Clock::now();
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry& e = entries_[i];
        const Clock::time_point l0 = Clock::now();
        sim::KernelStats st;
        {
          ScopedSpan span(tracer, "timing.launch." + e.name);
          st = launch(e);
        }
        const Clock::time_point l1 = Clock::now();
        sim::RuntimeEstimate est;
        {
          ScopedSpan span(tracer, "timing.estimate." + e.name);
          est = sim::estimate_runtime(arch, st);
        }
        const Clock::time_point l2 = Clock::now();
        ++m.attempted;
        if (!same_stats(st, s.reference[i]) || !std::isfinite(est.total_ms) ||
            est.total_ms <= 0.0) {
          std::fprintf(stderr, "paper_suite: %s differs from the first pass\n",
                       e.name.c_str());
          ++m.failed;
        }
        m.launch_ms[e.cls == "conv" ? "conv2d" : e.cls == "3d" ? "stencil3d" : "stencil2d"]
            .push_back(ms_between(l0, l1));
        m.estimate_us.push_back(ms_between(l1, l2) * 1e3);
        m.entry_ms[i].push_back(ms_between(l0, l2));
        m.cells += e.cells;
      }
      m.pass_ms.push_back(ms_since(p0));
    }
    m.cpu_s += cpu_seconds() - cpu0;
    m.reference = s.reference;
  }

  void finish(Result& out) override {
    const Samples m = std::exchange(smp_, Samples{});
    const sim::ArchSpec& arch = sim::tesla_v100();
    // One thread, closed loop: other guests of the host only ever add time
    // to a pass, in bursts that can cover most of a second. Rates and times
    // come from the fast passes (the 10th percentile), which show the
    // program rather than the neighbours.
    const double pass_ms = percentile(m.pass_ms, 10);
    double pass_cells = 0.0;
    for (const Entry& e : entries_) pass_cells += e.cells;

    // Simulated figures of the reference pass (exact counts).
    std::vector<double> gcells;
    std::map<std::string, std::vector<double>> gcells_by_class;
    std::vector<double> cycles;
    double shfl = 0.0;
    double dram = 0.0;
    double l2_hits = 0.0;
    double load_sectors = 0.0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const sim::KernelStats& st = m.reference[i];
      const double g = sim::gcells_per_s(entries_[i].cells, sim::estimate_runtime(arch, st));
      gcells.push_back(g);
      gcells_by_class[entries_[i].cls].push_back(g);
      cycles.push_back(st.cycles_per_block);
      shfl += static_cast<double>(st.totals.shfl_ops);
      dram += static_cast<double>(st.totals.dram_bytes());
      l2_hits += static_cast<double>(st.totals.l2_hit_sectors);
      load_sectors += static_cast<double>(st.totals.gmem_load_sectors);
    }

    out.attempted += m.attempted;
    out.failed += m.failed;
    out.e2e["cells_per_s"] = {pass_cells / (pass_ms * 1e-3), "cells/s"};
    out.e2e["jobs_per_s"] = {static_cast<double>(entries_.size()) / (pass_ms * 1e-3), "1/s"};
    // Closed loop: each launch is due when the previous one returns. The
    // median is over the suite's launches, each at its 10th-percentile
    // time across passes, like the pass time above. The suite has too few
    // launches for a p99 by the tail rule, so the tail is its slowest
    // launch, taken the same way.
    std::vector<double> entry_p10;
    for (const std::vector<double>& v : m.entry_ms) entry_p10.push_back(percentile(v, 10));
    out.e2e["sojourn_p50_ms"] = {median(entry_p10), "ms"};
    const Tail tail = tail_percentile(entry_p10, 99);
    out.e2e["sojourn_p99_ms"] = {tail.value, "ms"};
    out.layer["suite_p10_ms"] = {pass_ms, "ms"};
    out.e2e["sim_gcells_geomean"] = {geomean(gcells), "GCells/s"};
    out.headline = pass_ms;
    out.headline_higher_is_better = false;

    for (const char* c : {"stencil2d", "stencil3d", "conv2d"}) {
      out.layer[std::string("timing.launch_ms.") + c] = {median(m.launch_ms.at(c)), "ms"};
    }
    out.layer["timing.estimate_us"] = {median(m.estimate_us), "us"};
    out.layer["sim.shfl_per_cell"] = {shfl / pass_cells, "warp_ops/cell"};
    out.layer["sim.dram_bytes_per_cell"] = {dram / pass_cells, "bytes/cell"};
    out.layer["sim.l2_hit_frac"] = {l2_hits / load_sectors, "fraction"};
    out.layer["sim.cycles_per_block"] = {geomean(cycles), "cycles"};
    for (const char* c : {"2d_star", "2d_box", "3d", "conv"}) {
      out.layer[std::string("sim.gcells.") + c] = {geomean(gcells_by_class[c]), "GCells/s"};
    }
    out.layer["host.cpu_s_per_gcell"] = {m.cpu_s / (m.cells * 1e-9), "s/GCell"};

    out.notes["passes"] = json_number(static_cast<double>(m.pass_ms.size()));
    out.notes["launches"] = json_number(static_cast<double>(m.attempted));
    out.notes["sojourn_p99_supported"] = tail.supported ? "true" : "false";
  }

  void probe_layers(Tracer*, Result&) override {}

  void teardown() override { st_.reset(); }

 private:
  struct State {
    Grid2D<float> in2, out2;
    Grid3D<float> in3, out3;
    std::vector<float> weights;
    std::vector<sim::KernelStats> reference;
  };

  /// What measure() gathers across set-ups until finish().
  struct Samples {
    std::vector<double> pass_ms;
    std::vector<std::vector<double>> entry_ms;  // launch + estimate, by entry
    std::map<std::string, std::vector<double>> launch_ms;
    std::vector<double> estimate_us;
    std::vector<sim::KernelStats> reference;  // of the latest set-up
    double cells = 0.0;
    double cpu_s = 0.0;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
  };

  [[nodiscard]] sim::KernelStats launch(const Entry& e) {
    State& s = *st_;
    const sim::ArchSpec& arch = sim::tesla_v100();
    if (e.filter > 0) {
      return core::conv2d_ssam<float>(
          arch, s.in2.cview(),
          std::span<const float>(s.weights.data(), static_cast<std::size_t>(e.filter) * e.filter),
          e.filter, e.filter, s.out2.view(), {}, sim::ExecMode::kTiming);
    }
    if (e.shape.dims == 3) {
      return core::stencil3d_ssam<float>(arch, s.in3.cview(), e.shape, s.out3.view(), {},
                                         sim::ExecMode::kTiming);
    }
    return core::stencil2d_ssam<float>(arch, s.in2.cview(), e.shape, s.out2.view(), {},
                                       sim::ExecMode::kTiming);
  }

  [[nodiscard]] static bool same_stats(const sim::KernelStats& a, const sim::KernelStats& b) {
    return a.blocks_total == b.blocks_total && a.blocks_timed == b.blocks_timed &&
           a.cycles_per_block == b.cycles_per_block &&
           a.issue_slots_per_block == b.issue_slots_per_block &&
           std::memcmp(&a.totals, &b.totals, sizeof(sim::Counters)) == 0;
  }

  RunContext ctx_;
  std::vector<Entry> entries_;
  std::unique_ptr<State> st_;
  Samples smp_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_suite(const RunContext& ctx) {
  return std::make_unique<PaperSuite>(ctx);
}

}  // namespace perfbench
