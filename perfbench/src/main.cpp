// perfbench: the repository's benchmark program.
//
//   perfbench --workload <iter_dram|serve_mixed|serve_light|paper_suite> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//   perfbench --list-metrics
//
// --trace 0 sets the workload up Workload::setups() times (set-up time is
// their median), measures it untraced for an equal share of `seconds` after
// each set-up and prints every end-to-end metric over the pooled samples.
// --trace 1 sets it up once, measures it untraced and then traced (the
// difference prices tracing), probes its single layers, then runs the other
// workloads of iter_dram, serve_mixed and paper_suite as short traced probes
// so that every per-layer metric is present (serve_light has serve_mixed's
// layers); it writes a Chrome trace and a self-time table. Either way the last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Any
// output mismatch makes the exit code nonzero.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "host.hpp"
#include "json.hpp"
#include "metrics.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace pb = perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out = ".bench_out";
  bool list = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<iter_dram|serve_mixed|serve_light|paper_suite> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--list-metrics") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      std::size_t used = 0;
      if (k == "--workload") {
        a.workload = v;
        have_workload = true;
        used = v.size();
      } else if (k == "--seed") {
        a.seed = std::stoull(v, &used);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v, &used);
      } else if (k == "--trace") {
        a.trace = std::stoi(v, &used);
      } else if (k == "--out") {
        a.out = v;
        used = v.size();
      } else {
        usage("unknown option " + k);
      }
      if (used != v.size()) usage("malformed value for " + k + ": " + v);
    } catch (const std::exception&) {
      usage("malformed value for " + k + ": " + v);
    }
  }
  if (a.list) return a;
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

std::unique_ptr<pb::Workload> make(const std::string& name, const pb::RunContext& ctx) {
  if (name == "iter_dram") return pb::make_iter_dram(ctx);
  if (name == "serve_mixed") return pb::make_serve_mixed(ctx);
  if (name == "serve_light") return pb::make_serve_light(ctx);
  if (name == "paper_suite") return pb::make_paper_suite(ctx);
  usage("unknown workload " + name);
}

std::string metrics_json(const std::map<std::string, pb::Metric>& m) {
  std::map<std::string, std::string> kv;
  for (const auto& [name, metric] : m) {
    kv[name] = "{\"value\": " + pb::json_number(metric.value) +
               ", \"unit\": " + pb::json_string(metric.unit) + "}";
  }
  return pb::json_object(kv);
}

/// Keeps exactly the names in `want`; false if one is missing or carries
/// another unit than declared.
bool select(const std::map<std::string, pb::Metric>& have,
            const std::vector<pb::MetricSpec>& want, std::map<std::string, pb::Metric>& out) {
  bool ok = true;
  for (const pb::MetricSpec& w : want) {
    const auto it = have.find(w.name);
    if (it == have.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", w.name);
      ok = false;
      continue;
    }
    if (it->second.unit != w.unit) {
      std::fprintf(stderr, "perfbench: metric %s measured in %s, declared in %s\n", w.name,
                   it->second.unit.c_str(), w.unit);
      ok = false;
    }
    out[w.name] = it->second;
  }
  return ok;
}

int run(const Args& args) {
  const int nproc = std::max(1u, std::thread::hardware_concurrency());
  std::filesystem::create_directories(args.out);
  const std::string tag = args.workload + "-seed" + std::to_string(args.seed);
  // The library reads its SSAM_* knobs once, at first use: pin them before
  // any call. nproc-1 pool workers plus the participating caller keep nproc
  // threads busy; the autotuner gets a private cache file.
  setenv("SSAM_THREADS", std::to_string(std::max(1, nproc - 1)).c_str(), 1);
  setenv("SSAM_TUNE_CACHE", (args.out + "/tune-cache-" + tag + ".json").c_str(), 1);
  unsetenv("SSAM_FAULT_SPEC");
  unsetenv("SSAM_TUNE_TOPK");

  const pb::CpuTicks ticks0 = pb::cpu_ticks();
  const pb::RunContext ctx{args.seed, nproc};
  std::unique_ptr<pb::Workload> w = make(args.workload, ctx);
  pb::Result res;
  std::vector<double> setup_s;
  std::map<std::string, std::string> report;

  if (args.trace == 0) {
    // Measuring a share of the run after each set-up pools samples over
    // several allocations, so one unlucky memory layout moves the result
    // less.
    const int setups = w->setups();
    for (int i = 0; i < setups; ++i) {
      const pb::Clock::time_point t = pb::Clock::now();
      w->setup();
      setup_s.push_back(pb::ms_since(t) * 1e-3);
      w->measure(args.seconds / setups, nullptr);
    }
    w->finish(res);
    res.e2e["setup_s"] = {pb::median(setup_s), "s"};
    res.e2e["peak_rss_mb"] = {pb::peak_rss_mb(), "MB"};
    w->teardown();
  } else {
    const pb::Clock::time_point t = pb::Clock::now();
    w->setup();
    setup_s.push_back(pb::ms_since(t) * 1e-3);
    pb::Result untraced;
    w->measure(args.seconds, nullptr);
    w->finish(untraced);
    pb::Tracer tracer;
    w->measure(args.seconds, &tracer);
    w->finish(res);
    w->probe_layers(&tracer, res);
    w->teardown();
    res.attempted += untraced.attempted;
    res.failed += untraced.failed;
    const double overhead = res.headline_higher_is_better
                                ? untraced.headline / res.headline - 1.0
                                : res.headline / untraced.headline - 1.0;
    res.layer["trace_overhead_frac"] = {overhead, "fraction"};
    report["untraced_e2e"] = metrics_json(untraced.e2e);
    // The other workloads as short traced probes: their layers' metrics.
    for (const char* other : {"iter_dram", "serve_mixed", "paper_suite"}) {
      if (args.workload == other) continue;
      std::unique_ptr<pb::Workload> o = make(other, ctx);
      pb::Result r;
      {
        pb::ScopedSpan span(&tracer, std::string("probe.workload.") + other);
        o->setup();
        o->measure(1.0, &tracer);
        o->finish(r);
        o->probe_layers(&tracer, r);
        o->teardown();
      }
      res.attempted += r.attempted;
      res.failed += r.failed;
      for (const auto& [name, m] : r.layer) res.layer.emplace(name, m);
    }
    const std::string trace_path = args.out + "/trace-" + tag + ".json";
    if (!tracer.write_chrome(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      return 2;
    }
    std::string table = "span                                     count    total_ms     self_ms\n";
    for (const auto& row : tracer.self_times()) {
      char line[256];
      std::snprintf(line, sizeof line, "%-40s %6lld %11.3f %11.3f\n", row.name.c_str(),
                    static_cast<long long>(row.count), row.total_ms, row.self_ms);
      table += line;
    }
    std::ofstream(args.out + "/selftime-" + tag + ".txt") << table;
    std::printf("self time by span (trace: %s)\n%s", trace_path.c_str(), table.c_str());
    report["trace_file"] = pb::json_string(trace_path);
    report["trace_spans"] = pb::json_number(static_cast<double>(tracer.size()));
  }

  std::map<std::string, pb::Metric> shown;
  const bool complete = args.trace == 0 ? select(res.e2e, pb::end_to_end_metrics(), shown)
                                        : select(res.layer, pb::per_layer_metrics(), shown);
  if (!complete) return 3;

  // Share of host CPU time the hypervisor gave to other guests during the
  // run: the usual cause of a noisy result on a shared machine.
  const pb::CpuTicks ticks1 = pb::cpu_ticks();
  const double ticks = ticks1.total - ticks0.total;
  res.notes["host_steal_frac"] =
      pb::json_number(ticks > 0.0 ? (ticks1.steal - ticks0.steal) / ticks : 0.0);
  const std::string host = pb::host_json(w->busy_threads());
  report["workload"] = pb::json_string(args.workload);
  report["seed"] = pb::json_number(static_cast<double>(args.seed));
  report["seconds"] = pb::json_number(args.seconds);
  report["trace"] = pb::json_number(args.trace);
  report["host"] = host;
  report["e2e"] = metrics_json(res.e2e);
  report["per_layer"] = metrics_json(res.layer);
  std::string samples = "[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    samples += (i > 0 ? ", " : "") + pb::json_number(setup_s[i]);
  }
  report["setup_s_samples"] = samples + "]";
  report["attempted"] = pb::json_number(static_cast<double>(res.attempted));
  report["failed"] = pb::json_number(static_cast<double>(res.failed));
  report["failed_frac"] = pb::json_number(
      res.attempted > 0 ? static_cast<double>(res.failed) / static_cast<double>(res.attempted)
                        : 1.0);
  report["notes"] = pb::json_object(res.notes);
  const std::string report_path =
      args.out + "/report-" + tag + "-trace" + std::to_string(args.trace) + ".json";
  std::ofstream(report_path) << pb::json_object(report) << '\n';

  std::printf("host %s\n", host.c_str());
  for (const auto& [name, m] : res.notes) std::printf("note %s = %s\n", name.c_str(), m.c_str());
  for (const auto& [name, m] : shown) {
    std::printf("metric %-34s %22.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("report %s\n", report_path.c_str());
  const bool correct = res.failed == 0 && res.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed), metrics_json(shown).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.list) {
    for (const auto& m : pb::end_to_end_metrics()) {
      std::printf("end_to_end %s %s %s\n", m.name, m.unit, m.better);
    }
    for (const auto& m : pb::per_layer_metrics()) {
      std::printf("per_layer %s %s %s\n", m.name, m.unit, m.better);
    }
    return 0;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
