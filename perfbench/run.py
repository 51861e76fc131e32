#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <iter_dram|serve_mixed|serve_light|paper_suite> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
simulator library and the benchmark (Release) under .bench_build/perfbench;
later calls rebuild incrementally. Build output goes to stderr. Reports,
traces and the private tune cache go to .bench_out/. The last line on stdout
is the benchmark's JSON result; the exit code is nonzero when the build
fails, the sources are missing, or any output mismatched its oracle.

--selftest runs the benchmark's own unit tests and checks that the metric
names, units and directions the binary reports match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("iter_dram", "serve_mixed", "serve_light", "paper_suite")
RUN_TIMEOUT_S = 170  # one run must end within 180 s once built


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root: Path) -> Path:
    if not (root / "CMakeLists.txt").is_file() or not (root / "src" / "core" / "job.hpp").is_file():
        fail(f"no simulator sources under {root}; run from a full checkout")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        cfg = subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target", "perfbench",
         "perfbench_selftest"],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        fail("build failed")
    return build_dir


def selftest(root: Path, build_dir: Path) -> int:
    rc = subprocess.run([str(build_dir / "perfbench_selftest")]).returncode
    listed = subprocess.run([str(build_dir / "perfbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True).stdout.split("\n")
    have = {"end_to_end": set(), "per_layer": set()}
    for line in listed:
        if line.strip():
            kind, name, unit, better = line.split()
            have[kind].add((name, unit, better))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for kind in have:
        want = {(m["name"], m["unit"], m["better"]) for m in spec[kind]}
        ok = want == have[kind]
        print(f"[{'PASS' if ok else 'FAIL'}] {kind} metrics (name, unit, better) "
              f"match BENCHMARK.json")
        if not ok:
            print(f"  only in binary: {sorted(have[kind] - want)}; "
                  f"only in BENCHMARK.json: {sorted(want - have[kind])}")
            rc = rc or 1
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = build(root)
    if args.selftest:
        sys.exit(selftest(root, build_dir))
    if args.workload is None:
        fail("--workload is required")
    if args.seed < 0:
        fail("--seed must be non-negative")

    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out", str(root / ".bench_out")]
    try:
        # run() kills the child and waits for it when the timeout expires.
        res = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    last = res.stdout.rstrip("\n").split("\n")[-1]
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        sys.stdout.write(res.stdout)
        fail(f"benchmark exited {res.returncode} without a result line")
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
