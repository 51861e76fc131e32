#!/usr/bin/env python3
"""Bench-regression gate for bench_sim_throughput.

Compares a freshly produced sim-throughput JSON against the committed
baseline (BENCH_sim_throughput.json) and fails when

  * any kernel's blocks_per_sec regressed by more than the allowed fraction
    (the global --max-regression, or a per-kernel --threshold override), or
  * a kernel present in the committed baseline is missing from the fresh run
    (a silently dropped scenario must not pass the gate), or
  * a kernel named with --require is absent from either file — rows the CI
    gate depends on (autotuned_vs_default) must exist before they can be
    compared; without this, a never-added row reads as "NEW — skipped".

Kernels only present in the fresh run (new scenarios) are reported but never
fail; neither do improvements. Retiring a kernel intentionally requires
--allow-missing NAME (and, eventually, removing it from the baseline).

Usage:
  check_bench_regression.py BASELINE.json FRESH.json \
      [--max-regression 0.30] [--threshold NAME=FRAC]... \
      [--allow-missing NAME]... [--require NAME]...
"""

import argparse
import json
import sys


def load_kernels(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return {k["name"]: k for k in doc.get("kernels", [])}, doc


def parse_threshold(spec):
    name, sep, frac = spec.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected NAME=FRACTION, got {spec!r}"
        )
    return name, float(frac)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("fresh", help="freshly measured JSON")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="default maximum tolerated fractional drop in the metric "
        "(default 0.30)",
    )
    parser.add_argument(
        "--threshold",
        type=parse_threshold,
        action="append",
        default=[],
        metavar="NAME=FRAC",
        help="per-kernel override of --max-regression (repeatable), e.g. "
        "--threshold persistent_vs_relaunch_t4=0.50 for scenarios whose "
        "throughput depends on runner core count",
    )
    parser.add_argument(
        "--allow-missing",
        action="append",
        default=[],
        metavar="NAME",
        help="baseline kernel allowed to be absent from the fresh run "
        "(repeatable; for intentionally retired scenarios)",
    )
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="NAME",
        help="kernel that MUST be present in both the baseline and the fresh "
        "run (repeatable). Closes the 'NEW — skipped' gap: a scenario the "
        "gate is supposed to watch (e.g. autotuned_vs_default) cannot "
        "silently drop out of either file.",
    )
    parser.add_argument(
        "--metric", default="blocks_per_sec", help="kernel field to compare"
    )
    parser.add_argument(
        "--direction",
        choices=("higher", "lower"),
        default="higher",
        help="whether a higher or a lower metric is better (default higher); "
        "with 'lower' a regression is the metric *growing* past the limit, "
        "e.g. --metric p99_ms --direction lower for latency gates",
    )
    parser.add_argument(
        "--backend-mismatch-factor",
        type=float,
        default=2.0,
        help="multiply every regression limit by this factor when the two "
        "JSONs were produced by different SIMD lane backends (the committed "
        "baseline may carry AVX-512 wins a narrower runner cannot match); "
        "set to 1.0 to compare strictly (default 2.0)",
    )
    args = parser.parse_args()
    thresholds = dict(args.threshold)

    base, base_doc = load_kernels(args.baseline)
    fresh, fresh_doc = load_kernels(args.fresh)
    base_backend = base_doc.get("simd_backend", "?")
    fresh_backend = fresh_doc.get("simd_backend", "?")
    print(
        f"baseline host_threads={base_doc.get('host_threads')} "
        f"backend={base_backend}  "
        f"fresh host_threads={fresh_doc.get('host_threads')} "
        f"backend={fresh_backend}"
    )
    limit_scale = 1.0
    if base_backend != fresh_backend:
        limit_scale = args.backend_mismatch_factor
        print(
            f"SIMD backend mismatch ({base_backend} baseline vs {fresh_backend} "
            f"fresh): regression limits scaled x{limit_scale:g}"
        )

    failures = []
    missing = []
    for name in sorted(set(base) | set(fresh)):
        if name not in base:
            print(f"  {name:28s} NEW (no baseline) — skipped")
            continue
        if name not in fresh:
            if name in args.allow_missing:
                print(f"  {name:28s} MISSING from fresh run — allowed")
            else:
                print(f"  {name:28s} MISSING from fresh run — FAIL")
                missing.append(name)
            continue
        if args.metric not in base[name] or args.metric not in fresh[name]:
            # Rows in a mixed file don't all carry every metric (e.g. only
            # the open-loop server row has p99_ms) — not a failure.
            print(f"  {name:28s} no {args.metric} — skipped")
            continue
        b = float(base[name][args.metric])
        f = float(fresh[name][args.metric])
        if b <= 0:
            print(f"  {name:28s} baseline {args.metric} <= 0 — skipped")
            continue
        # Cap the scaled limit so a kernel whose per-kernel threshold is
        # already loose (e.g. a core-count-sensitive multi-worker row)
        # cannot end up effectively ungated under a backend mismatch.
        limit = min(0.80, thresholds.get(name, args.max_regression) * limit_scale)
        change = f / b - 1.0
        regressed = change > limit if args.direction == "lower" else change < -limit
        verdict = "ok"
        if regressed:
            verdict = "REGRESSION"
            failures.append((name, b, f, change, limit))
        limit_sign = "+" if args.direction == "lower" else "-"
        print(
            f"  {name:28s} {args.metric}: {b:12.1f} -> {f:12.1f}  "
            f"({change:+7.1%}, limit {limit_sign}{limit:.0%})  {verdict}"
        )

    required_absent = []
    for name in args.require:
        where = []
        if name not in base:
            where.append("baseline")
        if name not in fresh:
            where.append("fresh run")
        if where:
            required_absent.append((name, " and ".join(where)))

    ok = True
    if required_absent:
        ok = False
        print(f"\nFAIL: {len(required_absent)} required kernel(s) absent:")
        for name, where in required_absent:
            print(f"  {name}: missing from the {where}")
    if missing:
        ok = False
        print(
            f"\nFAIL: {len(missing)} baseline kernel(s) missing from the fresh "
            f"run: {', '.join(missing)}"
        )
    if failures:
        ok = False
        print(f"\nFAIL: {len(failures)} kernel(s) regressed in {args.metric}:")
        for name, b, f, change, limit in failures:
            print(f"  {name}: {b:.1f} -> {f:.1f} ({change:+.1%}, limit {limit:.0%})")
    if not ok:
        return 1
    print(f"\nOK: all baseline kernels present, none past their regression limit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
