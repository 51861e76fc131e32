#!/usr/bin/env python3
"""A/B speed gate: the benchmark's end-to-end metrics, one revision against another.

    python3 tools/ab.py BASE HEAD [--workload W]...
    python3 tools/ab.py --selftest

Checks BASE and HEAD out into two detached git worktrees in a temporary
directory and runs each checkout's own perfbench/run.py, so each side is
built and measured by the benchmark code it ships. For every workload it runs
10 pairs. BASE runs first in even pairs and HEAD first in odd ones, and every
run uses seed 1. The run length (`run_seconds`), the workloads and
the end-to-end metrics with their bounds come from BASE's BENCHMARK.json.

For each workload x end-to-end metric it prints both medians, their ratio,
the pairs HEAD won (ties count for neither side), BASE's interquartile range
(IQR) and the first verdict that applies:

  regressed     HEAD failed a larger share of operations.
  gain          HEAD's median is better, HEAD wins at least 9 of every 10
                pairs, and the medians differ by more than BASE's IQR.
  unresolved    BASE's IQR exceeds the bound (relative to its median), so the
                runs cannot tell a change of that size, and not every HEAD
                run beats every BASE run.
  regressed     HEAD's median is worse than BASE's by more than the metric's
                bound.
  within bound  anything else.

The exit status is 1 when any verdict is "regressed", 2 when a revision or
the benchmark cannot be run, and 0 otherwise. --selftest checks the verdict
rule on synthetic pairs and needs neither git nor a build.
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 10
SEED = 1


def compare(base, head, better, bound, base_failed=0.0, head_failed=0.0):
    """Medians, ratio, HEAD's pair wins, BASE's IQR and the verdict for one
    metric. `base` and `head` hold one value per pair, in pair order; the
    failed shares are per side, over every run of the workload."""
    sign = 1.0 if better == "higher" else -1.0
    mb, mh = statistics.median(base), statistics.median(head)
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    iqr = q3 - q1
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    scale = abs(mb) or 1.0
    row = {"base": mb, "head": mh, "ratio": mh / mb if mb else float("nan"),
           "wins": wins, "pairs": len(base), "iqr": iqr}
    if head_failed > base_failed:
        row["verdict"] = "regressed"
    elif sign * (mh - mb) > 0 and 10 * wins >= 9 * len(base) and abs(mh - mb) > iqr:
        row["verdict"] = "gain"
    elif iqr / scale > bound and not (min(sign * h for h in head) > max(sign * b for b in base)):
        row["verdict"] = "unresolved"
    elif sign * (mb - mh) / scale > bound:
        row["verdict"] = "regressed"
    else:
        row["verdict"] = "within bound"
    return row


def selftest():
    def check(name, base, head, better, bound, want, base_failed=0.0, head_failed=0.0):
        got = compare(base, head, better, bound, base_failed, head_failed)["verdict"]
        print(f"[{'PASS' if got == want else 'FAIL'}] {name}: {got} (want {want})")
        return got == want

    flat = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 65.0, 135.0]
    ok = all([
        check("gain: 10/10 pairs, shift beyond the IQR", flat,
              [v * 1.10 for v in flat], "higher", 0.25, "gain"),
        check("gain on a lower-is-better metric", flat,
              [v * 0.90 for v in flat], "lower", 0.25, "gain"),
        check("regressed: median 30% worse, bound 25%", flat,
              [v * 1.30 for v in flat], "lower", 0.25, "regressed"),
        check("within bound: 5% worse, bound 25%", flat,
              [v * 0.95 for v in flat], "higher", 0.25, "within bound"),
        check("unresolved: parent spread wider than the bound", wide,
              [v * 1.02 for v in wide], "higher", 0.25, "unresolved"),
        check("unresolved: spread wider than the bound, median 30% worse", wide,
              [v * 1.30 for v in wide], "lower", 0.25, "unresolved"),
        check("not unresolved: every change run beats every parent run", wide,
              [v + 100.0 for v in wide], "higher", 0.25, "gain"),
        check("regressed: higher failed share, metrics unchanged", flat, list(flat),
              "higher", 0.25, "regressed", base_failed=0.0, head_failed=0.001),
        check("regressed: higher failed share despite a wide spread", wide, list(wide),
              "higher", 0.25, "regressed", base_failed=0.0, head_failed=0.001),
        check("within bound: identical runs", flat, list(flat), "higher", 0.02,
              "within bound"),
    ])
    return 0 if ok else 1


def git(*args, cwd=None):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(tree, workload, seconds):
    """One benchmark run in checkout `tree`: its result line, or a run that
    counts as one failed operation when the benchmark gives no result."""
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(SEED), "--seconds", repr(seconds)],
                         cwd=tree, capture_output=True, text=True)
    lines = res.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if isinstance(result, dict) and "metrics" in result:
            return result
    except ValueError:
        pass
    sys.stderr.write(res.stderr[-4000:])
    print(f"ab.py: {tree.name} {workload}: no result line "
          f"(exit {res.returncode}); counted as one failed operation", file=sys.stderr)
    return {"attempted": 1, "failed": 1, "metrics": {}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("head", nargs="?")
    ap.add_argument("--workload", action="append",
                    help="gated workload to run (repeatable; default: all gated workloads)")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.base is None or args.head is None:
        ap.error("BASE and HEAD are required")

    try:
        top = Path(git("rev-parse", "--show-toplevel"))
        revs = [git("rev-parse", "--verify", f"{r}^{{commit}}", cwd=top)
                for r in (args.base, args.head)]
    except subprocess.CalledProcessError as e:
        print(f"ab.py: {e.stderr.strip()}", file=sys.stderr)
        return 2

    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    trees = [tmp / "base", tmp / "head"]
    try:
        for tree, rev in zip(trees, revs):
            git("worktree", "add", "--detach", str(tree), rev, cwd=top)
        spec = json.loads((trees[0] / "BENCHMARK.json").read_text())
        gated = [w["name"] for w in spec["workloads"]]
        workloads = args.workload or gated
        unknown = sorted(set(workloads) - set(gated))
        if unknown:
            print(f"ab.py: not a gated workload of BENCHMARK.json: {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        seconds = spec["run_seconds"]

        regressed = False
        for workload in workloads:
            runs = [[], []]  # runs[side][pair]
            for i in range(PAIRS):
                order = (0, 1) if i % 2 == 0 else (1, 0)
                for side in order:
                    runs[side].append(run_once(trees[side], workload, seconds))
            shares = [sum(r["failed"] for r in side) / max(1, sum(r["attempted"] for r in side))
                      for side in runs]
            print(f"\n{workload}: {PAIRS} pairs of {seconds:g} s runs, seed {SEED}; "
                  f"base {revs[0][:12]}, head {revs[1][:12]}")
            print(f"{'metric':<20} {'base median':>12} {'head median':>12} {'ratio':>7} "
                  f"{'head wins':>9} {'base IQR':>10}  verdict")
            for m in spec["end_to_end"]:
                pairs = [(b["metrics"][m["name"]]["value"], h["metrics"][m["name"]]["value"])
                         for b, h in zip(*runs)
                         if m["name"] in b["metrics"] and m["name"] in h["metrics"]]
                if len(pairs) < 2:
                    print(f"{m['name']:<20} {'(too few runs reported it)':>53}  regressed")
                    regressed = True
                    continue
                row = compare([b for b, _ in pairs], [h for _, h in pairs], m["better"],
                              m["bound"], *shares)
                regressed |= row["verdict"] == "regressed"
                print(f"{m['name']:<20} {row['base']:>12.5g} {row['head']:>12.5g} "
                      f"{row['ratio']:>7.3f} {row['wins']:>4}/{row['pairs']:<4} "
                      f"{row['iqr']:>10.3g}  {row['verdict']}")
            print(f"{'failed share':<20} {shares[0]:>12.3g} {shares[1]:>12.3g}"
                  f"{'':>29}  {'regressed' if shares[1] > shares[0] else 'within bound'}")
        return 1 if regressed else 0
    except (subprocess.CalledProcessError, OSError, KeyError, ValueError) as e:
        detail = getattr(e, "stderr", None) or e
        print(f"ab.py: {detail}", file=sys.stderr)
        return 2
    finally:
        for tree in trees:
            if tree.exists():
                subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=top,
                               capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=top, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
